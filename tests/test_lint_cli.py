"""The ``repro lint`` subcommand and the ``staleness`` build artifact."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

#: Structurally clean under region-bearing configs.
CLEAN = """\
inputs temp;

fn main() {
  let t = input(temp);
  Fresh(t);
  let u = t + 1;
  log(u);
}
"""

#: The required input executes on one branch arm only: DOOMED when the
#: probe environment skips the arm.
DOOMED = """\
inputs cond, temp;

fn main() {
  let t = 0;
  let c = input(cond);
  if c > 0 {
    t = input(temp);
  }
  Fresh(t);
  log(t);
}
"""


@pytest.fixture()
def source_file(tmp_path):
    def write(text: str):
        path = tmp_path / "prog.ocl"
        path.write_text(text)
        return str(path)

    return write


class TestLint:
    def test_clean_program_exits_zero(self, source_file, capsys):
        assert main(["lint", source_file(CLEAN)]) == 0
        out = capsys.readouterr().out
        assert "safe: 1" in out
        assert "SAFE" in out

    def test_doomed_program_gates(self, source_file, capsys):
        assert main(["lint", source_file(DOOMED), "--config", "jit"]) == 1
        out = capsys.readouterr().out
        assert "DOOMED" in out
        assert "witness" in out

    def test_fail_on_never_disarms_the_gate(self, source_file):
        assert (
            main(
                [
                    "lint",
                    source_file(DOOMED),
                    "--config",
                    "jit",
                    "--fail-on",
                    "never",
                ]
            )
            == 0
        )

    def test_fail_on_warning_catches_env_dependent(self, source_file):
        # Under jit nothing is must-available: ENV-DEPENDENT warnings.
        assert (
            main(
                [
                    "lint",
                    source_file(CLEAN),
                    "--config",
                    "jit",
                    "--fail-on",
                    "warning",
                ]
            )
            == 1
        )
        assert main(["lint", source_file(CLEAN), "--config", "jit"]) == 0

    def test_set_binding_flips_probe_verdict(self, source_file, capsys):
        # cond=1 takes the arm: the probe no longer sees a firing-
        # without-failure, and the constant environment proves nothing
        # fires under it -- but jit has no regions, so the env proof
        # cannot promote to SAFE; the verdict degrades to a warning.
        assert (
            main(
                [
                    "lint",
                    source_file(DOOMED),
                    "--config",
                    "jit",
                    "--set",
                    "cond=1",
                    "--set",
                    "temp=5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "doomed: 0" in out
        assert "ENV-DEPENDENT" in out

    def test_json_format_is_machine_readable(self, source_file, capsys):
        assert (
            main(
                [
                    "lint",
                    source_file(DOOMED),
                    "--config",
                    "jit",
                    "--format",
                    "json",
                    "--fail-on",
                    "never",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["config"] == "jit"
        assert data["summary"]["doomed"] == 1
        (verdict,) = data["verdicts"]
        assert verdict["verdict"] == "doomed"
        assert verdict["level"] == "error"
        assert verdict["witness"]

    def test_window_override_changes_report(self, source_file, capsys):
        assert (
            main(
                [
                    "lint",
                    source_file(CLEAN),
                    "--window",
                    "123456",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["window_cycles"] == 123456

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_window_below_one_is_a_parse_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "tire", "--window", value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # argparse's usage, then the one error line
        assert captured.err.splitlines()[-1] == (
            f"repro lint: error: argument --window: must be >= 1, got {value}"
        )

    def test_benchmark_names_resolve(self, capsys):
        assert main(["lint", "tire"]) == 0
        out = capsys.readouterr().out
        assert "24 check(s)" in out

    def test_metrics_out_records_verdict_counts(self, source_file, tmp_path):
        metrics = tmp_path / "m.json"
        assert (
            main(
                [
                    "lint",
                    source_file(CLEAN),
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        data = json.loads(metrics.read_text())
        assert data["counters"]["lint.safe"] == 1


class TestStalenessArtifact:
    def test_build_emit_staleness(self, source_file, capsys):
        assert (
            main(["build", source_file(CLEAN), "--emit", "staleness"]) == 0
        )
        out = capsys.readouterr().out
        assert "lint:" in out
        assert "SAFE" in out

    def test_artifact_listed_in_registry(self):
        from repro.core.passes.artifacts import artifact_names

        assert "staleness" in artifact_names()


class TestGuidedVerify:
    def test_guided_flag_matches_unguided_verdict(self, source_file, capsys):
        target = source_file(DOOMED)
        plain = main(["verify", target, "--config", "jit"])
        plain_out = capsys.readouterr().out
        guided = main(["verify", target, "--config", "jit", "--guided"])
        guided_out = capsys.readouterr().out
        assert plain == guided == 1  # counterexample found both ways
        assert "verdict     : counterexample" in plain_out
        assert "verdict     : counterexample" in guided_out
