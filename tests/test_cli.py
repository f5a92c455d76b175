"""CLI tests (`python -m repro`)."""

import pytest

from repro.cli import main

GOOD_MANUAL = """\
inputs a, b;

fn main() {
  atomic {
    let consistent(1) x = input(a);
    let consistent(1) y = input(b);
  }
  log(x, y);
}
"""

ANNOTATED = """\
inputs temp;

fn main() {
  let t = input(temp);
  Fresh(t);
  if t > 10 { alarm(); }
  log(t);
}
"""

HEAVY_REGION = """\
fn main() {
  atomic { work(999999); }
}
"""


@pytest.fixture()
def source_file(tmp_path):
    def write(text: str):
        path = tmp_path / "prog.ocl"
        path.write_text(text)
        return str(path)

    return write


class TestCompile:
    def test_compile_default_ocelot(self, source_file, capsys):
        assert main(["compile", source_file(ANNOTATED)]) == 0
        out = capsys.readouterr().out
        assert "checker     : PASS" in out
        assert "region " in out

    def test_compile_jit_reports_failures_but_exits_zero(
        self, source_file, capsys
    ):
        assert main(["compile", source_file(ANNOTATED), "--config", "jit"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_compile_ir_dump(self, source_file, capsys):
        main(["compile", source_file(ANNOTATED), "--ir"])
        out = capsys.readouterr().out
        assert "atomic_start" in out
        assert "annot fresh(t)" in out

    def test_compile_policies_dump(self, source_file, capsys):
        main(["compile", source_file(ANNOTATED), "--policies"])
        out = capsys.readouterr().out
        assert "policy fresh@" in out


class TestBuild:
    def test_build_defaults_to_summary(self, source_file, capsys):
        assert main(["build", source_file(ANNOTATED)]) == 0
        out = capsys.readouterr().out
        assert "config      : ocelot" in out
        assert "checker     : PASS" in out

    def test_build_accepts_benchmark_names(self, capsys):
        assert main(["build", "greenhouse", "--emit", "timings"]) == 0
        out = capsys.readouterr().out
        assert "infer-regions" in out
        assert "total" in out

    def test_build_emits_multiple_artifacts(self, source_file, capsys):
        code = main(
            ["build", source_file(ANNOTATED), "--emit", "ir,regions",
             "--emit", "diagnostics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "== ir ==" in out
        assert "== regions ==" in out
        assert "== diagnostics ==" in out
        assert "atomic_start" in out

    def test_build_every_registered_artifact(self, source_file, capsys):
        from repro.core.passes import ARTIFACTS

        code = main(
            ["build", source_file(ANNOTATED), "--emit", ",".join(sorted(ARTIFACTS))]
        )
        assert code == 0
        out = capsys.readouterr().out
        for kind in ARTIFACTS:
            assert f"== {kind} ==" in out

    def test_build_unknown_artifact_reports_known(self, source_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["build", source_file(ANNOTATED), "--emit", "bytecode"])
        assert "known:" in str(excinfo.value)

    def test_build_unknown_target_reports_benchmarks(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["build", "nonesuch.ocl"])
        assert "greenhouse" in str(excinfo.value)

    def test_unknown_config_lists_registered_names(self, source_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["compile", source_file(ANNOTATED), "--config", "turbo"])
        message = str(excinfo.value)
        assert "unknown build configuration 'turbo'" in message
        assert "ocelot" in message and "jit" in message and "atomics" in message
        assert "\n" not in message  # one-line error

    def test_derived_config_via_cli(self, source_file, capsys):
        code = main(
            ["build", source_file(ANNOTATED), "--config", "ocelot-noguard"]
        )
        assert code == 0
        assert "config      : ocelot-noguard" in capsys.readouterr().out


class TestCheck:
    def test_good_manual_regions_pass(self, source_file, capsys):
        assert main(["check", source_file(GOOD_MANUAL)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_uncovered_annotation_fails(self, source_file, capsys):
        assert main(["check", source_file(ANNOTATED)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestRun:
    def test_run_with_constant_bindings(self, source_file, capsys):
        code = main(
            ["run", source_file(ANNOTATED), "--set", "temp=42"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alarm()" in out
        assert "log(42)" in out

    def test_run_with_stepping_signal(self, source_file, capsys):
        code = main(
            ["run", source_file(ANNOTATED), "--set", "temp=1,99:50"]
        )
        assert code == 0

    def test_run_defaults_unbound_channels_to_zero(self, source_file, capsys):
        assert main(["run", source_file(ANNOTATED)]) == 0
        out = capsys.readouterr().out
        assert "log(0)" in out

    def test_run_intermittent(self, source_file, capsys):
        code = main(
            [
                "run",
                source_file(ANNOTATED),
                "--set",
                "temp=42",
                "--intermittent",
                "--seed",
                "3",
            ]
        )
        assert code == 0

    def test_bad_set_spec(self, source_file):
        with pytest.raises(SystemExit):
            main(["run", source_file(ANNOTATED), "--set", "oops"])

    def test_non_integer_value_reports_clear_error(self, source_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", source_file(ANNOTATED), "--set", "temp=warm"])
        message = str(excinfo.value)
        assert "bad --set 'temp=warm'" in message
        assert "integer" in message

    def test_non_integer_step_level_reports_clear_error(self, source_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", source_file(ANNOTATED), "--set", "temp=1,hot:50"])
        message = str(excinfo.value)
        assert "bad --set 'temp=1,hot:50'" in message
        assert "comma-separated integers" in message

    def test_non_integer_dwell_reports_clear_error(self, source_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", source_file(ANNOTATED), "--set", "temp=1,2:fast"])
        message = str(excinfo.value)
        assert "bad --set 'temp=1,2:fast'" in message
        assert "dwell" in message


class TestFeasibility:
    def test_feasible_program(self, source_file, capsys):
        assert main(["feasibility", source_file(ANNOTATED)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_infeasible_region(self, source_file, capsys):
        assert main(["feasibility", source_file(HEAVY_REGION)]) == 1
        out = capsys.readouterr().out
        assert "INFEASIBLE" in out


class TestCampaign:
    SPEC = {
        "name": "cli-smoke",
        "apps": ["cem"],
        "configs": ["ocelot", "jit"],
        "environments": [{"name": "default", "env_seed": 0}],
        "supplies": [{"name": "harvest", "kind": "harvest", "seed_offset": 23}],
        "seeds": [0],
        "budget_cycles": 30000,
    }

    @pytest.fixture()
    def spec_file(self, tmp_path):
        import json

        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_campaign_writes_json_report(self, spec_file, tmp_path, capsys):
        import json

        out = tmp_path / "report.json"
        assert main(["campaign", spec_file, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["spec"]["name"] == "cli-smoke"
        assert len(report["jobs"]) == 2
        assert "Campaign 'cli-smoke'" in capsys.readouterr().out

    def test_campaign_defaults_to_stdout(self, spec_file, capsys):
        import json

        assert main(["campaign", spec_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {job["config"] for job in report["jobs"]} == {"ocelot", "jit"}

    def test_campaign_jobs_run_on_workers(self, spec_file, capsys):
        import json

        def jobs(report):
            for job in report["jobs"]:
                del job["wall_time"], job["compile_cached"]
            return report["jobs"]

        assert main(["campaign", spec_file]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["campaign", spec_file, "--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial["executor"] == "serial"
        assert parallel["executor"] == "multiprocess"
        assert jobs(parallel) == jobs(serial)

    def test_bad_spec_reports_clear_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", str(path)])
        assert "bad campaign spec" in str(excinfo.value)


class TestFleet:
    SPEC = {
        "name": "cli-fleet",
        "fleet_seed": 3,
        "budget_cycles": 12000,
        "classes": [
            {
                "name": "tire",
                "app": "tire",
                "config": "ocelot",
                "count": 3,
                "harvest_jitter": 0.3,
            },
            {"name": "cem", "app": "cem", "config": "jit", "count": 2},
        ],
    }

    @pytest.fixture()
    def spec_file(self, tmp_path):
        import json

        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_fleet_writes_json_report(self, spec_file, tmp_path, capsys):
        import json

        out = tmp_path / "fleet-report.json"
        assert main(["fleet", spec_file, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["spec"]["name"] == "cli-fleet"
        assert report["devices"] == 5
        assert set(report["aggregate"]["classes"]) == {"tire", "cem"}
        assert "Fleet 'cli-fleet'" in capsys.readouterr().out

    def test_fleet_devices_rescales(self, spec_file, capsys):
        import json

        assert main(["fleet", spec_file, "--devices", "10"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["devices"] == 10

    def test_fleet_histograms_flag(self, spec_file, capsys):
        assert main(["fleet", spec_file, "--histograms"]) == 0
        err = capsys.readouterr().err
        assert "violation histograms" in err
        assert "duty-cycle distribution" in err

    def test_fleet_checkpoint_roundtrip(self, spec_file, tmp_path, capsys):
        import json

        ckpt = tmp_path / "ckpt.json"
        out1 = tmp_path / "one-shot.json"
        out2 = tmp_path / "resumed.json"
        assert main(["fleet", spec_file, "--output", str(out1)]) == 0
        assert main(
            [
                "fleet",
                spec_file,
                "--checkpoint",
                str(ckpt),
                "--checkpoint-every",
                "2",
                "--output",
                str(out2),
            ]
        ) == 0
        one = json.loads(out1.read_text())
        two = json.loads(out2.read_text())
        assert one["aggregate"] == two["aggregate"]
        # A second invocation resumes the finished checkpoint: all devices
        # already folded, nothing re-run, same aggregate.
        out3 = tmp_path / "rerun.json"
        assert main(
            ["fleet", spec_file, "--checkpoint", str(ckpt), "--output", str(out3)]
        ) == 0
        three = json.loads(out3.read_text())
        assert three["aggregate"] == one["aggregate"]
        assert three["resumed_devices"] == 5

    def test_workers_on_serial_executor_are_a_one_line_error(
        self, spec_file
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", spec_file, "--executor", "serial", "--jobs", "2"])
        assert excinfo.value.code == (
            "--jobs 2 needs the vector executor, not 'serial'"
        )

    def test_bad_fleet_spec_reports_clear_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"classes": []}')
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", str(path)])
        assert "bad fleet spec" in str(excinfo.value)


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


#: Program inputs each command must reject with one line naming the path:
#: name -> (file text, or None for no file; what the line must also say).
BAD_PROGRAMS = {
    "syntax-error": ("fn main( {\n", ":1:10: expected identifier"),
    "undefined-variable": (
        "fn main() {\n  log(x);\n}\n",
        ":2:7: use of undefined variable 'x'",
    ),
    "missing-file": (None, "No such file"),
}

PROGRAM_COMMANDS = (
    "build", "run", "trace", "explain", "verify", "lint",
    "compile", "check", "feasibility",
)


@pytest.mark.parametrize("case", sorted(BAD_PROGRAMS))
@pytest.mark.parametrize("command", PROGRAM_COMMANDS)
def test_bad_program_is_a_one_line_error(command, case, tmp_path, capsys):
    text, detail = BAD_PROGRAMS[case]
    path = tmp_path / "prog.ocl"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(path)])
    message = str(excinfo.value)
    assert excinfo.value.code not in (0, None)
    assert str(path) in message and detail in message
    assert "\n" not in message
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
