"""The bounded model checker: snapshots, verdicts, pruning, artifacts.

The verifier's claims are cross-validated here against the production
runtime: snapshots restore bit-exactly on both engines, proofs and
counterexamples match the CLI exit-code contract, counterexample
schedules replay to the same violation through the stock
:class:`ScheduledFailures` supply on both engines, minimized schedules
are 1-minimal, and analysis-guided pruning never changes a verdict while
exploring strictly fewer states.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import BENCHMARKS
from repro.cli import main
from repro.core.pipeline import compile_source
from repro.runtime import observations as obs
from repro.runtime.engine import ENGINE_FAST, ENGINE_REFERENCE, create_machine
from repro.runtime.snapshot import capture_machine, restore_machine
from repro.sensors.environment import Environment
from repro.verify import (
    VERDICT_BOUND,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_PROOF,
    FixedOffSupply,
    Schedule,
    StateKeys,
    VerifyBounds,
    fast_block_namer,
    replay_schedule,
    state_digest,
    verify_program,
)

ENGINES = (ENGINE_FAST, ENGINE_REFERENCE)
SMALL = VerifyBounds(max_activations=1, max_failures=1, max_cycles=200_000)


def _build(config: str):
    compiled = compile_source(BENCHMARKS["tire"].source, config=config)
    env = Environment.constant_for(compiled.module.channels, 0)
    return compiled, env


def _machine(compiled, env, engine):
    return create_machine(engine, compiled, env, FixedOffSupply())


def _digest_of(machine, engine):
    namer = None if engine == ENGINE_REFERENCE else fast_block_namer(machine._code)
    return state_digest(machine, 0, StateKeys(namer))


def _run_out(machine):
    """Step to completion, return (digest-relevant outcome)."""
    while not machine._done:
        machine.step()
    return (
        machine.tau,
        machine.stats.cycles_on,
        [(v.pid, v.kind, v.uid, v.tau) for v in machine.trace.violations],
    )


class TestSnapshotRoundtrip:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("config", ["ocelot", "jit", "atomics"])
    def test_restore_is_bit_exact(self, engine, config):
        """Capture mid-run, finish, restore, finish again: same outcome."""
        compiled, env = _build(config)
        machine = _machine(compiled, env, engine)
        for _ in range(40):
            machine.step()
        snap = capture_machine(machine)
        mid_digest = _digest_of(machine, engine)
        first = _run_out(machine)
        restore_machine(machine, snap)
        assert _digest_of(machine, engine) == mid_digest
        assert _run_out(machine) == first

    @pytest.mark.parametrize("engine", ENGINES)
    def test_restore_survives_forced_failure(self, engine):
        """A forced failure on the restored branch does not leak into a
        second restore of the same snapshot."""
        compiled, env = _build("jit")
        machine = _machine(compiled, env, engine)
        for _ in range(25):
            machine.step()
        snap = capture_machine(machine)
        machine.force_power_failure()
        failed = _run_out(machine)
        restore_machine(machine, snap)
        machine.force_power_failure()
        assert _run_out(machine) == failed
        restore_machine(machine, snap)
        clean = _run_out(machine)
        assert clean[0] != failed[0]  # off-time moved the clock

    @pytest.mark.parametrize("engine", ENGINES)
    def test_begin_activation_matches_fresh_machine(self, engine):
        """begin_activation after a run == a never-run machine handed the
        same nonvolatile state and clock."""
        compiled, env = _build("ocelot")
        machine = _machine(compiled, env, engine)
        _run_out(machine)
        fresh = _machine(compiled, env, engine)
        fresh.begin_activation(nv=machine.nv, tau=machine.tau)
        machine.begin_activation(trace=obs.Trace())
        assert _digest_of(machine, engine) == _digest_of(fresh, engine)


class TestVerdicts:
    def test_ocelot_proof(self):
        compiled, env = _build("ocelot")
        verdict = verify_program(compiled, env, SMALL)
        assert verdict.kind == VERDICT_PROOF
        assert verdict.exit_code == 0
        assert verdict.counterexample is None
        assert verdict.stats.explored > 1
        assert "proof" in verdict.certificate()

    def test_jit_counterexample_replays_on_both_engines(self):
        compiled, env = _build("jit")
        verdict = verify_program(compiled, env, SMALL)
        assert verdict.kind == VERDICT_COUNTEREXAMPLE
        assert verdict.exit_code == 1
        schedule = verdict.counterexample
        assert schedule is not None and schedule.points
        outcomes = []
        for engine in ENGINES:
            result = replay_schedule(
                compiled, env, schedule, engine=engine, stop_at_violation=False
            )
            assert result.violating and result.all_fired
            outcomes.append(
                (
                    [(v.pid, v.kind, v.uid, v.tau) for v in result.violations],
                    result.final_tau,
                )
            )
        assert outcomes[0] == outcomes[1]
        pid, kind, uid = verdict.violation
        first = outcomes[0][0][0]
        assert (first[0], first[1], first[2]) == (pid, kind, uid)

    def test_counterexample_is_one_minimal(self):
        compiled, env = _build("jit")
        verdict = verify_program(
            compiled, env, VerifyBounds(max_failures=2, max_cycles=200_000)
        )
        schedule = verdict.counterexample
        assert schedule is not None
        for index in range(len(schedule.points)):
            sub = schedule.with_points(
                schedule.points[:index] + schedule.points[index + 1 :]
            )
            assert not replay_schedule(compiled, env, sub).violating

    def test_engines_agree_on_verdict(self):
        for config in ("ocelot", "jit"):
            compiled, env = _build(config)
            verdicts = [
                verify_program(compiled, env, SMALL, engine=e) for e in ENGINES
            ]
            assert verdicts[0].kind == verdicts[1].kind
            assert verdicts[0].violation == verdicts[1].violation
            assert verdicts[0].stats.explored == verdicts[1].stats.explored

    def test_state_cap_degrades_to_bound_exhausted(self):
        compiled, env = _build("ocelot")
        verdict = verify_program(
            compiled, env, VerifyBounds(max_failures=1, max_states=1)
        )
        assert verdict.kind == VERDICT_BOUND
        assert verdict.exit_code == 2
        assert verdict.stats.truncated > 0


class TestBounds:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_activations", 0),
            ("max_cycles", -1),
            ("max_states", 0),
            ("max_failures", -1),
            ("off_cycles", -1),
        ],
    )
    def test_bound_below_its_least_is_rejected(self, field, value):
        # Each would certify a proof over nothing (or over a negative
        # failure count).
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            VerifyBounds(**{field: value})

    def test_failure_free_bound_is_legal(self):
        verdict = verify_program(*_build("ocelot"), VerifyBounds(max_failures=0))
        assert verdict.kind == VERDICT_PROOF


class TestPruning:
    @pytest.mark.parametrize("fails", [1, 2])
    def test_prune_parity_and_strict_savings(self, fails):
        compiled, env = _build("ocelot")
        bounds = VerifyBounds(max_failures=fails, max_cycles=200_000)
        pruned = verify_program(compiled, env, bounds, prune=True)
        full = verify_program(compiled, env, bounds, prune=False)
        assert pruned.kind == full.kind == VERDICT_PROOF
        assert pruned.stats.explored < full.stats.explored
        assert pruned.stats.pruned > 0

    def test_dedup_collapses_second_order_forks(self):
        compiled, env = _build("ocelot")
        verdict = verify_program(
            compiled, env, VerifyBounds(max_failures=2, max_cycles=200_000)
        )
        assert verdict.stats.deduped > 0

    def test_prune_disabled_under_time_varying_env(self):
        compiled, _ = _build("ocelot")
        from repro.sensors.environment import steps

        env = Environment(
            {ch: steps([0, 1], 500) for ch in compiled.module.channels}
        )
        verdict = verify_program(compiled, env, SMALL, prune=True)
        assert not verdict.pruning
        assert verdict.stats.pruned == 0 and verdict.stats.pruned_noop == 0


class TestCli:
    def test_verify_proof_exit_zero(self, capsys):
        code = main(
            ["verify", "tire", "--config", "ocelot", "--max-failures", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict     : proof" in out

    def test_verify_counterexample_exit_one(self, capsys, tmp_path):
        cex = tmp_path / "cex.json"
        graph = tmp_path / "graph.json"
        code = main(
            [
                "verify",
                "tire",
                "--config",
                "jit",
                "--max-failures",
                "1",
                "--schedule-out",
                str(cex),
                "--emit-graph",
                str(graph),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "counterexample" in out and "fail before" in out

        schedule = Schedule.from_json(cex.read_text())
        assert schedule.target == "tire" and schedule.config == "jit"

        doc = json.loads(graph.read_text())
        assert doc["nodes"] and doc["edges"] and "stats" in doc
        ids = {node["id"] for node in doc["nodes"]}
        for edge in doc["edges"]:
            assert edge["parent"] in ids and edge["child"] in ids

    @pytest.mark.parametrize(
        "flag, value, least",
        [
            ("--max-activations", "0", 1),
            ("--max-cycles", "-1", 1),
            ("--max-states", "0", 1),
            ("--max-failures", "-1", 0),
            ("--off-cycles", "-1", 0),
        ],
    )
    def test_bound_flag_below_its_least_is_a_parse_error(
        self, flag, value, least, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "tire", flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no certificate
        # argparse's usage, then the one error line
        assert captured.err.splitlines()[-1] == (
            f"repro verify: error: argument {flag}: must be >= {least}, "
            f"got {value}"
        )

    def test_verify_bound_exhausted_exit_two(self, capsys):
        code = main(
            ["verify", "tire", "--config", "ocelot", "--max-states", "1"]
        )
        assert code == 2
        assert "bound-exhausted" in capsys.readouterr().out

    def test_run_replays_emitted_schedule(self, capsys, tmp_path):
        cex = tmp_path / "cex.json"
        assert (
            main(
                [
                    "verify", "tire", "--config", "jit",
                    "--max-failures", "1", "--schedule-out", str(cex),
                ]
            )
            == 1
        )
        capsys.readouterr()
        outputs = []
        for engine in ENGINES:
            code = main(
                [
                    "run", "tire", "--config", "jit",
                    "--schedule", str(cex), "--engine", engine,
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "violations  : " in outputs[0]
        assert "fresh" in outputs[0]

    def test_availability_artifact(self, capsys):
        code = main(
            ["build", "tire", "--config", "ocelot", "--emit", "availability"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resume points:" in out and "must-available" in out
