"""Regression tests for the hot-path bugfixes that shipped with the
pre-decoded engine: single evaluation of ``work`` amounts, detector-plan
encapsulation, and the vector fleet executor's worker fan-out (a small
batch stays in-process).
(The ``derive_seed`` part-boundary fix is covered in test_energy.py.)
"""

from __future__ import annotations

import pytest

from repro.analysis.provenance import Chain
from repro.core.pipeline import compile_source
from repro.fleet import (
    FleetError,
    VectorFleetExecutor,
    aggregate_fingerprint,
    run_fleet,
)
from repro.ir.instructions import InstrId
from repro.runtime.detector import Check, DetectorPlan
from repro.runtime.executor import Machine
from repro.runtime.supply import ContinuousPower
from repro.sensors.environment import Environment, constant

WORK_SRC = """\
inputs ch;

fn main() {
  let n = input(ch);
  work(n * 3);
  log(n);
}
"""


class TestWorkSingleEvaluation:
    def test_work_expression_evaluated_once_per_step(self):
        """The cycle expression used to be evaluated twice per executed
        ``work``: once for the comparator estimate, once for execution."""
        compiled = compile_source(WORK_SRC, "jit")
        env = Environment({"ch": constant(5)})
        machine = Machine(
            compiled.module, env, ContinuousPower(),
            plan=compiled.detector_plan(),
        )
        work_evals = 0
        original_eval = machine.eval

        def counting_eval(expr):
            nonlocal work_evals
            from repro.lang import ast as lang_ast

            if isinstance(expr, lang_ast.Binary) and expr.op == "*":
                work_evals += 1
            return original_eval(expr)

        machine.eval = counting_eval
        result = machine.run()
        assert result.stats.completed
        # One dynamic execution of the work instruction => one evaluation.
        assert work_evals == 1

    def test_work_cycles_still_charged_correctly(self):
        compiled = compile_source(WORK_SRC, "jit")
        env = Environment({"ch": constant(5)})
        machine = Machine(compiled.module, env, ContinuousPower())
        result = machine.run()
        # input(40) + work(15) + log(60) + assorted alu/ret cycles.
        assert result.stats.cycles_on >= 40 + 15 + 60


class TestDetectorPlanEncapsulation:
    def _plan(self):
        site = Chain(ids=(InstrId("main", 1),))
        required = (Chain(ids=(InstrId("main", 2),)),)
        check = Check(site=site, pid="fresh@main:1", kind="fresh", required=required)
        return site, check, DetectorPlan(
            bit_chains=frozenset(required),
            checks={site: [check]},
            trigger_uids=frozenset({site.op}),
        )

    def test_checks_at_returns_a_copy(self):
        site, check, plan = self._plan()
        got = plan.checks_at(site)
        assert isinstance(got, tuple)
        assert got == (check,)
        # The historical list return let callers corrupt the plan:
        # plan.checks_at(chain).clear() silently disabled detection.
        assert plan.checks[site] == [check]
        assert plan.checks_at(site) == (check,)

    def test_checks_at_unknown_chain_is_empty_tuple(self):
        _, _, plan = self._plan()
        assert plan.checks_at(Chain(ids=(InstrId("main", 99),))) == ()


class TestVectorWorkers:
    """The vector executor's worker fan-out: right-sized, exact, counted."""

    def _spec(self, devices: int):
        from tests.test_fleet import small_spec

        return small_spec().with_total_devices(devices)

    @staticmethod
    def _fan_outs(monkeypatch) -> list[int]:
        """Record the worker count of every fan-out, then run it."""
        import repro.fleet.vector as vector

        counts: list[int] = []
        real = vector.fork_map

        def spy(fn, items, configs, processes):
            counts.append(len(items))
            return real(fn, items, configs, processes)

        monkeypatch.setattr(vector, "fork_map", spy)
        return counts

    def test_single_process_stays_in_process(self, monkeypatch):
        fan_outs = self._fan_outs(monkeypatch)
        run_fleet(self._spec(40), VectorFleetExecutor(processes=1))
        assert fan_outs == []

    def test_small_batch_stays_in_process(self, monkeypatch):
        # 8 devices over 4 workers = 2 per worker, far below the
        # threshold: pool start-up would cost more than the workers win.
        fan_outs = self._fan_outs(monkeypatch)
        result = run_fleet(self._spec(8), "vector", processes=4)
        assert fan_outs == []
        assert result.executor_used == "vector"

    def test_large_batch_fans_out(self, monkeypatch):
        fan_outs = self._fan_outs(monkeypatch)
        run_fleet(self._spec(40), "vector", processes=2)
        assert fan_outs == [2]

    def test_worker_count_is_right_sized(self, monkeypatch):
        # 40 devices on 4 nominal workers: 40 // 16 = 2 full workers
        # rather than 4 thin ones, or none at all.
        fan_outs = self._fan_outs(monkeypatch)
        run_fleet(self._spec(40), "vector", processes=4)
        assert fan_outs == [2]

    def test_aggregate_matches_serial(self):
        spec = self._spec(40)
        serial = run_fleet(spec, "serial")
        workers = run_fleet(spec, "vector", processes=2)
        assert aggregate_fingerprint(workers) == aggregate_fingerprint(serial)
        assert workers.aggregate.to_json() == serial.aggregate.to_json()

    def test_memo_counts_cover_every_activation(self):
        result = run_fleet(self._spec(40), "vector", processes=2)
        assert (
            result.memo["hits"] + result.memo["misses"]
            == result.aggregate.total_activations
        )

    def test_vector_on_workers_reports_vector(self):
        for processes in (1, 2):
            payload = run_fleet(
                self._spec(4), "vector", processes=processes
            ).to_dict()
            assert payload["executor"] == "vector"
            assert payload["executor_used"] == "vector"
            assert payload["engine"] == "fast"

    def test_memo_dir_with_workers_rejected(self, tmp_path):
        with pytest.raises(FleetError, match="one worker"):
            run_fleet(self._spec(4), "vector", processes=2, memo_dir=tmp_path)

    def test_zero_processes_rejected(self):
        with pytest.raises(ValueError, match="processes"):
            VectorFleetExecutor(processes=0)


class TestSeedSchemeFingerprint:
    def test_checkpoint_fingerprint_binds_seed_scheme(self, monkeypatch):
        """A checkpoint written under an older seed-derivation scheme
        must fingerprint-mismatch, not resume into a mixed aggregate."""
        from tests.test_fleet import small_spec

        spec = small_spec()
        current = spec.fingerprint()
        monkeypatch.setattr("repro.fleet.spec.SEED_SCHEME", "legacy-join")
        assert spec.fingerprint() != current


class TestPreDecodedCodeValidation:
    def test_cost_model_mismatch_rejected(self):
        from repro.apps import BENCHMARKS
        from repro.core.cache import GLOBAL_CACHE
        from repro.runtime.engine import EngineError, FastMachine, code_for

        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        plan = compiled.detector_plan()
        code = code_for(compiled, plan=plan)  # decoded under DEFAULT_COSTS
        with pytest.raises(EngineError, match="cost model"):
            FastMachine(
                compiled.module,
                meta.env_factory(0),
                ContinuousPower(),
                costs=meta.cost_model(),
                plan=plan,
                code=code,
            )

    def test_equal_but_fresh_plans_share_the_decode(self):
        from repro.apps import BENCHMARKS
        from repro.core.cache import GLOBAL_CACHE
        from repro.runtime.detector import build_detector_plan
        from repro.runtime.engine import code_for

        meta = BENCHMARKS["greenhouse"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        first = code_for(compiled, plan=build_detector_plan(compiled.policies))
        before = len(compiled._engine_code)
        again = code_for(compiled, plan=build_detector_plan(compiled.policies))
        assert first is again
        assert len(compiled._engine_code) == before

    def test_fresh_equal_plan_accepted_end_to_end(self):
        """create_machine with a fresh (equal, non-identical) plan must
        reuse the cached decode, not reject it on plan identity."""
        from repro.apps import BENCHMARKS
        from repro.core.cache import GLOBAL_CACHE
        from repro.runtime.detector import build_detector_plan
        from repro.runtime.engine import create_machine

        meta = BENCHMARKS["greenhouse"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        results = [
            create_machine(
                "fast",
                compiled,
                meta.env_factory(0),
                ContinuousPower(),
                plan=build_detector_plan(compiled.policies),
            ).run()
            for _ in range(2)
        ]
        assert results[0].stats == results[1].stats
