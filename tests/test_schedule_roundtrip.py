"""Counterexample schedules: JSON round-trips and supply conventions.

A schedule emitted by ``verify`` must be a plain document a later
session (or a campaign worker) can load and replay byte-exactly: the
JSON round-trip is lossless, the underlying :class:`ScheduledFailures`
supply honors the fleet/campaign ``spawn`` convention (a schedule
supply is seed-invariant and a spawned child re-arms cleanly), and a
schedule loaded from disk replays to identical violations run after run
on both engines.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import BENCHMARKS
from repro.core.pipeline import compile_source
from repro.eval.campaign import SUPPLY_SCHEDULE, CampaignError, SupplySpec
from repro.ir.instructions import InstrId
from repro.runtime.engine import ENGINE_FAST, ENGINE_REFERENCE
from repro.runtime.supply import FailurePoint, ScheduledFailures
from repro.sensors.environment import Environment
from repro.verify import (
    Schedule,
    ScheduleError,
    VerifyBounds,
    replay_schedule,
    verify_program,
)


@pytest.fixture(scope="module")
def jit_counterexample():
    compiled = compile_source(BENCHMARKS["tire"].source, config="jit")
    env = Environment.constant_for(compiled.module.channels, 0)
    verdict = verify_program(
        compiled, env, VerifyBounds(max_failures=1), target="tire", config="jit"
    )
    assert verdict.counterexample is not None
    return compiled, env, verdict.counterexample


class TestJsonRoundtrip:
    def test_lossless(self, jit_counterexample):
        _, _, schedule = jit_counterexample
        assert Schedule.from_json(schedule.to_json()) == schedule

    def test_hand_written_document(self):
        schedule = Schedule.from_dict(
            {
                "format": "repro-schedule-1",
                "off_cycles": 5000,
                "activations": 2,
                "points": [{"func": "main", "label": 7, "occurrence": 3}],
            }
        )
        assert schedule.points == (
            FailurePoint(uid=InstrId("main", 7), occurrence=3),
        )
        assert schedule.off_cycles == 5000 and schedule.activations == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"format": "nope", "points": []},
            {"points": []},
            {"format": "repro-schedule-1", "points": [{"func": "m"}]},
            {
                "format": "repro-schedule-1",
                "points": [{"func": "m", "label": 1, "occurrence": 0}],
            },
            {"format": "repro-schedule-1", "points": 5},
            {"format": "repro-schedule-1", "off_cycles": [1]},
            {"format": "repro-schedule-1", "off_cycles": -1},
            {"format": "repro-schedule-1", "activations": "abc"},
            {"format": "repro-schedule-1", "activations": 0},
            {"format": "repro-schedule-1", "target": ["tire"]},
            # numbers and names are taken as written, never converted
            {
                "format": "repro-schedule-1",
                "off_cycles": True,
                "points": [{"func": ["main"], "label": 7.9, "occurrence": "3"}],
            },
            {"format": "repro-schedule-1", "off_cycles": True},
            {"format": "repro-schedule-1", "off_cycles": 10.0},
            {"format": "repro-schedule-1", "activations": 2.9},
            {"format": "repro-schedule-1", "activations": "2"},
            {"format": "repro-schedule-1", "activations": True},
            {
                "format": "repro-schedule-1",
                "points": [{"func": ["main"], "label": 7}],
            },
            {"format": "repro-schedule-1", "points": [{"func": 3, "label": 7}]},
            {
                "format": "repro-schedule-1",
                "points": [{"func": "main", "label": 7.9}],
            },
            {
                "format": "repro-schedule-1",
                "points": [{"func": "main", "label": True}],
            },
            {
                "format": "repro-schedule-1",
                "points": [{"func": "main", "label": 7, "occurrence": "3"}],
            },
            {
                "format": "repro-schedule-1",
                "points": [{"func": "main", "label": 7, "occurrence": True}],
            },
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ScheduleError):
            Schedule.from_dict(doc)

    def test_invalid_json_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule.from_json("{not json")


#: any value ``json.loads`` returns, its ``NaN`` and ``Infinity`` included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: a loadable document, and the path to each of its fields
VALID = {
    "format": "repro-schedule-1",
    "target": "tire",
    "config": "jit",
    "off_cycles": 10_000,
    "activations": 2,
    "points": [{"func": "main", "label": 7, "occurrence": 3}],
}
FIELDS = (
    *((key,) for key in VALID),
    ("points", 0),
    ("points", 0, "func"),
    ("points", 0, "label"),
    ("points", 0, "occurrence"),
)


def _loads_or_rejects(document) -> None:
    """``document`` loads as a schedule replay accepts, or is a
    :class:`ScheduleError`; nothing else escapes."""
    try:
        schedule = Schedule.from_json(json.dumps(document))
    except ScheduleError:
        return
    assert schedule.off_cycles >= 0 and schedule.activations >= 1
    assert all(point.occurrence >= 1 for point in schedule.points)
    assert all(
        value is None or isinstance(value, str)
        for value in (schedule.target, schedule.config)
    )
    assert Schedule.from_json(schedule.to_json()) == schedule


class TestAnyDocument:
    @given(JSON_VALUES)
    def test_any_json_value(self, document):
        _loads_or_rejects(document)

    @given(st.sampled_from(FIELDS), JSON_VALUES)
    def test_one_field_replaced(self, path, value):
        document = json.loads(json.dumps(VALID))
        *parents, last = path
        holder = document
        for key in parents:
            holder = holder[key]
        holder[last] = value
        _loads_or_rejects(document)


class TestSupplyConventions:
    def test_spawn_rearms(self, jit_counterexample):
        compiled, env, schedule = jit_counterexample
        supply = schedule.to_supply()
        point = schedule.points[0]
        # Fire the whole schedule by feeding it its own trigger attempts.
        for _ in range(point.occurrence):
            fired = supply.fail_before(point.uid)
        assert fired and supply.all_fired
        assert not supply.fail_before(point.uid)  # never re-arms in place
        # A spawned child of a *fired* supply starts fully re-armed, the
        # fleet/campaign convention for per-device supplies.
        child = supply.spawn(seed=1234)
        assert not child.all_fired
        assert child.off_cycles == supply.off_cycles
        for _ in range(point.occurrence):
            fired = child.fail_before(point.uid)
        assert fired and child.all_fired

    def test_schedule_supply_is_seed_invariant(self, jit_counterexample):
        _, _, schedule = jit_counterexample
        spec = schedule.to_supply_spec()
        a, b = spec.build(seed=0), spec.build(seed=999)
        assert isinstance(a, ScheduledFailures)
        assert [(p.uid, p.occurrence) for p in a.points] == [
            (p.uid, p.occurrence) for p in b.points
        ]
        assert a.off_cycles == b.off_cycles

    def test_supply_spec_roundtrip(self, jit_counterexample):
        _, _, schedule = jit_counterexample
        spec = schedule.to_supply_spec(name="cex")
        data = spec.to_dict()
        assert data["kind"] == SUPPLY_SCHEDULE
        assert SupplySpec.from_dict(data) == spec

    def test_bad_schedule_points_rejected(self):
        with pytest.raises(CampaignError):
            SupplySpec(kind=SUPPLY_SCHEDULE, points=(("main", 1, 0),))


class TestByteDeterminism:
    def test_loaded_schedule_replays_identically(self, jit_counterexample):
        compiled, env, schedule = jit_counterexample
        loaded = Schedule.from_json(schedule.to_json())
        outcomes = []
        for engine in (ENGINE_FAST, ENGINE_REFERENCE):
            for _ in range(2):
                result = replay_schedule(
                    compiled, env, loaded, engine=engine,
                    stop_at_violation=False,
                )
                outcomes.append(
                    (
                        [
                            (v.pid, v.kind, v.uid, v.tau, tuple(v.missing))
                            for v in result.violations
                        ],
                        result.final_tau,
                        result.activations,
                        result.all_fired,
                    )
                )
        assert all(outcome == outcomes[0] for outcome in outcomes)
        assert outcomes[0][0]  # the violation really is there
