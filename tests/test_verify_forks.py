"""The explorer's fork-time decisions must not change the search.

Each fork is decided when it is made, from the exact key of the state
its failure would leave; a fork the search would dedupe anyway becomes a
snapshot-free tombstone.  These tests pin every :class:`ExploreStats`
counter where that decision matters most: the benchmark's verify legs, a
guided search whose seeded forks jump the frontier queue, and
time-varying environments, whose post-failure time token must account
for the checkpoint, off-time and restore cycles.  The suite runs with
``REPRO_DEBUG_VERIFY=1`` (``tests/conftest.py``), so every fork is also
restored and failed when it pops and checked against its fork-time key
and decision.
"""

from __future__ import annotations

import functools

import pytest

import repro.verify.explorer as explorer
from repro.apps import BENCHMARKS
from repro.core.pipeline import compile_source
from repro.runtime.engine import ENGINE_FAST, ENGINE_REFERENCE
from repro.runtime.executor import MachineConfig
from repro.sensors.environment import Environment, random_walk, steps
from repro.verify import VerifyBounds, verify_program

STAT_FIELDS = (
    "explored", "steps", "candidates", "forked", "pruned", "pruned_noop",
    "deduped", "cycle_truncated", "stuck", "truncated", "completed_branches",
)


def _stats(**counts) -> dict:
    return {name: counts.get(name, 0) for name in STAT_FIELDS}


def _summary(verdict) -> tuple:
    violation = verdict.violation
    if violation is not None:
        pid, kind, uid = violation
        violation = (pid, kind, f"{uid.func}:{uid.label}")
    return verdict.kind, violation, verdict.stats.to_dict()


#: The benchmark's verify legs, (app, config, activations, failures,
#: prune), each with the verdict and the stats the search must keep.
VERIFY_LEGS = (
    (("tire", "ocelot", 3, 3, True), "proof", None, _stats(
        explored=1081, steps=8483, candidates=8483, forked=1080, pruned=7247,
        pruned_noop=156, deduped=1050, completed_branches=31)),
    (("tire", "ocelot", 1, 2, False), "proof", None, _stats(
        explored=2779, steps=2830, candidates=2830, forked=2778,
        pruned_noop=52, deduped=2748, completed_branches=31)),
    (("tire", "atomics", 1, 2, False), "proof", None, _stats(
        explored=495, steps=511, candidates=511, forked=494, pruned_noop=17,
        deduped=485, completed_branches=10)),
    (("greenhouse", "ocelot", 2, 3, True), "proof", None, _stats(
        explored=489, steps=1044, candidates=1044, forked=488, pruned=116,
        pruned_noop=440, deduped=458, completed_branches=31)),
    (("cem", "atomics", 3, 2, True), "proof", None, _stats(
        explored=28, steps=307, candidates=307, forked=27, pruned=232,
        pruned_noop=48, deduped=21, completed_branches=7)),
    (("tire", "jit", 2, 2, True), "counterexample",
     ("fresh@main:4", "fresh", "main:5"), _stats(
        explored=2, steps=307, candidates=307, forked=297, pruned_noop=10,
        completed_branches=1)),
    (("greenhouse", "jit", 2, 2, True), "counterexample",
     ("consistent#1", "consistent", "read_hum:3"), _stats(
        explored=2, steps=122, candidates=122, forked=109, pruned_noop=13,
        completed_branches=1)),
)


@pytest.mark.parametrize(
    "leg,kind,violation,stats",
    VERIFY_LEGS,
    ids=["-".join(map(str, leg)) for leg, *_ in VERIFY_LEGS],
)
def test_verify_legs_keep_their_search(leg, kind, violation, stats):
    app, config, activations, failures, prune = leg
    compiled = compile_source(BENCHMARKS[app].source, config=config)
    env = Environment.constant_for(compiled.module.channels, 0)
    bounds = VerifyBounds(
        max_activations=activations,
        max_failures=failures,
        max_cycles=200_000,
        max_states=500_000,
    )
    verdict = verify_program(compiled, env, bounds, prune=prune)
    assert _summary(verdict) == (kind, violation, stats)


def test_forks_that_may_get_stuck_keep_the_plain_path(monkeypatch):
    """With one region restart allowed, a second in-region failure in an
    activation ends ``stuck``; such a fork is never decided early."""
    monkeypatch.setattr(
        explorer,
        "MachineConfig",
        functools.partial(MachineConfig, max_region_restarts=1),
    )
    compiled = compile_source(BENCHMARKS["tire"].source, config="ocelot")
    env = Environment.constant_for(compiled.module.channels, 0)
    bounds = VerifyBounds(max_failures=2, max_cycles=200_000, max_states=500_000)
    verdict = verify_program(compiled, env, bounds, prune=False)
    assert _summary(verdict) == ("bound-exhausted", None, _stats(
        explored=2779, steps=2830, candidates=2830, forked=2778,
        pruned_noop=52, deduped=2069, stuck=679, completed_branches=31))


#: Every third instruction seeded: seeded forks pop before unseeded
#: ones with as many failures, so a pending fork with the same key no
#: longer pops first just because it was forked first.
GUIDED = {
    "tire": _stats(
        explored=2779, steps=2830, candidates=2830, forked=2778,
        pruned_noop=52, deduped=2748, completed_branches=31),
    "greenhouse": _stats(
        explored=302, steps=521, candidates=521, forked=301, pruned_noop=220,
        deduped=272, completed_branches=30),
}


@pytest.mark.parametrize("app", sorted(GUIDED))
def test_guided_reorder_keeps_the_search(app):
    compiled = compile_source(BENCHMARKS[app].source, config="ocelot")
    seeds = frozenset(
        instr.uid for instr in list(compiled.module.all_instrs())[::3]
    )
    env = Environment.constant_for(compiled.module.channels, 0)
    bounds = VerifyBounds(max_failures=2, max_cycles=200_000, max_states=500_000)
    verdict = verify_program(
        compiled, env, bounds, prune=False, seed_uids=seeds
    )
    assert _summary(verdict) == ("proof", None, GUIDED[app])


def _time_varying(kind: str, channels: list[str]) -> Environment:
    if kind == "steps":  # periodic: tokens are tau modulo the period
        return Environment(
            {ch: steps([1, 9, 4], 700 + 100 * i) for i, ch in enumerate(channels)}
        )
    # aperiodic: tokens are raw tau
    return Environment(
        {ch: random_walk(5, 3, 11 + i, 300) for i, ch in enumerate(channels)}
    )


#: tire, 2 activations, 1 failure: the same search under both signals.
TIME_VARYING = {
    "jit": ("counterexample", ("fresh@main:4", "fresh", "main:5"), _stats(
        explored=5, steps=1204, candidates=300, forked=300,
        completed_branches=4)),
    "ocelot": ("proof", None, _stats(
        explored=333, steps=52418, candidates=332, forked=332, deduped=42,
        completed_branches=291)),
    "atomics": ("proof", None, _stats(
        explored=353, steps=71292, candidates=352, forked=352, deduped=30,
        completed_branches=323)),
}


@pytest.mark.parametrize("signal", ["steps", "random_walk"])
@pytest.mark.parametrize("config", sorted(TIME_VARYING))
def test_time_varying_env_keeps_the_search(config, signal):
    compiled = compile_source(BENCHMARKS["tire"].source, config=config)
    env = _time_varying(signal, compiled.module.channels)
    assert (env.period() is None) == (signal == "random_walk")
    bounds = VerifyBounds(
        max_activations=2, max_failures=1, max_cycles=200_000,
        max_states=500_000,
    )
    verdicts = [
        verify_program(compiled, env, bounds, engine=engine)
        for engine in (ENGINE_FAST, ENGINE_REFERENCE)
    ]
    fast, reference = verdicts
    assert _summary(fast) == _summary(reference)
    assert fast.counterexample == reference.counterexample
    assert _summary(fast) == TIME_VARYING[config]
