"""Engine parity: the fast engine must be bit-identical to the reference.

The reference :class:`~repro.runtime.executor.Machine` is the executable
Appendix H semantics; :class:`~repro.runtime.engine.FastMachine` is the
pre-decoded engine every harness defaults to.  Following the
formal-semantics discipline (keep the reference machine as the spec,
demand observation-stream equivalence from any optimized engine), these
tests assert byte-identical observation traces, :class:`RunStats`,
logical clocks, return values, and final nonvolatile state across:

* every shipped benchmark app x build configuration,
* hypothesis-generated programs under continuous, energy-driven, and
  scheduled-failure power,
* repeated-activation streams (shared NV state and supply),
* whole fleets and campaign jobs run end to end under both engines.

Every run is also repeated violations-only
(``MachineConfig(emit_observations=False)``, the mode fleets, campaigns,
the lint probe and the verifier use), and each engine's violations-only
run must match its full run on stats, clock, nonvolatile state, return
value, detector queries and violations, with nothing else in its trace.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.core.pipeline import CONFIGS, compile_source
from repro.eval.profiles import STANDARD_PROFILE, EnergyProfile
from repro.runtime.engine import (
    ENGINE_FAST,
    ENGINE_REFERENCE,
    code_for,
    create_machine,
)
from repro.runtime.executor import MachineConfig, NVState
from repro.runtime.harness import ActivationRecord, run_activations
from repro.runtime.supply import (
    ContinuousPower,
    FailurePoint,
    ScheduledFailures,
)
from repro.sensors.environment import Environment, random_walk, steps
from tests.strategies import program_sources

_PARITY_PROFILE = EnergyProfile(
    capacity=2500,
    low_threshold=500,
    boot_fraction=(0.7, 1.0),
    harvest_rate=250,
    harvest_spread=3.0,
)


def _gen_env(seed: int) -> Environment:
    """A deterministic, time-varying world for generated programs."""
    return Environment(
        {
            "alpha": steps([3, 11, 7], 900),
            "beta": random_walk(20, 5, seed=seed, interval=300),
            "gamma": steps([-4, 18], 1500),
        }
    )


#: ``emit_observations`` values: the full trace, then violations-only
_MODES = (True, False)


def _run_both(compiled, make_env, make_supply, costs=None, plan=None):
    """Run one activation per engine and observation mode.

    Returns ``{(engine, emit_observations): (machine, result)}``.
    """
    kwargs = {} if costs is None else {"costs": costs}
    outcomes = {}
    for engine in (ENGINE_REFERENCE, ENGINE_FAST):
        for emit in _MODES:
            machine = create_machine(
                engine,
                compiled,
                make_env(),
                make_supply(),
                plan=plan,
                config=MachineConfig(emit_observations=emit),
                **kwargs,
            )
            result = machine.run()
            outcomes[engine, emit] = (machine, result)
    return outcomes


def _assert_identical(outcomes, context=""):
    ref_machine, ref = outcomes[ENGINE_REFERENCE, True]
    fast_machine, fast = outcomes[ENGINE_FAST, True]
    assert ref.stats == fast.stats, context
    assert ref.trace.events == fast.trace.events, context
    assert ref.ret == fast.ret, context
    assert ref_machine.tau == fast_machine.tau, context
    assert (
        ref_machine.nv.snapshot_values() == fast_machine.nv.snapshot_values()
    ), context
    for engine in (ENGINE_REFERENCE, ENGINE_FAST):
        _assert_violations_only(
            outcomes[engine, True], outcomes[engine, False], f"{engine}: {context}"
        )


def _assert_violations_only(full_outcome, lean_outcome, context=""):
    """A violations-only run equals its full run in everything but the
    non-violation observations, which it never records."""
    (full_machine, full), (lean_machine, lean) = full_outcome, lean_outcome
    assert lean.stats == full.stats, context
    assert lean.ret == full.ret, context
    assert lean.detector_queries == full.detector_queries, context
    assert lean_machine.tau == full_machine.tau, context
    assert (
        lean_machine.nv.snapshot_values() == full_machine.nv.snapshot_values()
    ), context
    assert lean.trace.events == full.trace.violations, context


def _run_streams(compiled, make_env, make_supply, budget_cycles, costs=None):
    """Back-to-back activations under each engine, three ways.

    ``run_activations`` (whose stepper runs violations-only) and a
    hand-driven loop per observation mode, each on a fresh environment
    and supply.  Per engine, the violations-only loop must match the
    full one activation by activation, and the harness records must be
    the records of the full runs.  Returns the harness results, reference
    engine first.
    """
    kwargs = {} if costs is None else {"costs": costs}
    harness = []
    for engine in (ENGINE_REFERENCE, ENGINE_FAST):
        streams = {}
        for emit in _MODES:
            nv = NVState.initial(compiled.module)
            env, supply = make_env(), make_supply()
            tau, outcomes = 0, []
            while tau < budget_cycles:
                machine = create_machine(
                    engine,
                    compiled,
                    env,
                    supply,
                    nv=nv,
                    start_tau=tau,
                    config=MachineConfig(emit_observations=emit),
                    **kwargs,
                )
                result = machine.run()
                outcomes.append((machine, result))
                tau = machine.tau
                if not result.stats.completed:
                    break
            streams[emit] = outcomes
        full, lean = streams[True], streams[False]
        assert len(full) == len(lean), engine
        for index, (full_run, lean_run) in enumerate(
            zip(full, lean, strict=True)
        ):
            _assert_violations_only(full_run, lean_run, f"{engine} #{index}")
        outcome = run_activations(
            compiled, make_env(), make_supply(), budget_cycles=budget_cycles,
            engine=engine, **kwargs,
        )
        assert outcome.records == [
            ActivationRecord.from_run(index, result)
            for index, (_, result) in enumerate(full)
        ], engine
        harness.append(outcome)
    return harness


class TestBenchmarkParity:
    """Deterministic sweep: all shipped apps x configs x supply kinds."""

    def test_all_apps_all_configs_continuous_and_harvest(self):
        for app, meta in BENCHMARKS.items():
            for config in CONFIGS:
                compiled = GLOBAL_CACHE.get_or_compile(meta.source, config)
                costs = meta.cost_model()
                for supply_kind in ("continuous", "harvest"):
                    if supply_kind == "continuous":
                        def make_supply():
                            return ContinuousPower()
                    else:
                        proto = STANDARD_PROFILE.make_supply(seed=11)

                        def make_supply(proto=proto):
                            return proto.spawn(23)

                    outcomes = _run_both(
                        compiled,
                        lambda meta=meta: meta.env_factory(5),
                        make_supply,
                        costs=costs,
                    )
                    _assert_identical(outcomes, f"{app}/{config}/{supply_kind}")

    def test_injection_parity_at_every_check_site(self):
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        plan = compiled.detector_plan()
        costs = meta.cost_model()
        assert plan.checks, "tire/ocelot should have detector check sites"
        for site in sorted(plan.checks):
            outcomes = _run_both(
                compiled,
                lambda: meta.env_factory(0),
                lambda site=site: ScheduledFailures(
                    [FailurePoint(chain=site)], off_cycles=25_000
                ),
                costs=costs,
                plan=plan,
            )
            _assert_identical(outcomes, f"injection at {site}")

    def test_activation_streams_share_nv_and_supply(self):
        for app in ("tire", "greenhouse", "cem"):
            meta = BENCHMARKS[app]
            compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
            proto = _PARITY_PROFILE.make_supply(seed=3)
            ref, fast = _run_streams(
                compiled,
                lambda meta=meta: meta.env_factory(7),
                lambda proto=proto: proto.spawn(9),
                budget_cycles=300_000,
                costs=meta.cost_model(),
            )
            assert ref.records == fast.records, app
            assert ref.total_cycles_on == fast.total_cycles_on
            assert ref.total_cycles_off == fast.total_cycles_off


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=program_sources(),
    config=st.sampled_from(CONFIGS),
    env_seed=st.integers(0, 50),
)
def test_random_programs_parity_continuous(source, config, env_seed):
    compiled = compile_source(source, config)
    outcomes = _run_both(
        compiled, lambda: _gen_env(env_seed), ContinuousPower
    )
    _assert_identical(outcomes, source)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=program_sources(),
    config=st.sampled_from(CONFIGS),
    env_seed=st.integers(0, 50),
    supply_seed=st.integers(0, 1000),
)
def test_random_programs_parity_energy_driven(
    source, config, env_seed, supply_seed
):
    compiled = compile_source(source, config)
    proto = _PARITY_PROFILE.make_supply(seed=1)
    outcomes = _run_both(
        compiled,
        lambda: _gen_env(env_seed),
        lambda: proto.spawn(supply_seed),
    )
    _assert_identical(outcomes, source)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=program_sources(),
    config=st.sampled_from(CONFIGS),
    env_seed=st.integers(0, 50),
    occurrence=st.integers(1, 3),
    data=st.data(),
)
def test_random_programs_parity_scheduled_failures(
    source, config, env_seed, occurrence, data
):
    """Inject a failure before a random input occurrence, both engines."""
    compiled = compile_source(source, config)
    inputs = compiled.module.input_instrs()
    if not inputs:
        return
    uid = data.draw(st.sampled_from([i.uid for i in inputs]))
    outcomes = _run_both(
        compiled,
        lambda: _gen_env(env_seed),
        lambda: ScheduledFailures(
            [FailurePoint(uid=uid, occurrence=occurrence)], off_cycles=8_000
        ),
    )
    _assert_identical(outcomes, f"{source}\nfail at {uid} #{occurrence}")


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=program_sources(),
    config=st.sampled_from(CONFIGS),
    env_seed=st.integers(0, 50),
    supply_seed=st.integers(0, 1000),
)
def test_random_programs_parity_activation_streams(
    source, config, env_seed, supply_seed
):
    """Back-to-back activations: NV state and supply persist across runs."""
    compiled = compile_source(source, config)
    proto = _PARITY_PROFILE.make_supply(seed=2)
    ref, fast = _run_streams(
        compiled,
        lambda: _gen_env(env_seed),
        lambda: proto.spawn(supply_seed),
        budget_cycles=60_000,
    )
    assert ref.records == fast.records
    assert ref.total_cycles_on == fast.total_cycles_on
    assert ref.total_cycles_off == fast.total_cycles_off


class TestSubsystemParity:
    """Fleets and campaign jobs are engine-independent end to end."""

    def test_fleet_parity_across_engines(self):
        from repro.fleet import (
            SerialFleetExecutor,
            aggregate_fingerprint,
            run_fleet,
        )
        from tests.test_fleet import small_spec

        spec = small_spec()
        results = [
            run_fleet(spec, SerialFleetExecutor(engine=engine))
            for engine in (ENGINE_REFERENCE, ENGINE_FAST)
        ]
        ref, fast = results
        assert aggregate_fingerprint(ref) == aggregate_fingerprint(fast)
        assert ref.aggregate.to_dict() == fast.aggregate.to_dict()

    def test_campaign_job_parity_across_engines(self):
        import dataclasses

        from repro.eval.campaign import (
            CampaignSpec,
            SupplySpec,
            execute_job,
        )

        spec = CampaignSpec(
            apps=("greenhouse",),
            configs=CONFIGS,
            supplies=(SupplySpec(),),
            seeds=(0, 1),
            budget_cycles=60_000,
        )
        for job in spec.expand():
            fast = execute_job(job)
            ref = execute_job(
                dataclasses.replace(job, engine=ENGINE_REFERENCE)
            )
            assert fast.fingerprint() == ref.fingerprint()

    def test_code_is_cached_per_build_and_cost_model(self):
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        costs = meta.cost_model()
        first = code_for(compiled, costs=costs)
        again = code_for(compiled, costs=meta.cost_model())
        assert first is again  # equal cost models share the decode
        other = code_for(compiled)  # DEFAULT_COSTS decodes separately
        assert other is not first
        assert first is code_for(compiled, costs=meta.cost_model())

    def test_unknown_engine_rejected(self):
        import pytest

        from repro.runtime.engine import EngineError

        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        with pytest.raises(EngineError, match="unknown engine"):
            create_machine("warp", compiled, meta.env_factory(0))
