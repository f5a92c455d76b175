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
value, detector queries and violations, with nothing else in its trace;
every nonvolatile cell and the return value must carry exactly the
input sites of the full run's taint, and the run must build no
:class:`~repro.runtime.values.InputEvent`.
"""

from __future__ import annotations

import collections
import contextlib
import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.core.pipeline import CONFIGS, compile_source
from repro.energy.capacitor import Capacitor
from repro.energy.costs import DEFAULT_COSTS
from repro.energy.harvester import ConstantHarvester
from repro.eval.profiles import STANDARD_PROFILE, EnergyProfile
from repro.ir import instructions as ir
from repro.ir.module import BasicBlock, IRFunction, Module
from repro.lang import ast as lang_ast
from repro.runtime import engine
from repro.runtime import observations as obs
from repro.runtime.engine import (
    ENGINE_FAST,
    ENGINE_REFERENCE,
    FastMachine,
    code_for,
    compile_code,
    create_machine,
)
from repro.analysis.provenance import Chain
from repro.runtime.detector import BitVector, Check, DetectorPlan
from repro.runtime.executor import (
    AtomContext,
    ExecError,
    Frame,
    JitContext,
    Machine,
    MachineConfig,
    NVState,
)
from repro.runtime.harness import ActivationRecord, run_activations
from repro.runtime.supply import (
    ContinuousPower,
    EnergyDrivenSupply,
    FailurePoint,
    ScheduledFailures,
)
from repro.runtime.values import InputEvent, InputSite, TVal
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


@contextlib.contextmanager
def _input_events_built():
    """Count the :class:`InputEvent` objects built inside the block."""
    built = collections.Counter()
    init = InputEvent.__init__

    def counted(self, *args, **kwargs):
        built["events"] += 1
        init(self, *args, **kwargs)

    InputEvent.__init__ = counted
    try:
        yield built
    finally:
        InputEvent.__init__ = init


def _run(machine):
    """``(machine, result, InputEvents built)`` of one activation."""
    with _input_events_built() as built:
        result = machine.run()
    return machine, result, built["events"]


def _run_both(compiled, make_env, make_supply, costs=None, plan=None):
    """Run one activation per engine and observation mode.

    Returns ``{(engine, emit_observations): (machine, result, events)}``
    (``events``: the :class:`InputEvent` objects the run built).
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
            outcomes[engine, emit] = _run(machine)
    return outcomes


def _assert_identical(outcomes, context=""):
    ref_machine, ref, _ = outcomes[ENGINE_REFERENCE, True]
    fast_machine, fast, _ = outcomes[ENGINE_FAST, True]
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


def _sites(taint):
    """A full run's taint (of :class:`InputEvent`) by input site."""
    assert all(type(event) is InputEvent for event in taint)
    return frozenset(InputSite(event.uid, event.channel) for event in taint)


def _taints(machine, project=lambda taint: taint):
    """Every nonvolatile cell's taint and the return value's, projected."""
    nv = machine.nv
    ret = machine._ret_value
    return (
        {name: project(cell.taint) for name, cell in nv.globals.items()},
        {
            name: [project(cell.taint) for cell in cells]
            for name, cells in nv.arrays.items()
        },
        None if ret is None else project(ret.taint),
    )


def _assert_violations_only(full_outcome, lean_outcome, context=""):
    """A violations-only run equals its full run in everything but the
    non-violation observations, which it never records, and the read
    times in taint, which it never builds."""
    full_machine, full, _ = full_outcome
    lean_machine, lean, lean_events = lean_outcome
    assert lean.stats == full.stats, context
    assert lean.ret == full.ret, context
    assert lean.detector_queries == full.detector_queries, context
    assert lean_machine.tau == full_machine.tau, context
    assert (
        lean_machine.nv.snapshot_values() == full_machine.nv.snapshot_values()
    ), context
    assert lean.trace.events == full.trace.violations, context
    assert _taints(lean_machine) == _taints(full_machine, _sites), context
    assert lean_events == 0, context


def _run_streams(compiled, make_env, make_supply, budget_cycles, costs=None):
    """Back-to-back activations under each engine, three ways.

    ``run_activations`` (whose stepper restarts one machine and runs
    violations-only) and a hand-driven loop per observation mode, each
    on a fresh environment and supply; the loop hands every activation's
    nonvolatile state and clock to a never-run machine through
    ``begin_activation``.  Per engine, the violations-only loop must
    match the full one activation by activation, and the harness records
    must be the records of the full runs.  Returns the harness results,
    reference engine first.
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
                    config=MachineConfig(emit_observations=emit),
                    **kwargs,
                )
                machine.begin_activation(nv=nv, tau=tau)
                outcome = _run(machine)
                outcomes.append(outcome)
                result = outcome[1]
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
            for index, (_, result, _) in enumerate(full)
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
            assert ref.cycles_on == fast.cycles_on
            assert ref.cycles_off == fast.cycles_off


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
    assert ref.cycles_on == fast.cycles_on
    assert ref.cycles_off == fast.cycles_off


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


def _fields(machine) -> dict:
    """Every attribute of ``machine``, with frames and saved contexts as
    plain values (a fast frame has slots and no equality)."""

    def plain(value):
        if isinstance(value, list):
            return [plain(item) for item in value]
        if isinstance(value, (engine.FastFrame, Frame, JitContext, AtomContext)):
            names = getattr(value, "__slots__", None) or vars(value)
            return type(value), {n: plain(getattr(value, n)) for n in names}
        return value

    return {name: plain(value) for name, value in vars(machine).items()}


#: a program whose ``jit-opt`` runs leave per-activation fields set: a
#: hoisted query's cached result, a return value, and -- abandoned after
#: a failure -- a checkpoint and an open region
LEFTOVERS_SRC = """\
inputs alpha, beta;
nonvolatile total = 0;

fn main() {
  let c = input(beta);
  let x = input(alpha);
  Fresh(x);
  if c > 0 {
    log(x);
  } else {
    log(x + 1);
  }
  total = total + x;
  return c;
}
"""


def _machines_built(monkeypatch) -> collections.Counter:
    """Count machine constructions by engine (spies on both constructors)."""
    built: collections.Counter = collections.Counter()
    for cls, name in ((Machine, ENGINE_REFERENCE), (FastMachine, ENGINE_FAST)):

        def counted(self, *args, _init=cls.__init__, _name=name, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


class TestOneMachinePerStream:
    """An activation stream restarts one machine per activation
    (``begin_activation``) instead of building one; ``_run_streams`` and
    the fleet parity suites hold its records to a fresh machine's."""

    @pytest.mark.parametrize("engine_name", [ENGINE_REFERENCE, ENGINE_FAST])
    def test_run_activations(self, engine_name, monkeypatch):
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        supply = _PARITY_PROFILE.make_supply(seed=3).spawn(9)
        built = _machines_built(monkeypatch)
        result = run_activations(
            compiled, meta.env_factory(7), supply, budget_cycles=300_000,
            costs=meta.cost_model(), engine=engine_name,
        )
        assert result.activations > 1
        assert result.reboots > 0
        assert built == {engine_name: 1}

    @pytest.mark.parametrize("engine_name", [ENGINE_REFERENCE, ENGINE_FAST])
    def test_vector_class_batch(self, engine_name, monkeypatch):
        from repro.eval.campaign import SupplySpec
        from repro.fleet import DeviceClass, FleetSpec, run_fleet

        spec = FleetSpec(
            name="one-batch",
            fleet_seed=31,
            budget_cycles=25_000,
            classes=(
                DeviceClass(
                    name="tire-jittered",
                    app="tire",
                    count=12,
                    supply=SupplySpec(
                        name="harvest", kind="harvest", harvest_rate=300
                    ),
                    harvest_jitter=0.5,
                ),
            ),
        )
        built = _machines_built(monkeypatch)
        vector = run_fleet(spec, "vector", engine=engine_name)
        assert vector.memo["misses"] > 1
        assert built == {engine_name: 1}
        built.clear()
        serial = run_fleet(spec, "serial", engine=engine_name)
        assert built == {engine_name: 12}  # one per device
        assert serial.aggregate.to_dict() == vector.aggregate.to_dict()

    @pytest.mark.parametrize("engine_name", [ENGINE_REFERENCE, ENGINE_FAST])
    def test_injection_job(self, engine_name, monkeypatch):
        """An injection campaign job restarts one machine per site."""
        from repro.eval.campaign import (
            MODE_INJECTION,
            EnvironmentSpec,
            JobSpec,
            SupplySpec,
            execute_job,
        )

        job = JobSpec(
            app="tire", config="jit", environment=EnvironmentSpec(),
            supply=SupplySpec.continuous(), seed=0, mode=MODE_INJECTION,
            engine=engine_name,
        )
        built = _machines_built(monkeypatch)
        result = execute_job(job)
        assert result.injection_points > 1
        assert built == {engine_name: 1}

    @pytest.mark.parametrize("engine_name", [ENGINE_REFERENCE, ENGINE_FAST])
    def test_replay_schedule(self, engine_name, monkeypatch):
        """A multi-activation schedule replay restarts one machine."""
        from repro.verify import Schedule, replay_schedule

        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "jit")
        site = min(compiled.detector_plan().checks)
        schedule = Schedule(
            points=(FailurePoint(uid=site.op, occurrence=1),), activations=3
        )
        built = _machines_built(monkeypatch)
        result = replay_schedule(
            compiled, meta.env_factory(0), schedule, engine=engine_name,
            stop_at_violation=False,
        )
        assert result.activations == 3 and result.completed
        assert result.all_fired
        assert built == {engine_name: 1}

    @pytest.mark.parametrize("engine_name", [ENGINE_REFERENCE, ENGINE_FAST])
    def test_rebinding_equals_a_fresh_machine(self, engine_name):
        """``begin_activation`` over another environment, supply (of any
        kind, after any kind), nonvolatile state and clock makes a machine
        that has run equal one that never ran, handed the same state."""
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        costs = meta.cost_model()
        site = min(compiled.detector_plan().checks)
        supplies = {
            "continuous": ContinuousPower,
            "scheduled": lambda: ScheduledFailures(
                [FailurePoint(chain=site)], off_cycles=25_000
            ),
            "harvest": lambda: _capacitor_supply(1_200),
        }
        prior = create_machine(
            engine_name, compiled, meta.env_factory(1), costs=costs
        )
        prior.run()

        env = meta.env_factory(7)

        def restart(machine, after):
            machine.begin_activation(
                env=env,
                supply=supplies[after](),
                nv=NVState(
                    globals=dict(prior.nv.globals),
                    arrays={k: list(v) for k, v in prior.nv.arrays.items()},
                    bits=BitVector(set(prior.nv.bits.bits)),
                ),
                tau=40_000,
            )

        reboots = {}
        for before in supplies:
            for after in supplies:
                context = f"{before} -> {after}"
                machine = create_machine(
                    engine_name, compiled, meta.env_factory(5),
                    supplies[before](), costs=costs,
                )
                machine.run()
                restart(machine, after)
                fresh = create_machine(
                    engine_name, compiled, meta.env_factory(5),
                    supplies[before](), costs=costs,
                )
                restart(fresh, after)
                # Each machine holds its own supply, equal to the other's
                # but for a random generator's identity.
                mine, theirs = _fields(machine), _fields(fresh)
                del mine["_supply"], theirs["_supply"]
                assert mine == theirs, context
                rebound, expected = machine.run(), fresh.run()
                assert rebound.trace.events == expected.trace.events, context
                assert rebound.stats == expected.stats, context
                assert rebound.ret == expected.ret, context
                assert (
                    rebound.detector_queries == expected.detector_queries
                ), context
                assert machine.tau == fresh.tau, context
                assert (
                    machine.nv.snapshot_values() == fresh.nv.snapshot_values()
                ), context
                reboots[after] = expected.stats.reboots
        assert reboots["continuous"] == 0
        assert reboots["scheduled"] > 0 and reboots["harvest"] > 0

    @pytest.mark.parametrize("engine_name", [ENGINE_REFERENCE, ENGINE_FAST])
    @pytest.mark.parametrize("abandoned", [False, True])
    def test_restart_leaves_nothing_behind(self, engine_name, abandoned):
        """A machine restarted after a run -- to completion, or abandoned
        inside a region after a checkpoint -- has every attribute of a
        never-run one handed the same state."""
        from repro.verify import FixedOffSupply

        compiled = compile_source(LEFTOVERS_SRC, "jit-opt")
        env = Environment({"alpha": steps([4, 9], 400), "beta": steps([1], 1)})

        def build():
            return create_machine(
                engine_name, compiled, env, FixedOffSupply(off_cycles=300)
            )

        machine = build()
        if abandoned:
            machine.step()
            machine.force_power_failure()
            for _ in range(7):
                machine.step()
            assert machine._jit_ctx is not None
            assert machine._atom_ctx is not None
        else:
            assert machine.run().ret is not None
        assert machine._hoist_cache
        fresh = build()
        for each in (machine, fresh):
            each.begin_activation(
                supply=FixedOffSupply(off_cycles=300),
                nv=NVState.initial(compiled.module),
                tau=0,
            )
        assert _fields(machine) == _fields(fresh)


# ---------------------------------------------------------------------------
# Segments: the fast engine's generated straight-line runs
#
# Every case below pins a place where a segment must be declined (some
# per-op check inside it could fire) or must end exactly, and asserts
# that the segment path really ran.  Machines run on a fresh decode so
# segment hit counts start at zero.

_EAGER = 1  # every segment compiles on its first entry
_NEVER = 10**9  # no segment ever compiles: the per-op path only


@contextlib.contextmanager
def _segment_threshold(value):
    saved = engine.SEGMENT_COMPILE_THRESHOLD
    engine.SEGMENT_COMPILE_THRESHOLD = value
    try:
        yield
    finally:
        engine.SEGMENT_COMPILE_THRESHOLD = saved


def _wrap_segments(code, wrapper, record):
    """Compile every segment of ``code`` now and pass each run through
    ``wrapper(record, (function, block, head index), run, machine,
    frame)``; return ``record``."""
    for fname, fast in code.functions.items():
        for bname, ops in fast.blocks.items():
            for index, op in enumerate(ops):
                if op.seg is not None:
                    op.seg.fn = functools.partial(
                        wrapper, record, (fname, bname, index), op.seg.compile()
                    )
    return record


def _spy_segments(code):
    """Compile every segment of ``code`` now; count each one's runs by
    ``(function, block, head index)``."""
    return _wrap_segments(code, _counted, collections.Counter())


def _counted(runs, key, run, machine, frame):
    runs[key] += 1
    return run(machine, frame)


def _capacitor_supply(level, capacity=10_000, low=1_000):
    return EnergyDrivenSupply(
        capacitor=Capacitor(capacity, low, level=level),
        harvester=ConstantHarvester(400),
    )


def _facts(machine, result, supply):
    capacitor = getattr(supply, "capacitor", None)
    return (
        result.stats,
        result.trace.events,
        result.ret,
        machine.tau,
        machine.nv.snapshot_values(),
        result.detector_queries,
        capacitor.level if capacitor is not None else None,
    )


def _run_pair(compiled, code, activations, make_env):
    """Run ``activations()`` -- a list of ``(supply, config)`` built
    fresh per engine -- back to back under both engines (shared NV state,
    fast engine on ``code``); assert identical facts per activation and
    return the fast engine's results."""
    plan = code.plan
    per_engine = {}
    for engine_name in (ENGINE_REFERENCE, ENGINE_FAST):
        nv = NVState.initial(compiled.module)
        env = make_env()
        tau, facts, results = 0, [], []
        for supply, config in activations():
            if engine_name == ENGINE_FAST:
                machine = FastMachine(
                    compiled.module, env, supply, plan=plan, config=config,
                    code=code,
                )
            else:
                machine = Machine(
                    compiled.module, env, supply, plan=plan, config=config
                )
            machine.begin_activation(nv=nv, tau=tau)
            result = machine.run()
            facts.append(_facts(machine, result, supply))
            results.append(result)
            tau = machine.tau
        per_engine[engine_name] = (facts, results)
    ref, fast = per_engine[ENGINE_REFERENCE][0], per_engine[ENGINE_FAST][0]
    for index, (want, got) in enumerate(zip(ref, fast, strict=True)):
        assert got == want, f"activation {index}"
    return per_engine[ENGINE_FAST][1]


EXIT_SRC = """\
inputs temp;
nonvolatile total = 0;

fn main() {
  let x = input(temp);
  work(30);
  let y = x + 1;
  total = total + y;
  log(y);
}
"""

NESTED_REGIONS_SRC = """\
inputs temp;
nonvolatile total = 0;
nonvolatile count = 0;

fn main() {
  atomic {
    let x = input(temp);
    atomic {
      total = total + x;
    }
    count = count + 1;
  }
  log(total);
}
"""

_EXIT_ENV = {"temp": steps([3, 11, 7], 90)}


def _exit_build(source=EXIT_SRC, config="jit"):
    compiled = compile_source(source, config)
    code = compile_code(compiled.module, compiled.detector_plan(), DEFAULT_COSTS)
    return compiled, code


def _env():
    return Environment(dict(_EXIT_ENV))


class TestSegmentExits:
    def test_capacitor_crossing_inside_a_segment_fails_at_that_op(self):
        """Sweep the starting charge across the whole program: wherever a
        run's summed energy would cross the trip point, the segment is
        declined and the failure hits the exact inner op per-op."""
        compiled, code = _exit_build()
        runs = _spy_segments(code)
        entry = code.functions["main"].blocks["entry"]
        first = entry[0].seg
        inner_failures = set()
        for level in range(1_001, 1_001 + 200):
            (result,) = _run_pair(
                compiled, code,
                lambda level=level: [(_capacitor_supply(level), MachineConfig())],
                _env,
            )
            fail = next(
                (e.tau for e in result.trace.events
                 if isinstance(e, obs.CheckpointObs)),
                None,
            )
            if fail is not None and result.trace.events[0].tau < fail:
                inner_failures.add(fail)
        assert runs[("main", "entry", 0)] > 0  # full-charge levels ran it
        # one run covers main, its uart region included
        assert [op.seg is not None for op in entry] == [True] + [False] * (
            len(entry) - 1
        )
        assert first.cycles == sum(
            op.cycles
            for ops in code.functions["main"].blocks.values()
            for op in ops
            if op.role != engine._ROLE_REGION
        )
        assert first.bound is not None
        # failures landed after the first op of the run, at several ops
        assert len(inner_failures) >= 2

    def test_nested_region_heads_under_a_charge_sweep(self):
        """Outer and nested ``atomic_start``/``atomic_end`` ops inside one
        run: their state-dependent costs are bounded at entry, and
        failures inside the regions restart them exactly as per-op
        execution does."""
        compiled, code = _exit_build(NESTED_REGIONS_SRC, "ocelot")
        runs = _spy_segments(code)
        entry = code.functions["main"].blocks["entry"]
        heads = [i for i, op in enumerate(entry) if op.seg is not None]
        for level in range(1_001, 1_001 + 260, 3):
            _run_pair(
                compiled, code,
                lambda level=level: [
                    (_capacitor_supply(level), MachineConfig()),
                    (_capacitor_supply(10_000), MachineConfig()),
                ],
                _env,
            )
        # outer start, nested start, nested end, outer end, uart start/end:
        # all six in the run of the block's first op, the only head
        regions = [i for i, op in enumerate(entry) if op.role == engine._ROLE_REGION]
        assert len(regions) == 6
        assert heads == [0]
        assert entry[0].seg.bound is not None
        for index in heads:
            assert runs[("main", "entry", index)] > 0, index

    def test_max_cycles_inside_a_segment(self):
        compiled, code = _exit_build()
        runs = _spy_segments(code)
        results = _run_pair(
            compiled, code,
            lambda: [
                (ContinuousPower(), MachineConfig()),
                (ContinuousPower(), MachineConfig(max_cycles=50)),
            ],
            _env,
        )
        assert runs[("main", "entry", 0)] == 1  # the first activation only
        assert results[0].stats.completed
        assert not results[1].stats.completed
        assert results[1].stats.instructions == 3  # input, copy, work

    def test_scheduled_failure_on_an_op_inside_a_segment(self):
        compiled, code = _exit_build()
        runs = _spy_segments(code)
        entry = compiled.module.functions["main"].blocks["entry"].instrs
        work_uid = next(i.uid for i in entry if isinstance(i, ir.WorkInstr))
        results = _run_pair(
            compiled, code,
            lambda: [
                (ContinuousPower(), MachineConfig()),
                (
                    ScheduledFailures(
                        [FailurePoint(uid=work_uid)], off_cycles=500
                    ),
                    MachineConfig(),
                ),
            ],
            _env,
        )
        assert runs[("main", "entry", 0)] == 1
        kinds = [type(e).__name__ for e in results[1].trace.events]
        assert kinds[:4] == ["InputObs", "CheckpointObs", "PowerFailObs", "RebootObs"]

    def test_main_return_energy_is_not_drained(self):
        compiled, code = _exit_build()
        runs = _spy_segments(code)
        (result,) = _run_pair(
            compiled, code,
            lambda: [(_capacitor_supply(10_000), MachineConfig())],
            _env,
        )
        assert runs[("main", "exit", 0)] == 0  # fused into the head's run
        tail = max(k for k in runs if k[1] == "entry")
        assert runs[tail] == 1
        assert result.stats.reboots == 0
        ret_cycles = DEFAULT_COSTS.ret
        # _run_pair compared capacitor levels; pin the drained amount too
        supply = _capacitor_supply(10_000)
        FastMachine(
            compiled.module, _env(), supply, plan=code.plan, code=code
        ).run()
        assert supply.capacitor.level == 10_000 - (
            result.stats.cycles_on - ret_cycles
        )

    def test_runs_below_and_above_the_compile_threshold(self, monkeypatch):
        """At the default threshold, activation by activation: per-op
        before the head's Nth entry, its segment from then on."""
        compiled, code = _exit_build()
        head = code.functions["main"].blocks["entry"][0].seg
        threshold = engine.SEGMENT_COMPILE_THRESHOLD
        compiled_after = []
        run = FastMachine.run

        def recording_run(machine):
            result = run(machine)
            compiled_after.append(head.fn is not None)
            return result

        monkeypatch.setattr(FastMachine, "run", recording_run)
        _run_pair(
            compiled, code,
            lambda: [
                (_capacitor_supply(10_000), MachineConfig())
                for _ in range(threshold + 4)
            ],
            _env,
        )
        assert compiled_after == [False] * (threshold - 1) + [True] * 5
        assert head.hits == threshold


FEATURES_SRC = """\
inputs temp, hum;
nonvolatile total = 0;
nonvolatile flag = 0;
nonvolatile hist[4];

fn bump(&acc, step) {
  let before = acc;
  *acc = acc + step;
  let after = acc;
  return after - before;
}

fn relay(&acc) {
  let d = bump(&acc, 3);
  *acc = acc * 2;
  return d;
}

fn main() {
  let t = input(temp);
  let h = input(hum);
  Fresh(t);
  let x = t % 7 - -(h / 3);
  let neg = -x;
  let off = !(x > 5) || (h <= 2 && t != 4);
  let q = x / 0 + x % 0;
  let m = min(abs(neg), max(t, h));
  let i = m % 4;
  if i < 0 {
    i = 0 - i;
  }
  hist[i] = hist[i] + x;
  let r = relay(&x);
  total = total + r + x;
  work(m % 20 + 5);
  atomic {
    flag = flag + off;
    hist[0] = hist[(flag % 4)] + 1;
  }
  let consistent(1) c1 = input(temp);
  let consistent(1) c2 = input(hum);
  log(total, x, q, m, c1 + c2);
}
"""


def _features_env():
    return Environment(
        {
            "temp": steps([3, 11, -7], 90),
            "hum": random_walk(5, 4, seed=3, interval=70),
        }
    )


class TestSegmentFeatures:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_every_op_kind_under_a_charge_sweep(self, config):
        """References forwarded through two calls and written through,
        arrays, unary and logical operators, division by zero,
        intrinsics, a computed ``work`` amount, a region with an undo
        log, a consistent set: segments and the per-op path interleave
        at every starting charge, and stay identical to the reference."""
        compiled, code = _exit_build(FEATURES_SRC, config)
        runs = _spy_segments(code)
        for level in range(1_001, 1_001 + 600, 3):
            _run_pair(
                compiled, code,
                lambda level=level: [
                    (_capacitor_supply(level), MachineConfig()),
                    (_capacitor_supply(10_000), MachineConfig()),
                    (ContinuousPower(), MachineConfig()),
                ],
                _features_env,
            )
        for func in ("main", "relay", "bump"):
            assert runs[(func, "entry", 0)] > 0, func


class TestSegmentThresholdParity:
    """The engine parity sweep with every segment compiled eagerly and
    with none compiled at all (fresh builds: hit counts start at zero)."""

    @pytest.mark.parametrize("threshold", [_EAGER, _NEVER], ids=["eager", "never"])
    def test_all_apps_parity(self, threshold, monkeypatch):
        monkeypatch.setattr(engine, "SEGMENT_COMPILE_THRESHOLD", threshold)
        for app, meta in BENCHMARKS.items():
            for config in CONFIGS:
                compiled = compile_source(meta.source, config)
                proto = STANDARD_PROFILE.make_supply(seed=11)
                harvest = functools.partial(proto.spawn, 23)
                for make_supply in (ContinuousPower, harvest):
                    outcomes = _run_both(
                        compiled,
                        lambda meta=meta: meta.env_factory(5),
                        make_supply,
                        costs=meta.cost_model(),
                    )
                    _assert_identical(outcomes, f"{app}/{config}")
                code = code_for(compiled, costs=meta.cost_model())
                generated = [
                    op.seg.fn is not None
                    for fn in code.functions.values()
                    for ops in fn.blocks.values()
                    for op in ops
                    if op.seg is not None
                ]
                assert any(generated) == (threshold == _EAGER), app


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=program_sources(),
    config=st.sampled_from(CONFIGS),
    env_seed=st.integers(0, 50),
    supply_seed=st.integers(0, 1000),
)
def test_random_programs_parity_eager_segments(
    source, config, env_seed, supply_seed
):
    """Generated programs with every segment compiled on first entry,
    single activations under both supplies and activation streams."""
    with _segment_threshold(_EAGER):
        compiled = compile_source(source, config)
        proto = _PARITY_PROFILE.make_supply(seed=1)
        for make_supply in (ContinuousPower, lambda: proto.spawn(supply_seed)):
            outcomes = _run_both(
                compiled, lambda: _gen_env(env_seed), make_supply
            )
            _assert_identical(outcomes, source)
        ref, fast = _run_streams(
            compiled,
            lambda: _gen_env(env_seed),
            lambda: proto.spawn(supply_seed),
            budget_cycles=40_000,
        )
        assert ref.records == fast.records


OOB_STORE_SRC = """\
inputs idx;
nonvolatile buf[3];

fn main() {
  let i = input(idx);
  let j = i + 1;
  buf[j] = 7;
}
"""

OOB_READ_SRC = """\
inputs idx;
nonvolatile buf[3];

fn main() {
  let i = input(idx);
  let j = i + 1;
  let v = buf[j];
  log(v);
}
"""

STORE_REF_SRC = """\
inputs idx;

fn bump(&p) {
  let q = 1;
  *p = q + 2;
  return q;
}

fn main() {
  let x = input(idx);
  let r = bump(&x);
  log(r);
}
"""

UNBOUND_SRC = """\
inputs idx;

fn main() {
  let x = input(idx);
  let z = x * 2;
  log(z);
}
"""


LEAF_SRC = """\
inputs idx;
nonvolatile buf[3];

fn peek(i) {
  let v = buf[i + 1];
  return v;
}

fn main() {
  let i = input(idx);
  let v = peek(i);
  log(v);
}
"""

def _assign_to_ref_param(module):
    """Rewrite ``*p = e`` into ``p = e`` (the validator rejects it in
    source; the engines must still agree on the runtime error)."""
    for block in module.functions["bump"].blocks.values():
        for index, instr in enumerate(block.instrs):
            if isinstance(instr, ir.StoreRefInstr):
                block.instrs[index] = ir.Assign(
                    dest=instr.param, expr=instr.expr, uid=instr.uid
                )


def _read_unbound(module):
    for block in module.functions["main"].blocks.values():
        for instr in block.instrs:
            if isinstance(instr, ir.OutputInstr):
                instr.args = [lang_ast.Var(name="gh'ost")]


def _leaf_reads_unbound(module):
    """``peek`` (inlined into ``main``'s run) reads no array and returns
    an unbound name."""
    for block in module.functions["peek"].blocks.values():
        for instr in block.instrs:
            if isinstance(instr, ir.Assign) and instr.dest == "v":
                instr.expr = lang_ast.IntLit(value=1)
        if isinstance(block.terminator, ir.RetInstr):
            block.terminator.expr = lang_ast.Var(name="gh'ost")


#: (source, IR rewrite, the error both engines raise)
ERROR_CASES = {
    "oob-store": (OOB_STORE_SRC, None, "index 6 out of bounds for buf[3]"),
    "oob-read": (OOB_READ_SRC, None, "index 6 out of bounds for buf[3]"),
    "ref-param": (
        STORE_REF_SRC, _assign_to_ref_param,
        "assignment to reference parameter 'p'",
    ),
    "unbound": (
        UNBOUND_SRC, _read_unbound, "read of unbound variable 'gh'ost' in main"
    ),
    "leaf-oob": (LEAF_SRC, None, "index 6 out of bounds for buf[3]"),
    "leaf-unbound": (
        LEAF_SRC, _leaf_reads_unbound, "read of unbound variable 'gh'ost' in peek"
    ),
}


class TestSegmentErrors:
    @pytest.mark.parametrize("threshold", [_NEVER, _EAGER], ids=["before", "after"])
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_errors_match_the_reference(self, case, threshold, monkeypatch):
        """A program that raises inside a segment raises the same error
        type and message on both engines, before and after the segment
        compiles."""
        source, rewrite, message = ERROR_CASES[case]
        compiled = compile_source(source, "jit")
        if rewrite is not None:
            rewrite(compiled.module)
        plan = compiled.detector_plan()
        code = compile_code(compiled.module, plan, DEFAULT_COSTS)
        monkeypatch.setattr(engine, "SEGMENT_COMPILE_THRESHOLD", threshold)

        def env():
            return Environment({"idx": steps([5], 1000)})

        with pytest.raises(ExecError) as ref_error:
            Machine(compiled.module, env(), plan=plan).run()
        with pytest.raises(ExecError) as fast_error:
            FastMachine(compiled.module, env(), plan=plan, code=code).run()
        assert type(ref_error.value) is type(fast_error.value) is ExecError
        assert str(ref_error.value) == str(fast_error.value) == message
        generated = [
            op.seg.fn is not None
            for fn in code.functions.values()
            for ops in fn.blocks.values()
            for op in ops
            if op.seg is not None
        ]
        assert any(generated) == (threshold == _EAGER)


#: Names no Python identifier can spell, one of them an attempt to break
#: out of a string literal.
ODD_NAMES = ("it's", 'say "hi"', "back\\slash", "new\nline", "x'] = 1; L['y")


def _odd_module():
    """``main`` and a callee whose every name is in :data:`ODD_NAMES`."""
    a, b, arr, g, c = ODD_NAMES
    callee, param = "f'\\\"\n", 'p"\n'
    labels = iter(range(1, 100))

    def uid(func):
        return ir.InstrId(func, next(labels))

    lit, var = lang_ast.IntLit, lang_ast.Var
    body = IRFunction(name=callee, params=[lang_ast.Param(name=param)])
    body.blocks = {
        "entry": BasicBlock(
            "entry",
            terminator=ir.RetInstr(
                expr=lang_ast.Binary(op="+", lhs=var(param), rhs=lit(1)),
                uid=uid(callee),
            ),
        )
    }
    main = IRFunction(name="main", params=[])
    main.blocks = {
        "entry": BasicBlock(
            "entry",
            instrs=[
                ir.Assign(dest=a, expr=lit(5), uid=uid("main")),
                ir.Assign(
                    dest=b,
                    expr=lang_ast.Binary(
                        op="+", lhs=var(a),
                        rhs=lang_ast.Index(array=arr, index=lit(1)),
                    ),
                    uid=uid("main"),
                ),
                ir.StoreArr(array=arr, index=lit(2), expr=var(b), uid=uid("main")),
                ir.Assign(
                    dest=g,
                    expr=lang_ast.Binary(op="*", lhs=var(b), rhs=var(g)),
                    scope=ir.SCOPE_GLOBAL,
                    uid=uid("main"),
                ),
                ir.CallInstr(dest=c, func=callee, args=[var(b)], uid=uid("main")),
                ir.Assign(
                    dest=g, expr=var(c), scope=ir.SCOPE_GLOBAL, uid=uid("main")
                ),
            ],
            terminator=ir.RetInstr(expr=None, uid=uid("main")),
        )
    }
    module = Module(
        functions={"main": main, callee: body},
        globals={g: 3},
        arrays={arr: [10, 20, 30]},
    )
    return module, callee, param


class TestSegmentNames:
    def test_generated_code_reads_and_writes_exactly_the_program_names(self):
        module, callee, param = _odd_module()
        a, b, arr, g, c = ODD_NAMES
        reference = Machine(module, Environment({}))
        reference.run()

        plan = DetectorPlan()
        code = compile_code(module, plan, DEFAULT_COSTS)
        machine = FastMachine(module, Environment({}), plan=plan, code=code)
        frame = machine._frames[-1]
        segment = frame.ops[0].seg
        run = segment.compile()
        # One run: five ALU-cost ops, the call and the callee's return
        # (main's return is run too, but its energy is not drained).
        assert run(machine, frame) == (
            5 * DEFAULT_COSTS.alu + DEFAULT_COSTS.call + DEFAULT_COSTS.ret
        )
        assert machine.stats.instructions == 8
        assert frame.locals == {a: TVal(5), b: TVal(25), c: TVal(26)}
        assert machine.nv.snapshot_values() == {
            "globals": {g: 26},
            "arrays": {arr: [10, 20, 25]},
        }
        # main's return popped main's own frame and finished the machine
        assert machine._frames == [] and machine._done
        # names are string constants of the code, never identifiers
        names = set(run.__code__.co_names) | set(run.__code__.co_varnames)
        assert not names & {*ODD_NAMES, callee, param}
        consts = set(run.__code__.co_consts)
        assert {a, b, arr, g, c} <= consts
        # the inlined callee runs without a frame or a locals dict, so
        # neither its name nor its parameter's enters the code at all
        assert not {callee, param} & consts

        with _segment_threshold(_EAGER):
            machine.run()
        assert machine.nv.snapshot_values() == reference.nv.snapshot_values()
        assert machine.nv.snapshot_values()["globals"] == {g: 26}


# ---------------------------------------------------------------------------
# Runs through leaf calls and region ops
#
# A run goes on through a call to a *leaf* (a function whose entry run
# reaches its ``ret`` with straight-line ops only) and through
# ``atomic_start``/``atomic_end``.  Each case holds a run of that shape
# to per-op execution (the charge sweeps) and to the reference engine.

LEAF_REGIONS_SRC = """\
inputs temp;
nonvolatile total = 0;
nonvolatile count = 0;

fn scale(v) {
  let w = v * 3;
  return w + 1;
}

fn main() {
  let x = input(temp);
  let y = scale(x);
  atomic {
    total = total + y;
    atomic {
      count = count + x;
    }
  }
  if total > 50 {
    total = total - 40;
  }
  log(total);
}
"""

REGION_AFTER_LOCALS_SRC = """\
inputs temp;
nonvolatile total = 0;
nonvolatile count = 0;

fn main() {
  let x = input(temp);
  let y = x + 2;
  atomic {
    total = total + y;
    if y > 5 {
      count = count + 1;
    }
    work(40);
    count = count + total;
  }
  log(count);
}
"""

REF_STORE_SRC = """\
inputs temp;

fn bump(&p) {
  *p = p + 5;
  return 1;
}

fn main() {
  let x = input(temp);
  let r = bump(&x);
  let y = x + r;
  log(y);
}
"""

NOT_LEAVES_SRC = """\
inputs temp;
nonvolatile total = 0;

fn twice(v) {
  return v * 2;
}

fn branchy(v) {
  let w = v;
  if v > 5 {
    w = v - 5;
  }
  return w;
}

fn caller(v) {
  let w = twice(v);
  return w + 1;
}

fn guarded(v) {
  atomic {
    total = total + v;
  }
  return v;
}

fn main() {
  let x = input(temp);
  let a = branchy(x);
  let b = caller(a);
  let c = guarded(b);
  let d = twice(c);
  log(a, b, c, d);
}
"""


GUARDED_SRC = """\
inputs temp;
nonvolatile total = 0;
nonvolatile hist[3];

fn main() {
  let x = input(temp);
  atomic {
    total = total + x;
    hist[x % 4] = hist[1] + x;
  }
  log(total);
}
"""

REENTERED_SRC = """\
inputs temp;
nonvolatile total = 0;
nonvolatile count = 0;

fn main() {
  let x = input(temp);
  atomic {
    total = total + x;
    if x > 5 {
      count = count + 1;
    }
    atomic {
      count = count + total;
    }
    total = total + 1;
  }
  log(count);
}
"""


def _in_bounds_env():
    """``x % 4`` stays inside ``hist[3]``."""
    return Environment({"temp": steps([5, 6, 9], 90)})


def _run_log(code):
    """Compile every segment of ``code`` now; log each run as ``(head,
    whether a region was open at entry, the events it appended)``."""
    return _wrap_segments(code, _logged, [])


def _logged(log, key, run, machine, frame):
    opened = machine._atom_ctx is not None
    before = len(machine.trace.events)
    drained = run(machine, frame)
    log.append((key, opened, machine.trace.events[before:]))
    return drained


class _WatchedFrames(list):
    """A frame stack that logs each push and pop by function name."""

    def __init__(self, frames, changes):
        super().__init__(frames)
        self.changes = changes

    def append(self, frame):
        self.changes.append(("push", frame.func))
        super().append(frame)

    def pop(self, *index):
        frame = super().pop(*index)
        self.changes.append(("pop", frame.func))
        return frame


def _call_ops(code, func):
    """``{callee: decoded call op}`` over ``func``'s blocks."""
    calls = {}
    fn_ir = code.module.functions[func]
    for name, block in fn_ir.blocks.items():
        for instr, op in zip(block.instrs, code.functions[func].blocks[name]):
            if isinstance(instr, ir.CallInstr):
                calls[instr.func] = op
    return calls


class TestInlinedRuns:
    def test_leaf_call_and_regions_in_one_run_under_a_charge_sweep(self):
        """One run spans a leaf call, an outer ``atomic_start`` after the
        run has added locals, a nested start and both ends."""
        compiled, code = _exit_build(LEAF_REGIONS_SRC, "ocelot")
        runs = _spy_segments(code)
        entry = code.functions["main"].blocks["entry"]
        assert [i for i, op in enumerate(entry) if op.seg is not None] == [0]
        assert _call_ops(code, "main")["scale"].role == engine._ROLE_CALL
        roles = [op.role for op in entry]
        assert roles.count(engine._ROLE_REGION) == 4
        assert roles[-1] == engine._ROLE_END  # the branch
        for level in range(1_001, 1_001 + 420):
            _run_pair(
                compiled, code,
                lambda level=level: [
                    (_capacitor_supply(level), MachineConfig()),
                    (_capacitor_supply(10_000), MachineConfig()),
                ],
                _env,
            )
        assert runs[("main", "entry", 0)] > 0

    def test_region_entered_mid_run_restarts_at_its_start(self):
        """A run enters a region after three ops and ends at a branch
        inside it; failures later in the region restart it from the
        snapshot the run took, positioned after its ``atomic_start``."""
        compiled, code = _exit_build(REGION_AFTER_LOCALS_SRC, "ocelot")
        entry = code.functions["main"].blocks["entry"]
        assert [i for i, op in enumerate(entry) if op.seg is not None] == [0]
        assert entry[3].role == engine._ROLE_REGION
        assert entry[-1].role == engine._ROLE_END  # the branch
        runs = _spy_segments(code)
        restarts = 0
        for level in range(1_001, 1_001 + 300):
            results = _run_pair(
                compiled, code,
                lambda level=level: [
                    (_capacitor_supply(level), MachineConfig()),
                    (_capacitor_supply(10_000), MachineConfig()),
                ],
                _env,
            )
            restarts += results[0].stats.region_restarts
        assert runs[("main", "entry", 0)] > 0
        assert restarts > 0

    def test_leaf_store_through_a_reference_is_read_again(self):
        """The callee writes the caller's ``x`` through ``&x``; the rest
        of the run reads the new value, not the one it wrote before."""
        compiled, code = _exit_build(REF_STORE_SRC)
        runs = _spy_segments(code)
        assert _call_ops(code, "main")["bump"].role == engine._ROLE_CALL
        (result,) = _run_pair(
            compiled, code, lambda: [(ContinuousPower(), MachineConfig())], _env
        )
        assert runs[("main", "entry", 0)] == 1
        log = next(e for e in result.trace.events if isinstance(e, obs.OutputObs))
        assert log.values == (3 + 5 + 1,)

    def test_called_entry_function_keeps_chains_dynamic(self):
        """``main`` called from another function (hand-built IR; the
        language rejects recursion): its frames differ in call-site
        prefix, so its checks resolve per frame at run time."""
        labels = iter(range(1, 100))

        def uid(func):
            return ir.InstrId(func, next(labels))

        lit, var = lang_ast.IntLit, lang_ast.Var
        read, use, recurse, again = uid("main"), uid("main"), uid("main"), uid("again")
        main = IRFunction(name="main", params=[])
        main.blocks = {
            "entry": BasicBlock(
                "entry",
                instrs=[
                    ir.InputInstr(dest="x", channel="temp", uid=read),
                    ir.Assign(
                        dest="n",
                        expr=lang_ast.Binary(op="+", lhs=var("n"), rhs=lit(1)),
                        scope=ir.SCOPE_GLOBAL,
                        uid=uid("main"),
                    ),
                    ir.OutputInstr(op="log", args=[var("x")], uid=use),
                ],
                terminator=ir.Branch(
                    cond=lang_ast.Binary(op="<", lhs=var("n"), rhs=lit(3)),
                    true_target="deeper",
                    false_target="exit",
                    uid=uid("main"),
                ),
            ),
            "deeper": BasicBlock(
                "deeper",
                instrs=[ir.CallInstr(dest=None, func="again", args=[], uid=recurse)],
                terminator=ir.Jump(target="exit", uid=uid("main")),
            ),
            "exit": BasicBlock(
                "exit", terminator=ir.RetInstr(expr=None, uid=uid("main"))
            ),
        }
        body = IRFunction(name="again", params=[])
        body.blocks = {
            "entry": BasicBlock(
                "entry",
                instrs=[ir.CallInstr(dest=None, func="main", args=[], uid=again)],
                terminator=ir.RetInstr(expr=None, uid=uid("again")),
            )
        }
        module = Module(
            functions={"main": main, "again": body}, globals={"n": 0}, arrays={}
        )
        top = Chain(ids=(read,))
        deep = Chain(ids=(recurse, again, read))
        checks = {
            Chain(ids=(recurse, again, use)): [
                Check(
                    site=Chain(ids=(recurse, again, use)),
                    pid="fresh-deep",
                    kind="fresh",
                    required=(deep, top),
                )
            ]
        }
        plan = DetectorPlan(
            bit_chains=frozenset({top, deep}),
            checks=checks,
            trigger_uids=frozenset({use}),
        )

        def env():
            return Environment({"temp": steps([4, 9], 50)})

        reference = Machine(module, env(), plan=plan)
        want = reference.run()
        with _segment_threshold(_EAGER):
            code = compile_code(module, plan, DEFAULT_COSTS)
            assert code.entry_sites is None
            fast = FastMachine(module, env(), plan=plan, code=code)
            got = fast.run()
        assert got.trace.events == want.trace.events
        assert got.stats == want.stats
        assert fast.nv.snapshot_values() == reference.nv.snapshot_values()
        assert fast.nv.bits.bits == reference.nv.bits.bits
        assert {top, deep} < fast.nv.bits.bits
        # main ran three deep; only the second frame's output is a use
        uses = [e for e in got.trace.events if isinstance(e, obs.UseObs)]
        assert [e.pid for e in uses] == ["fresh-deep"]
        assert code.functions["main"].blocks["entry"][0].seg.fn is not None

    def test_callees_with_a_branch_call_or_region_are_not_inlined(self):
        compiled, code = _exit_build(NOT_LEAVES_SRC, "ocelot")
        calls = _call_ops(code, "main")
        assert calls["twice"].role == engine._ROLE_CALL
        leaf = compile_source(LEAF_SRC, "jit")
        leaf_code = compile_code(leaf.module, leaf.detector_plan(), DEFAULT_COSTS)
        assert _call_ops(leaf_code, "main")["peek"].role == engine._ROLE_CALL
        assert _call_ops(code, "caller")["twice"].role == engine._ROLE_CALL
        for callee in ("branchy", "caller", "guarded"):
            assert calls[callee].role == engine._ROLE_END, callee
        # the return point of a call that ends a run heads the next one
        entry = code.functions["main"].blocks["entry"]
        for callee in ("branchy", "caller", "guarded"):
            assert entry[entry.index(calls[callee]) + 1].seg is not None, callee
        runs = _spy_segments(code)
        for level in range(1_001, 1_001 + 700, 7):
            _run_pair(
                compiled, code,
                lambda level=level: [
                    (_capacitor_supply(level), MachineConfig()),
                    (_capacitor_supply(10_000), MachineConfig()),
                ],
                _env,
            )
        for func in ("main", "branchy", "caller", "guarded"):
            assert runs[(func, "entry", 0)] > 0, func

    # -- region pairs a run closes itself, and leaves without frames ----------

    @pytest.mark.parametrize("name", ["total", "hist"])
    def test_contained_region_write_outside_omega_raises_the_reference_error(
        self, name
    ):
        """A region the run enters and commits itself builds no undo log,
        yet a write its omega misses fails as ``_assert_logged`` makes
        the reference fail."""
        compiled = compile_source(GUARDED_SRC, "ocelot")
        entry = compiled.module.functions["main"].blocks["entry"].instrs
        start = next(
            instr
            for instr in entry
            if isinstance(instr, ir.AtomicStart) and instr.origin == "manual"
        )
        assert name in start.omega
        start.omega = start.omega - {name}
        plan = compiled.detector_plan()
        code = compile_code(compiled.module, plan, DEFAULT_COSTS)
        ops = code.functions["main"].blocks["entry"]
        assert [i for i, op in enumerate(ops) if op.seg is not None] == [0]
        runs = _spy_segments(code)
        with pytest.raises(ExecError) as ref_error:
            Machine(compiled.module, _in_bounds_env(), plan=plan).run()
        with pytest.raises(ExecError) as fast_error:
            FastMachine(
                compiled.module, _in_bounds_env(), plan=plan, code=code
            ).run()
        assert str(fast_error.value) == str(ref_error.value) == (
            f"nonvolatile '{name}' written inside region 'm1' but absent "
            "from its omega set (WAR/EMW analysis bug)"
        )
        assert runs[("main", "entry", 0)] == 1

    def test_error_inside_a_contained_region_leaves_no_state_behind(self):
        """``hist[3]`` fails inside a region the run enters itself; fresh
        machines on the same decoded code then match the reference at
        every starting charge, as if no run had failed."""
        compiled, code = _exit_build(GUARDED_SRC, "ocelot")
        runs = _spy_segments(code)
        plan = code.plan

        def failing_env():
            return Environment({"temp": steps([3], 1000)})  # 3 % 4 == 3

        with pytest.raises(ExecError) as ref_error:
            Machine(compiled.module, failing_env(), plan=plan).run()
        with pytest.raises(ExecError) as fast_error:
            FastMachine(compiled.module, failing_env(), plan=plan, code=code).run()
        assert str(fast_error.value) == str(ref_error.value) == (
            "index 3 out of bounds for hist[3]"
        )
        assert runs[("main", "entry", 0)] == 1
        entries = 0
        for level in range(1_001, 1_001 + 240, 3):
            results = _run_pair(
                compiled, code,
                lambda level=level: [
                    (_capacitor_supply(level), MachineConfig()),
                    (ContinuousPower(), MachineConfig()),
                ],
                _in_bounds_env,
            )
            entries += results[1].stats.region_entries
        assert runs[("main", "entry", 0)] > 1
        assert entries > 0

    def test_run_entered_inside_a_region_keeps_its_pair_nested(self):
        """Past the branch inside ``m1`` a run starts with ``m1`` open --
        right after the branch, or per op after a restart up to the next
        head.  Its ``m2`` pair is bookkeeping only, ``m1``'s end commits
        through its closure, and the ``uart`` pair after it is entered
        by the run itself."""
        compiled, code = _exit_build(REENTERED_SRC, "ocelot")
        join = code.functions["main"].blocks["join"]
        assert [op.role for op in join[:5]] == [
            engine._ROLE_REGION, engine._ROLE_STEP, engine._ROLE_REGION,
            engine._ROLE_STEP, engine._ROLE_REGION,
        ]
        log = _run_log(code)
        restarts = 0
        for level in range(1_001, 1_001 + 400, 2):
            results = _run_pair(
                compiled, code,
                lambda level=level: [
                    (_capacitor_supply(level), MachineConfig()),
                    (_capacitor_supply(10_000), MachineConfig()),
                ],
                _env,
            )
            restarts += results[0].stats.region_restarts
        opened = {key for key, was_open, _ in log if was_open}
        assert {("main", "then", 0), ("main", "join", 0)} <= opened
        assert restarts > 0

    @pytest.mark.parametrize(
        "source", [LEAF_REGIONS_SRC, REENTERED_SRC], ids=["leaf", "reentered"]
    )
    def test_region_observations_inside_runs_under_a_charge_sweep(self, source):
        """With full observations, region pairs a compiled run enters or
        commits itself emit ``RegionEnterObs``/``RegionExitObs`` at the
        reference's ``tau`` (``_run_pair`` compares whole traces)."""
        compiled, code = _exit_build(source, "ocelot")
        log = _run_log(code)
        for level in range(1_001, 1_001 + 420, 2):
            _run_pair(
                compiled, code,
                lambda level=level: [
                    (_capacitor_supply(level), MachineConfig()),
                    (_capacitor_supply(10_000), MachineConfig()),
                ],
                _env,
            )
        emitted = collections.Counter(
            type(event).__name__
            for _, _, events in log
            for event in events
            if isinstance(event, (obs.RegionEnterObs, obs.RegionExitObs))
        )
        assert emitted["RegionEnterObs"] > 0
        assert emitted["RegionExitObs"] > 0

    def test_contained_region_takes_no_snapshot_and_leaf_pushes_no_frame(
        self, monkeypatch
    ):
        """Every region of the program opens and closes inside one run,
        and ``scale`` takes a value: the compiled runs copy no stack and
        push no frame; only ``main``'s return pops its own."""
        compiled, code = _exit_build(LEAF_REGIONS_SRC, "ocelot")
        runs = _spy_segments(code)
        snapshots = []
        copy_stack = engine.copy_stack
        monkeypatch.setattr(
            engine, "copy_stack",
            lambda frames: snapshots.append(len(frames)) or copy_stack(frames),
        )
        want = Machine(compiled.module, _env(), plan=code.plan).run()
        changes = []
        machine = FastMachine(compiled.module, _env(), plan=code.plan, code=code)
        machine._frames = _WatchedFrames(machine._frames, changes)
        got = machine.run()
        assert got.trace.events == want.trace.events
        assert got.stats == want.stats
        assert got.stats.region_entries == got.stats.region_commits == 2
        assert runs[("main", "entry", 0)] == 1
        assert snapshots == []
        assert changes == [("pop", "main")]


class _Forwarding:
    """A supply type the fast engine does not specialize: it forwards
    every call to a stock supply, so ``run`` loops over ``step``."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestGenericSupply:
    @pytest.mark.parametrize("config", ["ocelot", "jit"])
    def test_forwarded_capacitor_under_a_charge_sweep(self, config):
        """Every app, each starting charge: the step loop makes the
        reference machine's supply calls, so it fails where it fails."""
        rebooted = 0
        for meta in BENCHMARKS.values():
            compiled = GLOBAL_CACHE.get_or_compile(meta.source, config)
            code = code_for(compiled)
            for level in range(1_001, 10_001, 450):
                (result,) = _run_pair(
                    compiled, code,
                    lambda level=level: [
                        (_Forwarding(_capacitor_supply(level)), MachineConfig())
                    ],
                    lambda meta=meta: meta.env_factory(5),
                )
                rebooted += result.stats.reboots > 0
        assert rebooted > 0

    @pytest.mark.parametrize("config", ["ocelot", "jit"])
    def test_fixed_off_supply_and_a_small_max_cycles(self, config):
        from repro.verify import FixedOffSupply

        for meta in BENCHMARKS.values():
            compiled = GLOBAL_CACHE.get_or_compile(meta.source, config)
            results = _run_pair(
                compiled, code_for(compiled),
                lambda: [
                    (FixedOffSupply(), MachineConfig()),
                    (FixedOffSupply(), MachineConfig(max_cycles=50)),
                    (_Forwarding(_capacitor_supply(10_000)),
                     MachineConfig(max_cycles=50)),
                ],
                lambda meta=meta: meta.env_factory(5),
            )
            assert [r.stats.completed for r in results] == [True, False, False]


def _replayed_region_bound(regions, costs):
    """The run entry bound as first written: every call replays the
    run's region ops from the open depth and reads the nonvolatile
    arrays' lengths off the machine.  The oracle of the memoized bound."""
    inner = costs.region_inner
    commit = costs.region_commit
    per_word = costs.region_per_volatile_word
    per_nv = costs.region_per_nv_word

    def replay(natom):
        fixed, outer = 0, []
        for is_start, cyc, omega, grow in regions:
            if is_start and natom < 0:
                natom = 0
                outer.append((grow, omega))
                fixed += cyc + costs.region_base + per_nv * len(omega)
            elif is_start:
                natom += 1
                fixed += cyc + inner
            elif natom > 0:
                natom -= 1
                fixed += cyc + inner
            elif natom == 0:
                natom = -1
                fixed += cyc + commit
            else:
                fixed += cyc
        return fixed, outer

    def bound(m):
        ctx = m._atom_ctx
        total, outer = replay(-1 if ctx is None else ctx.natom)
        if outer:
            words = 2 * len(m._frames)
            for frame in m._frames:
                words += len(frame.locals)
            arrays = m.nv.arrays
            for grow, omega in outer:
                total += per_word * (words + grow)
                for name in omega:
                    if name in arrays:
                        total += per_nv * len(arrays[name])
        return total

    return bound


class TestRegionBound:
    def test_memoized_bound_equals_the_replayed_one(self, monkeypatch):
        """Intermittent runs of every app under each enforcing config and
        JIT, every segment compiled: at each run entry the memoized
        bound returns what replaying the regions at that entry gives."""
        seen = collections.Counter()
        memoized = engine._region_bound

        def checked(regions, costs, arrays):
            bound = memoized(regions, costs, arrays)
            oracle = _replayed_region_bound(regions, costs)

            def both(m):
                value = bound(m)
                assert value == oracle(m), regions
                seen["open" if m._atom_ctx is not None else "closed"] += 1
                seen["nv array"] += any(
                    name in arrays for _, _, omega, _ in regions for name in omega
                )
                return value

            return both

        monkeypatch.setattr(engine, "_region_bound", checked)
        monkeypatch.setattr(engine, "SEGMENT_COMPILE_THRESHOLD", _EAGER)
        for meta in BENCHMARKS.values():
            for config in ("ocelot", "jit", "atomics"):
                compiled = compile_source(meta.source, config)
                run_activations(
                    compiled,
                    meta.env_factory(5),
                    _PARITY_PROFILE.make_supply(seed=7),
                    budget_cycles=60_000,
                    costs=meta.cost_model(),
                )
        assert seen["open"] and seen["closed"] and seen["nv array"], seen
