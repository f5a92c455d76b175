"""Machine configuration and lifecycle edge cases."""

from repro.analysis.provenance import Chain
from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.core.pipeline import compile_source
from repro.energy.capacitor import Capacitor
from repro.energy.harvester import ConstantHarvester
from repro.ir.instructions import InstrId
from repro.runtime import observations as obs
from repro.runtime.engine import ENGINES, create_machine
from repro.runtime.executor import Machine, MachineConfig, NVState
from repro.runtime.supply import (
    ContinuousPower,
    EnergyDrivenSupply,
    FailurePoint,
    ScheduledFailures,
)
from repro.sensors.environment import Environment


class TestBudgets:
    def test_max_cycles_abandons_run(self):
        compiled = compile_source(
            "fn main() { repeat 50 { work(100); } }", "jit"
        )
        machine = Machine(
            compiled.module,
            Environment(),
            ContinuousPower(),
            config=MachineConfig(max_cycles=500),
        )
        result = machine.run()
        assert not result.stats.completed

    def test_observations_can_be_disabled(self):
        compiled = compile_source(
            "inputs ch;\nfn main() { let x = input(ch); log(x); }", "jit"
        )
        machine = Machine(
            compiled.module,
            Environment.constant_for(["ch"], 1),
            ContinuousPower(),
            config=MachineConfig(emit_observations=False),
        )
        result = machine.run()
        assert result.stats.completed
        assert len(result.trace) == 0


class TestViolationsOnly:
    """``emit_observations=False`` still records every violation."""

    def test_flag_off_keeps_violations_and_everything_else(self):
        # tire/jit with one failure injected before the fresh check at
        # (main, 5): the check fires twice.
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "jit")
        plan = compiled.detector_plan()
        site = Chain(ids=(InstrId("main", 5),))
        assert site in plan.checks
        for engine in ENGINES:
            runs = {}
            for emit in (True, False):
                supply = ScheduledFailures(
                    [FailurePoint(chain=site)], off_cycles=25_000
                )
                machine = create_machine(
                    engine,
                    compiled,
                    meta.env_factory(0),
                    supply,
                    costs=meta.cost_model(),
                    plan=plan,
                    config=MachineConfig(emit_observations=emit),
                )
                runs[emit] = (machine, machine.run())
            (full_machine, full), (lean_machine, lean) = runs[True], runs[False]
            assert full.stats.violations == 2, engine
            assert lean.stats == full.stats, engine
            assert lean_machine.tau == full_machine.tau, engine
            assert (
                lean_machine.nv.snapshot_values()
                == full_machine.nv.snapshot_values()
            ), engine
            assert lean.detector_queries == full.detector_queries, engine
            assert lean.trace.violations == full.trace.violations, engine
            assert all(
                type(event) is obs.ViolationObs for event in lean.trace.events
            ), engine
            assert len(lean.trace) == 2 < len(full.trace), engine


class TestNVStateSharing:
    def test_explicit_nv_shared_between_machines(self):
        compiled = compile_source(
            "nonvolatile n = 0;\nfn main() { n = n + 1; }", "jit"
        )
        nv = NVState.initial(compiled.module)
        for _ in range(3):
            machine = Machine(compiled.module, Environment(), ContinuousPower())
            machine.begin_activation(nv=nv)
            machine.run()
        assert nv.globals["n"].value == 3

    def test_snapshot_values_view(self):
        compiled = compile_source(
            "nonvolatile n = 7;\nnonvolatile a[2] = [1, 2];\n"
            "fn main() { skip; }",
            "jit",
        )
        nv = NVState.initial(compiled.module)
        snap = nv.snapshot_values()
        assert snap == {"globals": {"n": 7}, "arrays": {"a": [1, 2]}}


class TestStartTau:
    def test_start_tau_shifts_environment_reads(self):
        from repro.sensors.environment import steps

        compiled = compile_source(
            "inputs ch;\nfn main() { let x = input(ch); log(x); }", "jit"
        )
        env = Environment({"ch": steps([10, 99], 1000)})
        early = Machine(compiled.module, env, ContinuousPower())
        late = Machine(compiled.module, env, ContinuousPower())
        late.begin_activation(tau=1500)
        assert early.run().trace.outputs[0].values == (10,)
        assert late.run().trace.outputs[0].values == (99,)


class TestModeProperty:
    def test_mode_transitions(self):
        compiled = compile_source("fn main() { atomic { skip; } }", "jit")
        # jit build strips the manual region; recompile as ocelot to keep it.
        compiled = compile_source("fn main() { atomic { skip; } }", "ocelot")
        machine = Machine(compiled.module, Environment(), ContinuousPower())
        assert machine.mode == "jit"
        seen_atomic = False
        while not machine._done:  # noqa: SLF001 - intentional introspection
            machine.step()
            if machine.mode == "atomic":
                seen_atomic = True
        assert seen_atomic
        assert machine.mode == "jit"


class TestEnergyAccounting:
    def test_on_off_split_sums_to_tau(self):
        compiled = compile_source("fn main() { repeat 6 { work(120); } }", "jit")
        supply = EnergyDrivenSupply(Capacitor(500, 100), ConstantHarvester(300))
        machine = Machine(compiled.module, Environment(), supply)
        result = machine.run()
        assert result.stats.completed
        assert machine.tau == result.stats.cycles_on + result.stats.cycles_off
