"""Run harness: one-shot and repeated executions of a compiled build.

The evaluation needs three run modes:

* :func:`run_continuous` -- one activation on wall power (Figure 7),
* :func:`run_once` -- one activation on an arbitrary supply (Table 2a's
  pathological injection),
* :func:`run_activations` -- back-to-back activations sharing nonvolatile
  state and one energy supply for a fixed logical-time budget (Figure 8
  and Table 2b: "we ran each benchmark for a fixed time ... and recorded
  the percentage of complete runs that contained a policy violation").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.pipeline import CompiledProgram
from repro.energy.costs import DEFAULT_COSTS, CostModel
from repro.runtime.detector import DetectorPlan
from repro.runtime.engine import ENGINE_FAST, create_machine
from repro.runtime.executor import MachineConfig, NVState
from repro.runtime.observations import RunResult
from repro.runtime.supply import ContinuousPower, PowerSupply
from repro.sensors.environment import Environment


def _plan_for(compiled: CompiledProgram, plan: Optional[DetectorPlan]) -> DetectorPlan:
    return plan if plan is not None else compiled.detector_plan()


def run_continuous(
    compiled: CompiledProgram,
    env: Environment,
    costs: CostModel = DEFAULT_COSTS,
    plan: Optional[DetectorPlan] = None,
    config: Optional[MachineConfig] = None,
    engine: str = ENGINE_FAST,
) -> RunResult:
    """One activation of ``main`` on continuous power."""
    machine = create_machine(
        engine,
        compiled,
        env,
        ContinuousPower(),
        costs=costs,
        plan=_plan_for(compiled, plan),
        config=config,
    )
    return machine.run()


def run_once(
    compiled: CompiledProgram,
    env: Environment,
    supply: PowerSupply,
    costs: CostModel = DEFAULT_COSTS,
    plan: Optional[DetectorPlan] = None,
    nv: Optional[NVState] = None,
    config: Optional[MachineConfig] = None,
    engine: str = ENGINE_FAST,
) -> RunResult:
    """One activation under ``supply`` (failures allowed)."""
    machine = create_machine(
        engine,
        compiled,
        env,
        supply,
        costs=costs,
        plan=_plan_for(compiled, plan),
        nv=nv,
        config=config,
    )
    return machine.run()


@dataclass
class ActivationRecord:
    """One completed (or abandoned) iteration of ``main``."""

    index: int
    completed: bool
    violations: int
    cycles_on: int
    cycles_off: int
    reboots: int
    fresh_violations: int = 0
    consistent_violations: int = 0
    detector_queries: int = 0

    @property
    def violating(self) -> bool:
        return self.violations > 0

    @classmethod
    def from_run(cls, index: int, run: RunResult) -> "ActivationRecord":
        """The record of activation ``index`` from its run result.

        Reads only stats, ``detector_queries`` and the trace's
        violations, so a violations-only run (``emit_observations=False``)
        yields the same record as a full-trace one.
        """
        kinds = [v.kind for v in run.trace.violations]
        return cls(
            index=index,
            completed=run.stats.completed,
            violations=run.stats.violations,
            cycles_on=run.stats.cycles_on,
            cycles_off=run.stats.cycles_off,
            reboots=run.stats.reboots,
            fresh_violations=kinds.count("fresh"),
            consistent_violations=kinds.count("consistent"),
            detector_queries=run.detector_queries,
        )


@dataclass
class ActivationsResult:
    """Aggregate over a fixed-budget repeated-activation experiment."""

    records: list[ActivationRecord] = field(default_factory=list)
    total_cycles_on: int = 0
    total_cycles_off: int = 0

    @property
    def completed_runs(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def violating_runs(self) -> int:
        return sum(1 for r in self.records if r.completed and r.violating)

    @property
    def violation_rate(self) -> float:
        """Fraction of *complete* runs containing a violation (Table 2b)."""
        completed = self.completed_runs
        if completed == 0:
            return 0.0
        return self.violating_runs / completed

    def summary(self) -> "ActivationsSummary":
        return ActivationsSummary.from_result(self)


@dataclass(frozen=True)
class ActivationsSummary:
    """Picklable flat aggregate of an :class:`ActivationsResult`.

    Campaign jobs run in worker processes and ship results back through
    ``multiprocessing``; this summary carries only integers (no traces,
    no closures), so it crosses process boundaries cheaply.
    """

    activations: int = 0
    completed_runs: int = 0
    violating_runs: int = 0
    violations: int = 0
    fresh_violations: int = 0
    consistent_violations: int = 0
    cycles_on: int = 0
    cycles_off: int = 0
    completed_cycles_on: int = 0
    completed_cycles_off: int = 0
    reboots: int = 0
    detector_queries: int = 0

    @property
    def violation_rate(self) -> float:
        if self.completed_runs == 0:
            return 0.0
        return self.violating_runs / self.completed_runs

    @classmethod
    def from_result(cls, result: "ActivationsResult") -> "ActivationsSummary":
        completed = [r for r in result.records if r.completed]
        return cls(
            activations=len(result.records),
            completed_runs=len(completed),
            violating_runs=sum(1 for r in completed if r.violating),
            violations=sum(r.violations for r in result.records),
            fresh_violations=sum(r.fresh_violations for r in result.records),
            consistent_violations=sum(
                r.consistent_violations for r in result.records
            ),
            cycles_on=result.total_cycles_on,
            cycles_off=result.total_cycles_off,
            completed_cycles_on=sum(r.cycles_on for r in completed),
            completed_cycles_off=sum(r.cycles_off for r in completed),
            reboots=sum(r.reboots for r in result.records),
            detector_queries=sum(r.detector_queries for r in result.records),
        )


class ActivationStepper:
    """A device's activation loop as a resumable stream.

    One stepper owns everything that persists across activations of one
    device: nonvolatile memory, the power supply, and the logical clock.
    ``step`` runs exactly one activation of ``main`` and reports it as an
    :class:`ActivationRecord`; the stepper is ``exhausted`` once the
    logical-time budget runs out, the activation cap is hit, or an
    activation gets stuck (a region larger than the energy budget).

    :func:`run_activations` drives one stepper to exhaustion -- the
    single-device experiments of Figure 8 / Table 2b.  The fleet
    scheduler instead keeps thousands of steppers in a priority queue and
    advances whichever device is earliest in logical time, which is why
    stepping is factored out of the driving loop.

    A record keeps no trace, so every activation runs violations-only
    (``config.emit_observations`` is overridden to False).
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        env: Environment,
        supply: PowerSupply,
        budget_cycles: int,
        costs: CostModel = DEFAULT_COSTS,
        plan: Optional[DetectorPlan] = None,
        max_activations: int = 100_000,
        config: Optional[MachineConfig] = None,
        nv: Optional[NVState] = None,
        engine: str = ENGINE_FAST,
        start_tau: int = 0,
        start_index: int = 0,
    ) -> None:
        self._compiled = compiled
        self._env = env
        self._supply = supply
        self._costs = costs
        self._plan = _plan_for(compiled, plan)
        self._budget = budget_cycles
        self._max_activations = max_activations
        self._config = replace(config or MachineConfig(), emit_observations=False)
        self._engine = engine
        self.nv = nv or NVState.initial(compiled.module)
        # Mid-stream resume point: the vectorized fleet executor rebuilds
        # a stepper around replayed (nv, supply, tau, index) state, so a
        # device can switch between memo replay and real stepping without
        # re-running its history.
        self.tau = start_tau
        self.index = start_index
        self._stuck = False

    @property
    def exhausted(self) -> bool:
        return (
            self._stuck
            or self.tau >= self._budget
            or self.index >= self._max_activations
        )

    def step(self) -> Optional[ActivationRecord]:
        """Run one activation; ``None`` once the stepper is exhausted."""
        if self.exhausted:
            return None
        machine = create_machine(
            self._engine,
            self._compiled,
            self._env,
            self._supply,
            costs=self._costs,
            plan=self._plan,
            nv=self.nv,
            start_tau=self.tau,
            config=self._config,
        )
        record = ActivationRecord.from_run(self.index, machine.run())
        self.tau = machine.tau
        self.index += 1
        if not record.completed:
            self._stuck = True
        return record


def run_activations(
    compiled: CompiledProgram,
    env: Environment,
    supply: PowerSupply,
    budget_cycles: int,
    costs: CostModel = DEFAULT_COSTS,
    plan: Optional[DetectorPlan] = None,
    max_activations: int = 100_000,
    config: Optional[MachineConfig] = None,
    engine: str = ENGINE_FAST,
) -> ActivationsResult:
    """Loop ``main`` until the logical-time budget runs out.

    Nonvolatile memory and the supply persist across activations, like an
    embedded ``while (1) main();`` deployment; the saved execution contexts
    reset per activation (each iteration is a fresh program entry).
    """
    stepper = ActivationStepper(
        compiled,
        env,
        supply,
        budget_cycles,
        costs=costs,
        plan=plan,
        max_activations=max_activations,
        config=config,
        engine=engine,
    )
    result = ActivationsResult()
    while (record := stepper.step()) is not None:
        result.records.append(record)
        result.total_cycles_on += record.cycles_on
        result.total_cycles_off += record.cycles_off
    return result
