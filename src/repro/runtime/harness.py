"""Run harness: one-shot and repeated executions of a compiled build.

The evaluation needs three run modes:

* :func:`run_continuous` -- one activation on wall power (Figure 7),
* :func:`run_once` -- one activation on an arbitrary supply (Table 2a's
  pathological injection),
* :func:`run_activations` -- back-to-back activations sharing nonvolatile
  state and one energy supply for a fixed logical-time budget (Figure 8
  and Table 2b: "we ran each benchmark for a fixed time ... and recorded
  the percentage of complete runs that contained a policy violation").

A repeated run is one machine restarted per activation by
:meth:`~repro.runtime.executor.MachineCore.begin_activation`, the reset
every machine's constructor ends with, so a restarted machine equals a
fresh one over the same nonvolatile state, supply and clock.
:func:`run_continuous` is :func:`run_once` on wall power.

Every sum over activations is an :class:`ActivationTotals`: the
repeated-activation :class:`ActivationsResult`, the campaign's per-cell
rows and the fleet's per-class aggregates extend it, and a campaign job
reports its :meth:`~ActivationTotals.totals`.  Its ``add`` is the only
code that turns an :class:`ActivationRecord` into sums (the result and
the fleet class override it to keep more), so a new per-activation
counter is a field on :class:`ActivationRecord`, on
:class:`ActivationTotals` and on the campaign's ``JobResult``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

from repro.core.pipeline import CompiledProgram
from repro.energy.costs import DEFAULT_COSTS, CostModel
from repro.runtime.detector import DetectorPlan
from repro.runtime.engine import ENGINE_FAST, create_machine
from repro.runtime.executor import MachineConfig
from repro.runtime.observations import RunResult
from repro.runtime.supply import ContinuousPower, PowerSupply
from repro.sensors.environment import Environment


def run_once(
    compiled: CompiledProgram,
    env: Environment,
    supply: PowerSupply,
    costs: CostModel = DEFAULT_COSTS,
    plan: Optional[DetectorPlan] = None,
    config: Optional[MachineConfig] = None,
    engine: str = ENGINE_FAST,
) -> RunResult:
    """One activation under ``supply`` (failures allowed)."""
    return create_machine(
        engine, compiled, env, supply, costs=costs, plan=plan, config=config
    ).run()


def run_continuous(
    compiled: CompiledProgram,
    env: Environment,
    costs: CostModel = DEFAULT_COSTS,
    plan: Optional[DetectorPlan] = None,
    config: Optional[MachineConfig] = None,
    engine: str = ENGINE_FAST,
) -> RunResult:
    """One activation of ``main`` on continuous power."""
    return run_once(compiled, env, ContinuousPower(), costs, plan, config, engine)


@dataclass(slots=True, unsafe_hash=True)
class ActivationRecord:
    """One completed (or abandoned) iteration of ``main``.

    Immutable by convention, like :class:`~repro.runtime.values.TVal`:
    nothing assigns a field after construction (make a changed copy
    with ``dataclasses.replace``), so the vector executor's per-wave
    sink can key on a record.  Not ``frozen``, whose ``__init__`` sets
    each field through ``object.__setattr__``; the hash is the frozen
    one (``unsafe_hash``: the field tuple).
    """

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
        yields the same record as a full-trace one.  ``stats.violations``
        counts the trace's violations, so the trace is scanned only when
        there are some.
        """
        stats = run.stats
        fresh = consistent = 0
        if stats.violations:
            kinds = [v.kind for v in run.trace.violations]
            fresh = kinds.count("fresh")
            consistent = kinds.count("consistent")
        return cls(
            index=index,
            completed=stats.completed,
            violations=stats.violations,
            cycles_on=stats.cycles_on,
            cycles_off=stats.cycles_off,
            reboots=stats.reboots,
            fresh_violations=fresh,
            consistent_violations=consistent,
            detector_queries=run.detector_queries,
        )


@dataclass(kw_only=True)
class ActivationTotals:
    """Integer sums over activation records.

    Every counter is a sum, so any order of :meth:`add` and
    :meth:`merge` over the same records gives the same totals, and
    adding a record with ``count`` equals adding it ``count`` times --
    which is how the vector fleet executor replays one memoized record
    for a group of equivalent devices without breaking byte
    determinism.
    """

    activations: int = 0
    completed_runs: int = 0
    violating_runs: int = 0
    violations: int = 0
    fresh_violations: int = 0
    consistent_violations: int = 0
    cycles_on: int = 0
    cycles_off: int = 0
    reboots: int = 0
    detector_queries: int = 0

    @property
    def violation_rate(self) -> float:
        """Fraction of *complete* runs containing a violation (Table 2b)."""
        if self.completed_runs == 0:
            return 0.0
        return self.violating_runs / self.completed_runs

    def add(self, record: ActivationRecord, count: int = 1) -> None:
        """Fold ``count`` activations that each produced ``record``."""
        self.activations += count
        self.violations += record.violations * count
        self.fresh_violations += record.fresh_violations * count
        self.consistent_violations += record.consistent_violations * count
        self.cycles_on += record.cycles_on * count
        self.cycles_off += record.cycles_off * count
        self.reboots += record.reboots * count
        self.detector_queries += record.detector_queries * count
        if record.completed:
            self.completed_runs += count
            if record.violating:
                self.violating_runs += count

    def merge(self, other) -> None:
        """Add the :data:`TOTALS` of ``other``, a tally or a job result."""
        for name in TOTALS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def totals(self) -> dict[str, int]:
        """The :data:`TOTALS` counters by name, in report key order."""
        return {name: getattr(self, name) for name in TOTALS}


#: The counters every tally sums, in declaration (and report key) order.
TOTALS = tuple(f.name for f in fields(ActivationTotals))


@dataclass
class ActivationsResult(ActivationTotals):
    """A fixed-budget repeated-activation experiment: its records, their
    totals, and the completed runs' on and off cycles, which Figure 8
    and the harvest-rate sensitivity sweep divide by completed runs."""

    records: list[ActivationRecord] = field(default_factory=list, init=False)
    completed_cycles_on: int = 0
    completed_cycles_off: int = 0

    def add(self, record: ActivationRecord, count: int = 1) -> None:
        super().add(record, count)
        self.records.extend([record] * count)
        if record.completed:
            self.completed_cycles_on += record.cycles_on * count
            self.completed_cycles_off += record.cycles_off * count


class ActivationStepper:
    """A device's activation loop as a resumable stream.

    One stepper owns everything that persists across activations of one
    device: nonvolatile memory, the power supply, and the logical clock.
    ``step`` runs exactly one activation of ``main`` and reports it as an
    :class:`ActivationRecord`; the stepper is ``exhausted`` once the
    logical-time budget runs out, the activation cap is hit, or an
    activation gets stuck (a region larger than the energy budget).

    :func:`run_activations` drives one stepper to exhaustion -- the
    single-device experiments of Figure 8 / Table 2b.  The serial fleet
    executor drives one stepper per device, device after device, and
    folds each record into its aggregate as it is produced.

    The stream runs on one machine, restarted per activation by
    :meth:`~repro.runtime.executor.MachineCore.begin_activation`, which
    equals a fresh machine over the same state.  A record keeps no
    trace, so every activation runs violations-only
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
        engine: str = ENGINE_FAST,
    ) -> None:
        self._machine = create_machine(
            engine,
            compiled,
            env,
            supply,
            costs=costs,
            plan=plan,
            config=replace(config or MachineConfig(), emit_observations=False),
        )
        self._budget = budget_cycles
        self._max_activations = max_activations
        self.tau = 0
        self.index = 0
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
        machine = self._machine
        machine.begin_activation()
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
        result.add(record)
    return result
