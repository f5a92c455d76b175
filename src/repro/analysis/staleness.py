"""Static staleness-window analysis: prove checks safe or doomed.

The PR 5 layer proves checks *redundant* (availability: the required
bits are guaranteed set); whether a surviving check can actually fire
was, until now, answered dynamically by the campaign engine or the
bounded model checker.  This module answers it statically, per check of
the baseline detector plan:

* **SAFE** -- the check can never fire.  Either structurally (every
  required chain is must-available at the site, the optimizer's proof)
  or *per registered environment*: constant channels fold branch
  conditions (:mod:`repro.analysis.specialize`), pruning CFG edges no
  execution under that environment can take, and the availability
  must-facts re-proven on the pruned CFG cover the site.  A check is
  SAFE only when proven under **every** registered environment.
* **DOOMED** -- the check fires whenever its site executes.  Two
  provable causes: ``fires-without-failure`` (a required input chain
  precedes the site on *no* path, so its bit is clear even on the
  failure-free run -- confirmed by the concrete reachability probe) and
  ``stale-window`` (the minimum cycle distance from a required input to
  the site exceeds the usable-energy window ``U``: any supply whose
  charge sustains at most ``U`` cycles must fail somewhere inside every
  input-to-use journey, and a journey restarted by the reboot costs just
  as much, so no arrival at the site ever carries a set bit.  For sites
  outside atomic regions the JIT checkpoint still guarantees arrivals,
  hence the check fires on every one).  Every DOOMED check carries a
  concrete witness: an empty schedule (it already fires failure-free) or
  a single failure immediately before the site, which the bounded model
  checker confirms as a counterexample.
* **ENV-DEPENDENT** -- neither proof applies.  The diagnostic reports
  the elapsed-cycle window ``[lo, hi]`` per required chain, the supply
  window threshold below which the verdict flips to DOOMED, and which
  registered environments (if any) individually prove the check safe.

The cycle windows come from an interprocedural, context-sensitive
forward dataflow (:class:`StalenessAnalysis`) over the
:class:`~repro.analysis.intervals.CycleIntervalLattice`: the fact at a
program point maps every detector bit chain to the interval of cycles
elapsed since its input instruction last executed, advanced by the cost
model and reset to ``[0, 0]`` at the input itself.  Reboot re-execution
needs no extra edges: a resume point either replays the input (the
elapsed clock restarts -- the re-execution path is itself a CFG path)
or leaves the bit clear, which the verdict logic accounts for via
:func:`~repro.analysis.availability.classify_resume_points`.  Loops are
handled by the solver's widening hook.

For consistent-set policies the report adds *stale-pair coverage*: any
pair of set members not covered by a common atomic region gets a fix-it
naming the nearest common dominator block where a region covering both
could start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.analysis.availability import (
    AvailabilityResult,
    ResumeClassification,
    analyze_availability,
    classify_resume_points,
)
from repro.analysis.dataflow import FORWARD, MAX_ROUNDS, FunctionDataflow
from repro.analysis.intervals import (
    NEVER,
    ZERO,
    CycleIntervalLattice,
    Interval,
    IntervalFact,
)
from repro.analysis.provenance import Chain, Context, common_context, representative_op
from repro.analysis.specialize import specialize_module
from repro.energy.costs import DEFAULT_COSTS, CostModel
from repro.ir import instructions as ir
from repro.ir.instructions import InstrId
from repro.ir.module import IRFunction, Module
from repro.lang import ast as lang_ast
from repro.sensors.environment import Environment, signal_period

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.detector import Check, DetectorPlan

#: Pseudo-chain tracking cycles since the activation began.
BOOT = Chain.of((), InstrId("<boot>", 0))

VERDICT_SAFE = "safe"
VERDICT_DOOMED = "doomed"
VERDICT_ENV = "env-dependent"

_LATTICE = CycleIntervalLattice()


# ---------------------------------------------------------------------------
# The cycle-interval dataflow


@dataclass
class WindowResult:
    """Elapsed-cycle windows for one module.

    ``before`` maps every analyzed (context-qualified) instruction chain
    to the chain->interval fact holding when control reaches it --
    exactly the moment its detector checks run.  Sites never analyzed
    (unreachable code) default to the empty fact: every chain reads as
    "never executed", the conservative answer.
    """

    before: dict[Chain, IntervalFact] = field(default_factory=dict)
    contexts: int = 0
    rounds: int = 0

    def at(self, site: Chain) -> IntervalFact:
        return self.before.get(site, {})

    def window(self, site: Chain, chain: Chain) -> Interval:
        """Elapsed cycles since ``chain`` executed, at ``site``."""
        return self.at(site).get(chain, NEVER)


class StalenessAnalysis:
    """Interprocedural elapsed-cycles analysis (one run per module).

    Context-sensitive exactly like the availability analysis: callees
    are analyzed per calling context with the caller's fact at the call
    site, memoized on ``(context, function, entry fact)``.  The
    recursion terminates because the language forbids recursive calls
    and the per-function solver widens on cyclic CFGs.
    """

    def __init__(
        self,
        module: Module,
        tracked: frozenset[Chain],
        costs: CostModel = DEFAULT_COSTS,
        max_rounds: int = MAX_ROUNDS,
    ) -> None:
        self._module = module
        self._tracked = tracked
        self._costs = costs
        self._max_rounds = max_rounds
        self._before: dict[Chain, IntervalFact] = {}
        self._memo: dict[tuple[Any, ...], IntervalFact] = {}
        self._contexts: set[tuple[Context, str]] = set()
        self._rounds = 0
        # Conservative volatile estimate for region-entry upper bounds
        # (mirrors the feasibility bounder's stack model).
        self._volatile = sum(
            len(func.locals) + 2 for func in module.functions.values()
        )

    def run(self) -> WindowResult:
        self._exit_fact((), self._module.entry, {BOOT: ZERO})
        return WindowResult(
            before=self._before,
            contexts=len(self._contexts),
            rounds=self._rounds,
        )

    # -- recording -------------------------------------------------------------

    def _record(self, chain: Chain, fact: IntervalFact) -> None:
        old = self._before.get(chain)
        self._before[chain] = fact if old is None else _LATTICE.join(old, fact)

    # -- costs -----------------------------------------------------------------

    def _instr_cost(self, instr: ir.Instr) -> tuple[int, Optional[int]]:
        """``(lo, hi)`` cycle cost of one instruction; ``hi=None`` when
        unbounded.  ``lo`` is a sound under-approximation (the verdicts
        rely on it); ``hi`` is best-effort for reporting."""
        if isinstance(instr, ir.WorkInstr):
            if isinstance(instr.cycles, lang_ast.IntLit):
                cycles = self._costs.instr_cycles(
                    instr, work_value=max(0, instr.cycles.value)
                )
                return cycles, cycles
            return 0, None
        if isinstance(instr, ir.AtomicStart):
            return 0, self._costs.region_entry_cycles(self._volatile, 0)
        if isinstance(instr, ir.AtomicEnd):
            return 0, self._costs.region_commit
        cycles = self._costs.instr_cycles(instr)
        return cycles, cycles

    # -- interprocedural walk --------------------------------------------------

    def _freeze(self, fact: IntervalFact) -> tuple[Any, ...]:
        return tuple(sorted(fact.items()))

    def _exit_fact(
        self, context: Context, func_name: str, entry_fact: IntervalFact
    ) -> IntervalFact:
        key = (context, func_name, self._freeze(entry_fact))
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        func = self._module.function(func_name)
        self._contexts.add((context, func_name))
        problem = _ElapsedProblem(self, func, context, entry_fact)
        flow = FunctionDataflow(func)
        solution = flow.solve(problem, max_rounds=self._max_rounds)
        self._rounds += solution.rounds
        exit_fact = solution.out_fact(func.exit, {})
        self._memo[key] = exit_fact
        return exit_fact


class _ElapsedProblem:
    """Forward interval problem over one function in one calling context."""

    name = "staleness"
    direction = FORWARD
    lattice = _LATTICE

    def __init__(
        self,
        owner: StalenessAnalysis,
        func: IRFunction,
        context: Context,
        entry_fact: IntervalFact,
    ) -> None:
        self._owner = owner
        self._func = func
        self._context = context
        self._entry_fact = entry_fact

    def boundary(self) -> IntervalFact:
        return self._entry_fact

    def transfer(self, block_name: str, fact: IntervalFact) -> IntervalFact:
        owner = self._owner
        context = self._context
        module = owner._module
        for instr in self._func.blocks[block_name].all_instrs():
            owner._record(Chain.of(context, instr.uid), fact)
            lo_cost, hi_cost = owner._instr_cost(instr)
            if lo_cost or hi_cost is None or hi_cost:
                fact = {
                    chain: interval.shift(lo_cost, hi_cost)
                    for chain, interval in fact.items()
                }
            if isinstance(instr, ir.InputInstr):
                chain = Chain.of(context, instr.uid)
                if chain in owner._tracked:
                    updated = dict(fact)
                    updated[chain] = ZERO
                    fact = updated
            elif (
                isinstance(instr, ir.CallInstr)
                and instr.func in module.functions
            ):
                fact = owner._exit_fact(
                    context + (instr.uid,), instr.func, fact
                )
        return fact


def analyze_windows(
    module: Module,
    tracked: frozenset[Chain],
    costs: CostModel = DEFAULT_COSTS,
    max_rounds: int = MAX_ROUNDS,
) -> WindowResult:
    """Run the elapsed-cycles analysis over ``module`` for ``tracked``
    chains (plus the implicit :data:`BOOT` clock)."""
    return StalenessAnalysis(
        module, tracked=tracked, costs=costs, max_rounds=max_rounds
    ).run()


# ---------------------------------------------------------------------------
# The concrete reachability probe


@dataclass(frozen=True)
class ProbeResult:
    """One failure-free run: which check sites executed, which fired."""

    executed: frozenset[Chain] = frozenset()
    fired: frozenset[tuple[str, Chain]] = frozenset()
    completed: bool = True


def probe_run(
    compiled: Any,
    env: Environment,
    plan: "DetectorPlan",
    costs: CostModel = DEFAULT_COSTS,
    max_cycles: int = 200_000,
) -> ProbeResult:
    """Execute one failure-free activation, recording per-site facts.

    The probe is the linter's reachability oracle: a DOOMED verdict is
    only emitted for sites this run actually reaches, which is what
    guarantees the bounded model checker can confirm it with a concrete
    counterexample.  Runs the reference engine under wall power,
    violations-only, so a step's new violations are read without
    rescanning the whole activation's observations; cost is one
    activation, paid only in the lint / ``--emit staleness`` path.
    """
    from repro.runtime.engine import ENGINE_REFERENCE, create_machine
    from repro.runtime.executor import ExecError, MachineConfig
    from repro.runtime.supply import ContinuousPower

    machine = create_machine(
        ENGINE_REFERENCE,
        compiled,
        env,
        ContinuousPower(),
        costs=costs,
        plan=plan,
        config=MachineConfig(max_cycles=max_cycles, emit_observations=False),
    )
    executed: set[Chain] = set()
    fired: set[tuple[str, Chain]] = set()
    completed = True
    while not machine._done:
        if machine.stats.total_cycles > max_cycles:
            completed = False
            break
        instr = machine._fetch()
        chain: Optional[Chain] = None
        if instr.uid in plan.trigger_uids:
            chain = machine._current_chain(instr.uid)
            executed.add(chain)
        # Every event is a violation, so event counts index violations.
        seen = len(machine.trace.events)
        try:
            machine.step()
        except ExecError:
            completed = False
            break
        if chain is not None:
            for violation in machine.trace.violations[seen:]:
                fired.add((violation.pid, chain))
    return ProbeResult(
        executed=frozenset(executed),
        fired=frozenset(fired),
        completed=completed,
    )


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class CheckVerdict:
    """The linter's answer for one detector check."""

    pid: str
    kind: str  # 'fresh' or 'consistent'
    site: Chain
    verdict: str  # safe | doomed | env-dependent
    reason: str
    #: required chains not structurally must-available at the site
    missing: tuple[Chain, ...] = ()
    #: per required chain: elapsed-cycle window at the site
    windows: tuple[tuple[Chain, Interval], ...] = ()
    #: supply window (cycles) below which the verdict flips to DOOMED
    threshold: Optional[int] = None
    #: environments that individually prove the check safe
    safe_envs: tuple[str, ...] = ()
    #: concrete witness (schedule description) for DOOMED verdicts
    witness: tuple[str, ...] = ()
    #: consistent-set region-placement suggestions
    fixits: tuple[str, ...] = ()
    #: static atomic depth at the site (0 = JIT-resumable)
    site_depth: int = 0
    #: did the probe observe the site executing? (None = no probe ran)
    reached: Optional[bool] = None

    @property
    def level(self) -> str:
        if self.verdict == VERDICT_DOOMED:
            return "error"
        if self.verdict == VERDICT_ENV:
            return "warning"
        return "info"

    def describe(self) -> str:
        head = (
            f"{self.verdict.upper():13s} {self.kind} {self.pid} at "
            f"{self.site}: {self.reason}"
        )
        parts = [head]
        for chain, interval in self.windows:
            parts.append(f"    window {interval.render()} since {chain}")
        if self.threshold is not None:
            parts.append(
                f"    flips to DOOMED under supply windows < "
                f"{self.threshold} cycles"
            )
        if self.safe_envs:
            parts.append(
                "    proven safe under: " + ", ".join(self.safe_envs)
            )
        for line in self.witness:
            parts.append(f"    witness: {line}")
        for line in self.fixits:
            parts.append(f"    fix-it: {line}")
        return "\n".join(parts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "kind": self.kind,
            "site": str(self.site),
            "verdict": self.verdict,
            "reason": self.reason,
            "level": self.level,
            "missing": [str(c) for c in self.missing],
            "windows": {
                str(chain): [interval.lo, interval.hi]
                for chain, interval in self.windows
            },
            "threshold": self.threshold,
            "safe_envs": list(self.safe_envs),
            "witness": list(self.witness),
            "fixits": list(self.fixits),
            "site_depth": self.site_depth,
            "reached": self.reached,
        }


@dataclass
class StalenessReport:
    """All check verdicts for one compiled program."""

    config: str
    window_cycles: int
    verdicts: list[CheckVerdict] = field(default_factory=list)
    envs: tuple[str, ...] = ()
    probed: bool = False
    analysis_rounds: int = 0

    def counts(self) -> dict[str, int]:
        out = {VERDICT_SAFE: 0, VERDICT_DOOMED: 0, VERDICT_ENV: 0}
        for verdict in self.verdicts:
            out[verdict.verdict] += 1
        return out

    def by_verdict(self, kind: str) -> list[CheckVerdict]:
        return [v for v in self.verdicts if v.verdict == kind]

    def pairs(self, kind: str) -> frozenset[tuple[str, Chain]]:
        """(pid, site) pairs carrying the given verdict."""
        return frozenset(
            (v.pid, v.site) for v in self.verdicts if v.verdict == kind
        )

    def doomed_uids(self) -> frozenset[InstrId]:
        """Trigger uids of DOOMED sites (the verifier's frontier seeds)."""
        return frozenset(
            v.site.op for v in self.verdicts if v.verdict == VERDICT_DOOMED
        )

    def relevant_bits(self) -> frozenset[Chain]:
        """Bit chains some non-SAFE check still depends on.

        The verifier's no-op pruning may ignore bits outside this set:
        clearing a bit read only by SAFE checks cannot create a
        violation, because SAFE checks never fire under any schedule.
        """
        out: set[Chain] = set()
        for verdict in self.verdicts:
            if verdict.verdict != VERDICT_SAFE:
                out.update(verdict.missing)
                out.update(chain for chain, _ in verdict.windows)
        return frozenset(out)

    def diagnostics(self) -> list[Any]:
        """The verdicts as structured pass diagnostics (stage ``lint``)."""
        from repro.core.passes.base import (
            DIAG_ERROR,
            DIAG_INFO,
            DIAG_WARNING,
            Diagnostic,
        )

        levels = {
            "error": DIAG_ERROR,
            "warning": DIAG_WARNING,
            "info": DIAG_INFO,
        }
        return [
            Diagnostic(
                stage="lint",
                level=levels[verdict.level],
                message=verdict.describe(),
            )
            for verdict in self.verdicts
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config,
            "window_cycles": self.window_cycles,
            "envs": list(self.envs),
            "probed": self.probed,
            "summary": self.counts(),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }

    def render_text(self) -> str:
        counts = self.counts()
        lines = [
            f"lint: {len(self.verdicts)} check(s) under config "
            f"'{self.config}' (supply window {self.window_cycles} cycles)",
            f"  safe: {counts[VERDICT_SAFE]}  doomed: "
            f"{counts[VERDICT_DOOMED]}  env-dependent: {counts[VERDICT_ENV]}",
        ]
        for verdict in self.verdicts:
            lines.append(verdict.describe())
        return "\n".join(lines)

    def worst_level(self) -> Optional[str]:
        if any(v.verdict == VERDICT_DOOMED for v in self.verdicts):
            return "error"
        if any(v.verdict == VERDICT_ENV for v in self.verdicts):
            return "warning"
        return None

    def exit_code(self, fail_on: str = "error") -> int:
        """Gate: 1 when a verdict at or above ``fail_on`` exists."""
        worst = self.worst_level()
        if fail_on == "never" or worst is None:
            return 0
        if fail_on == "warning":
            return 1
        return 1 if worst == "error" else 0


# ---------------------------------------------------------------------------
# Classification


def _consistent_fixits(
    module: Module,
    check: "Check",
    avail_at: frozenset[Chain],
) -> tuple[str, ...]:
    """Region-placement suggestions for uncovered consistent pairs.

    For every required chain whose bit is not guaranteed at the site,
    suggest starting an atomic region at the nearest common dominator of
    the pair's representative operations -- the smallest placement that
    can cover both ends (the shape region inference itself uses).
    """
    fixits: list[str] = []
    for chain in check.required:
        if chain in avail_at:
            continue
        context = common_context([chain, check.site])
        op_a = representative_op(chain, context)
        op_b = representative_op(check.site, context)
        func = module.function(op_a.func)
        try:
            block_a = func.block_of(op_a)
            block_b = func.block_of(op_b)
        except Exception:  # pragma: no cover - malformed module
            continue
        lca = FunctionDataflow(func).domtree.lca(block_a, block_b)
        fixits.append(
            f"cover {chain} and {check.site} with one atomic region "
            f"starting at block '{lca}' of {func.name}() "
            f"(nearest common dominator of {op_a} and {op_b})"
        )
    return tuple(fixits)


def _signal_periods(envs: Sequence[tuple[str, Environment]]) -> dict[str, str]:
    out: dict[str, str] = {}
    for name, env in envs:
        periods = sorted(
            {
                str(signal_period(sig))
                for sig in env.signals.values()
                if signal_period(sig) is not None
            }
        )
        out[name] = ",".join(periods) if periods else "aperiodic"
    return out


def _classify_check(
    check: "Check",
    avail: AvailabilityResult,
    env_avails: Sequence[tuple[str, AvailabilityResult]],
    windows: WindowResult,
    classification: ResumeClassification,
    probe: Optional[ProbeResult],
    window_cycles: int,
    fixits: tuple[str, ...],
) -> CheckVerdict:
    site = check.site
    avail_at = avail.at(site)
    missing = tuple(
        sorted(chain for chain in check.required if chain not in avail_at)
    )
    site_windows = tuple(
        (chain, windows.window(site, chain)) for chain in sorted(check.required)
    )
    depth = classification.depth.get(site, 0)
    reached = None if probe is None else (site in probe.executed)

    common = {
        "pid": check.pid,
        "kind": check.kind,
        "site": site,
        "missing": missing,
        "windows": site_windows,
        "site_depth": depth,
        "reached": reached,
        "fixits": fixits,
    }

    if not missing:
        return CheckVerdict(
            verdict=VERDICT_SAFE,
            reason="every required chain is must-available at the site",
            **common,
        )

    safe_envs = tuple(
        name
        for name, env_avail in env_avails
        if all(chain in env_avail.at(site) for chain in missing)
    )
    if env_avails and len(safe_envs) == len(env_avails):
        return CheckVerdict(
            verdict=VERDICT_SAFE,
            reason=(
                "required chains are must-available under every "
                "registered environment (infeasible edges pruned)"
            ),
            safe_envs=safe_envs,
            **common,
        )

    if probe is not None and (check.pid, site) in probe.fired:
        culprits = [
            chain for chain, interval in site_windows if interval.never
        ]
        detail = (
            f"required input {culprits[0]} executes on no path to the site"
            if culprits
            else "a required bit is clear on the failure-free path"
        )
        return CheckVerdict(
            verdict=VERDICT_DOOMED,
            reason=f"fires even without power failures: {detail}",
            witness=(
                "empty failure schedule: the failure-free run violates "
                f"{check.pid} at {site.op}",
            ),
            safe_envs=safe_envs,
            **common,
        )

    #: the supply window under which the check can no longer pass: the
    #: widest minimum input-to-site distance among required chains.
    finite_los = [
        interval.lo
        for _chain, interval in site_windows
        if interval.lo is not None
    ]
    flip = max(finite_los) if finite_los else None

    if (
        reached
        and depth == 0
        and flip is not None
        and flip > window_cycles
    ):
        culprit = max(
            (
                (interval.lo, chain)
                for chain, interval in site_windows
                if interval.lo is not None
            ),
        )[1]
        return CheckVerdict(
            verdict=VERDICT_DOOMED,
            reason=(
                f"minimum {flip} cycles from {culprit} to the site exceed "
                f"the {window_cycles}-cycle usable-energy window: no "
                "arrival can carry a set bit"
            ),
            threshold=flip,
            witness=(
                f"schedule: one power failure immediately before "
                f"{site.op} -- the JIT checkpoint resumes at the site "
                "with cleared bits",
            ),
            safe_envs=safe_envs,
            **common,
        )

    if reached is False:
        reason = "site not reached by the failure-free probe run"
    elif safe_envs:
        reason = (
            "safe under some registered environments but not all "
            f"({len(safe_envs)}/{len(env_avails)})"
        )
    else:
        missing_count = len(missing)
        reason = (
            "may fire depending on schedule and environment "
            f"({missing_count} required chain(s) not must-available)"
        )
    return CheckVerdict(
        verdict=VERDICT_ENV,
        reason=reason,
        threshold=flip,
        safe_envs=safe_envs,
        **common,
    )


def analyze_staleness(
    compiled: Any,
    envs: Optional[Sequence[tuple[str, Environment]]] = None,
    *,
    costs: Optional[CostModel] = None,
    window: Optional[int] = None,
    probe: bool = True,
    max_rounds: int = MAX_ROUNDS,
    probe_cycles: int = 200_000,
) -> StalenessReport:
    """Classify every baseline check of ``compiled`` as SAFE / DOOMED /
    ENV-DEPENDENT.

    ``envs`` registers named environments for the specialized SAFE
    proofs and the probe; with none given, the probe runs under the
    all-constant-zero environment and SAFE means the structural proof
    only.  ``window`` overrides the usable-energy window (defaults to
    the standard profile's guaranteed post-boot budget).  The analysis
    runs only here -- never on the run/campaign/fleet hot paths.
    """
    from repro.runtime.detector import build_detector_plan

    module: Module = compiled.module
    cost_model = costs if costs is not None else DEFAULT_COSTS
    if window is None:
        from repro.core.feasibility import profile_usable_energy
        from repro.eval.profiles import STANDARD_PROFILE

        window = profile_usable_energy(STANDARD_PROFILE)

    plan = build_detector_plan(compiled.policies)
    avail = analyze_availability(module, max_rounds=max_rounds)
    classification = classify_resume_points(module)
    windows = analyze_windows(
        module,
        tracked=plan.bit_chains,
        costs=cost_model,
        max_rounds=max_rounds,
    )

    registered = list(envs) if envs else []
    env_avails: list[tuple[str, AvailabilityResult]] = []
    for name, env in registered:
        specialized = specialize_module(module, env)
        env_avails.append(
            (
                name,
                avail
                if specialized is module
                else analyze_availability(specialized, max_rounds=max_rounds),
            )
        )

    probe_result: Optional[ProbeResult] = None
    if probe:
        probe_env = (
            registered[0][1]
            if registered
            else Environment.constant_for(module.channels, 0)
        )
        probe_result = probe_run(
            compiled,
            probe_env,
            plan,
            costs=cost_model,
            max_cycles=probe_cycles,
        )

    verdicts: list[CheckVerdict] = []
    for site in sorted(plan.checks):
        for check in plan.checks_at(site):
            fixits = (
                _consistent_fixits(module, check, avail.at(site))
                if check.kind == "consistent"
                else ()
            )
            verdicts.append(
                _classify_check(
                    check,
                    avail,
                    env_avails,
                    windows,
                    classification,
                    probe_result,
                    window,
                    fixits,
                )
            )

    return StalenessReport(
        config=compiled.config,
        window_cycles=window,
        verdicts=verdicts,
        envs=tuple(name for name, _env in registered),
        probed=probe_result is not None,
        analysis_rounds=windows.rounds,
    )
