"""Bounded model checking of power-failure schedules.

The correctness question for an intermittent config is universally
quantified (Surbatovich et al., "Towards a Formal Foundation of
Intermittent Computing"): a build is correct only if *no* reboot
placement produces a stale/inconsistent input.  The paper's detector
samples that space stochastically; this module explores it exhaustively
within a bound B = activations x cycles x failures:

* **Transitions** reuse the production engines: the explorer
  single-steps a stock :class:`Machine`/:class:`FastMachine` and
  branches by snapshot/restore (:mod:`repro.runtime.snapshot`) plus
  :meth:`force_power_failure`, which is bit-identical to a
  :class:`ScheduledFailures` supply firing at that step.
* **Search order** is best-first by failures used, so the first
  counterexample found uses a minimal number of failures; greedy
  delta-reduction (:func:`repro.verify.schedule.minimize_schedule`)
  then makes it 1-minimal through the production replay path.
* **Deduplication** keys every post-reboot and activation-start state
  by its exact canonical state key (:mod:`repro.verify.digest`) and
  skips states already explored with at least the remaining
  (activations, failures) budget -- explorable futures are monotone in
  budget, so a Pareto frontier per key is sound.
* **Fork-time decisions** build each fork's post-failure key from the
  live machine when the fork is made.  A fork the search would dedupe
  when it pops anyway -- its key is dominated in the visited set, or by
  a pending fork that pops first with at least its budget -- becomes a
  *tombstone*: it keeps its place in the frontier and its counts, but
  is never captured, restored or failed.  Verdicts, stats and graphs
  are unchanged (the argument is in docs/architecture.md); under
  ``REPRO_DEBUG_VERIFY`` every fork is still restored and failed, and
  its real key is checked against the fork-time one.
* **Pruning** skips fork candidates inside atomic regions: Atom-Reboot
  rolls volatile state and the logged NV locations back to the
  outermost region entry with cleared bits, so the failing branch's
  future coincides with the branch already forked at the last depth-0
  point before the region entry (the availability analysis' resume-point
  structure; see docs/architecture.md for the full argument).  A
  candidate is pruned only when the static classification
  (:func:`classify_resume_points`) *and* the dynamic region context
  agree, and only under a time-invariant environment.  Failure points
  that change nothing at all -- jit mode, no bits set, no cached
  hoisted queries, time-invariant environment -- are skipped as no-ops:
  the post-reboot state equals the state the parent keeps exploring
  with strictly more budget.

The verdict is a proof certificate ("no fresh/consistent violation up
to B", with explored/pruned/deduped counts), a minimized replayable
counterexample :class:`Schedule`, or bound-exhausted when the state cap
cut exploration (a cycle-capped branch is *within* B by definition; a
capped frontier is not).
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from typing import Optional

from repro.analysis.availability import ResumeClassification, classify_resume_points
from repro.core.passes.base import DEBUG_ENV_VAR
from repro.core.pipeline import CompiledProgram
from repro.energy.costs import DEFAULT_COSTS, CostModel
from repro.ir.instructions import InstrId
from repro.runtime.detector import DetectorPlan
from repro.runtime.engine import ENGINE_FAST, ENGINE_REFERENCE, create_machine
from repro.runtime.executor import ExecError, MachineConfig, stack_words
from repro.runtime.snapshot import MachineSnapshot, capture_machine, restore_machine
from repro.runtime.supply import FailurePoint
from repro.sensors.environment import Environment
from repro.telemetry.trace import span as _span
from repro.verify.digest import StateKeys, fast_block_namer, state_digest
from repro.verify.schedule import Schedule, minimize_schedule

VERDICT_PROOF = "proof"
VERDICT_COUNTEREXAMPLE = "counterexample"
VERDICT_BOUND = "bound-exhausted"


@dataclass(frozen=True)
class VerifyBounds:
    """The bound B the certificate quantifies over.

    ``max_activations`` and ``max_cycles`` (per activation) define the
    run prefix being verified; ``max_failures`` bounds the failures per
    schedule.  ``max_states`` caps explored fork states -- hitting it
    means the *frontier* was cut, which degrades a proof to
    bound-exhausted (unlike the cycle cap, which is part of B).
    """

    max_activations: int = 1
    max_failures: int = 2
    max_cycles: int = 200_000
    max_states: int = 100_000
    off_cycles: int = 10_000

    def __post_init__(self) -> None:
        # Below these a bound explores nothing, counts failures below
        # zero or turns time back, yet would still certify a proof "up
        # to" it.
        for name, least in (
            ("max_activations", 1),
            ("max_cycles", 1),
            ("max_states", 1),
            ("max_failures", 0),
            ("off_cycles", 0),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass
class ExploreStats:
    """Counters for the certificate and the benchmark record."""

    explored: int = 0  # fork states expanded (segments run)
    steps: int = 0  # machine steps taken
    candidates: int = 0  # feasible failure points seen
    forked: int = 0  # child states pushed
    pruned: int = 0  # candidates skipped by the region-rollback argument
    pruned_noop: int = 0  # candidates skipped as state-identical no-ops
    deduped: int = 0  # branches dropped at a visited state key
    cycle_truncated: int = 0  # branches stopped at the per-activation cycle cap
    stuck: int = 0  # branches that died in ExecError (e.g. region too large)
    truncated: int = 0  # frontier entries dropped at the state cap
    completed_branches: int = 0  # branches that reached the activation bound

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class Verdict:
    """The verifier's answer for one (program, config, env, bounds)."""

    kind: str
    bounds: VerifyBounds
    stats: ExploreStats
    engine: str
    pruning: bool
    counterexample: Optional[Schedule] = None
    #: (pid, kind, uid) of the first violation on the counterexample path
    violation: Optional[tuple[str, str, InstrId]] = None
    #: all (pid, site chain) that fired, when collect_all exploration ran
    fired: frozenset = frozenset()
    graph: Optional[dict] = None
    #: causal reports for the counterexample's violations, built by
    #: replaying the minimized schedule (telemetry.forensics dicts)
    forensics: Optional[list] = None

    @property
    def exit_code(self) -> int:
        if self.kind == VERDICT_PROOF:
            return 0
        if self.kind == VERDICT_COUNTEREXAMPLE:
            return 1
        return 2

    def certificate(self) -> str:
        """Human-readable verdict summary (the CLI's output)."""
        b, s = self.bounds, self.stats
        lines = [
            f"verdict     : {self.kind}",
            f"bound       : {b.max_activations} activation(s) x "
            f"{b.max_cycles} cycles, <= {b.max_failures} failure(s)",
            f"explored    : {s.explored} states, {s.steps} steps, "
            f"{s.forked} forks",
            f"pruned      : {s.pruned} in-region + {s.pruned_noop} no-op "
            f"of {s.candidates} candidates",
            f"deduped     : {s.deduped}",
        ]
        if s.cycle_truncated:
            lines.append(f"cycle-capped: {s.cycle_truncated} branch(es)")
        if s.truncated or s.stuck:
            lines.append(
                f"exhausted   : {s.truncated} frontier entries dropped, "
                f"{s.stuck} stuck branch(es)"
            )
        if self.counterexample is not None:
            pid, kind, uid = self.violation
            lines.append(
                f"violation   : {kind} {pid} at {uid.func}:{uid.label}"
            )
            for p in self.counterexample.points:
                lines.append(
                    f"  fail before {p.uid.func}:{p.uid.label} "
                    f"(occurrence {p.occurrence})"
                )
        if self.forensics:
            lines.append("forensics   :")
            for report in self.forensics:
                for line in report.render_text().splitlines():
                    lines.append(f"  {line}")
        return "\n".join(lines)


@dataclass
class FixedOffSupply:
    """The explorer's supply: never fails on its own, constant off-time.

    Failures are injected by the explorer via ``force_power_failure``,
    so the supply's only job is answering ``off_and_recharge`` with the
    same constant a replayed :class:`ScheduledFailures` schedule will
    use -- keeping explorer transitions bit-identical to replay.  Both
    engines classify an unknown supply type onto the generic path, i.e.
    the exact reference call sequence.
    """

    off_cycles: int = 10_000

    def fail_before(self, uid, chain=None) -> bool:
        return False

    def consume(self, energy: int) -> bool:
        return False

    def would_trip(self, energy: int) -> bool:
        return False

    def checkpoint_energy(self, energy: int) -> None:
        pass  # simulated failures have ideal reserve

    def off_and_recharge(self) -> int:
        return self.off_cycles


@dataclass(slots=True)
class _Node:
    #: a tombstone has no snapshot, attempts or points outside debug runs
    snapshot: Optional[MachineSnapshot]
    activation: int
    failures: int
    points: tuple[FailurePoint, ...]
    attempts: Optional[dict[InstrId, int]]
    pending: bool  # force a power failure immediately after restore?
    graph_id: int = -1
    #: post-failure state key decided at fork time; None for the root
    #: and for a fork whose failure may get stuck
    key: Optional[tuple] = None
    #: dominated at fork time: popping it only counts it
    tombstone: bool = False


class Explorer:
    """One bounded exploration of (compiled, env) under ``bounds``."""

    def __init__(
        self,
        compiled: CompiledProgram,
        env: Environment,
        bounds: Optional[VerifyBounds] = None,
        engine: str = ENGINE_FAST,
        costs: CostModel = DEFAULT_COSTS,
        plan: Optional[DetectorPlan] = None,
        prune: bool = True,
        collect_all: bool = False,
        record_graph: bool = False,
        seed_uids: frozenset = frozenset(),
        relevant_bits: Optional[frozenset] = None,
    ) -> None:
        self._compiled = compiled
        self._env = env
        self._bounds = bounds if bounds is not None else VerifyBounds()
        self._engine = engine
        self._costs = costs
        self._plan = plan if plan is not None else compiled.detector_plan()
        # Pruning and no-op skipping argue over tau-shifted futures, so
        # they require a time-invariant environment (every signal
        # constant); otherwise they auto-disable and state keys fall
        # back to the environment's periodic tau token.
        self._time_invariant = env.period() == 1
        self._prune = prune and self._time_invariant
        self._classification: ResumeClassification = (
            classify_resume_points(compiled.module)
            if self._prune
            else ResumeClassification()
        )
        self._collect_all = collect_all
        self._record_graph = record_graph
        # Static-verdict guidance (repro.analysis.staleness).  Failure
        # points at a DOOMED site are expanded before same-failure-count
        # siblings -- the linter claims they fire, so they are the
        # shortest route to a counterexample.  ``relevant_bits``, when
        # given, holds every detector bit some non-SAFE check reads;
        # clearing a bit outside it is violation-unobservable (SAFE
        # checks never fire under any schedule), so the no-op skip may
        # ignore such bits instead of requiring the vector to be empty.
        self._seed_uids = seed_uids
        self._relevant_bits = relevant_bits
        self.stats = ExploreStats()
        self._fired: set = set()
        self._graph_nodes: list[dict] = []
        self._graph_edges: list[dict] = []
        # collect-all mode's first counterexample, for verify_program
        self._first_counterexample: Optional[Verdict] = None
        # The debug cross-check (on in tests and CI): every fork is
        # still restored and failed when it pops, and must reach the
        # key and the verdict its fork-time decision predicted.
        self._debug = os.environ.get(DEBUG_ENV_VAR, "") not in ("", "0")

    # -- engine adapters -------------------------------------------------------

    def _build_machine(self):
        # Violations-only: the state key and the verdict read nothing else,
        # so segment runs record O(violations) events, not O(steps).
        machine = create_machine(
            self._engine,
            self._compiled,
            self._env,
            FixedOffSupply(off_cycles=self._bounds.off_cycles),
            costs=self._costs,
            plan=self._plan,
            config=MachineConfig(
                max_cycles=self._bounds.max_cycles, emit_observations=False
            ),
        )
        self._name_block = (
            None
            if self._engine == ENGINE_REFERENCE
            else fast_block_namer(machine._code)
        )
        self._keys = StateKeys(self._name_block)
        return machine

    def _peek(self, machine) -> tuple[InstrId, object]:
        """(uid, lazy chain) of the instruction about to execute."""
        if self._name_block is None:
            instr = machine._fetch()
            return instr.uid, lambda: machine._current_chain(instr.uid)
        frame = machine._frames[-1]
        op = frame.ops[frame.idx]
        return op.uid, lambda: op.chain_at(frame.sites)[0]

    def _key(self, machine) -> tuple:
        token = 0 if self._time_invariant else self._env.segment_token(machine.tau)
        return state_digest(machine, token, self._keys)

    def _failure_key(self, machine) -> tuple:
        """Key of the state ``machine.force_power_failure()`` would leave.

        Its time token is taken where ``MachineCore._power_failure`` and
        ``_reboot`` leave ``tau``: plus the JIT checkpoint (outside a
        region only), the supply's off-time and the restore cycles.
        """
        token = 0
        if not self._time_invariant:
            costs = self._costs
            tau = machine.tau + self._bounds.off_cycles + costs.restore
            if machine._atom_ctx is None:
                tau += costs.checkpoint_cycles(stack_words(machine._frames))
            token = self._env.segment_token(tau)
        return state_digest(machine, token, self._keys, failed=True)

    # -- the search ------------------------------------------------------------

    def run(self) -> Verdict:
        with _span("verify.explore", "verify", engine=self._engine):
            return self._run()

    def _run(self) -> Verdict:
        bounds = self._bounds
        machine = self._build_machine()
        self._visited: dict[tuple, list[tuple[int, int]]] = {}
        # Non-tombstone forks by key: (activations left, failures, boost).
        # A popped fork may stay listed -- its key's visited entry then
        # dominates whatever it would dominate here.
        self._reserved: dict[tuple, list[tuple[int, int, int]]] = {}
        self._frontier: list[tuple[int, int, int, _Node]] = []
        self._seq = 0

        root = _Node(
            snapshot=capture_machine(machine),
            activation=0,
            failures=0,
            points=(),
            attempts={},
            pending=False,
            graph_id=self._graph_node(0, 0, "root"),
        )
        self._push(root)

        counterexample: Optional[Verdict] = None
        while self._frontier:
            if self.stats.explored >= bounds.max_states:
                self.stats.truncated += len(self._frontier)
                self._frontier.clear()
                break
            node = heapq.heappop(self._frontier)[-1]
            verdict = self._expand(machine, node)
            if verdict is not None:
                counterexample = verdict
                if not self._collect_all:
                    break

        if counterexample is not None:
            return self._finish(counterexample)
        kind = (
            VERDICT_BOUND
            if self.stats.truncated or self.stats.stuck
            else VERDICT_PROOF
        )
        return self._finish(
            Verdict(
                kind=kind,
                bounds=bounds,
                stats=self.stats,
                engine=self._engine,
                pruning=self._prune,
            )
        )

    def _finish(self, verdict: Verdict) -> Verdict:
        verdict.fired = frozenset(self._fired)
        if self._record_graph:
            verdict.graph = {
                "nodes": self._graph_nodes,
                "edges": self._graph_edges,
            }
        return verdict

    def _push(self, node: _Node, boost: int = 1) -> None:
        """Enqueue best-first: fewest failures, then seeded (``boost``
        0) before unseeded, then FIFO."""
        self._seq += 1
        heapq.heappush(
            self._frontier, (node.failures, boost, self._seq, node)
        )

    def _graph_node(self, activation: int, failures: int, kind: str) -> int:
        if not self._record_graph:
            return -1
        nid = len(self._graph_nodes)
        self._graph_nodes.append(
            {
                "id": nid,
                # state keys never leave the process
                "digest": None,
                "activation": activation,
                "failures": failures,
                "kind": kind,
            }
        )
        return nid

    def _seen(self, key: tuple, acts_left: int, fails_left: int) -> bool:
        """Pareto-frontier dedup: skip iff already explored with at
        least this much remaining budget in both dimensions."""
        frontier = self._visited.setdefault(key, [])
        for a, f in frontier:
            if a >= acts_left and f >= fails_left:
                return True
        frontier[:] = [
            (a, f)
            for a, f in frontier
            if not (acts_left >= a and fails_left >= f)
        ]
        frontier.append((acts_left, fails_left))
        return False

    def _dominated(
        self, key: tuple, activation: int, failures: int, boost: int
    ) -> bool:
        """Will a fork with post-failure ``key`` be deduped when it pops?

        Yes if (a) the visited set holds an entry with at least its
        budget -- a Pareto entry is only ever replaced by one that
        dominates it, so that still holds at pop time -- or (b) a
        non-tombstone fork with the same key and at least its budget
        pops before it (frontier order is ``(failures, boost, seq)``):
        that fork's own pop leaves such an entry behind, whether its
        check inserts it or finds it already dominated.  Otherwise the
        fork reserves its key for later forks.
        """
        bounds = self._bounds
        acts_left = bounds.max_activations - activation
        fails_left = bounds.max_failures - failures
        for a, f in self._visited.get(key, ()):
            if a >= acts_left and f >= fails_left:
                return True
        reserved = self._reserved.setdefault(key, [])
        for a, f, b in reserved:
            if a >= acts_left and (f, b) <= (failures, boost):
                return True
        reserved.append((acts_left, failures, boost))
        return False

    def _fork(
        self,
        machine,
        parent: _Node,
        activation: int,
        failures: int,
        boost: int,
        uid: InstrId,
        occurrence: int,
        attempts: dict[InstrId, int],
    ) -> _Node:
        """The child failing before ``uid``, decided before capture.

        A fork inside a region that has used up its restarts may get
        ``stuck`` when it pops, so it takes the plain path: no key, no
        reservation.  Every other fork gets its post-failure key now and
        becomes a snapshot-free tombstone when :meth:`_dominated` says
        its pop would be deduped anyway.
        """
        key = None
        tombstone = False
        if (
            machine._atom_ctx is None
            or machine.stats.region_restarts
            < machine._config.max_region_restarts
        ):
            key = self._failure_key(machine)
            tombstone = self._dominated(key, activation, failures, boost)
        keep = not tombstone or self._debug
        return _Node(
            snapshot=capture_machine(machine) if keep else None,
            activation=activation,
            failures=failures,
            points=(
                parent.points + (FailurePoint(uid=uid, occurrence=occurrence),)
                if keep
                else ()
            ),
            attempts=None if tombstone else dict(attempts),
            pending=True,
            graph_id=self._graph_node(activation, failures, "fork"),
            key=key,
            tombstone=tombstone,
        )

    def _mismatch(self, node: _Node, what: str) -> None:
        """Fail the debug cross-check: a popped fork broke its fork-time
        decision."""
        point = node.points[-1]
        kind = "tombstone" if node.tombstone else "fork"
        raise AssertionError(
            f"fork-time decision broken: the {kind} failing before "
            f"{point.uid.func}:{point.uid.label} (occurrence "
            f"{point.occurrence}) {what} when it popped"
        )

    def _expand(self, machine, node: _Node) -> Optional[Verdict]:
        """Restore ``node``, apply its pending failure, run the segment."""
        bounds = self._bounds
        stats = self.stats
        stats.explored += 1
        if node.tombstone and not self._debug:
            stats.deduped += 1
            return None
        restore_machine(machine, node.snapshot)
        # Restoring installs a fresh trace, which in violations-only mode
        # holds exactly this segment's violations.
        violations = machine.trace.events

        activation = node.activation
        failures = node.failures
        attempts = node.attempts

        if node.pending:
            key = node.key
            try:
                machine.force_power_failure()
            except ExecError:
                if self._debug and key is not None:
                    self._mismatch(node, "got stuck")
                stats.stuck += 1
                return None
            if key is None:
                key = self._key(machine)
            elif self._debug and self._key(machine) != key:
                self._mismatch(node, "left a state other than its key")
            if self._seen(
                key,
                bounds.max_activations - activation,
                bounds.max_failures - failures,
            ):
                stats.deduped += 1
                return None
            if node.tombstone:
                self._mismatch(node, "was not dominated")

        classification = self._classification
        prune = self._prune
        noop_ok = self._time_invariant
        seed_uids = self._seed_uids
        relevant = self._relevant_bits

        while True:
            if machine._done:
                activation += 1
                if activation >= bounds.max_activations:
                    stats.completed_branches += 1
                    return None
                machine.begin_activation(trace=machine.trace)
                if self._seen(
                    self._key(machine),
                    bounds.max_activations - activation,
                    bounds.max_failures - failures,
                ):
                    stats.deduped += 1
                    return None
                continue
            if machine.stats.total_cycles > bounds.max_cycles:
                stats.cycle_truncated += 1
                return None

            uid, chain_of = self._peek(machine)
            count = attempts.get(uid, 0) + 1
            attempts[uid] = count

            if failures < bounds.max_failures:
                stats.candidates += 1
                in_region = machine._atom_ctx is not None
                bits = machine.nv.bits.bits
                if prune and in_region and classification.prunable(chain_of()):
                    stats.pruned += 1
                elif (
                    noop_ok
                    and not in_region
                    and not (
                        bits & relevant if relevant is not None else bits
                    )
                    and not machine._hoist_cache
                ):
                    stats.pruned_noop += 1
                else:
                    boost = 0 if uid in seed_uids else 1
                    child = self._fork(
                        machine,
                        node,
                        activation,
                        failures + 1,
                        boost,
                        uid,
                        count,
                        attempts,
                    )
                    stats.forked += 1
                    if self._record_graph:
                        self._graph_edges.append(
                            {
                                "parent": node.graph_id,
                                "child": child.graph_id,
                                "func": uid.func,
                                "label": uid.label,
                                "occurrence": count,
                            }
                        )
                    self._push(child, boost)

            seen_violations = len(violations)
            site_chain = chain_of() if self._collect_all else None
            try:
                machine.step()
            except ExecError:
                stats.stuck += 1
                return None
            stats.steps += 1

            if len(violations) > seen_violations:
                new = violations[seen_violations:]
                if self._collect_all:
                    for violation in new:
                        self._fired.add((violation.pid, site_chain))
                first = new[0]
                verdict = Verdict(
                    kind=VERDICT_COUNTEREXAMPLE,
                    bounds=bounds,
                    stats=stats,
                    engine=self._engine,
                    pruning=self._prune,
                    counterexample=Schedule(
                        points=node.points,
                        off_cycles=bounds.off_cycles,
                        activations=activation + 1,
                    ),
                    violation=(first.pid, first.kind, first.uid),
                )
                if not self._collect_all:
                    return verdict
                # Exhaustive mode: remember the first counterexample but
                # keep exploring this branch and the frontier.
                if self._first_counterexample is None:
                    self._first_counterexample = verdict


def verify_program(
    compiled: CompiledProgram,
    env: Environment,
    bounds: Optional[VerifyBounds] = None,
    engine: str = ENGINE_FAST,
    costs: CostModel = DEFAULT_COSTS,
    plan: Optional[DetectorPlan] = None,
    prune: bool = True,
    collect_all: bool = False,
    record_graph: bool = False,
    minimize: bool = True,
    target: Optional[str] = None,
    config: Optional[str] = None,
    seed_uids: frozenset = frozenset(),
    relevant_bits: Optional[frozenset] = None,
) -> Verdict:
    """Explore, and minimize any counterexample through the replay path."""
    explorer = Explorer(
        compiled,
        env,
        bounds=bounds,
        engine=engine,
        costs=costs,
        plan=plan,
        prune=prune,
        collect_all=collect_all,
        record_graph=record_graph,
        seed_uids=seed_uids,
        relevant_bits=relevant_bits,
    )
    verdict = explorer.run()
    if collect_all and verdict.kind != VERDICT_COUNTEREXAMPLE:
        first = explorer._first_counterexample
        if first is not None:
            first.fired = verdict.fired
            first.graph = verdict.graph
            verdict = first
    if verdict.counterexample is not None:
        schedule = verdict.counterexample
        if minimize:
            schedule = minimize_schedule(
                compiled,
                env,
                schedule,
                engine=engine,
                costs=costs,
                plan=plan,
            )
        verdict.counterexample = Schedule(
            points=schedule.points,
            off_cycles=schedule.off_cycles,
            activations=schedule.activations,
            target=target,
            config=config,
        )
        # Forensics: the explorer runs violations-only, so replay the
        # (minimized) schedule with full observation to join the
        # detector firing back to the sensor reads that caused it.
        from repro.telemetry.forensics import explain_traces
        from repro.verify.schedule import replay_schedule

        replay = replay_schedule(
            compiled,
            env,
            verdict.counterexample,
            engine=engine,
            costs=costs,
            plan=plan,
            stop_at_violation=False,
        )
        verdict.forensics = explain_traces(
            replay.traces, getattr(compiled, "policies", None)
        )
    return verdict
