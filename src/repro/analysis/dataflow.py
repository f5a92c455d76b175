"""Generic worklist/fixpoint dataflow framework.

Every static analysis in this reproduction is a fixpoint over the IR:
the interprocedural taint analysis (Algorithm 2) iterates per-function
block states inside an outer global-memory fixpoint, and the check
optimizer's availability and anticipability analyses (:mod:`repro.ir.opt`)
are classic forward-must and backward-must problems.  Before this module
each of those carried its own hand-rolled loop with its own ad-hoc
iteration cap; now they are instances of one substrate:

* :class:`Lattice` -- the join-semilattice protocol a fact domain
  implements (``bottom`` is the join identity).  :class:`SetUnionLattice`
  (may-analyses), :class:`SetIntersectLattice` (must-analyses over sets),
  and :class:`AllPathsLattice` (must-analyses over booleans) cover the
  in-tree analyses.
* :class:`BlockProblem` -- one dataflow problem: a direction, a lattice,
  and a per-block transfer function.  Transfer functions may carry side
  effects (the taint analysis records uses and summaries while
  transferring); the solver guarantees every reachable block's transfer
  runs at least once with its final input fact, so side effects observe
  the fixpoint.
* :class:`FunctionDataflow` -- the per-function solver: deterministic
  round-robin sweeps over the block order (insertion order for forward
  problems, reversed for backward) until no in-state changes, with an
  iteration guard that raises a structured :class:`ConvergenceError`
  instead of silently proceeding with an unconverged result.  The solver
  also owns the CFG bundle the optimizer passes need -- successors,
  predecessors, and a lazily built dominator tree
  (:mod:`repro.ir.dominators`) for dominator-aware merges and anchor
  placement.
* :func:`stabilize` -- the outer-fixpoint driver for analyses whose
  transfer functions feed monotone global accumulators (the taint
  analysis' global-memory facts): re-run a step until a snapshot stops
  changing, or until the caller reports the last step settled, again
  raising :class:`ConvergenceError` on the round cap.

Facts must be comparable with ``==`` and, for must-analyses, hashable
(frozensets); the solver never mutates facts in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.ir.dominators import DomTree, dominator_tree
from repro.ir.module import IRFunction

FORWARD = "forward"
BACKWARD = "backward"

#: Default sweep cap; real programs converge in a handful of rounds, so
#: hitting this means a transfer function is not monotone.
MAX_ROUNDS = 200

#: Default per-block merge count after which the solver switches from a
#: lattice's ``join`` to its ``widen`` (for lattices that have one).
#: Small enough to converge quickly on loops, large enough that the
#: diamond joins of acyclic CFGs never trigger it.
WIDEN_AFTER = 4


class ConvergenceError(RuntimeError):
    """A fixpoint failed to converge within its round cap.

    Carries structured fields so callers (the pass manager, tests) can
    report *which* analysis diverged *where* instead of a bare message:
    ``analysis`` names the fixpoint, ``scope`` the function or module it
    ran over, ``rounds`` the cap that was exhausted.
    """

    def __init__(
        self, analysis: str, scope: str, rounds: int, detail: str = ""
    ) -> None:
        self.analysis = analysis
        self.scope = scope
        self.rounds = rounds
        self.detail = detail
        message = (
            f"{analysis} fixpoint over '{scope}' did not converge within "
            f"{rounds} round(s)"
        )
        if detail:
            message += f": {detail}"
        super().__init__(message)

    def to_diagnostic(self) -> dict[str, object]:
        """The structured form (mirrors ``Diagnostic.to_dict`` payloads)."""
        return {
            "analysis": self.analysis,
            "scope": self.scope,
            "rounds": self.rounds,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# Lattices


@runtime_checkable
class Lattice(Protocol):
    """A join-semilattice over facts; ``bottom`` is the join identity."""

    def bottom(self) -> Any: ...

    def join(self, a: Any, b: Any) -> Any: ...


@dataclass(frozen=True)
class SetUnionLattice:
    """May-analysis facts: frozensets ordered by inclusion, join = union."""

    def bottom(self) -> frozenset[Any]:
        return frozenset()

    def join(self, a: frozenset[Any], b: frozenset[Any]) -> frozenset[Any]:
        if not b:
            return a
        if not a:
            return b
        return a | b


@dataclass(frozen=True)
class SetIntersectLattice:
    """Must-analysis facts: frozensets with join = intersection.

    The solver stores the first fact reaching a block directly (the
    implicit top element), so ``bottom`` -- the identity a pre-seeded
    state would need -- is never materialized; ``join`` only ever sees
    two concrete sets.
    """

    def bottom(self) -> None:  # pragma: no cover - documented, unused
        raise NotImplementedError(
            "must-analyses rely on first-reaching facts, not a materialized top"
        )

    def join(self, a: frozenset[Any], b: frozenset[Any]) -> frozenset[Any]:
        if a == b:
            return a
        return a & b


@dataclass(frozen=True)
class AllPathsLattice:
    """Boolean must-facts: join = AND ("holds on every incoming path")."""

    def bottom(self) -> bool:  # pragma: no cover - documented, unused
        raise NotImplementedError("boolean must-facts use first-reaching seeds")

    def join(self, a: bool, b: bool) -> bool:
        return a and b


# ---------------------------------------------------------------------------
# Problems and solutions


@runtime_checkable
class BlockProblem(Protocol):
    """One dataflow problem over a function's CFG.

    ``transfer`` maps the flow-input fact of a block (entry fact for
    forward problems, exit fact for backward ones) to its flow-output
    fact.  ``boundary`` is the fact at the flow source (the entry block
    forward, the exit block backward).
    """

    name: str
    direction: str
    lattice: Lattice

    def boundary(self) -> Any: ...

    def transfer(self, block_name: str, fact: Any) -> Any: ...


@dataclass
class Solution:
    """Fixpoint states of one solve: flow-in and flow-out facts per block.

    For forward problems ``states`` holds block-entry facts and
    ``out_states`` block-exit facts; backward problems flip the roles.
    Unreachable blocks are absent.
    """

    states: dict[str, Any]
    out_states: dict[str, Any]
    rounds: int

    def in_fact(self, block: str, default: Any = None) -> Any:
        return self.states.get(block, default)

    def out_fact(self, block: str, default: Any = None) -> Any:
        return self.out_states.get(block, default)


class FunctionDataflow:
    """Fixpoint solver plus CFG info bundle for one IR function.

    The solver performs deterministic round-robin sweeps over the block
    order, merging each block's transferred fact into its flow
    successors, until a full sweep changes nothing.  Determinism matters:
    side-effecting problems (taint) must record facts in a reproducible
    order so compile artifacts are byte-stable across runs and processes.
    """

    def __init__(self, func: IRFunction) -> None:
        self.func = func
        self.order: list[str] = list(func.blocks)
        self.successors: dict[str, list[str]] = {
            name: block.successors() for name, block in func.blocks.items()
        }
        self._predecessors: Optional[dict[str, list[str]]] = None
        self._domtree: Optional[DomTree] = None

    @property
    def predecessors(self) -> dict[str, list[str]]:
        """Reverse edges (built on first use; only backward problems and
        the optimizer's reachability need them -- the taint analysis
        constructs one solver per analyzed calling context, so forward
        solves must not pay for the reverse map)."""
        if self._predecessors is None:
            self._predecessors = self.func.predecessors()
        return self._predecessors

    @property
    def domtree(self) -> DomTree:
        """Dominator tree of the function (built on first use)."""
        if self._domtree is None:
            self._domtree = dominator_tree(self.func)
        return self._domtree

    def solve(
        self,
        problem: BlockProblem,
        states: Optional[dict[str, Any]] = None,
        max_rounds: int = MAX_ROUNDS,
    ) -> Solution:
        """Run ``problem`` to its fixpoint over this function.

        ``states`` optionally carries flow-in facts from a previous solve
        (the taint analysis keeps block states across outer global
        rounds); it is updated in place and returned inside the
        :class:`Solution`.  Raises :class:`ConvergenceError` when
        ``max_rounds`` sweeps do not reach the fixpoint.

        Lattices of infinite (or impractically tall) height -- the
        staleness analysis' cycle intervals -- additionally implement
        ``widen(old, new)``: once a block's in-state has changed more
        than ``widen_after`` times (the problem may override the
        default via a ``widen_after`` attribute), the solver runs the
        joined fact through ``widen`` before storing it, trading
        precision for guaranteed convergence on cyclic CFGs.
        """
        forward = problem.direction == FORWARD
        if forward:
            order = self.order
            source = self.func.entry
            edges = self.successors
        else:
            order = list(reversed(self.order))
            source = self.func.exit
            edges = self.predecessors

        lattice = problem.lattice
        widen = getattr(lattice, "widen", None)
        widen_after = getattr(problem, "widen_after", WIDEN_AFTER)
        merges: dict[str, int] = {}
        if states is None:
            states = {}
        boundary = problem.boundary()
        seeded = states.get(source)
        states[source] = (
            boundary if seeded is None else lattice.join(seeded, boundary)
        )
        out_states: dict[str, Any] = {}

        rounds = 0
        changed = True
        while changed:
            rounds += 1
            if rounds > max_rounds:
                raise ConvergenceError(
                    problem.name, self.func.name, max_rounds,
                    detail=f"{len(states)} block state(s) still unstable",
                )
            changed = False
            for name in order:
                if name not in states:
                    continue
                out = problem.transfer(name, states[name])
                out_states[name] = out
                for nxt in edges[name]:
                    if nxt not in states:
                        states[nxt] = out
                        changed = True
                        continue
                    merged = lattice.join(states[nxt], out)
                    if merged is states[nxt] or merged == states[nxt]:
                        continue
                    count = merges.get(nxt, 0) + 1
                    merges[nxt] = count
                    if widen is not None and count > widen_after:
                        merged = widen(states[nxt], merged)
                    if merged != states[nxt]:
                        states[nxt] = merged
                        changed = True
        return Solution(states=states, out_states=out_states, rounds=rounds)


def stabilize(
    step: Callable[[], None],
    snapshot: Callable[[], Any],
    analysis: str,
    scope: str,
    max_rounds: int = 64,
    settled: Optional[Callable[[], bool]] = None,
) -> int:
    """Outer-fixpoint driver: run ``step`` until ``snapshot`` is stable.

    For analyses whose transfer functions feed monotone global
    accumulators (global-memory taint, recorded use sets), a per-function
    solve alone cannot observe quiescence; this driver re-runs the whole
    step until a caller-supplied snapshot of the accumulated state stops
    changing.  Returns the number of rounds executed.  Raises a
    structured :class:`ConvergenceError` when ``max_rounds`` is exhausted
    -- proceeding with a possibly-unconverged result is never an option.

    ``settled`` lets a caller that tracks what its step read skip the
    confirming round.  It is asked after every round except the last one
    the cap allows.  It must answer true only when running ``step`` again
    would change nothing; the fixpoint then ends there, in exactly the
    state the confirming round would have left.
    """
    previous: Any = _UNSTARTED
    for rounds in range(1, max_rounds + 1):
        step()
        if settled is not None and rounds < max_rounds and settled():
            return rounds
        current = snapshot()
        if current == previous:
            return rounds
        previous = current
    raise ConvergenceError(
        analysis, scope, max_rounds,
        detail=f"last snapshot: {previous!r}"[:200],
    )


class _Unstarted:
    """Sentinel distinct from every snapshot value."""

    def __eq__(self, other: object) -> bool:
        return other is self

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unstarted>"


_UNSTARTED = _Unstarted()


# ---------------------------------------------------------------------------
# Shared CFG helpers for dominator-aware passes


@dataclass
class ReachInfo:
    """Forward/backward reachability closure over one function's blocks."""

    successors: dict[str, list[str]] = field(default_factory=dict)
    reaches: dict[str, frozenset[str]] = field(default_factory=dict)
    reached_by: dict[str, frozenset[str]] = field(default_factory=dict)

    @staticmethod
    def of(flow: FunctionDataflow) -> "ReachInfo":
        reaches = {
            name: _closure(name, flow.successors) for name in flow.order
        }
        reached_by = {
            name: _closure(name, flow.predecessors) for name in flow.order
        }
        return ReachInfo(
            successors=flow.successors, reaches=reaches, reached_by=reached_by
        )

    def between(self, src: str, dst: str) -> frozenset[str]:
        """Blocks on some path from ``src`` to ``dst`` (inclusive)."""
        return self.reaches.get(src, frozenset()) & self.reached_by.get(
            dst, frozenset()
        )

    def cyclic(self, block: str) -> bool:
        """Is ``block`` on a cycle (reachable from its own successors)?"""
        return any(
            block in self.reaches.get(succ, frozenset())
            for succ in self.successors.get(block, ())
        )


def _closure(root: str, edges: dict[str, list[str]]) -> frozenset[str]:
    seen = {root}
    stack = [root]
    while stack:
        node = stack.pop()
        for nxt in edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)
