"""Interprocedural, context-sensitive input taint analysis (Algorithm 2).

The analysis walks the call tree from ``main`` (call paths are finite: the
language forbids recursion) and computes, flow-sensitively per calling
context, two kinds of facts for every variable:

* **input provenance** (``provs``): the set of provenance chains of input
  operations the value depends on, through data flow *and* control flow
  ("it inserts any definitions that are data or control dependent on iOp
  into the taint map", Appendix I); and
* **policy tags** (``tags``): identity tags injected at ``Fresh``
  annotations and propagated only through value-preserving moves
  (parameter binding, bare-variable copies, returns of a bare variable).
  An instruction reading a tagged value -- or control-dependent on a
  branch that does -- is a *use* of that policy, matching the paper's use
  set ``[let x, if x, alarm]`` for ``Fresh(x); if x < 5 { alarm(); }``
  (Figure 3): direct readers plus the control-dependence closure, but not
  arbitrary data descendants (re-deriving a value ends the freshness
  obligation, which is why CEM's inferred region stays small, Section 7.2).

The analysis describes the program, not its instrumentation: region
inference's markers read and define nothing, and it skips them, so
inserting them changes no fact (the build analyzes once, before
inference; see :class:`~repro.core.passes.PassManager`).

Rust's ownership discipline is what makes this precise in the paper; our
modeling language enforces the same discipline (singleton may-alias sets,
no mutable globals aliasing), so no conservative pointer blow-up occurs.

Outputs:

* per-annotation input provenance (feeding policy construction),
* per-policy use chains,
* function summaries in the Figure 5 shape (:mod:`repro.analysis.summaries`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.analysis.dataflow import FORWARD, FunctionDataflow, stabilize
from repro.analysis.provenance import Chain, Context
from repro.analysis.summaries import (
    SINK_RET,
    FromArg,
    FromLocal,
    FromPbr,
    FromRet,
    FromTp,
    FunctionSummaries,
    FunctionSummary,
    InInfo,
    sink_ref,
)
from repro.ir import instructions as ir
from repro.ir.dominators import control_dependence
from repro.ir.module import IRFunction, Module
from repro.lang import ast as lang_ast

# -- facts ----------------------------------------------------------------------

Provs = frozenset[Chain]
Tags = frozenset[str]

EMPTY_PROVS: Provs = frozenset()
EMPTY_TAGS: Tags = frozenset()


@dataclass(frozen=True)
class Facts:
    """What a value carries: input provenance chains and policy tags."""

    provs: Provs = EMPTY_PROVS
    tags: Tags = EMPTY_TAGS

    def merge(self, other: "Facts") -> "Facts":
        if not other.provs and not other.tags:
            return self
        if not self.provs and not self.tags:
            return other
        return Facts(self.provs | other.provs, self.tags | other.tags)

    def __bool__(self) -> bool:
        return bool(self.provs or self.tags)


EMPTY_FACTS = Facts()


def fresh_pid(uid: ir.InstrId) -> str:
    """Policy id for a ``Fresh`` annotation instruction."""
    return f"fresh@{uid.func}:{uid.label}"


def consistent_pid(set_id: int) -> str:
    """Policy id for a consistent set."""
    return f"consistent#{set_id}"


@dataclass
class CallOutcome:
    """Taint flowing out of one analyzed call."""

    ret: Facts = EMPTY_FACTS
    ref_out: dict[str, Facts] = field(default_factory=dict)


@dataclass
class TaintResult:
    """Everything downstream passes need from the analysis."""

    module: Module
    summaries: FunctionSummaries
    #: static AnnotInstr uid -> union of input provenance over all contexts
    annot_inputs: dict[ir.InstrId, set[Chain]]
    #: static AnnotInstr uid -> the annotation's own context-qualified chains
    annot_chains: dict[ir.InstrId, set[Chain]]
    #: policy id -> use chains (fresh policies only)
    uses: dict[str, set[Chain]]

    def channel_of(self, chain: Chain) -> str:
        instr = self.module.instr(chain.op)
        if not isinstance(instr, ir.InputInstr):
            raise ValueError(f"{chain} does not end at an input operation")
        return instr.channel


#: Outer global-memory fixpoint cap; see :meth:`TaintAnalysis.run`.
MAX_GLOBAL_ROUNDS = 64

#: Cap on one function analysis: its block solve's sweeps, and the
#: solves it repeats until the accumulators it feeds are quiescent.
MAX_FLOW_ROUNDS = 200

#: The names one instruction reads, in evaluation order, each marked
#: global (``True``: nonvolatile memory) or local (``False``: the
#: taint environment).
Reads = tuple[tuple[str, bool], ...]

#: One solve's read log: an accumulator and, per key the solve read, the
#: value the *first* read returned (``None``: the key was absent).
ReadLog = tuple[Mapping[Any, object], dict[Any, object]]


def _expr_reads(expr: lang_ast.Expr, scope: frozenset[str]) -> Reads:
    """What ``expr`` reads: variables and references resolve against
    ``scope``; an indexed array is always global memory."""
    reads: list[tuple[str, bool]] = []
    for sub in lang_ast.walk_exprs(expr):
        if isinstance(sub, (lang_ast.Var, lang_ast.Ref)):
            reads.append((sub.name, sub.name not in scope))
        elif isinstance(sub, lang_ast.Index):
            reads.append((sub.array, True))
    return tuple(reads)


def _moved(expr: lang_ast.Expr, scope: frozenset[str]) -> Optional[str]:
    """The local whose tags a bare-variable move carries (Rust value
    identity); globals never hold tags, so moving one carries none."""
    if isinstance(expr, lang_ast.Var) and expr.name in scope:
        return expr.name
    return None


def _inferred_marker(instr: ir.Instr) -> bool:
    return (
        isinstance(instr, (ir.AtomicStart, ir.AtomicEnd))
        and instr.origin == "inferred"
    )


def _unchanged(log: ReadLog) -> bool:
    """Does every key still map to the very value its first read got?

    Accumulators only grow, and a write that adds nothing keeps the old
    value object, so identity means "has not grown since it was read".
    """
    store, seen = log
    get = store.get
    return all(get(key) is value for key, value in seen.items())


@dataclass(frozen=True, slots=True)
class _Arg:
    """One call argument bound to a callee parameter."""

    param: str
    #: summary sink of the parameter (``param`` or ``&param``)
    sink: str
    #: the caller's name for a by-reference argument, else ``None``
    ref: Optional[str]
    reads: Reads
    moved: Optional[str]


@dataclass(frozen=True, slots=True)
class _Step:
    """One instruction and what its transfer reads, computed once."""

    instr: ir.Instr
    #: every name the instruction reads (its uses), in evaluation order
    reads: Reads
    #: assign, store through a reference, return: the moved local
    moved: Optional[str] = None
    #: annotation: the annotated variable, as a one-name read
    target: Reads = ()
    #: call of a module function: its arguments
    args: Optional[tuple[_Arg, ...]] = None


@dataclass(frozen=True, slots=True)
class _BlockPlan:
    #: terminators of the branches the block is control dependent on
    controllers: tuple[ir.InstrId, ...]
    steps: tuple[_Step, ...]
    terminator: Optional[_Step]


class _FunctionPlan:
    """One function's CFG solver and per-block transfer plans.

    Built once per analysis, so the walks over expression trees, the
    scope tests and the control-dependence lookups are not repeated for
    every calling context, solve and sweep.
    """

    def __init__(self, module: Module, func: IRFunction) -> None:
        self.name = func.name
        self.flow = FunctionDataflow(func)
        scope = frozenset(func.locals) | {p.name for p in func.params}
        cd = control_dependence(func)
        self.blocks: dict[str, _BlockPlan] = {}
        for name, block in func.blocks.items():
            controllers = tuple(
                term.uid
                for term in (
                    func.blocks[controller].terminator
                    for controller in cd.get(name, ())
                )
                if term is not None
            )
            self.blocks[name] = _BlockPlan(
                controllers=controllers,
                # Inferred-region markers are instrumentation, not
                # program operations: skipped (see the module docstring).
                steps=tuple(
                    _step(module, instr, scope)
                    for instr in block.instrs
                    if not _inferred_marker(instr)
                ),
                terminator=(
                    None
                    if block.terminator is None
                    else _step(module, block.terminator, scope)
                ),
            )


def _step(module: Module, instr: ir.Instr, scope: frozenset[str]) -> _Step:
    reads: list[tuple[str, bool]] = []
    for expr in instr.used_exprs():
        reads.extend(_expr_reads(expr, scope))
    if isinstance(instr, ir.CallInstr):
        reads.extend((name, name not in scope) for name in instr.ref_args())
        args: Optional[tuple[_Arg, ...]] = None
        if instr.func in module.functions:
            callee = module.function(instr.func)
            args = tuple(
                _Arg(
                    param=param.name,
                    sink=sink_ref(param.name),
                    ref=arg.name,
                    reads=((arg.name, arg.name not in scope),),
                    moved=None,
                )
                if isinstance(arg, ir.RefArg)
                else _Arg(
                    param=param.name,
                    sink=param.name,
                    ref=None,
                    reads=_expr_reads(arg, scope),
                    moved=_moved(arg, scope),
                )
                for param, arg in zip(callee.params, instr.args, strict=True)
            )
        return _Step(instr, tuple(reads), args=args)
    if isinstance(instr, ir.AnnotInstr):
        return _Step(
            instr, tuple(reads), target=((instr.var, instr.var not in scope),)
        )
    moved: Optional[str] = None
    if isinstance(instr, (ir.Assign, ir.StoreRefInstr)):
        moved = _moved(instr.expr, scope)
    elif isinstance(instr, ir.RetInstr) and instr.expr is not None:
        moved = _moved(instr.expr, scope)
    return _Step(instr, tuple(reads), moved=moved)


class TaintAnalysis:
    """Whole-program analysis; run once per module via :func:`analyze_module`.

    ``max_rounds`` caps the outer global-memory fixpoint; exhausting it
    raises a structured
    :class:`~repro.analysis.dataflow.ConvergenceError` naming the
    analysis and the module entry -- the analysis never proceeds with a
    possibly-unconverged result.

    Each function analysis (:class:`_FunctionFlow`) repeats its block
    solve until the accumulators it feeds are quiescent, but skips the
    confirming solve when it provably changes nothing.  Every transfer
    logs, per solve, the first value it reads from the three accumulators
    the solves share: global-memory facts, branch facts and hop kinds.
    When a solve ends with every logged value still current, repeating it
    would read the same values in the same order, record only what is
    already recorded, and hit the call memo for every callee, so the
    solve is settled (see :func:`~repro.analysis.dataflow.stabilize`).
    Otherwise the confirming solve runs as it always did, under the same
    cap.  The outer global rounds always run their confirming round.
    """

    def __init__(
        self, module: Module, max_rounds: int = MAX_GLOBAL_ROUNDS
    ) -> None:
        self._module = module
        self._max_rounds = max_rounds
        self._plans: dict[str, _FunctionPlan] = {}
        # Monotone accumulators (survive outer fixpoint rounds).
        self._global_facts: dict[str, Facts] = {}
        #: context -> branch terminator -> facts its condition read
        self._branch_facts: dict[Context, dict[ir.InstrId, Facts]] = {}
        self._uses: dict[str, set[Chain]] = {}
        self._annot_inputs: dict[ir.InstrId, set[Chain]] = {}
        self._annot_chains: dict[ir.InstrId, set[Chain]] = {}
        self._summaries = FunctionSummaries()
        #: (context, chain) -> ('ret'|'pbr', hop uid): how a subtree chain
        #: surfaced in the context's function; used for fromTp derivation.
        self._hop_kind: dict[tuple[Context, Chain], tuple[str, ir.InstrId]] = {}
        self._memo: dict[tuple[object, ...], CallOutcome] = {}

    # -- entry point --------------------------------------------------------------

    def run(self) -> TaintResult:
        # Outer fixpoint over global-memory taint: globals written late in
        # one round are visible to earlier readers only in the next round.
        # `stabilize` re-runs the whole-program walk until the monotone
        # accumulator sizes stop growing, and raises a structured
        # ConvergenceError on the round cap.
        def global_round() -> None:
            self._memo.clear()
            self._analyze_call(
                context=(), func_name=self._module.entry, bindings={}
            )

        stabilize(
            global_round,
            self._state_size,
            analysis="global-taint",
            scope=self._module.entry,
            max_rounds=self._max_rounds,
        )
        return TaintResult(
            module=self._module,
            summaries=self._summaries,
            annot_inputs=self._annot_inputs,
            annot_chains=self._annot_chains,
            uses=self._uses,
        )

    def _state_size(self) -> int:
        total = sum(len(f.provs) + len(f.tags) for f in self._global_facts.values())
        total += sum(
            len(f.provs) + len(f.tags)
            for branches in self._branch_facts.values()
            for f in branches.values()
        )
        total += sum(len(s) for s in self._uses.values())
        total += sum(len(s) for s in self._annot_inputs.values())
        total += sum(len(s) for s in self._annot_chains.values())
        total += len(self._summaries.all_entries())
        return total

    # -- per-call analysis -----------------------------------------------------------

    def _analyze_call(
        self,
        context: Context,
        func_name: str,
        bindings: dict[str, Facts],
    ) -> CallOutcome:
        memo_key = (
            context,
            func_name,
            tuple(sorted((k, v.provs, v.tags) for k, v in bindings.items())),
        )
        if memo_key in self._memo:
            return self._memo[memo_key]

        plan = self._plans.get(func_name)
        if plan is None:
            plan = self._plans[func_name] = _FunctionPlan(
                self._module, self._module.function(func_name)
            )
        analyzer = _FunctionFlow(self, plan, context, bindings)
        outcome = analyzer.run()
        self._memo[memo_key] = outcome
        return outcome

    # -- shared recording hooks ---------------------------------------------------------

    def record_use(self, tags: Tags, chain: Chain) -> None:
        for tag in tags:
            self._uses.setdefault(tag, set()).add(chain)

    def record_annot(self, uid: ir.InstrId, chain: Chain, provs: Provs) -> None:
        self._annot_inputs.setdefault(uid, set()).update(provs)
        self._annot_chains.setdefault(uid, set()).add(chain)

    def merge_global(self, name: str, facts: Facts) -> None:
        # Stored values lose identity tags (re-deriving through memory ends
        # the freshness obligation; see the module docstring).  A merge
        # that adds nothing keeps the stored object (see `_unchanged`).
        old = self._global_facts.get(name)
        if old is None:
            if facts.provs:
                self._global_facts[name] = Facts(provs=facts.provs)
        elif not facts.provs <= old.provs:
            self._global_facts[name] = Facts(provs=old.provs | facts.provs)

    def record_hop(
        self, context: Context, chain: Chain, kind: str, site: ir.InstrId
    ) -> None:
        self._hop_kind.setdefault((context, chain), (kind, site))

    @property
    def module(self) -> Module:
        return self._module

    @property
    def summaries(self) -> FunctionSummaries:
        return self._summaries


class _EnvLattice:
    """Pointwise join of taint environments (``name -> Facts``)."""

    def bottom(self) -> dict[str, Facts]:
        return {}

    def join(
        self, a: dict[str, Facts], b: dict[str, Facts]
    ) -> dict[str, Facts]:
        # Returns ``a`` itself when ``b`` adds nothing to it.
        if not b:
            return a
        if not a:
            return b
        merged = a
        for name, facts in b.items():
            old = a.get(name)
            if old is None:
                if not facts:
                    continue
                grown = facts
            elif old is facts or (
                facts.provs <= old.provs and facts.tags <= old.tags
            ):
                continue
            else:
                grown = old.merge(facts)
            if merged is a:
                merged = dict(a)
            merged[name] = grown
        return merged


_ENV_LATTICE = _EnvLattice()


class _FunctionFlow:
    """Flow-sensitive fixpoint over one function in one calling context.

    A forward :class:`~repro.analysis.dataflow.BlockProblem`: the fact is
    the taint environment at block entry; the transfer functions are the
    Algorithm 2 rules, which also feed the owner's monotone accumulators
    (uses, branch facts, summaries), so the per-function solve is wrapped
    in :func:`~repro.analysis.dataflow.stabilize` until those stop
    changing too -- or until a solve read no accumulator value that grew
    after it was read (see :class:`TaintAnalysis`).
    """

    name = "taint-flow"
    direction = FORWARD
    lattice = _ENV_LATTICE

    def __init__(
        self,
        owner: TaintAnalysis,
        plan: _FunctionPlan,
        context: Context,
        bindings: dict[str, Facts],
    ):
        self._owner = owner
        self._plan = plan
        self._context = context
        self._bindings = bindings
        self._globals = owner._global_facts
        # Branch facts of this context are written only by this
        # context's own branch terminators.
        self._branches = owner._branch_facts.setdefault(context, {})
        self._hops = owner._hop_kind
        self._in_states: dict[str, dict[str, Facts]] = {}
        self._ret_facts = EMPTY_FACTS
        self._ref_out: dict[str, Facts] = {}
        self._chains: dict[ir.InstrId, Chain] = {}
        # The current solve's read logs: key -> first value read.
        self._seen_globals: dict[Any, object] = {}
        self._seen_branches: dict[Any, object] = {}
        self._seen_hops: dict[Any, object] = {}

    # -- logged reads of the shared accumulators -----------------------------------

    def _global(self, name: str) -> Facts:
        value = self._globals.get(name)
        self._seen_globals.setdefault(name, value)
        return EMPTY_FACTS if value is None else value

    def _control(self, controllers: tuple[ir.InstrId, ...]) -> Facts:
        # Constant over a block's transfer: only this context's own
        # terminators write its branch facts, and the block's own
        # terminator reads before it writes.
        facts = EMPTY_FACTS
        for uid in controllers:
            value = self._branches.get(uid)
            self._seen_branches.setdefault(uid, value)
            if value is not None:
                facts = facts.merge(value)
        return facts

    def _from_tp(self, chain: Chain) -> FromTp:
        """How ``chain``'s taint surfaced in this context's function (Figure 5)."""
        context = self._context
        if chain.extends(context):
            if len(chain) == len(context) + 1:
                return FromLocal(chain.op.label)
            hop = chain.ids[len(context)]
            key = (context, chain)
            kind = self._hops.get(key)
            self._seen_hops.setdefault(key, kind)
            if kind is not None and kind[0] == "pbr":
                return FromPbr(hop)
            return FromRet(hop)
        if context:
            return FromArg(context[-1])
        return FromLocal(chain.op.label)

    # -- helpers -------------------------------------------------------------------

    def _gather(self, env: dict[str, Facts], reads: Reads, facts: Facts) -> Facts:
        for name, is_global in reads:
            value = self._global(name) if is_global else env.get(name)
            if value is not None and value is not facts:
                facts = facts.merge(value)
        return facts

    @staticmethod
    def _moved_tags(env: dict[str, Facts], moved: Optional[str]) -> Tags:
        """Tags survive only a bare-variable move (Rust value identity)."""
        if moved is None:
            return EMPTY_TAGS
        return env.get(moved, EMPTY_FACTS).tags

    def _chain_here(self, uid: ir.InstrId) -> Chain:
        chain = self._chains.get(uid)
        if chain is None:
            chain = self._chains[uid] = Chain.of(self._context, uid)
        return chain

    def _record_branch(self, uid: ir.InstrId, facts: Facts) -> None:
        old = self._branches.get(uid)
        if old is None:
            if facts:
                self._branches[uid] = facts
        elif not (facts.provs <= old.provs and facts.tags <= old.tags):
            self._branches[uid] = old.merge(facts)

    # -- driver -----------------------------------------------------------------------

    def boundary(self) -> dict[str, Facts]:
        return dict(self._bindings)

    def transfer(self, block_name: str, fact: dict[str, Facts]) -> dict[str, Facts]:
        env = dict(fact)
        block = self._plan.blocks[block_name]
        control = self._control(block.controllers)
        for step in block.steps:
            self._transfer(env, step, control)
        if block.terminator is not None:
            self._transfer_terminator(env, block.terminator, control)
        return env

    def run(self) -> CallOutcome:
        # The block solve reaches a fixpoint of the entry environments,
        # but the transfer functions also grow owner-level accumulators
        # (branch facts feeding control-dependence reads, return and
        # by-reference outflow); stabilize re-solves until the snapshot
        # of those is quiescent as well, or until a solve read nothing
        # that grew after it was read.
        solver = self._plan.flow
        logs: tuple[ReadLog, ...] = ()

        def sweep() -> None:
            nonlocal logs
            self._seen_globals, self._seen_branches, self._seen_hops = {}, {}, {}
            solver.solve(self, states=self._in_states, max_rounds=MAX_FLOW_ROUNDS)
            logs = (
                (self._globals, self._seen_globals),
                (self._branches, self._seen_branches),
                (self._hops, self._seen_hops),
            )

        stabilize(
            sweep,
            self._snapshot,
            analysis="taint-flow",
            scope=self._plan.name,
            max_rounds=MAX_FLOW_ROUNDS,
            settled=lambda: all(map(_unchanged, logs)),
        )
        return CallOutcome(ret=self._ret_facts, ref_out=dict(self._ref_out))

    def _snapshot(self) -> tuple[object, ...]:
        env_size = tuple(
            sorted(
                (name, len(env), sum(len(f.provs) + len(f.tags) for f in env.values()))
                for name, env in self._in_states.items()
            )
        )
        ret = (len(self._ret_facts.provs), len(self._ret_facts.tags))
        ref = tuple(
            sorted(
                (p, len(f.provs), len(f.tags)) for p, f in self._ref_out.items()
            )
        )
        return env_size, ret, ref

    # -- transfer functions ---------------------------------------------------------------

    def _transfer(self, env: dict[str, Facts], step: _Step, control: Facts) -> None:
        # Every rule below derives its value from `reads`: the control
        # facts plus everything the instruction's expressions read.
        instr = step.instr
        reads = self._gather(env, step.reads, control)
        if reads.tags and not isinstance(instr, ir.AnnotInstr):
            self._owner.record_use(reads.tags, self._chain_here(instr.uid))

        if isinstance(instr, ir.Assign):
            result = Facts(provs=reads.provs, tags=self._moved_tags(env, step.moved))
            if instr.scope == ir.SCOPE_GLOBAL:
                self._owner.merge_global(instr.dest, result)
            else:
                env[instr.dest] = result
        elif isinstance(instr, ir.CallInstr):
            if step.args is not None:
                self._transfer_call(env, instr, step.args, control)
        elif isinstance(instr, ir.InputInstr):
            chain = self._chain_here(instr.uid)
            env[instr.dest] = Facts(provs=frozenset({chain}))
        elif isinstance(instr, ir.StoreArr):
            self._owner.merge_global(instr.array, reads)
        elif isinstance(instr, ir.StoreRefInstr):
            result = Facts(provs=reads.provs, tags=self._moved_tags(env, step.moved))
            env[instr.param] = result
            self._ref_out[instr.param] = self._ref_out.get(
                instr.param, EMPTY_FACTS
            ).merge(result)
        elif isinstance(instr, ir.AnnotInstr):
            var_facts = self._gather(env, step.target, EMPTY_FACTS)
            chain = self._chain_here(instr.uid)
            self._owner.record_annot(instr.uid, chain, var_facts.provs)
            if instr.kind == lang_ast.AnnotKind.FRESH:
                pid = fresh_pid(instr.uid)
                env[instr.var] = Facts(
                    provs=var_facts.provs, tags=var_facts.tags | {pid}
                )
        # Output, work, skip, atomic markers: reads recorded above, no defs.

    def _transfer_call(
        self,
        env: dict[str, Facts],
        instr: ir.CallInstr,
        args: tuple[_Arg, ...],
        control: Facts,
    ) -> None:
        site_chain = self._context + (instr.uid,)
        bindings: dict[str, Facts] = {}
        incoming: list[tuple[str, Facts]] = []  # (sink, facts) for summaries
        for arg in args:
            facts = self._gather(env, arg.reads, EMPTY_FACTS)
            if arg.ref is None:
                facts = Facts(provs=facts.provs, tags=self._moved_tags(env, arg.moved))
            bindings[arg.param] = facts
            if facts.provs:
                incoming.append((arg.sink, facts))

        outcome = self._owner._analyze_call(site_chain, instr.func, bindings)

        # -- summary rows (Figure 5) -------------------------------------------------
        summary = self._owner.summaries.of(instr.func)
        for sink, facts in incoming:
            for chain in facts.provs:
                summary.caller(instr.uid).add(
                    sink,
                    InInfo(input=chain.op, from_tp=self._from_tp(chain), chain=chain),
                )
        self._record_outflow(summary, instr.uid, SINK_RET, outcome.ret, site_chain)
        for param, facts in outcome.ref_out.items():
            self._record_outflow(
                summary, instr.uid, sink_ref(param), facts, site_chain
            )

        # -- effect on the caller state ------------------------------------------------
        for chain in outcome.ret.provs:
            if chain.extends(site_chain):
                self._owner.record_hop(self._context, chain, "ret", instr.uid)
        if instr.dest is not None:
            env[instr.dest] = Facts(
                provs=outcome.ret.provs | control.provs, tags=outcome.ret.tags
            )
        for arg in args:
            if arg.ref is not None and arg.param in outcome.ref_out:
                written = outcome.ref_out[arg.param]
                for chain in written.provs:
                    if chain.extends(site_chain):
                        self._owner.record_hop(
                            self._context, chain, "pbr", instr.uid
                        )
                merged = Facts(
                    provs=written.provs | control.provs, tags=written.tags
                )
                env[arg.ref] = self._gather(env, arg.reads, EMPTY_FACTS).merge(merged)

    def _record_outflow(
        self,
        summary: FunctionSummary,
        site: ir.InstrId,
        sink: str,
        facts: Facts,
        site_chain: Context,
    ) -> None:
        for chain in facts.provs:
            if chain.extends(site_chain):
                # Generated within the callee's subtree: local summary.
                hop_label = chain.ids[len(site_chain)].label
                summary.local.add(
                    sink,
                    InInfo(input=chain.op, from_tp=FromLocal(hop_label), chain=chain),
                )
            else:
                summary.caller(site).add(
                    sink,
                    InInfo(input=chain.op, from_tp=FromArg(site), chain=chain),
                )

    def _transfer_terminator(
        self, env: dict[str, Facts], step: _Step, control: Facts
    ) -> None:
        term = step.instr
        reads = self._gather(env, step.reads, control)
        if reads.tags:
            self._owner.record_use(reads.tags, self._chain_here(term.uid))
        if isinstance(term, ir.Branch):
            self._record_branch(term.uid, reads)
        elif isinstance(term, ir.RetInstr) and term.expr is not None:
            self._ret_facts = self._ret_facts.merge(
                Facts(provs=reads.provs, tags=self._moved_tags(env, step.moved))
            )


def analyze_module(module: Module) -> TaintResult:
    """Run the whole-program taint analysis on ``module``."""
    return TaintAnalysis(module).run()
