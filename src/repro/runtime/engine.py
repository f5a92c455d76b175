"""Pre-decoded execution engine: the fast core behind the harnesses.

:class:`repro.runtime.executor.Machine` stays the executable *reference*
semantics -- a direct transcription of the Appendix H rules that
dispatches on instruction classes with ``isinstance`` chains, re-fetches
blocks through dict lookups every step, and rebuilds the provenance
chain tuple whenever the detector (or a scheduled-failure supply) needs
one.  Campaigns and fleets run billions of such steps, so this module
compiles each IR function **once** into per-instruction dispatch records
("ops"), following the formal-semantics discipline of Surbatovich et
al.: the optimized engine must be observation-stream equivalent to the
reference machine, which the parity suite enforces bit-for-bit (traces,
:class:`~repro.runtime.observations.RunStats`, final NV state).

What is precomputed per instruction at decode time:

* the execution closure (no ``isinstance`` dispatch at run time);
* the static cycle cost via the build's :class:`CostModel` (only
  non-literal ``work`` amounts and outer region entries stay dynamic);
* detector-trigger and bit-position membership (no per-step frozenset
  hashing of :class:`InstrId`);
* pure expression trees, compiled to nested closures (``work`` amounts,
  operands, branch conditions);
* jump targets, resolved to the decoded op list of the target block.

Call-site provenance is memoized per frame: each frame carries the
tuple of call uids from ``main`` (its ``sites``), extended once at call
time, and every op caches the :class:`Chain` (plus its detector checks)
per distinct ``sites`` tuple -- the reference machine instead rebuilds
the tuple from the frame stack at every detector trigger.

Hot straight-line code runs as *segments* (:class:`Segment`): each
maximal run of ops -- through unconditional jumps, calls to leaf
functions (whose bodies run inline, mostly without a frame) and region
ops, up to the first branch, return or other call -- becomes one
generated function that runs every op body inline over unboxed values
and commits ``tau``, ``cycles_on``, ``instructions``,
``detector_queries`` and the frame position once.  A region the run
both enters and commits takes no snapshot.  Where every op's
provenance chain is known at generation time, each site's detector
actions are resolved then.  The run loop enters a segment only when no
per-op check inside it could fire (no failure can be scheduled, the
energy model is the stock one in ints, and the run's summed cost, its
region ops' costs bounded from above, stays within ``max_cycles`` and
above the capacitor's trip point).  That is exact by the argument of
Surbatovich et al.: no power failure can fire inside a straight-line
run whose whole energy fits above the trip point, so one check per run
changes no observation -- nor needs the snapshot of a region that
commits inside the run, or the frame of a leaf.  Otherwise, and in
:meth:`FastMachine.step`, the per-op loop runs.  A segment compiles on
its :data:`SEGMENT_COMPILE_THRESHOLD`-th entry, so a build decoded and
run briefly never pays for code generation.

Decoded code is cached on the :class:`CompiledProgram` itself (see
:func:`code_for`).  Compiled programs are interned by the compile cache
keyed on (source, pass-pipeline fingerprint), so the decode cache is
effectively fingerprint-keyed: two builds share decoded code exactly
when they share a build, completed by the (detector plan, cost model)
pair the decode bakes in.
"""

from __future__ import annotations

import re
from typing import Callable, Optional

from repro.analysis.provenance import Chain
from repro.analysis.taint import consistent_pid, fresh_pid
from repro.energy.costs import DEFAULT_COSTS, CostModel
from repro.ir import instructions as ir
from repro.ir.module import IRError, Module
from repro.lang import ast as lang_ast
from repro.runtime import observations as obs
from repro.runtime.detector import OP_FULL, OP_MARKER, DetectorPlan
from repro.runtime.executor import (
    AtomContext,
    ExecError,
    Machine,
    MachineConfig,
    MachineCore,
    NVState,
    _trunc_div,
    copy_stack,
    stack_words,
)
from repro.runtime.supply import (
    ContinuousPower,
    EnergyDrivenSupply,
    PowerSupply,
    ScheduledFailures,
)
from repro.runtime.values import (
    NO_TAINT,
    ZERO,
    InputEvent,
    RefValue,
    TVal,
    merge_taint,
    site_taint,
)
from repro.sensors.environment import Environment
from repro.telemetry.trace import tracer as _tracer

#: Engine names: the escape hatch every harness exposes.
ENGINE_FAST = "fast"
ENGINE_REFERENCE = "reference"
ENGINES = (ENGINE_FAST, ENGINE_REFERENCE)

# Supply interaction modes, classified once per machine so the hot loop
# skips calls that are constant for the supply's exact type (the
# reference machine calls fail_before/would_trip/consume on every step).
# Any other supply runs as a loop over ``FastMachine.step``.
_FAIL_NEVER = 0
_FAIL_WATCHED = 1
_ENERGY_NONE = 0
_ENERGY_CAPACITOR = 1


# Segment roles of a decoded op (see :class:`Segment`).
_ROLE_STEP = 0  # straight-line op: runs inside a segment
_ROLE_JUMP = 1  # unconditional jump: the segment continues at its target
_ROLE_END = 2  # branch, return, call to a non-leaf: a segment's last op
_ROLE_REGION = 3  # atomic_start/atomic_end: its cost joins the entry bound
_ROLE_CALL = 4  # call to a leaf function: the segment runs its body inline


class EngineError(ValueError):
    """An unknown engine name or a mismatched pre-decoded program."""


#: Decoded variants kept per build (distinct plan/cost-model pairs are
#: rare in practice; the bound only guards pathological callers).
_CODE_CACHE_LIMIT = 16


class FastFrame:
    """A volatile frame specialized for decoded code.

    ``ops`` is the decoded op list of the current block (jump targets
    are resolved lists, so there is no per-step block lookup) and
    ``sites`` is the memoized call-site prefix: the tuple of call uids
    from ``main`` down to this frame, extended once per call instead of
    being rebuilt from the stack at every detector trigger.
    """

    __slots__ = ("func", "ops", "idx", "locals", "ret_dest", "sites")

    def __init__(self, func, ops, idx, locals_, ret_dest, sites):
        self.func = func
        self.ops = ops
        self.idx = idx
        self.locals = locals_
        self.ret_dest = ret_dest
        self.sites = sites

    def copy(self) -> "FastFrame":
        return FastFrame(
            self.func, self.ops, self.idx, dict(self.locals),
            self.ret_dest, self.sites,
        )


class Op:
    """One decoded instruction: closures plus precomputed dispatch facts."""

    __slots__ = (
        "uid", "run", "cycles", "estimate", "trigger", "chain_at", "role", "seg",
    )

    def __init__(self, uid, run, cycles, estimate, trigger, chain_at, role=None):
        self.uid = uid
        #: execute the instruction; returns its cycle cost
        self.run: Callable = run
        #: static cycle estimate, or None when dynamic (work, region entry)
        self.cycles: Optional[int] = cycles
        #: dynamic estimate closure (None when ``cycles`` is static)
        self.estimate: Optional[Callable] = estimate
        #: does the detector plan trigger at this uid?
        self.trigger: bool = trigger
        #: sites tuple -> (Chain, checks tuple), memoized per call context
        self.chain_at: Callable = chain_at
        #: how the op takes part in a segment (``_ROLE_*``; None: never)
        self.role: Optional[int] = role
        #: the segment headed by this op, if any
        self.seg: Optional[Segment] = None


class FastFunction:
    __slots__ = ("name", "entry", "blocks")

    def __init__(self, name: str, entry: str):
        self.name = name
        self.entry = entry
        #: block name -> decoded op list (lists are filled in place so
        #: forward references -- calls, jumps -- resolve before decoding)
        self.blocks: dict[str, list[Op]] = {}


class CompiledCode:
    """A fully decoded module for one (detector plan, cost model) pair.

    Segments (see :class:`Segment`) hang off the decoded ops, so their
    generated code lives exactly as long as the decode, which the
    build's compile-cache entry owns.
    """

    __slots__ = ("module", "plan", "costs", "functions", "entry", "entry_sites")

    def __init__(self, module, plan, costs, functions, entry, entry_sites=None):
        self.module = module
        self.plan = plan
        self.costs = costs
        self.functions = functions
        self.entry = entry
        #: ``()`` when no call targets the entry function, so the
        #: provenance chain of each of its ops is known at decode time
        self.entry_sites: Optional[tuple] = entry_sites


# ---------------------------------------------------------------------------
# Expression compilation

_BINOP_FNS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _trunc_div,
    "%": lambda a, b: 0 if b == 0 else a - b * _trunc_div(a, b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
}


def _index_error(index: int, array: str, size: int) -> ExecError:
    return ExecError(f"index {index} out of bounds for {array}[{size}]")


def _raising(message: str) -> Callable:
    """A closure deferring an ExecError to execution time, like the
    reference machine (a dead unevaluable expression must not fail the
    decode of an otherwise runnable program)."""

    def raise_(m, frame):
        raise ExecError(message)

    return raise_


def compile_expr(expr: lang_ast.Expr) -> Callable:
    """Compile a pure expression tree into a ``fn(machine, frame) -> TVal``."""
    if isinstance(expr, lang_ast.IntLit):
        const = TVal.of(expr.value)
        return lambda m, frame: const
    if isinstance(expr, lang_ast.BoolLit):
        const = TVal.of(expr.value)
        return lambda m, frame: const
    if isinstance(expr, lang_ast.Var):
        name = expr.name

        def read_var(m, frame):
            cell = frame.locals.get(name)
            if cell is None:
                value = m.nv.globals.get(name)
                if value is None:
                    raise ExecError(
                        f"read of unbound variable '{name}' in {frame.func}"
                    )
                return value
            if type(cell) is RefValue:
                return m._deref(cell)
            return cell

        return read_var
    if isinstance(expr, lang_ast.Index):
        index_fn = compile_expr(expr.index)
        array_name = expr.array

        def read_index(m, frame):
            index = index_fn(m, frame)
            array = m.nv.arrays.get(array_name)
            if array is None:
                raise ExecError(f"unknown array '{array_name}'")
            iv = index.value
            if not 0 <= iv < len(array):
                raise _index_error(iv, array_name, len(array))
            element = array[iv]
            return TVal(element.value, merge_taint(element.taint, index.taint))

        return read_index
    if isinstance(expr, lang_ast.Unary):
        operand_fn = compile_expr(expr.operand)
        if expr.op == "-":

            def neg(m, frame):
                operand = operand_fn(m, frame)
                return TVal(-operand.value, operand.taint)

            return neg
        if expr.op == "!":

            def invert(m, frame):
                operand = operand_fn(m, frame)
                return TVal(int(not operand.value), operand.taint)

            return invert
        return _raising(f"unknown unary operator {expr.op}")
    if isinstance(expr, lang_ast.Binary):
        lhs_fn = compile_expr(expr.lhs)
        rhs_fn = compile_expr(expr.rhs)
        value_fn = _BINOP_FNS.get(expr.op)
        if value_fn is None:
            return _raising(f"unknown operator '{expr.op}'")

        def binary(m, frame):
            lhs = lhs_fn(m, frame)
            rhs = rhs_fn(m, frame)
            return TVal(
                value_fn(lhs.value, rhs.value), merge_taint(lhs.taint, rhs.taint)
            )

        return binary
    if isinstance(expr, lang_ast.Call):
        arg_fns = tuple(compile_expr(a) for a in expr.args)
        func = expr.func
        if func == "abs":

            def call_abs(m, frame):
                args = [fn(m, frame) for fn in arg_fns]
                taint = merge_taint(*(a.taint for a in args))
                return TVal(abs(args[0].value), taint)

            return call_abs
        if func == "min":

            def call_min(m, frame):
                args = [fn(m, frame) for fn in arg_fns]
                taint = merge_taint(*(a.taint for a in args))
                return TVal(min(args[0].value, args[1].value), taint)

            return call_min
        if func == "max":

            def call_max(m, frame):
                args = [fn(m, frame) for fn in arg_fns]
                taint = merge_taint(*(a.taint for a in args))
                return TVal(max(args[0].value, args[1].value), taint)

            return call_max
        return _raising(f"cannot evaluate call to '{func}' in expression")
    return _raising(f"cannot evaluate {type(expr).__name__}")


# ---------------------------------------------------------------------------
# Instruction decode


def _decode_instr(
    instr: ir.Instr,
    module: Module,
    plan: DetectorPlan,
    costs: CostModel,
    bit_uids: frozenset[ir.InstrId],
    actions_map: dict,
    canon: dict,
    blocks: dict[str, list[Op]],
    functions: dict[str, FastFunction],
) -> Op:
    uid = instr.uid
    trigger = uid in plan.trigger_uids
    chain_cache: dict[tuple, tuple] = {}

    def chain_at(sites, _cache=chain_cache):
        entry = _cache.get(sites)
        if entry is None:
            chain = Chain(ids=sites + (uid,))
            chain = canon.get(chain, chain)
            entry = (chain, actions_map.get(chain))
            _cache[sites] = entry
        return entry

    def op(run, cycles, estimate=None, role=None):
        # A segment sums static costs, so it needs them to be
        # nonnegative ints (region ops check their own costs).
        if role is not None and role != _ROLE_REGION and (
            type(cycles) is not int or cycles < 0
        ):
            role = None
        return Op(uid, run, cycles, estimate, trigger, chain_at, role)

    if isinstance(instr, ir.Terminator):
        cyc = costs.instr_cycles(instr)
        if isinstance(instr, ir.Jump):
            target_ops = blocks[instr.target]

            def run_jump(m, frame):
                frame.ops = target_ops
                frame.idx = 0
                return cyc

            return op(run_jump, cyc, role=_ROLE_JUMP)
        if isinstance(instr, ir.Branch):
            cond_fn = compile_expr(instr.cond)
            true_ops = blocks[instr.true_target]
            false_ops = blocks[instr.false_target]

            def run_branch(m, frame):
                frame.ops = true_ops if cond_fn(m, frame).value else false_ops
                frame.idx = 0
                return cyc

            return op(run_branch, cyc, role=_ROLE_END)
        if isinstance(instr, ir.RetInstr):
            expr_fn = compile_expr(instr.expr) if instr.expr is not None else None

            def run_ret(m, frame):
                value = expr_fn(m, frame) if expr_fn is not None else None
                frames = m._frames
                frames.pop()
                if not frames:
                    m._done = True
                    m._ret_value = value
                elif frame.ret_dest is not None:
                    frames[-1].locals[frame.ret_dest] = (
                        value if value is not None else ZERO
                    )
                return cyc

            return op(run_ret, cyc, role=_ROLE_END)
        name = type(instr).__name__
        return op(_raising(f"unknown terminator {name}"), cyc)

    cyc = costs.instr_cycles(instr)

    if isinstance(instr, ir.Assign):
        expr_fn = compile_expr(instr.expr)
        dest = instr.dest
        if instr.scope == ir.SCOPE_GLOBAL:

            def run_assign_global(m, frame):
                frame.idx += 1
                m._write_global(dest, expr_fn(m, frame))
                return cyc

            return op(run_assign_global, cyc, role=_ROLE_STEP)

        def run_assign_local(m, frame):
            frame.idx += 1
            value = expr_fn(m, frame)
            cell = frame.locals.get(dest)
            if type(cell) is RefValue:
                raise ExecError(f"assignment to reference parameter '{dest}'")
            frame.locals[dest] = value
            return cyc

        return op(run_assign_local, cyc, role=_ROLE_STEP)

    if isinstance(instr, ir.InputInstr):
        channel = instr.channel
        dest = instr.dest
        is_bit = uid in bit_uids
        site = site_taint(uid, channel)

        def run_input(m, frame):
            frame.idx += 1
            tau = m.tau
            raw = m._env.read(channel, tau)
            emit = m._config.emit_observations
            frame.locals[dest] = TVal(
                raw,
                frozenset((InputEvent(uid, channel, tau),)) if emit else site,
            )
            if is_bit:
                m.nv.bits.bits.add(chain_at(frame.sites)[0])
            if emit:
                m.trace.events.append(
                    obs.InputObs(tau=tau, uid=uid, channel=channel, value=raw)
                )
            return cyc

        return op(run_input, cyc, role=_ROLE_STEP)

    if isinstance(instr, ir.CallInstr):
        callee = module.functions.get(instr.func)
        if callee is None:
            missing = instr.func

            def run_missing(m, frame):
                raise IRError(f"no function '{missing}' in module")

            return op(run_missing, cyc)
        entry_ops = functions[instr.func].blocks[callee.entry]
        callee_name = callee.name
        ret_dest = instr.dest
        arg_plan = tuple(
            (param.name, None, arg.name)
            if isinstance(arg, ir.RefArg)
            else (param.name, compile_expr(arg), None)
            for param, arg in zip(callee.params, instr.args, strict=True)
        )

        def run_call(m, frame):
            frame.idx += 1
            frames = m._frames
            depth = len(frames) - 1
            locals_: dict = {}
            for pname, expr_fn, ref_name in arg_plan:
                if expr_fn is not None:
                    locals_[pname] = expr_fn(m, frame)
                else:
                    cell = frame.locals.get(ref_name)
                    locals_[pname] = (
                        cell
                        if type(cell) is RefValue
                        else RefValue(depth=depth, name=ref_name)
                    )
            frames.append(
                FastFrame(
                    callee_name,
                    entry_ops,
                    0,
                    locals_,
                    ret_dest,
                    frame.sites + (uid,),
                )
            )
            return cyc

        return op(run_call, cyc, role=_ROLE_END)

    if isinstance(instr, ir.StoreRefInstr):
        expr_fn = compile_expr(instr.expr)
        param = instr.param

        def run_store_ref(m, frame):
            frame.idx += 1
            value = expr_fn(m, frame)
            cell = frame.locals.get(param)
            if type(cell) is not RefValue:
                raise ExecError(f"*{param} is not a reference")
            m._frames[cell.depth].locals[cell.name] = value
            return cyc

        return op(run_store_ref, cyc, role=_ROLE_STEP)

    if isinstance(instr, ir.StoreArr):
        index_fn = compile_expr(instr.index)
        expr_fn = compile_expr(instr.expr)
        array_name = instr.array

        def run_store_arr(m, frame):
            frame.idx += 1
            index = index_fn(m, frame)
            value = expr_fn(m, frame)
            array = m.nv.arrays.get(array_name)
            if array is None:
                raise ExecError(f"unknown array '{array_name}'")
            iv = index.value
            if not 0 <= iv < len(array):
                raise _index_error(iv, array_name, len(array))
            m._assert_logged(array_name)
            array[iv] = TVal(value.value, merge_taint(value.taint, index.taint))
            return cyc

        return op(run_store_arr, cyc, role=_ROLE_STEP)

    if isinstance(instr, ir.AnnotInstr):
        var_fn = compile_expr(lang_ast.Var(name=instr.var))
        if instr.kind == lang_ast.AnnotKind.FRESH:
            pid = fresh_pid(uid)

            def run_fresh(m, frame):
                frame.idx += 1
                value = var_fn(m, frame)
                if m._config.emit_observations:
                    m.trace.events.append(
                        obs.FreshDeclObs(
                            tau=m.tau, uid=uid, pid=pid, inputs=value.taint
                        )
                    )
                return cyc

            return op(run_fresh, cyc, role=_ROLE_STEP)
        assert instr.set_id is not None
        set_id = instr.set_id
        pid = consistent_pid(set_id)

        def run_consistent(m, frame):
            frame.idx += 1
            value = var_fn(m, frame)
            if m._config.emit_observations:
                m.trace.events.append(
                    obs.ConsistentDeclObs(
                        tau=m.tau, uid=uid, pid=pid, set_id=set_id,
                        inputs=value.taint,
                    )
                )
            return cyc

        return op(run_consistent, cyc, role=_ROLE_STEP)

    if isinstance(instr, ir.AtomicStart):
        region = instr.region
        omega = tuple(instr.omega)
        omega_set = instr.omega
        inner = costs.region_inner

        def estimate_start(m):
            if m._atom_ctx is not None:
                return cyc
            omega_words = 0
            arrays = m.nv.arrays
            for name in omega:
                omega_words += len(arrays[name]) if name in arrays else 1
            return cyc + costs.region_entry_cycles(
                stack_words(m._frames), omega_words
            )

        def run_start(m, frame):
            frame.idx += 1
            ctx = m._atom_ctx
            if ctx is not None:
                # Atom-Start-Inner: nested start is bookkeeping only.
                ctx.natom += 1
                return cyc + inner
            globals_ = m.nv.globals
            arrays = m.nv.arrays
            undo_globals = {n: globals_[n] for n in omega if n in globals_}
            undo_arrays = {n: list(arrays[n]) for n in omega if n in arrays}
            m._atom_ctx = AtomContext(
                region=region,
                frames=copy_stack(m._frames),
                undo_globals=undo_globals,
                undo_arrays=undo_arrays,
                omega=omega_set,
            )
            words = stack_words(m._frames)
            omega_words = len(undo_globals) + sum(
                len(v) for v in undo_arrays.values()
            )
            m.stats.region_entries += 1
            if m._config.emit_observations:
                m.trace.events.append(
                    obs.RegionEnterObs(tau=m.tau, uid=uid, region=region)
                )
            return cyc + costs.region_entry_cycles(words, omega_words)

        return op(run_start, None, estimate_start, _region_role(costs, cyc))

    if isinstance(instr, ir.AtomicEnd):
        inner = costs.region_inner
        commit = costs.region_commit

        def run_end(m, frame):
            frame.idx += 1
            ctx = m._atom_ctx
            if ctx is None:
                return cyc  # stray end outside any region (flattening)
            if ctx.natom > 0:
                ctx.natom -= 1
                return cyc + inner
            m._atom_ctx = None
            m.stats.region_commits += 1
            if m._config.emit_observations:
                m.trace.events.append(
                    obs.RegionExitObs(tau=m.tau, uid=uid, region=ctx.region)
                )
            return cyc + commit

        return op(run_end, cyc, role=_region_role(costs, cyc))

    if isinstance(instr, ir.OutputInstr):
        arg_fns = tuple(compile_expr(a) for a in instr.args)
        op_name = instr.op

        def run_output(m, frame):
            frame.idx += 1
            values = tuple(fn(m, frame).value for fn in arg_fns)
            if m._config.emit_observations:
                m.trace.events.append(
                    obs.OutputObs(tau=m.tau, uid=uid, op=op_name, values=values)
                )
            return cyc

        return op(run_output, cyc, role=_ROLE_STEP)

    if isinstance(instr, ir.WorkInstr):
        if type(instr.cycles) is lang_ast.IntLit:
            # A literal amount is a static cost, like any other op.
            work_cyc = costs.instr_cycles(instr, work_value=instr.cycles.value)

            def run_static_work(m, frame):
                frame.idx += 1
                return work_cyc

            return op(run_static_work, work_cyc, role=_ROLE_STEP)

        expr_fn = compile_expr(instr.cycles)

        def estimate_work(m):
            # Pure expression: evaluate once here, reuse in run_work.
            amount = expr_fn(m, m._frames[-1]).value
            cycles = costs.instr_cycles(instr, work_value=amount)
            m._pending_cycles = cycles
            return cycles

        def run_work(m, frame):
            frame.idx += 1
            return m._pending_cycles

        return op(run_work, None, estimate_work)

    if isinstance(instr, ir.SkipInstr):

        def run_skip(m, frame):
            frame.idx += 1
            return cyc

        return op(run_skip, cyc, role=_ROLE_STEP)

    name = type(instr).__name__
    return op(_raising(f"cannot execute {name}"), cyc)


def compile_code(
    module: Module, plan: DetectorPlan, costs: CostModel
) -> CompiledCode:
    """Decode every function of ``module`` for one (plan, costs) pair.

    Two-phase: op lists are allocated first so calls and jumps resolve
    to the (later filled) target lists, then every block is decoded in
    place.  A block missing its terminator decodes to a raising op, the
    decode-time analogue of the reference machine's fetch assertion.
    """
    bit_uids = frozenset(chain.op for chain in plan.bit_chains)
    actions_map = plan.runtime_actions()
    # chain_at hands out the plan's own bit chains, so the bit vector
    # holds the very objects the checks (and the fleet's state codec)
    # probe it with: set and dict probes hit on identity, not __eq__.
    canon = {chain: chain for chain in plan.bit_chains}
    functions: dict[str, FastFunction] = {}
    for name, fn in module.functions.items():
        fast = FastFunction(name, fn.entry)
        fast.blocks = {block_name: [] for block_name in fn.blocks}
        functions[name] = fast
    for name, fn in module.functions.items():
        fast = functions[name]
        for block_name, block in fn.blocks.items():
            ops = fast.blocks[block_name]
            for instr in block.instrs:
                ops.append(
                    _decode_instr(
                        instr, module, plan, costs, bit_uids,
                        actions_map, canon, fast.blocks, functions,
                    )
                )
            if block.terminator is not None:
                ops.append(
                    _decode_instr(
                        block.terminator, module, plan, costs, bit_uids,
                        actions_map, canon, fast.blocks, functions,
                    )
                )
            else:
                uid = ir.InstrId(name, ir.UNASSIGNED)
                ops.append(
                    Op(
                        uid,
                        _raising(f"block '{block_name}' has no terminator"),
                        0,
                        None,
                        False,
                        lambda sites, uid=uid: (
                            Chain(ids=sites + (uid,)),
                            None,
                        ),
                    )
                )
    called = {
        instr.func
        for fn in module.functions.values()
        for block in fn.blocks.values()
        for instr in block.instrs
        if isinstance(instr, ir.CallInstr)
    }
    code = CompiledCode(
        module=module,
        plan=plan,
        costs=costs,
        functions=functions,
        entry=module.entry,
        # Every frame of an entry function no call targets is the bottom
        # frame, so its call-site prefix is always empty.
        entry_sites=() if module.entry not in called else None,
    )
    _mark_leaf_calls(code)
    _mark_heads(code)
    return code


def code_for(compiled, costs: CostModel = DEFAULT_COSTS, plan=None) -> CompiledCode:
    """The decoded form of a build, cached on the ``CompiledProgram``.

    The compile cache interns one ``CompiledProgram`` per (source,
    pass-pipeline fingerprint), so this per-program cache is effectively
    keyed by the pipeline fingerprint; the (plan, cost model) pair the
    decode bakes in completes the key.  The plan is compared by identity
    (the default plan is itself cached on the program), the cost model
    by value (app cost models are built per call).
    """
    if plan is None:
        plan = compiled.detector_plan()
    cache = compiled._engine_code
    for index, (cached_plan, cached_costs, code) in enumerate(cache):
        # Identity first (the cached default plan, the common case),
        # equality second so callers building fresh-but-equal plans per
        # run share the decode instead of leaking one copy per call.
        if (cached_plan is plan or cached_plan == plan) and cached_costs == costs:
            if index:
                cache.insert(0, cache.pop(index))
            return code
    code = compile_code(compiled.module, plan, costs)
    cache.insert(0, (plan, costs, code))
    del cache[_CODE_CACHE_LIMIT:]
    return code


# ---------------------------------------------------------------------------
# Segments: straight-line runs as generated functions

#: Entries after which a segment head compiles its run.  A constant, not
#: an option: a fleet's or campaign's activation loop reaches it within a
#: few activations, while a build decoded from an empty compile cache and
#: run briefly (every ``repro eval`` table) pays about 1 ms of decode
#: instead of generating code for every run up front.
SEGMENT_COMPILE_THRESHOLD = 16
#: Longest run one segment covers before its inlined calls, and longest
#: leaf body inlined (together they bound a generated function's size).
_SEGMENT_MAX_OPS = 64


def _region_role(costs: CostModel, cyc) -> Optional[int]:
    """Region ops run inside segments when every region cost is a
    nonnegative int under the stock entry formula, which the run's
    entry bound (:func:`_region_bound`) relies on."""
    parts = (
        cyc,
        costs.region_base,
        costs.region_per_volatile_word,
        costs.region_per_nv_word,
        costs.region_commit,
        costs.region_inner,
    )
    if type(costs).region_entry_cycles is CostModel.region_entry_cycles and all(
        type(p) is int and p >= 0 for p in parts
    ):
        return _ROLE_REGION
    return None


def _region_bound(regions: tuple, costs: CostModel, arrays: dict) -> Callable:
    """An upper bound on the summed cost of a run's region ops.

    ``regions`` lists them in run order as ``(is_start, cyc, omega,
    grow)``.  No power failure fires inside a run and only region ops
    change the atomic context, so the bound replays their effect on it
    from the state at entry: a nested start, a nested end, a commit and
    a stray end each cost exactly what they will.  An outer start counts
    the stack's volatile words at entry plus ``grow``, one word for each
    local the run may add before it (inlined callees have returned by
    then), and one nonvolatile word per omega name plus every omega
    array, at least what either its estimate or its undo log counts.
    Nonvolatile arrays keep their declared length (``arrays``, the
    module's), so only the stack words are read at entry; the rest is a
    constant per nesting depth, replayed once per depth.  The entry
    formula is the stock one (see :func:`_region_role`).
    """
    inner = costs.region_inner
    commit = costs.region_commit
    per_word = costs.region_per_volatile_word
    per_nv = costs.region_per_nv_word

    def replay(natom):
        """From nesting depth ``natom`` (-1: outside any region), the
        cost that does not read the stack, and the cost per stack word."""
        fixed, outer = 0, 0
        for is_start, cyc, omega, grow in regions:
            if is_start and natom < 0:
                natom = 0
                outer += 1
                nv_words = len(omega) + sum(
                    len(arrays[name]) for name in omega if name in arrays
                )
                fixed += cyc + costs.region_base + per_word * grow
                fixed += per_nv * nv_words
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
        return fixed, per_word * outer

    outside = replay(-1)  # the common case: no region open at entry
    inside: dict[int, tuple[int, int]] = {}

    def bound(m):
        ctx = m._atom_ctx
        if ctx is None:
            total, scale = outside
        else:
            total_scale = inside.get(ctx.natom)
            if total_scale is None:
                total_scale = inside[ctx.natom] = replay(ctx.natom)
            total, scale = total_scale
        if scale:
            frames = m._frames
            words = 2 * len(frames)  # stack_words, inline
            for frame in frames:
                words += len(frame.locals)
            total += scale * words
        return total

    return bound


class Segment:
    """A maximal straight-line run of decoded ops, run as one function.

    A run starts at its head op -- a block entry, the return point of a
    call to a non-leaf function, or the op after one that never runs in
    a segment -- follows unconditional jumps, runs through calls to leaf
    functions (:func:`_mark_leaf_calls`) and through region ops, and ends
    at the first branch, return or other call (included) or before the
    first op that cannot run inside one: a dynamic ``work`` amount, a
    call to a missing function.

    ``fn(machine, frame)`` runs every op body inline and commits ``tau``,
    ``cycles_on``, ``instructions``, ``detector_queries`` and the frame
    position once at the end.  Leaf bodies run mostly without a frame,
    and a region whose ``atomic_start`` and ``atomic_end`` are both in
    the run takes no snapshot (see :class:`_SegmentWriter`).  It returns
    the cycles whose energy the caller deducts: all of them, except
    those of ``main``'s final return, as in the per-op loop.  ``cycles``
    is the static cost of the ops other than region ops; ``bound``, set
    when the run has region ops, bounds their state-dependent costs from
    above (:func:`_region_bound`).  Nothing is generated before the
    head's :data:`SEGMENT_COMPILE_THRESHOLD`-th entry.  An op that
    raises leaves the run's counters uncommitted: after an ``ExecError``
    the engines promise only the same error, and no caller reuses the
    machine.  What the run knows of its own regions lives in the
    generated function's locals, so nothing of it outlives the call.
    """

    __slots__ = ("code", "func", "block", "index", "hits", "fn", "cycles", "bound")

    def __init__(self, code: "CompiledCode", func: str, block: str, index: int):
        self.code = code
        self.func = func
        self.block = block
        self.index = index
        self.hits = 0
        self.fn: Optional[Callable] = None
        self.cycles = 0
        self.bound: Optional[Callable] = None

    def compile(self) -> Callable:
        writer = _SegmentWriter(self.code, self.func)
        self.fn = writer.write(self.block, self.index)
        self.cycles = writer.static
        self.bound = writer.bound()
        return self.fn


def _instr_at(fn_ir, block: str, index: int) -> ir.Instr:
    """The IR instruction decoded at ``ops[index]`` of ``block``."""
    ir_block = fn_ir.blocks[block]
    if index < len(ir_block.instrs):
        return ir_block.instrs[index]
    return ir_block.terminator


def _leaf_body(code: "CompiledCode", name: str) -> Optional[list]:
    """A *leaf*'s entry run as ``(op, instr)`` pairs, its ``ret`` last,
    or None when ``name`` is no leaf.

    A leaf's entry run goes straight, through jumps, to its ``ret`` with
    only segment ops (no branch, call or region op), so a run can take
    its body inline and go on after the call.
    """
    fn_ir = code.module.functions[name]
    blocks = code.functions[name].blocks
    block, index, seen, body = fn_ir.entry, 0, {fn_ir.entry}, []
    for _ in range(_SEGMENT_MAX_OPS if block in blocks else 0):
        op = blocks[block][index]
        instr = _instr_at(fn_ir, block, index)
        body.append((op, instr))
        if op.role == _ROLE_STEP:
            index += 1
            continue
        if op.role == _ROLE_JUMP and instr.target not in seen:
            block, index = instr.target, 0
            seen.add(block)
            continue
        if op.role == _ROLE_END and isinstance(instr, ir.RetInstr):
            return body
        break
    return None


def _mark_leaf_calls(code: "CompiledCode") -> None:
    """Give every call to a leaf (:func:`_leaf_body`) :data:`_ROLE_CALL`."""
    leaves = {
        name for name in code.module.functions if _leaf_body(code, name) is not None
    }
    for name, fn_ir in code.module.functions.items():
        for block_name, block in fn_ir.blocks.items():
            ops = code.functions[name].blocks[block_name]
            for instr, op in zip(block.instrs, ops):
                if (
                    op.role == _ROLE_END
                    and isinstance(instr, ir.CallInstr)
                    and instr.func in leaves
                ):
                    op.role = _ROLE_CALL


def _mark_heads(code: "CompiledCode") -> None:
    """Attach a :class:`Segment` to every op that starts a run."""
    for fname, fast in code.functions.items():
        for bname, ops in fast.blocks.items():
            starts = True
            for index, op in enumerate(ops):
                role = op.role
                if role is not None and starts:
                    op.seg = Segment(code, fname, bname, index)
                starts = role is None or role == _ROLE_END


#: ``Binary`` operators as Python source over two int value sources;
#: each matches its ``_BINOP_FNS`` entry on ints.
_VALUE_TEMPLATES = {
    "+": "({0} + {1})",
    "-": "({0} - {1})",
    "*": "({0} * {1})",
    "/": "_trunc_div({0}, {1})",
    "%": "_mod({0}, {1})",
    "<": "(1 if {0} < {1} else 0)",
    "<=": "(1 if {0} <= {1} else 0)",
    ">": "(1 if {0} > {1} else 0)",
    ">=": "(1 if {0} >= {1} else 0)",
    "==": "(1 if {0} == {1} else 0)",
    "!=": "(1 if {0} != {1} else 0)",
    "&&": "(1 if {0} and {1} else 0)",
    "||": "(1 if {0} or {1} else 0)",
}
#: Intrinsics: how many leading arguments make the value.
_CALL_ARITY = {"abs": 1, "min": 2, "max": 2}
#: A source fragment that may be repeated: a generated name, an int
#: literal, or an attribute of a generated name.
_PLAIN = re.compile(r"-?\w+(\.\w+)?")


def _unbound(message: str):
    raise ExecError(message)


def _violation(m, tau: int, uid: ir.InstrId, check) -> None:
    """Record one failed check, as ``MachineCore._run_site_actions`` does."""
    bits = m.nv.bits.bits
    m.trace.events.append(
        obs.ViolationObs(
            tau=tau,
            uid=uid,
            pid=check.pid,
            kind=check.kind,
            missing=tuple(c for c in check.required if c not in bits),
        )
    )


def _inline_checks(actions) -> bool:
    """Can a site's actions run as generated code?  Yes when every check
    op scans the bit vector on its own (a FULL op caching nothing) or
    only observes its use (MARKER): no hoisted, fused or cached query."""
    return (
        not actions.hoists
        and actions.fused is None
        and all(
            op.mode == OP_MARKER or (op.mode == OP_FULL and op.hid < 0)
            for op in actions.ops
        )
    )


_SEGMENT_GLOBALS = {
    "_TVal": TVal,
    "_RefValue": RefValue,
    "_ExecError": ExecError,
    "_FastFrame": FastFrame,
    "_IE": InputEvent,
    "_NT": NO_TAINT,
    "_ZERO": ZERO,
    "_index_error": _index_error,
    "_trunc_div": _trunc_div,
    "_mod": _BINOP_FNS["%"],
    "_merge": merge_taint,
    "_unbound": _unbound,
    "_violation": _violation,
    "_InputObs": obs.InputObs,
    "_FreshDeclObs": obs.FreshDeclObs,
    "_ConsistentDeclObs": obs.ConsistentDeclObs,
    "_OutputObs": obs.OutputObs,
    "_UseObs": obs.UseObs,
    "_RegionEnterObs": obs.RegionEnterObs,
    "_RegionExitObs": obs.RegionExitObs,
    "_stack_words": stack_words,
}


def _generated(expr: lang_ast.Expr) -> bool:
    """Does :meth:`_SegmentWriter.expr` generate ``expr`` inline, rather
    than call its decoded closure (which reads a frame)?"""
    if isinstance(expr, (lang_ast.IntLit, lang_ast.BoolLit, lang_ast.Var)):
        return True
    if isinstance(expr, lang_ast.Index):
        return _generated(expr.index)
    if isinstance(expr, lang_ast.Unary):
        return expr.op in ("-", "!") and _generated(expr.operand)
    if isinstance(expr, lang_ast.Binary):
        return (
            expr.op in _VALUE_TEMPLATES
            and _generated(expr.lhs)
            and _generated(expr.rhs)
        )
    if isinstance(expr, lang_ast.Call):
        return (
            expr.func in _CALL_ARITY
            and len(expr.args) >= _CALL_ARITY[expr.func]
            and all(_generated(arg) for arg in expr.args)
        )
    return False


def _frameless(call: ir.CallInstr, body: list) -> bool:
    """Can an inlined leaf run without a frame?  Yes unless it takes a
    reference (a cell only a frame holds), stores through one, or
    evaluates an expression through its decoded closure."""
    return not any(isinstance(arg, ir.RefArg) for arg in call.args) and all(
        not isinstance(instr, ir.StoreRefInstr)
        and all(_generated(expr) for expr in instr.used_exprs())
        for _, instr in body
    )


def _contained(steps: list) -> dict[int, int]:
    """The region ops of a run whose partner is in the run too.

    ``steps`` is the run's own ops in order (leaves have no region op);
    each ``atomic_end`` closes the last ``atomic_start`` before it that
    is still open.  Maps the position of each paired op to the number of
    the run's ``atomic_start``s open around the pair: 0 when at most the
    context the run was entered in can be open at the pair's start.
    """
    open_, depth = [], {}
    for pos, (_, _, instr, op) in enumerate(steps):
        if op.role != _ROLE_REGION:
            continue
        if isinstance(instr, ir.AtomicStart):
            open_.append(pos)
        elif open_:
            start = open_.pop()
            depth[start] = depth[pos] = len(open_)
    return depth


class _Scope:
    """One frame as a run sees it: the run's own, or that of a leaf
    callee inlined into the run."""

    __slots__ = (
        "func", "fn_ir", "params", "blocks", "locals", "frame", "sites", "regs",
    )

    def __init__(
        self,
        code: "CompiledCode",
        func: str,
        locals_: Optional[str],
        frame: Optional[str],
        sites,
    ):
        self.func = func
        self.fn_ir = code.module.functions[func]
        self.params = frozenset(param.name for param in self.fn_ir.params)
        self.blocks = code.functions[func].blocks
        #: the generated names of the frame's locals dict and the frame;
        #: None for a leaf run without a frame, whose locals are ``regs``
        self.locals = locals_
        self.frame = frame
        #: the call-site prefix: a tuple when known as the code is
        #: generated, else the generated name that holds it
        self.sites = sites
        #: variable -> (cell source, value source, taint source, was read)
        self.regs: dict[str, tuple] = {}


class _SegmentWriter:
    """Generates one :class:`Segment`'s function from the IR and its ops.

    Program-derived names -- variables, arrays, channels, functions --
    enter the source only as ``repr()`` literals or bound constants,
    never as identifiers: every identifier is generated here.  Values
    stay unboxed: an expression compiles to a value source and a taint
    source (None when statically empty), and a :class:`TVal` is built
    only where a cell is stored.  A variable written (or read) earlier
    in the run is reused from a Python local (``regs``) instead of
    looked up again; a local written here can change only here, since
    references point to caller frames only, so only a read through
    the globals or a reference cell is forgotten at a store that may
    change it.  Reference cells enter a frame only as call arguments,
    so only a parameter's cell is ever tested for one.

    A call to a leaf runs its body in the callee's :class:`_Scope`;
    afterwards the caller forgets the variables it passed by reference
    and what it read.  The leaf gets no frame and no locals dict: its
    parameters and locals are registers only.  Nothing would read that
    frame -- no power failure, checkpoint or region op (which copy the
    stack) happens inside a leaf, ``_deref`` and reference stores
    address caller frames by depth, and site actions read the call-site
    prefix the writer holds.  A leaf that takes a reference, stores
    through one or evaluates an expression through its decoded closure
    (:func:`_frameless`) has its frame pushed and popped around its
    body instead, so ``m._frames`` is exact for all three.  Where every
    frame's call-site prefix is known -- the entry function when no
    call targets it, and the leaves inlined into it -- each site's
    detector actions are resolved as the code is generated: a site
    without any emits nothing, plain bit-vector scans and use markers
    become inline code (their query count committed once, with the
    other counters), and any other site calls ``_run_site_actions`` on
    its actions.

    An ``atomic_start`` whose ``atomic_end`` is in the run too
    (:func:`_contained`) runs inline.  Its snapshot and undo log exist
    only so that Atom-Reboot can restart the region after a power
    failure, and none can fire before the run commits it, so the pair
    takes neither.  Entered with no region open (``m._atom_ctx`` None,
    read once into a local) it counts, observes and costs what
    ``run_start`` and ``run_end`` would and leaves the context None,
    and :meth:`guard` keeps the undo-log check on every nonvolatile
    write inside it; entered inside an open region it costs
    ``region_inner`` at each end and leaves ``natom`` as it found it.
    A region op whose partner is outside the run runs its closure.
    """

    def __init__(self, code: "CompiledCode", func: str):
        self.code = code
        sites = code.entry_sites if func == code.entry else None
        self.scope = _Scope(code, func, "L", "frame", "S" if sites is None else sites)
        self.bit_uids = frozenset(chain.op for chain in code.plan.bit_chains)
        self.ns = dict(_SEGMENT_GLOBALS)
        self.lines: list[str] = []
        self.uses: set[str] = set()
        #: ops in the run, and the static cycles of its non-region ops
        self.count = 0
        self.static = 0
        #: static cycles already added to the generated ``t``
        self.folded = 0
        #: bit-vector scans of the inline checks
        self.queries = 0
        #: (is_start, cyc, omega, grow) per region op, in run order
        self.regions: list[tuple] = []
        #: (flag, region, omega) of the region pair the run entered
        #: itself and has not closed yet (see :meth:`enter`)
        self.pair: Optional[tuple] = None
        #: locals the run may add to its own frame, and stores through
        #: references (each may add a local to a caller's frame)
        self.grown: set[str] = set()
        self.ref_stores = 0
        self._names = 0

    # -- source helpers --------------------------------------------------------

    def const(self, value) -> str:
        name = f"_k{len(self.ns)}"
        self.ns[name] = value
        return name

    def tmp(self, prefix: str) -> str:
        self._names += 1
        return f"{prefix}{self._names}"

    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * (depth + 1) + line)

    def plain(self, src: str) -> str:
        """``src`` as a fragment safe to repeat."""
        if _PLAIN.fullmatch(src):
            return src
        name = self.tmp("x")
        self.emit(f"{name} = {src}")
        return name

    def raising(self, message: str) -> str:
        return f"raise _ExecError({self.const(message)})"

    def tau(self, offset: int) -> str:
        """The clock before the op at static ``offset``."""
        offset -= self.folded
        return f"(t + {offset})" if offset else "t"

    def use_sites(self, sites: str) -> None:
        if sites == "S":
            self.uses.add("S")

    # -- expressions: (cell, value, taint) sources -------------------------------

    def merge(self, taints) -> Optional[str]:
        parts = [self.plain(t) for t in taints if t is not None]
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        out = self.tmp("t")
        if len(parts) == 2:
            a, b = parts
            self.emit(f"{out} = ({a} | {b}) if {a} and {b} else ({a} or {b})")
        else:
            self.emit(f"{out} = _merge({', '.join(parts)})")
        return out

    def box(self, res: tuple) -> tuple:
        """``res`` with a cell source, building the :class:`TVal` if needed."""
        cell, value, taint = res
        if cell is not None:
            return res
        cell = self.tmp("o")
        self.emit(f"{cell} = _TVal({value}, {taint or '_NT'})")
        if not _PLAIN.fullmatch(value):
            value = f"{cell}.value"
        return cell, value, taint

    def read(self, name: str) -> tuple:
        scope = self.scope
        reg = scope.regs.get(name)
        if reg is not None:
            return reg[:3]
        self.uses.add("G")
        key = repr(name)
        cell = self.tmp("c")
        message = self.const(f"read of unbound variable '{name}' in {scope.func}")
        # Cells are never falsy: a missing local reads the global.  In a
        # leaf run without a frame every local is a register.
        local = f"{scope.locals}.get({key}) or " if scope.locals else ""
        self.emit(f"{cell} = {local}G.get({key}) or _unbound({message})")
        if name in scope.params:
            self.emit(f"if type({cell}) is _RefValue: {cell} = m._deref({cell})")
        res = (cell, f"{cell}.value", f"{cell}.taint")
        scope.regs[name] = res + (True,)
        return res

    def element(self, array: str, index: str) -> str:
        """Look up ``array`` and bounds-check ``index``; the array source."""
        self.uses.add("A")
        key = repr(array)
        arr = self.tmp("a")
        self.emit(f"{arr} = A.get({key})")
        self.emit(f"if {arr} is None: {self.raising(f'unknown array {key}')}")
        self.emit(
            f"if not 0 <= {index} < len({arr}): "
            f"raise _index_error({index}, {key}, len({arr}))"
        )
        return arr

    def expr(self, expr: lang_ast.Expr) -> tuple:
        """Mirror of :func:`compile_expr`, operand order included."""
        if isinstance(expr, (lang_ast.IntLit, lang_ast.BoolLit)):
            const = TVal.of(expr.value)
            value = repr(const.value)
            return self.const(const), value, None
        if isinstance(expr, lang_ast.Var):
            return self.read(expr.name)
        if isinstance(expr, lang_ast.Index):
            index = self.expr(expr.index)
            iv = self.plain(index[1])
            arr = self.element(expr.array, iv)
            elem = self.tmp("e")
            self.emit(f"{elem} = {arr}[{iv}]")
            return None, f"{elem}.value", self.merge([f"{elem}.taint", index[2]])
        if isinstance(expr, lang_ast.Unary) and expr.op in ("-", "!"):
            _, value, taint = self.expr(expr.operand)
            if expr.op == "-":
                return None, f"(-{value})", taint
            return None, f"(0 if {value} else 1)", taint
        if isinstance(expr, lang_ast.Binary) and expr.op in _VALUE_TEMPLATES:
            lhs = self.expr(expr.lhs)
            rhs = self.expr(expr.rhs)
            value = _VALUE_TEMPLATES[expr.op].format(lhs[1], rhs[1])
            return None, value, self.merge([lhs[2], rhs[2]])
        if (
            isinstance(expr, lang_ast.Call)
            and expr.func in _CALL_ARITY
            and len(expr.args) >= _CALL_ARITY[expr.func]
        ):
            args = [self.expr(a) for a in expr.args]
            values = ", ".join(a[1] for a in args[: _CALL_ARITY[expr.func]])
            # expr.func is one of the three intrinsic names checked above
            return None, f"{expr.func}({values})", self.merge(a[2] for a in args)
        # Anything else (malformed trees) runs its decoded closure.
        cell = self.tmp("o")
        closure = self.const(compile_expr(expr))
        self.emit(f"{cell} = {closure}(m, {self.scope.frame})")
        return cell, f"{cell}.value", f"{cell}.taint"

    # -- ops -----------------------------------------------------------------------

    def observe(self, event: str, depth: int = 0) -> None:
        """Append ``event`` (fields in declaration order) when the run
        records observations."""
        self.uses.add("emit")
        self.emit(f"if emit: emit({event})", depth)

    def site_actions(self, op: Op, offset: int) -> None:
        if not op.trigger:
            return
        sites = self.scope.sites
        uid = self.const(op.uid)
        if type(sites) is tuple:
            actions = op.chain_at(sites)[1]
            if actions is None:
                return
            if _inline_checks(actions):
                self.checks(actions, uid, self.tau(offset))
                return
            source = self.const(actions)
        else:
            self.use_sites(sites)
            source = self.tmp("x")
            self.emit(f"{source} = {self.const(op.chain_at)}({sites})[1]")
        if offset or self.regions:
            self.emit(f"m.tau = {self.tau(offset)}")
        call = f"m._run_site_actions({uid}, {source})"
        if type(sites) is tuple:
            self.emit(call)
        else:
            self.emit(f"if {source} is not None: {call}")

    def checks(self, actions, uid: str, tau: str) -> None:
        """A site's checks inline, in ``_run_site_actions``' order."""
        for op in actions.ops:
            check = op.check
            if check.kind == "fresh":
                self.observe(f"_UseObs({tau}, {uid}, {check.pid!r})")
            if op.mode == OP_FULL:
                self.uses.add("B")
                # a set argument: no Python-level Chain hash per test
                required = self.const(frozenset(check.required))
                self.emit(
                    f"if not B.issuperset({required}): "
                    f"_violation(m, {tau}, {uid}, {self.const(check)})"
                )
                self.queries += 1

    def step(self, instr: ir.Instr, op: Op, offset: int) -> None:
        """One straight-line op body, mirroring its decoded closure."""
        scope = self.scope
        L = scope.locals
        regs = scope.regs
        if isinstance(instr, ir.Assign):
            dest = instr.dest
            if L is None and instr.scope != ir.SCOPE_GLOBAL:
                # a local of a leaf run without a frame: a register only
                cell, value, taint = self.expr(instr.expr)
                regs[dest] = (cell, self.plain(value), taint, False)
                return
            cell, value, taint = self.box(self.expr(instr.expr))
            key = repr(dest)
            reg = regs.get(dest)
            if instr.scope == ir.SCOPE_GLOBAL:
                self.uses.add("G")
                message = f"write to undeclared global '{dest}'"
                self.emit(f"if {key} not in G: {self.raising(message)}")
                self.guard(dest)
                self.emit(f"G[{key}] = {cell}")
                if reg is not None and reg[3]:
                    del regs[dest]
                return
            if dest in scope.params and (reg is None or reg[3]):
                message = f"assignment to reference parameter '{dest}'"
                self.emit(
                    f"if type({L}.get({key})) is _RefValue: {self.raising(message)}"
                )
            self.emit(f"{L}[{key}] = {cell}")
            regs[dest] = (cell, value, taint, False)
            self.grow(dest)
            return
        if isinstance(instr, ir.InputInstr):
            self.uses.add("read")
            uid = self.const(instr.uid)
            channel = repr(instr.channel)
            tau = self.plain(self.tau(offset))
            value, taint, cell = self.tmp("v"), self.tmp("t"), None
            site = self.const(site_taint(instr.uid, instr.channel))
            self.emit(f"{value} = read({channel}, {tau})")
            self.emit(
                f"{taint} = frozenset((_IE({uid}, {channel}, {tau}),)) "
                f"if emit else {site}"
            )
            if L is not None:
                cell = self.tmp("o")
                self.emit(f"{L}[{instr.dest!r}] = {cell} = _TVal({value}, {taint})")
                self.grow(instr.dest)
            regs[instr.dest] = (cell, value, taint, False)
            if instr.uid in self.bit_uids:
                self.uses.add("B")
                sites = scope.sites
                if type(sites) is tuple:
                    chain = self.const(op.chain_at(sites)[0])
                else:
                    self.use_sites(sites)
                    chain = f"{self.const(op.chain_at)}({sites})[0]"
                self.emit(f"B.add({chain})")
            self.observe(f"_InputObs({tau}, {uid}, {channel}, {value})")
            return
        if isinstance(instr, ir.StoreRefInstr):
            cell = self.box(self.expr(instr.expr))[0]
            ref = self.tmp("c")
            self.uses.add("F")
            self.emit(f"{ref} = {L}.get({instr.param!r})")
            message = f"*{instr.param} is not a reference"
            self.emit(f"if type({ref}) is not _RefValue: {self.raising(message)}")
            self.emit(f"F[{ref}.depth].locals[{ref}.name] = {cell}")
            # The store lands in a caller frame: forget what was read
            # through reference cells (and, conservatively, globals).
            scope.regs = {n: r for n, r in regs.items() if not r[3]}
            self.ref_stores += 1
            return
        if isinstance(instr, ir.StoreArr):
            index = self.expr(instr.index)
            _, value, taint = self.expr(instr.expr)
            iv = self.plain(index[1])
            arr = self.element(instr.array, iv)
            self.guard(instr.array)
            taint = self.merge([taint, index[2]])
            self.emit(f"{arr}[{iv}] = _TVal({value}, {taint or '_NT'})")
            return
        if isinstance(instr, ir.AnnotInstr):
            taint = self.read(instr.var)[2] or "_NT"
            uid = self.const(instr.uid)
            tau = self.tau(offset)
            if instr.kind == lang_ast.AnnotKind.FRESH:
                pid = self.const(fresh_pid(instr.uid))
                self.observe(f"_FreshDeclObs({tau}, {uid}, {pid}, {taint})")
            else:
                pid = self.const(consistent_pid(instr.set_id))
                set_id = self.const(instr.set_id)
                self.observe(
                    f"_ConsistentDeclObs({tau}, {uid}, {pid}, {set_id}, {taint})"
                )
            return
        if isinstance(instr, ir.OutputInstr):
            values = [self.expr(a)[1] for a in instr.args]
            tup = "(" + "".join(f"{v}, " for v in values) + ")"
            uid = self.const(instr.uid)
            self.observe(f"_OutputObs({self.tau(offset)}, {uid}, {instr.op!r}, {tup})")
            return
        # static work and skip: cost only

    def guard(self, name: str) -> None:
        """``_assert_logged`` before a nonvolatile write to ``name``.
        Inside a pair :meth:`enter` elided, the undo log would have held
        ``name`` (known to exist by now) exactly when omega names it."""
        key = repr(name)
        if self.pair is None:
            self.emit(f"if m._atom_ctx is not None: m._assert_logged({key})")
            return
        flag, region, omega = self.pair
        if name in omega:
            self.emit(f"if not {flag}: m._assert_logged({key})")
            return
        # MachineCore._assert_logged's error
        message = (
            f"nonvolatile '{name}' written inside region '{region}' "
            "but absent from its omega set (WAR/EMW analysis bug)"
        )
        self.emit(f"if {flag}: {self.raising(message)}")
        self.emit(f"m._assert_logged({key})")

    def grow(self, name: str) -> None:
        """A local written in the run's own frame (inlined leaves have
        returned before any region op snapshots the stack)."""
        if self.scope.locals == "L":
            self.grown.add(name)

    def arguments(self, callee, instr: ir.CallInstr, regs=None) -> str:
        """The callee's locals as a dict display, as ``run_call`` binds
        them; each parameter bound to a value joins ``regs``."""
        scope = self.scope
        items = []
        for param, arg in zip(callee.params, instr.args, strict=True):
            if isinstance(arg, ir.RefArg):
                self.uses.add("F")
                cell = self.tmp("c")
                key = repr(arg.name)
                new_ref = f"_RefValue(len(F) - 1, {key})"
                if arg.name in scope.params:  # forward a reference
                    self.emit(f"{cell} = {scope.locals}.get({key})")
                    self.emit(f"if type({cell}) is not _RefValue: {cell} = {new_ref}")
                else:
                    self.emit(f"{cell} = {new_ref}")
            else:
                res = self.box(self.expr(arg))
                cell = res[0]
                if regs is not None:
                    regs[param.name] = res + (False,)
            items.append(f"{param.name!r}: {cell}")
        return "{" + ", ".join(items) + "}"

    def callee_sites(self, uid: ir.InstrId):
        """The callee frame's call-site prefix: a tuple when known as the
        code is generated, else the generated name that holds it."""
        sites = self.scope.sites
        if type(sites) is tuple:
            return sites + (uid,)
        self.use_sites(sites)
        name = self.tmp("s")
        self.emit(f"{name} = {sites} + ({self.const(uid)},)")
        return name

    def push(self, instr: ir.CallInstr, locals_: str, sites) -> None:
        callee = self.code.module.functions[instr.func]
        entry_ops = self.const(self.code.functions[instr.func].blocks[callee.entry])
        if type(sites) is tuple:
            sites = self.const(sites)
        self.uses.add("F")
        self.emit(
            f"F.append(_FastFrame({callee.name!r}, {entry_ops}, 0, {locals_}, "
            f"{instr.dest!r}, {sites}))"
        )

    def inline(self, instr: ir.CallInstr) -> None:
        """A call to a leaf: run its body in its own scope up to its
        ``ret`` -- in registers, or in a frame pushed and popped around
        it if :func:`_frameless` says it needs one -- and store the
        returned cell in the caller."""
        caller = self.scope
        callee = self.code.module.functions[instr.func]
        body = _leaf_body(self.code, instr.func)
        framed = not _frameless(instr, body)
        sites = self.callee_sites(instr.uid)
        params: dict[str, tuple] = {}
        if framed:
            items = self.arguments(callee, instr, params)
            locals_ = self.tmp("L")
            self.emit(f"{locals_} = {items}")
            self.push(instr, locals_, sites)
            self.scope = _Scope(self.code, instr.func, locals_, "F[-1]", sites)
        else:
            for param, arg in zip(callee.params, instr.args, strict=True):
                cell, value, taint = self.expr(arg)
                params[param.name] = (cell, self.plain(value), taint, False)
            self.scope = _Scope(self.code, instr.func, None, None, sites)
        # A leaf makes no call, so no reference into its frame exists:
        # only its own ops write its locals.
        self.scope.regs = params
        for op, body_instr in body:
            offset = self.static
            self.site_actions(op, offset)
            self.static += op.cycles
            self.count += 1
            if op.role == _ROLE_STEP:
                self.step(body_instr, op, offset)
        ret = body[-1][1]
        result = ("_ZERO", "0", None)
        if ret.expr is not None:
            result = self.expr(ret.expr)
        self.scope = caller
        if framed:
            self.emit("F.pop()")
        # The callee reached the caller's own locals only through the
        # references it was passed; what the caller read (through its
        # references or the globals) it may have stored to.
        passed = {arg.name for arg in instr.args if isinstance(arg, ir.RefArg)}
        caller.regs = {
            n: r for n, r in caller.regs.items() if not r[3] and n not in passed
        }
        if instr.dest is not None:
            cell, value, taint = self.box(result)
            self.emit(f"{caller.locals}[{instr.dest!r}] = {cell}")
            caller.regs[instr.dest] = (cell, value, taint, False)
            self.grow(instr.dest)

    def region(
        self, instr: ir.Instr, op: Op, ops: list, index: int, depth: Optional[int]
    ) -> None:
        """A region op, with its ``depth`` from :func:`_contained`.

        An op whose partner is outside the run (``depth`` None) runs its
        decoded closure.  Both closures read the clock, and an
        ``atomic_start`` snapshots the frames, so after the run's first
        op the clock and, for a start, the frame position are committed
        first (every exit commits the position again)."""
        start = isinstance(instr, ir.AtomicStart)
        costs = self.code.costs
        cyc = costs.instr_cycles(instr)
        if depth is None:
            if self.count:
                if start:
                    self.emit(f"frame.ops = {self.const(ops)}; frame.idx = {index}")
                offset = self.static - self.folded
                self.emit(f"m.tau = t = t + {offset}" if offset else "m.tau = t")
            self.emit(f"t += {self.const(op.run)}(m, frame)")
            self.folded = self.static
        elif depth:
            # Inside a region the run opened: bookkeeping only, whose
            # constant cost joins the offsets not yet added to ``t``.
            self.folded -= cyc + costs.region_inner
        elif start:
            self.enter(instr, op, cyc)
        else:
            self.commit(op, cyc)
        self.count += 1
        self.regions.append(
            (
                start,
                cyc,
                tuple(instr.omega) if start else (),
                len(self.grown) + self.ref_stores,
            )
        )

    def enter(self, instr: ir.AtomicStart, op: Op, cyc: int) -> None:
        """An ``atomic_start`` whose ``atomic_end`` is in the run too,
        and no region of the run's own open around it."""
        costs = self.code.costs
        flag = self.tmp("r")
        self.pair = (flag, instr.region, instr.omega)
        self.emit(f"{flag} = m._atom_ctx is None")
        self.emit(f"if {flag}:")
        self.emit("m.stats.region_entries += 1", 1)
        uid = self.const(op.uid)
        tau = self.tau(self.static)
        self.observe(f"_RegionEnterObs({tau}, {uid}, {instr.region!r})", 1)
        # cyc + region_entry_cycles(stack_words, omega words), live
        fixed, cost = cyc + costs.region_base, []
        per_word = costs.region_per_volatile_word
        if per_word and self.scope.sites == ():
            # the entry function's frame is the only one
            fixed += 2 * per_word
            cost.append(f"{per_word} * len(L)")
        elif per_word:
            self.uses.add("F")
            cost.append(f"{per_word} * _stack_words(F)")
        if costs.region_per_nv_word and instr.omega:
            self.uses.update(("G", "A"))
            words = " + ".join(
                f"({key} in G) + (len(A[{key}]) if {key} in A else 0)"
                for key in map(repr, sorted(instr.omega))
            )
            cost.append(f"{costs.region_per_nv_word} * ({words})")
        self.emit(f"t += {' + '.join([str(fixed), *cost])}", 1)
        self.emit(f"else: t += {cyc + costs.region_inner}")

    def commit(self, op: Op, cyc: int) -> None:
        """The ``atomic_end`` of the pair :meth:`enter` began."""
        costs = self.code.costs
        flag, region, _ = self.pair
        self.pair = None
        self.emit(f"if {flag}:")
        self.emit("m.stats.region_commits += 1", 1)
        uid = self.const(op.uid)
        self.observe(f"_RegionExitObs({self.tau(self.static)}, {uid}, {region!r})", 1)
        self.emit(f"t += {cyc + costs.region_commit}", 1)
        self.emit(f"else: t += {cyc + costs.region_inner}")

    def finish(
        self, ops: Optional[list], index: int, unspent: int = 0, depth: int = 0
    ) -> None:
        """Commit the frame position (unless ``ops`` is None) and the
        counters; return the cycles to drain, less ``unspent``."""
        if ops is not None:
            self.emit(f"frame.ops = {self.const(ops)}; frame.idx = {index}", depth)
        offset = self.static - self.folded
        if self.regions:
            self.emit(f"m.tau = t = t + {offset}" if offset else "m.tau = t", depth)
            total = "(t - t0)"
        else:
            self.emit(f"m.tau = t + {offset}", depth)
            total = str(offset)
        counters = f"st = m.stats; st.cycles_on += {total}"
        counters += f"; st.instructions += {self.count}"
        if self.queries:
            counters += f"; m.detector_queries += {self.queries}"
        self.emit(counters, depth)
        drained = f"{total} - {unspent}" if unspent else total
        self.emit(f"return {drained}", depth)

    def end(self, instr: ir.Instr, op: Op, ops: list, index: int) -> None:
        """The run's last op: a branch, a return or a call to a non-leaf."""
        if isinstance(instr, ir.CallInstr):
            callee = self.code.module.functions[instr.func]
            items = self.arguments(callee, instr)
            self.push(instr, items, self.callee_sites(instr.uid))
            self.finish(ops, index + 1)
        elif isinstance(instr, ir.Branch):
            value = self.expr(instr.cond)[1]
            true_ops = self.const(self.scope.blocks[instr.true_target])
            false_ops = self.const(self.scope.blocks[instr.false_target])
            self.emit(f"frame.ops = {true_ops} if {value} else {false_ops}")
            self.emit("frame.idx = 0")
            self.finish(None, 0)
        else:  # RetInstr
            cell = "None"
            if instr.expr is not None:
                cell = self.box(self.expr(instr.expr))[0]
            self.uses.add("F")
            self.emit("F.pop()")
            self.emit("if not F:")
            self.emit("m._done = True", 1)
            self.emit(f"m._ret_value = {cell}", 1)
            # main's return: its energy is not deducted (the per-op loop
            # stops before the post-op drain once the machine is done)
            self.finish(None, 0, unspent=op.cycles, depth=1)
            zero = "_ZERO" if cell == "None" else cell
            self.emit(
                "if frame.ret_dest is not None: "
                f"F[-1].locals[frame.ret_dest] = {zero}"
            )
            self.finish(None, 0)

    def bound(self) -> Optional[Callable]:
        if not self.regions:
            return None
        code = self.code
        return _region_bound(tuple(self.regions), code.costs, code.module.arrays)

    # -- the run -----------------------------------------------------------------------

    def walk(self, block: str, index: int) -> tuple[list, Optional[tuple]]:
        """The run from ``ops[index]`` of ``block``: its own ops in
        order as ``(ops, index, instr, op)``, and ``(ops, index)`` of the
        op it stops before, or None when its last op ends it."""
        scope = self.scope
        ops = scope.blocks[block]
        visited = {block}
        steps: list = []
        count = 0
        while True:
            op = ops[index]
            role = op.role
            if role is None or count >= _SEGMENT_MAX_OPS:
                return steps, (ops, index)
            instr = _instr_at(scope.fn_ir, block, index)
            steps.append((ops, index, instr, op))
            count += 1
            if role == _ROLE_END:
                return steps, None
            if role == _ROLE_JUMP:
                if instr.target in visited:
                    return steps, (scope.blocks[instr.target], 0)
                block = instr.target
                visited.add(block)
                ops = scope.blocks[block]
                index = 0
                continue
            if role == _ROLE_CALL:
                count += len(_leaf_body(self.code, instr.func))
            index += 1

    def write(self, block: str, index: int) -> Callable:
        steps, stop = self.walk(block, index)
        depths = _contained(steps)
        for pos, (ops, index, instr, op) in enumerate(steps):
            offset = self.static
            self.site_actions(op, offset)
            role = op.role
            if role == _ROLE_REGION:
                self.region(instr, op, ops, index, depths.get(pos))
                continue
            self.static += op.cycles
            self.count += 1
            if role == _ROLE_END:
                self.end(instr, op, ops, index)
            elif role == _ROLE_CALL:
                self.inline(instr)
            elif role == _ROLE_STEP:
                self.step(instr, op, offset)
        if stop is not None:
            self.finish(*stop)
        prologue = ["L = frame.locals", "t = m.tau"]
        if self.regions:
            prologue.append("t0 = t")
        for name, src in (
            ("G", "m.nv.globals"),
            ("A", "m.nv.arrays"),
            ("S", "frame.sites"),
            ("B", "m.nv.bits.bits"),
            ("F", "m._frames"),
            ("emit", "m._config.emit_observations and m.trace.events.append"),
            ("read", "m._env.read"),
        ):
            if name in self.uses:
                prologue.append(f"{name} = {src}")
        source = "\n".join(
            ["def _segment(m, frame):", "    " + "; ".join(prologue), *self.lines]
        )
        exec(compile(source, "<segment>", "exec"), self.ns)
        return self.ns["_segment"]


# ---------------------------------------------------------------------------
# The fast machine


class FastMachine(MachineCore):
    """One intermittent (or continuous) execution over decoded code.

    Drop-in for :class:`~repro.runtime.executor.Machine`: same
    constructor surface plus an optional pre-decoded ``code``, same
    ``run()`` result, and -- by the parity suite's contract --
    bit-identical observation streams, stats, and nonvolatile state.
    The power-failure/reboot rules and nonvolatile-write guards are the
    shared :class:`MachineCore` bodies, so only the fetch/execute loop
    differs from the reference.
    """

    def __init__(
        self,
        module: Module,
        env: Environment,
        supply: Optional[PowerSupply] = None,
        costs: CostModel = DEFAULT_COSTS,
        plan: Optional[DetectorPlan] = None,
        config: Optional[MachineConfig] = None,
        code: Optional[CompiledCode] = None,
    ):
        self._module = module
        self._costs = costs
        self._plan = plan or DetectorPlan()
        if code is None:
            code = compile_code(module, self._plan, costs)
        elif (
            code.module is not module
            # Identity or equality, mirroring code_for's cache match: a
            # cached decode legitimately carries an equal (not identical)
            # plan object when callers build fresh plans per run.
            or (code.plan is not self._plan and code.plan != self._plan)
            or code.costs != costs
        ):
            raise EngineError(
                "pre-decoded code belongs to a different module, detector "
                "plan, or cost model"
            )
        self._code = code
        self._config = config or MachineConfig()
        self.begin_activation(
            env=env,
            supply=supply or ContinuousPower(),
            nv=NVState.initial(module),
            tau=0,
        )

    def _bind_supply(self, supply: PowerSupply) -> None:
        """Bind ``supply`` and pick the cheapest interaction its exact
        type allows.

        Only the shipped supply types are specialized (their constant
        methods are skipped or inlined); any other object -- subclasses
        included -- is *generic*: :meth:`run` loops over :meth:`step`,
        which performs exactly the reference machine's call sequence.
        The capacitor inline also requires the stock energy model
        (``cycles * energy_per_cycle``); under any other, an
        :class:`EnergyDrivenSupply` is generic too.  A supply of the
        bound one's type that watches nothing keeps its classification.
        """
        bound = getattr(self, "_supply", None)
        if (
            type(supply) is type(bound)
            and not self._watched_uids
            and not hasattr(supply, "watched_uids")
        ):
            self._supply = supply
            return
        super()._bind_supply(supply)
        supply_type = type(self._supply)
        stock_energy = type(self._costs).energy is CostModel.energy
        self._fail_mode = _FAIL_NEVER
        self._energy_mode = _ENERGY_NONE
        self._generic = False
        if supply_type is ScheduledFailures:
            self._fail_mode = _FAIL_WATCHED
        elif supply_type is EnergyDrivenSupply and stock_energy:
            self._energy_mode = _ENERGY_CAPACITOR
        elif supply_type is not ContinuousPower:
            self._generic = True

    # -- construction ----------------------------------------------------------

    def _restart_main(self) -> None:
        entry = self._code.functions.get(self._code.entry)
        if entry is None:
            raise IRError(f"no function '{self._code.entry}' in module")
        self._frames: list[FastFrame] = [
            FastFrame(entry.name, entry.blocks[entry.entry], 0, {}, None, ())
        ]

    # -- the hot loop ----------------------------------------------------------

    def run(self) -> obs.RunResult:
        """Execute one activation of ``main`` to completion (or give up)."""
        wall = _tracer()
        if wall is not None:
            with wall.span("activation", "engine", engine="fast"):
                return self._run_to_completion()
        return self._run_to_completion()

    def _run_to_completion(self) -> obs.RunResult:
        stats = self.stats
        max_cycles = self._config.max_cycles
        start_cycles = stats.cycles_on + stats.cycles_off
        if self._generic:
            while not self._done and stats.total_cycles - start_cycles <= max_cycles:
                self.step()
            return self._result()
        supply = self._supply
        costs = self._costs
        epc = costs.energy_per_cycle
        watched = self._watched_uids
        fail_mode = self._fail_mode
        if fail_mode == _FAIL_WATCHED and not watched:
            fail_mode = _FAIL_NEVER
        energy_mode = self._energy_mode
        if energy_mode == _ENERGY_CAPACITOR:
            cap = supply.capacitor
            low = cap.low_threshold
        else:
            cap = None
            low = 0
        # Segments run only where no per-op check inside one can fire: no
        # failure point can be scheduled, and the energy is the stock
        # model in ints (nonnegative per cycle), so one check on a run's
        # summed cost stands for every per-op check in it, exactly.
        segments = fail_mode == _FAIL_NEVER and (
            energy_mode == _ENERGY_NONE
            or (
                cap is not None
                and type(epc) is int
                and epc >= 0
                and type(low) is int
                and type(cap.level) is int
                and type(cap.capacity) is int
            )
        )
        threshold = SEGMENT_COMPILE_THRESHOLD

        while not self._done:
            clock = stats.cycles_on + stats.cycles_off - start_cycles
            if clock > max_cycles:
                break
            frame = self._frames[-1]
            op = frame.ops[frame.idx]

            seg = op.seg
            if seg is not None and segments:
                run_segment = seg.fn
                if run_segment is None:
                    seg.hits += 1
                    if seg.hits >= threshold:
                        run_segment = seg.compile()
                if run_segment is not None:
                    need = seg.cycles
                    if seg.bound is not None:
                        need += seg.bound(self)
                    if clock + need <= max_cycles:
                        if cap is None:
                            run_segment(self, frame)
                            continue
                        if cap.level - need * epc > low:
                            cap.level -= run_segment(self, frame) * epc
                            continue

            if (
                fail_mode
                and op.uid in watched
                and supply.fail_before(op.uid, op.chain_at(frame.sites)[0])
            ):
                self._power_failure()
                continue

            estimate = op.cycles
            if estimate is None:
                estimate = op.estimate(self)
            if cap is not None and cap.level - estimate * epc <= low:
                self._power_failure()
                continue

            if op.trigger:
                actions = op.chain_at(frame.sites)[1]
                if actions is not None:
                    self._run_site_actions(op.uid, actions)

            cycles = op.run(self, frame)
            self.tau += cycles
            stats.cycles_on += cycles
            stats.instructions += 1

            if self._done:
                break
            if cap is not None:
                cap.level -= cycles * epc
                if cap.level <= low:
                    self._power_failure()
        return self._result()

    def _result(self) -> obs.RunResult:
        stats = self.stats
        stats.completed = self._done
        if self._config.emit_observations:
            stats.violations = len(self.trace.violations)
        else:  # a violations-only trace holds violations alone
            stats.violations = len(self.trace.events)
        ret = self._ret_value.value if self._ret_value is not None else None
        return obs.RunResult(
            trace=self.trace,
            stats=stats,
            ret=ret,
            detector_queries=self.detector_queries,
        )

    def step(self) -> None:
        """One machine step over decoded code, under any supply.

        Performs exactly the reference machine's supply call sequence
        (``fail_before``, ``would_trip``, ``consume``), so :meth:`run`
        loops over it for a generic supply, and external drivers (the
        bounded model checker in :mod:`repro.verify`, the lint probe)
        single-step a fast machine with it.  The specialized paths of
        :meth:`run` skip only calls that are constant for their supply
        type, so stepping cannot change observable behavior.
        """
        if self._done:
            return
        supply = self._supply
        frame = self._frames[-1]
        op = frame.ops[frame.idx]

        chain = (
            op.chain_at(frame.sites)[0]
            if op.uid in self._watched_uids
            else None
        )
        if supply.fail_before(op.uid, chain):
            self._power_failure()
            return

        estimate = op.cycles
        if estimate is None:
            estimate = op.estimate(self)
        if supply.would_trip(self._costs.energy(estimate)):
            self._power_failure()
            return

        if op.trigger:
            actions = op.chain_at(frame.sites)[1]
            if actions is not None:
                self._run_site_actions(op.uid, actions)

        cycles = op.run(self, frame)
        self.tau += cycles
        self.stats.cycles_on += cycles
        self.stats.instructions += 1

        if self._done:
            return
        if supply.consume(self._costs.energy(cycles)):
            self._power_failure()

    # Detector check execution (_run_site_actions), power failure,
    # reboot, _deref, _write_global, and _assert_logged are the shared
    # MachineCore bodies.


# ---------------------------------------------------------------------------
# Engine selection


def create_machine(
    engine: str,
    compiled,
    env: Environment,
    supply: Optional[PowerSupply] = None,
    costs: CostModel = DEFAULT_COSTS,
    plan: Optional[DetectorPlan] = None,
    config: Optional[MachineConfig] = None,
) -> Machine | FastMachine:
    """Build a machine for ``compiled`` under ``engine``, at its first
    activation (initial nonvolatile state, tau 0); restart it with
    :meth:`~repro.runtime.executor.MachineCore.begin_activation`.

    ``reference`` is the Appendix H transcription in
    :mod:`repro.runtime.executor`; ``fast`` is the pre-decoded engine of
    this module (decoded code cached on the build).  Both produce
    bit-identical results; ``reference`` exists as the semantics oracle
    and the escape hatch.
    """
    if plan is None:
        plan = compiled.detector_plan()
    if engine == ENGINE_FAST:
        code = code_for(compiled, costs=costs, plan=plan)
        return FastMachine(
            compiled.module,
            env,
            supply,
            costs=costs,
            plan=plan,
            config=config,
            code=code,
        )
    if engine == ENGINE_REFERENCE:
        return Machine(
            compiled.module,
            env,
            supply,
            costs=costs,
            plan=plan,
            config=config,
        )
    raise EngineError(
        f"unknown engine '{engine}' (expected one of: {', '.join(ENGINES)})"
    )
