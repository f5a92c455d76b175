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

Decoded code is cached on the :class:`CompiledProgram` itself (see
:func:`code_for`).  Compiled programs are interned by the compile cache
keyed on (source, pass-pipeline fingerprint), so the decode cache is
effectively fingerprint-keyed: two builds share decoded code exactly
when they share a build, completed by the (detector plan, cost model)
pair the decode bakes in.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis.provenance import Chain
from repro.analysis.taint import consistent_pid, fresh_pid
from repro.energy.costs import DEFAULT_COSTS, CostModel
from repro.ir import instructions as ir
from repro.ir.module import IRError, Module
from repro.lang import ast as lang_ast
from repro.runtime import observations as obs
from repro.runtime.detector import DetectorPlan
from repro.runtime.executor import (
    AtomContext,
    ExecError,
    JitContext,
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
from repro.runtime.values import InputEvent, RefValue, TVal, ZERO, merge_taint
from repro.sensors.environment import Environment
from repro.telemetry.trace import tracer as _tracer

#: Engine names: the escape hatch every harness exposes.
ENGINE_FAST = "fast"
ENGINE_REFERENCE = "reference"
ENGINES = (ENGINE_FAST, ENGINE_REFERENCE)

# Supply interaction modes, classified once per machine so the hot loop
# skips calls that are constant for the supply's exact type (the
# reference machine calls fail_before/would_trip/consume on every step).
_FAIL_NEVER = 0
_FAIL_WATCHED = 1
_FAIL_GENERIC = 2
_ENERGY_NONE = 0
_ENERGY_CAPACITOR = 1
_ENERGY_GENERIC = 2


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

    __slots__ = ("uid", "run", "cycles", "estimate", "trigger", "chain_at")

    def __init__(self, uid, run, cycles, estimate, trigger, chain_at):
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


class FastFunction:
    __slots__ = ("name", "entry", "blocks")

    def __init__(self, name: str, entry: str):
        self.name = name
        self.entry = entry
        #: block name -> decoded op list (lists are filled in place so
        #: forward references -- calls, jumps -- resolve before decoding)
        self.blocks: dict[str, list[Op]] = {}


class CompiledCode:
    """A fully decoded module for one (detector plan, cost model) pair."""

    __slots__ = ("module", "plan", "costs", "functions", "entry")

    def __init__(self, module, plan, costs, functions, entry):
        self.module = module
        self.plan = plan
        self.costs = costs
        self.functions = functions
        self.entry = entry


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
                raise ExecError(
                    f"index {iv} out of bounds for {array_name}[{len(array)}]"
                )
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
            entry = (chain, actions_map.get(chain))
            _cache[sites] = entry
        return entry

    def op(run, cycles, estimate=None):
        return Op(uid, run, cycles, estimate, trigger, chain_at)

    if isinstance(instr, ir.Terminator):
        cyc = costs.instr_cycles(instr)
        if isinstance(instr, ir.Jump):
            target_ops = blocks[instr.target]

            def run_jump(m, frame):
                frame.ops = target_ops
                frame.idx = 0
                return cyc

            return op(run_jump, cyc)
        if isinstance(instr, ir.Branch):
            cond_fn = compile_expr(instr.cond)
            true_ops = blocks[instr.true_target]
            false_ops = blocks[instr.false_target]

            def run_branch(m, frame):
                frame.ops = true_ops if cond_fn(m, frame).value else false_ops
                frame.idx = 0
                return cyc

            return op(run_branch, cyc)
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

            return op(run_ret, cyc)
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

            return op(run_assign_global, cyc)

        def run_assign_local(m, frame):
            frame.idx += 1
            value = expr_fn(m, frame)
            cell = frame.locals.get(dest)
            if type(cell) is RefValue:
                raise ExecError(f"assignment to reference parameter '{dest}'")
            frame.locals[dest] = value
            return cyc

        return op(run_assign_local, cyc)

    if isinstance(instr, ir.InputInstr):
        channel = instr.channel
        dest = instr.dest
        is_bit = uid in bit_uids

        def run_input(m, frame):
            frame.idx += 1
            tau = m.tau
            raw = m._env.read(channel, tau)
            frame.locals[dest] = TVal(
                raw, frozenset((InputEvent(uid=uid, channel=channel, tau=tau),))
            )
            if is_bit:
                m.nv.bits.bits.add(chain_at(frame.sites)[0])
            if m._config.emit_observations:
                m.trace.events.append(
                    obs.InputObs(tau=tau, uid=uid, channel=channel, value=raw)
                )
            return cyc

        return op(run_input, cyc)

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

        return op(run_call, cyc)

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

        return op(run_store_ref, cyc)

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
                raise ExecError(
                    f"index {iv} out of bounds for {array_name}[{len(array)}]"
                )
            m._assert_logged(array_name)
            array[iv] = TVal(value.value, merge_taint(value.taint, index.taint))
            return cyc

        return op(run_store_arr, cyc)

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

            return op(run_fresh, cyc)
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

        return op(run_consistent, cyc)

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

        return op(run_start, None, estimate_start)

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

        return op(run_end, cyc)

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

        return op(run_output, cyc)

    if isinstance(instr, ir.WorkInstr):
        if type(instr.cycles) is lang_ast.IntLit:
            # A literal amount is a static cost, like any other op.
            work_cyc = costs.instr_cycles(instr, work_value=instr.cycles.value)

            def run_static_work(m, frame):
                frame.idx += 1
                return work_cyc

            return op(run_static_work, work_cyc)

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

        return op(run_skip, cyc)

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
                        actions_map, fast.blocks, functions,
                    )
                )
            if block.terminator is not None:
                ops.append(
                    _decode_instr(
                        block.terminator,
                        module,
                        plan,
                        costs,
                        bit_uids,
                        actions_map,
                        fast.blocks,
                        functions,
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
    return CompiledCode(
        module=module,
        plan=plan,
        costs=costs,
        functions=functions,
        entry=module.entry,
    )


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
        nv: Optional[NVState] = None,
        config: Optional[MachineConfig] = None,
        start_tau: int = 0,
        code: Optional[CompiledCode] = None,
    ):
        self._module = module
        self._env = env
        self._supply = supply or ContinuousPower()
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
        watched = getattr(self._supply, "watched_uids", None)
        self._watched_uids: frozenset = watched() if watched else frozenset()
        self.nv = nv or NVState.initial(module)
        self._config = config or MachineConfig()

        self.tau = start_tau
        self.trace = obs.Trace()
        self.stats = obs.RunStats()
        #: bit-vector scans performed; see the reference machine's note
        self.detector_queries = 0
        self._hoist_cache: dict[int, frozenset] = {}
        self._frames: list[FastFrame] = []
        self._jit_ctx: Optional[JitContext] = None
        self._atom_ctx: Optional[AtomContext] = None
        self._ret_value: Optional[TVal] = None
        self._done = False
        self._pending_cycles = 0
        self._classify_supply()
        self._restart_main()

    def _classify_supply(self) -> None:
        """Pick the cheapest supply interaction the exact type allows.

        Only the shipped supply types are specialized (their constant
        methods are skipped or inlined); any other object -- subclasses
        included -- takes the generic path, which performs exactly the
        reference machine's call sequence.  The capacitor inline also
        requires the stock energy model (``cycles * energy_per_cycle``).
        """
        supply_type = type(self._supply)
        stock_energy = type(self._costs).energy is CostModel.energy
        if supply_type is ContinuousPower:
            self._fail_mode = _FAIL_NEVER
            self._energy_mode = _ENERGY_NONE
        elif supply_type is ScheduledFailures:
            self._fail_mode = _FAIL_WATCHED
            self._energy_mode = _ENERGY_NONE
        elif supply_type is EnergyDrivenSupply:
            self._fail_mode = _FAIL_NEVER
            self._energy_mode = (
                _ENERGY_CAPACITOR if stock_energy else _ENERGY_GENERIC
            )
        else:
            self._fail_mode = _FAIL_GENERIC
            self._energy_mode = _ENERGY_GENERIC

    # -- construction ----------------------------------------------------------

    def _restart_main(self) -> None:
        entry = self._code.functions.get(self._code.entry)
        if entry is None:
            raise IRError(f"no function '{self._code.entry}' in module")
        self._frames = [
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
        config = self._config
        max_cycles = config.max_cycles
        start_cycles = stats.cycles_on + stats.cycles_off
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

        while not self._done:
            if stats.cycles_on + stats.cycles_off - start_cycles > max_cycles:
                break
            frame = self._frames[-1]
            op = frame.ops[frame.idx]

            if fail_mode:
                if fail_mode == _FAIL_WATCHED:
                    if op.uid in watched and supply.fail_before(
                        op.uid, op.chain_at(frame.sites)[0]
                    ):
                        self._power_failure()
                        continue
                else:
                    chain = (
                        op.chain_at(frame.sites)[0] if op.uid in watched else None
                    )
                    if supply.fail_before(op.uid, chain):
                        self._power_failure()
                        continue

            estimate = op.cycles
            if estimate is None:
                estimate = op.estimate(self)
            if cap is not None:
                if cap.level - estimate * epc <= low:
                    self._power_failure()
                    continue
            elif energy_mode == _ENERGY_GENERIC and supply.would_trip(
                costs.energy(estimate)
            ):
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
            elif energy_mode == _ENERGY_GENERIC and supply.consume(
                costs.energy(cycles)
            ):
                self._power_failure()

        stats.completed = self._done
        stats.violations = len(self.trace.violations)
        ret = self._ret_value.value if self._ret_value is not None else None
        return obs.RunResult(
            trace=self.trace,
            stats=stats,
            ret=ret,
            detector_queries=self.detector_queries,
        )

    def step(self) -> None:
        """One machine step over decoded code (generic supply path).

        Mirrors a single iteration of :meth:`run` on the generic
        fail/energy path -- exactly the reference machine's supply call
        sequence -- so external drivers (the bounded model checker in
        :mod:`repro.verify`) can single-step a fast machine under any
        supply type.  :meth:`run` remains the hot loop; this method
        trades its per-supply specialization for steppability, which by
        the classification contract (unknown supplies take the generic
        path) cannot change observable behavior.
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
    nv: Optional[NVState] = None,
    config: Optional[MachineConfig] = None,
    start_tau: int = 0,
) -> Machine | FastMachine:
    """Build a machine for one activation of ``compiled`` under ``engine``.

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
            nv=nv,
            config=config,
            start_tau=start_tau,
            code=code,
        )
    if engine == ENGINE_REFERENCE:
        return Machine(
            compiled.module,
            env,
            supply,
            costs=costs,
            plan=plan,
            nv=nv,
            config=config,
            start_tau=start_tau,
        )
    raise EngineError(
        f"unknown engine '{engine}' (expected one of: {', '.join(ENGINES)})"
    )
