"""The intermittent abstract machine: JIT checkpoints + atomic regions.

Implements the small-step semantics of Appendix H over our IR.  A machine
state is ``(tau, kappa, N, S, pos)``:

* ``tau`` -- logical time, advanced by instruction cycle costs while on and
  by the harvester-determined off-time across power failures;
* ``kappa`` -- the saved execution context, either a JIT context (volatile
  snapshot taken at the low-power interrupt) or an atomic context (volatile
  snapshot + undo log of the region's omega set + nesting counter);
* ``N`` -- nonvolatile memory: globals, arrays, the detector bit vector;
* ``S`` -- the volatile frame stack; ``pos`` lives in the top frame.

Rule correspondence:

=====================  =======================================================
Appendix H rule        here
=====================  =======================================================
JIT-LowPower           ``_power_failure`` in jit mode: snapshot, power off
Atom-LowPower          ``_power_failure`` in atomic mode: power off directly
JIT-Reboot             ``_reboot``: restore frames from the JIT context
Atom-Reboot            ``_reboot``: apply undo log, restore region entry
Atom-Start-Outer       ``_exec_atomic_start`` from jit mode
Atom-Start-Inner       ``_exec_atomic_start`` when already atomic (counter++)
Atom-End-Outer         ``_exec_atomic_end`` at depth 0 (commit)
Atom-End-Inner         ``_exec_atomic_end`` at depth > 0 (counter--)
=====================  =======================================================

Execution is taint-augmented (Appendix B): every value carries the set of
dynamic input events it depends on (input sites in a violations-only run;
see :class:`MachineConfig`), and the machine emits the observation stream
the formal freshness/consistency definitions quantify over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.energy.costs import DEFAULT_COSTS, CostModel
from repro.ir import instructions as ir
from repro.ir.module import Module
from repro.lang import ast as lang_ast
from repro.runtime import observations as obs
from repro.runtime.detector import OP_CONSUME, OP_MARKER, BitVector, DetectorPlan
from repro.analysis.provenance import Chain
from repro.analysis.taint import consistent_pid, fresh_pid
from repro.runtime.supply import ContinuousPower, PowerSupply
from repro.runtime.values import (
    Cell,
    InputEvent,
    RefValue,
    TVal,
    merge_taint,
    site_taint,
)
from repro.sensors.environment import Environment
from repro.telemetry.trace import tracer as _tracer


class ExecError(Exception):
    """Raised on dynamic errors: bad index, missing value, stuck region."""


@dataclass
class Frame:
    func: str
    block: str
    idx: int
    locals: dict[str, Cell]
    ret_dest: Optional[str] = None
    #: uid of the call instruction that created this frame (None for main);
    #: the detector uses the stack of call uids as the provenance context
    call_uid: Optional[ir.InstrId] = None

    def copy(self) -> "Frame":
        return Frame(
            func=self.func,
            block=self.block,
            idx=self.idx,
            locals=dict(self.locals),
            ret_dest=self.ret_dest,
            call_uid=self.call_uid,
        )


def copy_stack(frames: list[Frame]) -> list[Frame]:
    return [f.copy() for f in frames]


def stack_words(frames: list[Frame]) -> int:
    """Volatile footprint in words: locals plus per-frame bookkeeping."""
    return sum(len(f.locals) + 2 for f in frames)


@dataclass
class JitContext:
    """``jit(S, c)``: volatile snapshot taken at the low-power interrupt."""

    frames: list[Frame]


@dataclass
class AtomContext:
    """``atom(L, S, c, n_atom)``: region-entry snapshot plus undo log."""

    region: str
    frames: list[Frame]
    undo_globals: dict[str, TVal]
    undo_arrays: dict[str, list[TVal]]
    natom: int = 0
    omega: frozenset[str] = frozenset()


@dataclass
class NVState:
    """Nonvolatile memory; persists across reboots and across activations."""

    globals: dict[str, TVal]
    arrays: dict[str, list[TVal]]
    bits: BitVector = field(default_factory=BitVector)

    @staticmethod
    def initial(module: Module) -> "NVState":
        return NVState(
            globals={name: TVal.of(v) for name, v in module.globals.items()},
            arrays={
                name: [TVal.of(v) for v in values]
                for name, values in module.arrays.items()
            },
        )

    def snapshot_values(self) -> dict:
        """Plain-value view of globals/arrays (for assertions in tests)."""
        return {
            "globals": {k: v.value for k, v in self.globals.items()},
            "arrays": {k: [c.value for c in v] for k, v in self.arrays.items()},
        }


@dataclass
class MachineConfig:
    max_cycles: int = 50_000_000
    max_region_restarts: int = 1_000
    #: False runs *violations-only*: the trace records nothing but
    #: :class:`~repro.runtime.observations.ViolationObs`, and no other
    #: observation is even constructed.  Stats, ``tau``, values (in
    #: nonvolatile state and the return value), ``detector_queries``
    #: and the violations themselves are identical to a full-trace run
    #: (``stats.violations`` counts the recorded violations either
    #: way).  Taint is by input site: a read's taint is its op's
    #: constant :func:`~repro.runtime.values.site_taint`, with no
    #: :class:`~repro.runtime.values.InputEvent` built, so a value
    #: carries the sites of the events a full run's value carries.
    #: Consumers that keep only stats and violation counts run this
    #: way -- fleet executors, campaign jobs, the lint probe, the
    #: verifier's explorer and schedule minimization; ``run``,
    #: ``trace``, ``explain``, schedule replay and verifier forensics
    #: keep the full Appendix B stream.
    emit_observations: bool = True


class MachineCore:
    """Engine-independent machine behavior: checkpoints, reboots, and
    nonvolatile-write guards.

    The reference :class:`Machine` and the pre-decoded
    :class:`~repro.runtime.engine.FastMachine` differ only in how they
    fetch and execute instructions; everything the Appendix H power
    rules touch -- JIT-LowPower/Atom-LowPower, JIT-Reboot/Atom-Reboot,
    the undo-log guard, detector check execution -- lives here once, so
    a semantics fix cannot silently reach one engine and not the other.
    Frame classes differ per engine but share ``copy()`` and ``locals``,
    which is all these bodies touch.

    Every emission site in both engines tests
    ``MachineConfig.emit_observations`` *before* building its event,
    except violations, which :meth:`_run_site_actions` always records.

    :meth:`begin_activation` is the only code that initialises
    per-activation state; both constructors end by calling it, so a
    restarted machine equals a fresh one by construction.
    """

    # -- mode -----------------------------------------------------------------

    @property
    def mode(self) -> str:
        return "atomic" if self._atom_ctx is not None else "jit"

    def _restart_main(self) -> None:
        raise NotImplementedError

    def begin_activation(
        self,
        trace: Optional[obs.Trace] = None,
        *,
        env: Optional[Environment] = None,
        supply: Optional[PowerSupply] = None,
        nv: Optional[NVState] = None,
        tau: Optional[int] = None,
    ) -> None:
        """Start the next activation of ``main``: a restart.

        Nonvolatile memory and the logical clock carry over, like an
        embedded ``while (1) main();`` loop; volatile state starts from
        its initial value -- frames at ``main``, no saved JIT/atomic
        context, an empty hoist cache, fresh stats and no detector
        queries -- with ``trace`` (or a fresh one) as the sink.  ``env``,
        ``supply``, ``nv`` and ``tau``, when given, are rebound first, so
        one machine serves a whole activation stream whose activations
        each start from their own state.
        """
        if env is not None:
            self._env = env
        if supply is not None:
            self._bind_supply(supply)
        if nv is not None:
            self.nv = nv
        if tau is not None:
            self.tau = tau
        self._restart_main()
        self._jit_ctx: Optional[JitContext] = None
        self._atom_ctx: Optional[AtomContext] = None
        self._hoist_cache: dict[int, frozenset] = {}
        self._done = False
        self._ret_value: Optional[TVal] = None
        self.stats = obs.RunStats()
        #: bit-vector scans performed (the `checks_executed` metric);
        #: deliberately outside RunStats so optimized builds stay
        #: stat-identical to their baselines while executing fewer checks
        self.detector_queries = 0
        #: the fast engine's work-op scratch (dead between steps)
        self._pending_cycles = 0
        self.trace = trace if trace is not None else obs.Trace()

    def _bind_supply(self, supply: PowerSupply) -> None:
        """Power the machine from ``supply``."""
        self._supply = supply
        watched = getattr(self._supply, "watched_uids", None)
        self._watched_uids: frozenset = watched() if watched else frozenset()

    # -- power failure and reboot ----------------------------------------------

    def force_power_failure(self) -> None:
        """Externally injected low-power interrupt (the verifier's fork).

        Identical to a supply's ``fail_before`` answering True right
        before the next instruction: checkpoint in jit mode, power off,
        reboot.  The bounded model checker uses this to branch execution
        at a chosen step without threading a schedule through a supply.
        """
        self._power_failure()

    def _power_failure(self) -> None:
        mode = self.mode
        if mode == "jit":
            # JIT-LowPower: the ISR checkpoints volatile state from reserve.
            words = stack_words(self._frames)
            ckpt_cycles = self._costs.checkpoint_cycles(words)
            self._supply.checkpoint_energy(self._costs.energy(ckpt_cycles))
            self.tau += ckpt_cycles
            self.stats.cycles_on += ckpt_cycles
            self._jit_ctx = JitContext(frames=copy_stack(self._frames))
            self.stats.jit_checkpoints += 1
            if self._config.emit_observations:
                self.trace.emit(obs.CheckpointObs(tau=self.tau, saved_words=words))
        if self._config.emit_observations:
            self.trace.emit(obs.PowerFailObs(tau=self.tau, mode=mode))
        self._reboot()

    def _reboot(self) -> None:
        off = self._supply.off_and_recharge()
        self.tau += off
        self.stats.cycles_off += off
        self.stats.reboots += 1
        self.nv.bits.clear()  # the detector's power-failure reset
        # Hoisted/anchored query results are volatile: stale missing-sets
        # must never survive a reboot (consumers fall back to a direct
        # scan, which keeps optimized traces bit-exact).
        self._hoist_cache.clear()

        restore_cycles = self._costs.restore
        self.tau += restore_cycles
        self.stats.cycles_on += restore_cycles

        if self._atom_ctx is not None:
            # Atom-Reboot: N <| L, restore region-entry volatile state.
            ctx = self._atom_ctx
            for name, value in ctx.undo_globals.items():
                self.nv.globals[name] = value
            for name, values in ctx.undo_arrays.items():
                self.nv.arrays[name] = list(values)
            self._frames = copy_stack(ctx.frames)
            ctx.natom = 0
            self.stats.region_restarts += 1
            if self.stats.region_restarts > self._config.max_region_restarts:
                raise ExecError(
                    f"atomic region '{ctx.region}' cannot complete within the "
                    "energy budget (region too large, Section 5.3)"
                )
        elif self._jit_ctx is not None:
            # JIT-Reboot: resume from the checkpoint.
            self._frames = copy_stack(self._jit_ctx.frames)
        else:
            # Statically initialized context: restart the program.
            self._restart_main()
        if self._config.emit_observations:
            self.trace.emit(
                obs.RebootObs(tau=self.tau, off_cycles=off, mode=self.mode)
            )

    # -- memory helpers ---------------------------------------------------------

    def _deref(self, cell: Cell) -> TVal:
        seen = 0
        while isinstance(cell, RefValue):
            seen += 1
            if seen > len(self._frames) + 1:
                raise ExecError("reference cycle")
            cell = self._frames[cell.depth].locals[cell.name]
        return cell

    def _write_global(self, name: str, value: TVal) -> None:
        if name not in self.nv.globals:
            raise ExecError(f"write to undeclared global '{name}'")
        self._assert_logged(name)
        self.nv.globals[name] = value

    def _assert_logged(self, name: str) -> None:
        """In a region, every NV write target must be in the undo log.

        This is the runtime guard for the WAR/EMW analysis: if the static
        omega set missed a written location, idempotent re-execution would
        silently break, so fail loudly instead.
        """
        ctx = self._atom_ctx
        if ctx is None:
            return
        if name not in ctx.undo_globals and name not in ctx.undo_arrays:
            raise ExecError(
                f"nonvolatile '{name}' written inside region '{ctx.region}' "
                "but absent from its omega set (WAR/EMW analysis bug)"
            )

    # -- detector check execution -------------------------------------------------

    def _run_site_actions(self, uid: ir.InstrId, actions) -> None:
        """Execute one trigger site's detector actions (both engines).

        Runs the (possibly optimized) per-site check program: hoisted
        queries populate the volatile cache, then the check ops emit
        their observations in baseline order -- FULL ops scan the bit
        vector (once per op, or once per site when fused), MARKER ops
        emit only the unconditional ``use`` observation, and CONSUME ops
        derive their missing-set from a cached dominating query, falling
        back to a direct scan when the cache was cleared by a reboot.
        ``detector_queries`` counts bit-vector scans -- the
        ``checks_executed`` metric the benchmarks gate on.  Violations
        are recorded even when observations are off (violations-only
        mode; see :class:`MachineConfig`).
        """
        bits = self.nv.bits.bits
        tau = self.tau
        cache = self._hoist_cache
        observe = self._config.emit_observations
        for hoist in actions.hoists:
            cache[hoist.hid] = frozenset(
                c for c in hoist.required if c not in bits
            )
            self.detector_queries += 1
        fused = actions.fused
        fused_missing: Optional[frozenset] = None
        if fused is not None:
            fused_missing = frozenset(c for c in fused if c not in bits)
            self.detector_queries += 1
        for op in actions.ops:
            check = op.check
            if observe and check.kind == "fresh":
                self.trace.emit(obs.UseObs(tau=tau, uid=uid, pid=check.pid))
            mode = op.mode
            if mode == OP_MARKER:
                continue
            if mode == OP_CONSUME:
                cached = cache.get(op.hid)
                if cached is None:
                    missing = tuple(
                        c for c in check.required if c not in bits
                    )
                    self.detector_queries += 1
                else:
                    missing = tuple(
                        c for c in check.required if c in cached
                    )
            elif fused_missing is not None:
                missing = tuple(
                    c for c in check.required if c in fused_missing
                )
                if op.hid >= 0:
                    cache[op.hid] = frozenset(missing)
            else:
                required = check.required
                # The common case -- every required bit set -- is one
                # C-level subset test; the tuple is built only on a miss.
                missing = (
                    ()
                    if bits.issuperset(required)
                    else tuple(c for c in required if c not in bits)
                )
                self.detector_queries += 1
                if op.hid >= 0:
                    cache[op.hid] = frozenset(missing)
            if missing:
                self.trace.emit(
                    obs.ViolationObs(
                        tau=tau,
                        uid=uid,
                        pid=check.pid,
                        kind=check.kind,
                        missing=missing,
                    )
                )


class Machine(MachineCore):
    """One intermittent (or continuous) execution of ``main``.

    The machine is restartable: :meth:`run` executes one activation of
    ``main`` to completion, and :meth:`begin_activation` starts the next
    one over the nonvolatile state and clock the last one left (the
    Table 2b repeated-run experiments share them and one supply across
    activations).  A new machine starts from the module's initial
    nonvolatile state at tau 0.
    """

    def __init__(
        self,
        module: Module,
        env: Environment,
        supply: Optional[PowerSupply] = None,
        costs: CostModel = DEFAULT_COSTS,
        plan: Optional[DetectorPlan] = None,
        config: Optional[MachineConfig] = None,
    ):
        self._module = module
        self._costs = costs
        self._plan = plan or DetectorPlan()
        self._bit_uids = frozenset(chain.op for chain in self._plan.bit_chains)
        self._actions = self._plan.runtime_actions()
        self._config = config or MachineConfig()
        self.begin_activation(
            env=env,
            supply=supply or ContinuousPower(),
            nv=NVState.initial(module),
            tau=0,
        )

    def _restart_main(self) -> None:
        entry = self._module.function(self._module.entry)
        self._frames: list[Frame] = [
            Frame(func=entry.name, block=entry.entry, idx=0, locals={})
        ]

    # -- top-level drivers -------------------------------------------------------

    def run(self) -> obs.RunResult:
        """Execute one activation of ``main`` to completion (or give up)."""
        wall = _tracer()
        if wall is not None:
            with wall.span("activation", "engine", engine="reference"):
                return self._run_to_completion()
        return self._run_to_completion()

    def _run_to_completion(self) -> obs.RunResult:
        start_cycles = self.stats.total_cycles
        while not self._done:
            if self.stats.total_cycles - start_cycles > self._config.max_cycles:
                break
            self.step()
        self.stats.completed = self._done
        self.stats.violations = len(self.trace.violations)
        ret = self._ret_value.value if self._ret_value is not None else None
        return obs.RunResult(
            trace=self.trace,
            stats=self.stats,
            ret=ret,
            detector_queries=self.detector_queries,
        )

    # -- fetch/execute loop ---------------------------------------------------------

    def _current_frame(self) -> Frame:
        return self._frames[-1]

    def _fetch(self) -> ir.Instr:
        frame = self._current_frame()
        block = self._module.function(frame.func).block(frame.block)
        if frame.idx < len(block.instrs):
            return block.instrs[frame.idx]
        assert block.terminator is not None
        return block.terminator

    def step(self) -> None:
        """One machine step: possibly fail, else execute one instruction."""
        if self._done:
            return
        instr = self._fetch()

        chain = (
            self._current_chain(instr.uid)
            if instr.uid in self._watched_uids
            else None
        )
        if self._supply.fail_before(instr.uid, chain):
            self._power_failure()
            return

        # The comparator is asynchronous: if this instruction's energy
        # would cross the trip point mid-flight, take the interrupt first
        # so the checkpoint reserve is never consumed by execution.
        # ``work`` amounts are pure expressions, so one evaluation serves
        # both the estimate and the execution below.
        work_value: Optional[int] = None
        if isinstance(instr, ir.WorkInstr):
            work_value = self.eval(instr.cycles).value
        estimate = self._estimate_cycles(instr, work_value)
        if self._supply.would_trip(self._costs.energy(estimate)):
            self._power_failure()
            return

        self._run_detector_checks(instr.uid)

        cycles = self._execute(instr, work_value)
        self.tau += cycles
        self.stats.cycles_on += cycles
        self.stats.instructions += 1

        if self._done:
            return
        if self._supply.consume(self._costs.energy(cycles)):
            self._power_failure()

    def _estimate_cycles(
        self, instr: ir.Instr, work_value: Optional[int] = None
    ) -> int:
        """Upper-ish estimate of the cycles ``instr`` is about to cost.

        ``work`` amounts are pure expressions, so :meth:`step` evaluates
        them once ahead of execution and passes the value in; region
        entries estimate their volatile save plus undo log from the
        current stack and the static omega set.
        """
        if isinstance(instr, ir.WorkInstr):
            return self._costs.instr_cycles(instr, work_value=work_value or 0)
        if isinstance(instr, ir.AtomicStart) and self._atom_ctx is None:
            omega_words = 0
            for name in instr.omega:
                if name in self.nv.arrays:
                    omega_words += len(self.nv.arrays[name])
                else:
                    omega_words += 1
            return self._costs.region_entry_cycles(
                stack_words(self._frames), omega_words
            )
        return self._costs.instr_cycles(instr)

    # -- detector ---------------------------------------------------------------------

    def _current_chain(self, uid: ir.InstrId) -> Chain:
        """The provenance chain of the instruction about to execute."""
        sites = tuple(
            frame.call_uid
            for frame in self._frames[1:]
            if frame.call_uid is not None
        )
        return Chain(ids=sites + (uid,))

    def _run_detector_checks(self, uid: ir.InstrId) -> None:
        if uid not in self._plan.trigger_uids:
            return
        actions = self._actions.get(self._current_chain(uid))
        if actions is not None:
            self._run_site_actions(uid, actions)

    # -- expression evaluation -----------------------------------------------------------

    def _read_var(self, frame: Frame, name: str) -> TVal:
        if name in frame.locals:
            return self._deref(frame.locals[name])
        if name in self.nv.globals:
            return self.nv.globals[name]
        raise ExecError(f"read of unbound variable '{name}' in {frame.func}")

    def eval(self, expr: lang_ast.Expr) -> TVal:
        frame = self._current_frame()
        return self._eval_in(frame, expr)

    def _eval_in(self, frame: Frame, expr: lang_ast.Expr) -> TVal:
        if isinstance(expr, lang_ast.IntLit):
            return TVal.of(expr.value)
        if isinstance(expr, lang_ast.BoolLit):
            return TVal.of(expr.value)
        if isinstance(expr, lang_ast.Var):
            return self._read_var(frame, expr.name)
        if isinstance(expr, lang_ast.Index):
            index = self._eval_in(frame, expr.index)
            try:
                array = self.nv.arrays[expr.array]
            except KeyError:
                raise ExecError(f"unknown array '{expr.array}'") from None
            if not 0 <= index.value < len(array):
                raise ExecError(
                    f"index {index.value} out of bounds for "
                    f"{expr.array}[{len(array)}]"
                )
            element = array[index.value]
            return TVal(element.value, merge_taint(element.taint, index.taint))
        if isinstance(expr, lang_ast.Unary):
            operand = self._eval_in(frame, expr.operand)
            if expr.op == "-":
                return TVal(-operand.value, operand.taint)
            if expr.op == "!":
                return TVal(int(not operand.value), operand.taint)
            raise ExecError(f"unknown unary operator {expr.op}")
        if isinstance(expr, lang_ast.Binary):
            lhs = self._eval_in(frame, expr.lhs)
            rhs = self._eval_in(frame, expr.rhs)
            value = _binop(expr.op, lhs.value, rhs.value)
            return TVal(value, merge_taint(lhs.taint, rhs.taint))
        if isinstance(expr, lang_ast.Call):
            args = [self._eval_in(frame, a) for a in expr.args]
            taint = merge_taint(*(a.taint for a in args))
            if expr.func == "abs":
                return TVal(abs(args[0].value), taint)
            if expr.func == "min":
                return TVal(min(args[0].value, args[1].value), taint)
            if expr.func == "max":
                return TVal(max(args[0].value, args[1].value), taint)
            raise ExecError(f"cannot evaluate call to '{expr.func}' in expression")
        raise ExecError(f"cannot evaluate {type(expr).__name__}")

    # -- instruction execution ------------------------------------------------------------

    def _execute(self, instr: ir.Instr, work_value: Optional[int] = None) -> int:
        """Execute ``instr``; return its cycle cost.

        ``work_value`` is the pre-evaluated ``work`` amount from
        :meth:`step` (the cycle expression is pure, so evaluating it once
        for the energy estimate suffices).
        """
        frame = self._current_frame()
        cycles = self._costs.instr_cycles(instr)

        if isinstance(instr, ir.Terminator):
            return self._execute_terminator(frame, instr, cycles)

        frame.idx += 1  # advance first so snapshots point past this instr

        if isinstance(instr, ir.Assign):
            value = self.eval(instr.expr)
            if instr.scope == ir.SCOPE_GLOBAL:
                self._write_global(instr.dest, value)
            else:
                self._write_local(frame, instr.dest, value)
        elif isinstance(instr, ir.InputInstr):
            raw = self._env.read(instr.channel, self.tau)
            frame.locals[instr.dest] = TVal(
                raw,
                frozenset({InputEvent(instr.uid, instr.channel, self.tau)})
                if self._config.emit_observations
                else site_taint(instr.uid, instr.channel),
            )
            if instr.uid in self._bit_uids:
                self.nv.bits.set(self._current_chain(instr.uid))
            if self._config.emit_observations:
                self.trace.emit(
                    obs.InputObs(
                        tau=self.tau, uid=instr.uid, channel=instr.channel, value=raw
                    )
                )
        elif isinstance(instr, ir.CallInstr):
            self._exec_call(frame, instr)
        elif isinstance(instr, ir.StoreRefInstr):
            value = self.eval(instr.expr)
            cell = frame.locals.get(instr.param)
            if not isinstance(cell, RefValue):
                raise ExecError(f"*{instr.param} is not a reference")
            self._frames[cell.depth].locals[cell.name] = value
        elif isinstance(instr, ir.StoreArr):
            index = self.eval(instr.index)
            value = self.eval(instr.expr)
            array = self.nv.arrays.get(instr.array)
            if array is None:
                raise ExecError(f"unknown array '{instr.array}'")
            if not 0 <= index.value < len(array):
                raise ExecError(
                    f"index {index.value} out of bounds for "
                    f"{instr.array}[{len(array)}]"
                )
            self._assert_logged(instr.array)
            array[index.value] = TVal(
                value.value, merge_taint(value.taint, index.taint)
            )
        elif isinstance(instr, ir.AnnotInstr):
            self._exec_annot(frame, instr)
        elif isinstance(instr, ir.AtomicStart):
            cycles += self._exec_atomic_start(instr)
        elif isinstance(instr, ir.AtomicEnd):
            cycles += self._exec_atomic_end(instr)
        elif isinstance(instr, ir.OutputInstr):
            values = tuple(self.eval(a).value for a in instr.args)
            if self._config.emit_observations:
                self.trace.emit(
                    obs.OutputObs(
                        tau=self.tau, uid=instr.uid, op=instr.op, values=values
                    )
                )
        elif isinstance(instr, ir.WorkInstr):
            amount = (
                work_value
                if work_value is not None
                else self.eval(instr.cycles).value
            )
            cycles = self._costs.instr_cycles(instr, work_value=amount)
        elif isinstance(instr, ir.SkipInstr):
            pass
        else:
            raise ExecError(f"cannot execute {type(instr).__name__}")
        return cycles

    def _execute_terminator(
        self, frame: Frame, instr: ir.Terminator, cycles: int
    ) -> int:
        if isinstance(instr, ir.Jump):
            frame.block = instr.target
            frame.idx = 0
        elif isinstance(instr, ir.Branch):
            cond = self.eval(instr.cond)
            frame.block = instr.true_target if cond.as_bool else instr.false_target
            frame.idx = 0
        elif isinstance(instr, ir.RetInstr):
            value = self.eval(instr.expr) if instr.expr is not None else None
            self._frames.pop()
            if not self._frames:
                self._done = True
                self._ret_value = value
            elif frame.ret_dest is not None:
                if value is None:
                    value = TVal.of(0)
                self._frames[-1].locals[frame.ret_dest] = value
        else:
            raise ExecError(f"unknown terminator {type(instr).__name__}")
        return cycles

    def _exec_call(self, frame: Frame, instr: ir.CallInstr) -> None:
        callee = self._module.function(instr.func)
        locals_: dict[str, Cell] = {}
        depth = len(self._frames) - 1  # caller's index in the stack
        for param, arg in zip(callee.params, instr.args, strict=True):
            if isinstance(arg, ir.RefArg):
                cell = frame.locals.get(arg.name)
                locals_[param.name] = (
                    cell  # forward the reference
                    if isinstance(cell, RefValue)
                    else RefValue(depth=depth, name=arg.name)
                )
            else:
                locals_[param.name] = self.eval(arg)
        self._frames.append(
            Frame(
                func=callee.name,
                block=callee.entry,
                idx=0,
                locals=locals_,
                ret_dest=instr.dest,
                call_uid=instr.uid,
            )
        )

    def _exec_annot(self, frame: Frame, instr: ir.AnnotInstr) -> None:
        value = self._read_var(frame, instr.var)
        if not self._config.emit_observations:
            return
        if instr.kind == lang_ast.AnnotKind.FRESH:
            self.trace.emit(
                obs.FreshDeclObs(
                    tau=self.tau,
                    uid=instr.uid,
                    pid=fresh_pid(instr.uid),
                    inputs=value.taint,
                )
            )
        else:
            assert instr.set_id is not None
            self.trace.emit(
                obs.ConsistentDeclObs(
                    tau=self.tau,
                    uid=instr.uid,
                    pid=consistent_pid(instr.set_id),
                    set_id=instr.set_id,
                    inputs=value.taint,
                )
            )

    # -- atomic regions ----------------------------------------------------------------------

    def _exec_atomic_start(self, instr: ir.AtomicStart) -> int:
        if self._atom_ctx is not None:
            # Atom-Start-Inner: nested/overlapping start is bookkeeping only.
            self._atom_ctx.natom += 1
            return self._costs.region_inner
        undo_globals = {
            name: self.nv.globals[name]
            for name in instr.omega
            if name in self.nv.globals
        }
        undo_arrays = {
            name: list(self.nv.arrays[name])
            for name in instr.omega
            if name in self.nv.arrays
        }
        self._atom_ctx = AtomContext(
            region=instr.region,
            frames=copy_stack(self._frames),
            undo_globals=undo_globals,
            undo_arrays=undo_arrays,
            omega=instr.omega,
        )
        words = stack_words(self._frames)
        omega_words = len(undo_globals) + sum(
            len(v) for v in undo_arrays.values()
        )
        self.stats.region_entries += 1
        if self._config.emit_observations:
            self.trace.emit(
                obs.RegionEnterObs(tau=self.tau, uid=instr.uid, region=instr.region)
            )
        return self._costs.region_entry_cycles(words, omega_words)

    def _exec_atomic_end(self, instr: ir.AtomicEnd) -> int:
        ctx = self._atom_ctx
        if ctx is None:
            return 0  # stray end outside any region: no-op (flattening)
        if ctx.natom > 0:
            # Atom-End-Inner.
            ctx.natom -= 1
            return self._costs.region_inner
        # Atom-End-Outer: commit; effects become visible.
        self._atom_ctx = None
        self.stats.region_commits += 1
        if self._config.emit_observations:
            self.trace.emit(
                obs.RegionExitObs(tau=self.tau, uid=instr.uid, region=ctx.region)
            )
        return self._costs.region_commit

    # -- nonvolatile writes ----------------------------------------------------------------------

    def _write_local(self, frame: Frame, name: str, value: TVal) -> None:
        cell = frame.locals.get(name)
        if isinstance(cell, RefValue):
            raise ExecError(f"assignment to reference parameter '{name}'")
        frame.locals[name] = value


def _trunc_div(lhs: int, rhs: int) -> int:
    """C-style truncating division; division by zero yields 0 (MCU guard)."""
    if rhs == 0:
        return 0
    quotient = abs(lhs) // abs(rhs)
    return quotient if (lhs < 0) == (rhs < 0) else -quotient


def _binop(op: str, lhs: int, rhs: int) -> int:
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        return _trunc_div(lhs, rhs)
    if op == "%":
        return 0 if rhs == 0 else lhs - rhs * _trunc_div(lhs, rhs)
    if op == "<":
        return int(lhs < rhs)
    if op == "<=":
        return int(lhs <= rhs)
    if op == ">":
        return int(lhs > rhs)
    if op == ">=":
        return int(lhs >= rhs)
    if op == "==":
        return int(lhs == rhs)
    if op == "!=":
        return int(lhs != rhs)
    if op == "&&":
        return int(bool(lhs) and bool(rhs))
    if op == "||":
        return int(bool(lhs) or bool(rhs))
    raise ExecError(f"unknown operator '{op}'")
