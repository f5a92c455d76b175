"""Lowering: labeled AST -> CFG-based IR.

The pass performs, per function:

* **Impure-expression flattening.**  Calls and input operations nested in
  expressions are hoisted into compiler temporaries (``%tN``) so that every
  call site and every input operation is a distinct, labeled instruction --
  the unit of provenance the analyses need.
* **Structured control flow to CFG.**  ``if`` becomes a two-way branch with
  a join block; ``repeat n`` becomes a counted loop (hidden counter
  ``%repN``); ``return`` stores to ``%ret`` and jumps to the unified exit
  block.  The single exit block post-dominates every path -- the paper
  relies on exactly this "return landing-pad" property for its
  post-dominator queries (Section 6.2).
* **Annotations.**  Binding annotations (``let fresh x = e``) lower to the
  definition of ``x`` followed by an :class:`~repro.ir.instructions.AnnotInstr`;
  statement annotations (``Fresh(x);``) lower to the same instruction.
* **Manual atomic regions.** ``atomic { ... }`` brackets its lowered body
  with ``AtomicStart`` / ``AtomicEnd``.  A ``return`` inside open regions
  emits the pending ``AtomicEnd``s first so the static bracket structure
  stays balanced on every path.
* **UART guards** (optional, on by default to match Section 7.2): each
  output operation (``log`` / ``send`` / ``alarm``) is wrapped in a tiny
  atomic region with ``origin="uart"``, the constant-overhead guard the
  paper applies to all configurations.

Unreachable blocks created by early returns are pruned at the end, so the
dominator analyses see only reachable CFG.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir import instructions as ir
from repro.ir.module import BasicBlock, IRFunction, Module
from repro.lang import ast
from repro.lang.errors import SemanticError
from repro.lang.validate import ProgramInfo, validate_program

RET_SLOT = "%ret"


@dataclass
class LoweringOptions:
    """Knobs for the lowering pass.

    ``guard_outputs`` wraps every output instruction in a small ``uart``
    atomic region (Section 7.2: "calls to the UART were guarded by a small
    atomic region, generating a constant overhead for all configurations").
    ``keep_manual_atomics`` set to False strips programmer regions, which
    the JIT-only baseline uses.
    ``unroll_loops`` replicates ``repeat`` bodies at compile time, the
    paper's treatment of bounded loops ("bound loops can be unrolled to if
    statements", Section 4.1).  Unrolling is semantically load-bearing: a
    consistent set sampled in a loop needs one static input operation per
    dynamic sample for a single region to cover the whole set.  Disabling
    it produces genuine CFG loops (useful for dominator-analysis tests).
    """

    guard_outputs: bool = True
    keep_manual_atomics: bool = True
    unroll_loops: bool = True


class _FunctionLowerer:
    def __init__(
        self,
        module: Module,
        program: ast.Program,
        func: ast.FuncDecl,
        info: ProgramInfo,
        options: LoweringOptions,
    ):
        self._module = module
        self._program = program
        self._source = func
        self._options = options
        self._ir = IRFunction(name=func.name, params=list(func.params))
        self._ir.locals.update(p.name for p in func.params)
        self._temp_counter = 0
        self._repeat_counter = 0
        self._open_regions: list[str] = []
        self._has_ret_value = info.functions[func.name].has_return_value

        entry = self._ir.new_block("entry")
        self._ir.entry = entry.name
        exit_block = self._ir.new_block("exit")
        self._ir.exit = exit_block.name
        ret_expr = ast.Var(name=RET_SLOT) if self._has_ret_value else None
        exit_block.terminator = self._ir.stamp(ir.RetInstr(expr=ret_expr))
        self._current: BasicBlock | None = entry

    # -- emission helpers -------------------------------------------------------

    def _emit(self, instr: ir.Instr, span=None) -> ir.Instr:
        if self._current is None:
            # Dead code after a return; create an unreachable block so the
            # lowering stays simple, pruned later.
            self._current = self._ir.new_block("dead")
        if span is not None:
            instr.span = span
        self._ir.stamp(instr)
        self._current.instrs.append(instr)
        return instr

    def _terminate(self, term: ir.Terminator, span=None) -> None:
        if self._current is None:
            self._current = self._ir.new_block("dead")
        if span is not None:
            term.span = span
        self._ir.stamp(term)
        self._current.terminator = term
        self._current = None

    def _fresh_temp(self) -> str:
        self._temp_counter += 1
        name = f"%t{self._temp_counter}"
        self._ir.locals.add(name)
        return name

    # -- expressions -------------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> ast.Expr:
        """Return a pure expression, hoisting calls and inputs into temps."""
        if isinstance(expr, (ast.IntLit, ast.BoolLit, ast.Var, ast.Ref)):
            return expr
        if isinstance(expr, ast.Input):
            temp = self._fresh_temp()
            self._emit(
                ir.InputInstr(dest=temp, channel=expr.channel), span=expr.span
            )
            return ast.Var(name=temp, span=expr.span)
        if isinstance(expr, ast.Index):
            index = self._lower_expr(expr.index)
            return ast.Index(array=expr.array, index=index, span=expr.span)
        if isinstance(expr, ast.Unary):
            return ast.Unary(
                op=expr.op, operand=self._lower_expr(expr.operand), span=expr.span
            )
        if isinstance(expr, ast.Binary):
            lhs = self._lower_expr(expr.lhs)
            rhs = self._lower_expr(expr.rhs)
            return ast.Binary(op=expr.op, lhs=lhs, rhs=rhs, span=expr.span)
        if isinstance(expr, ast.Call):
            if expr.func in ast.PURE_BUILTINS:
                args = [self._lower_expr(a) for a in expr.args]
                return ast.Call(func=expr.func, args=args, span=expr.span)
            if expr.func in ast.EFFECT_BUILTINS:
                raise SemanticError(
                    f"'{expr.func}' produces no value and cannot be used in an "
                    "expression",
                    expr.span,
                )
            temp = self._fresh_temp()
            self._emit_call(dest=temp, call=expr)
            return ast.Var(name=temp, span=expr.span)
        raise SemanticError(f"cannot lower expression {type(expr).__name__}", expr.span)

    def _emit_call(self, dest: str | None, call: ast.Call) -> None:
        args: list[ir.Operand] = []
        for arg in call.args:
            if isinstance(arg, ast.Ref):
                args.append(ir.RefArg(name=arg.name))
            else:
                args.append(self._lower_expr(arg))
        self._emit(ir.CallInstr(dest=dest, func=call.func, args=args), span=call.span)

    # -- statements ---------------------------------------------------------------

    def _lower_body(self, body: list[ast.Stmt]) -> None:
        for stmt in body:
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Let):
            value = self._lower_expr(stmt.expr)
            self._ir.locals.add(stmt.name)
            self._emit(
                ir.Assign(dest=stmt.name, expr=value, scope=ir.SCOPE_LOCAL),
                span=stmt.span,
            )
            if stmt.annot is not None:
                self._emit(
                    ir.AnnotInstr(kind=stmt.annot, var=stmt.name, set_id=stmt.set_id),
                    span=stmt.span,
                )
        elif isinstance(stmt, ast.Assign):
            value = self._lower_expr(stmt.expr)
            scope = (
                ir.SCOPE_LOCAL if stmt.name in self._ir.locals else ir.SCOPE_GLOBAL
            )
            self._emit(
                ir.Assign(dest=stmt.name, expr=value, scope=scope), span=stmt.span
            )
        elif isinstance(stmt, ast.StoreRef):
            value = self._lower_expr(stmt.expr)
            self._emit(ir.StoreRefInstr(param=stmt.name, expr=value), span=stmt.span)
        elif isinstance(stmt, ast.StoreIndex):
            index = self._lower_expr(stmt.index)
            value = self._lower_expr(stmt.expr)
            self._emit(
                ir.StoreArr(array=stmt.array, index=index, expr=value), span=stmt.span
            )
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.Repeat):
            self._lower_repeat(stmt)
        elif isinstance(stmt, ast.Atomic):
            self._lower_atomic(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr_stmt(stmt)
        elif isinstance(stmt, ast.AnnotStmt):
            if stmt.kind == ast.AnnotKind.FRESHCON:
                # FreshConsistent(x, n) is one source line declaring both
                # constraints (Figure 9); split into the two primitives.
                self._emit(
                    ir.AnnotInstr(kind=ast.AnnotKind.FRESH, var=stmt.var),
                    span=stmt.span,
                )
                self._emit(
                    ir.AnnotInstr(
                        kind=ast.AnnotKind.CONSISTENT,
                        var=stmt.var,
                        set_id=stmt.set_id,
                    ),
                    span=stmt.span,
                )
            else:
                self._emit(
                    ir.AnnotInstr(kind=stmt.kind, var=stmt.var, set_id=stmt.set_id),
                    span=stmt.span,
                )
        elif isinstance(stmt, ast.Skip):
            self._emit(ir.SkipInstr(), span=stmt.span)
        else:
            raise SemanticError(
                f"cannot lower statement {type(stmt).__name__}", stmt.span
            )

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._lower_expr(stmt.cond)
        then_block = self._ir.new_block("then")
        else_block = self._ir.new_block("else") if stmt.else_body else None
        join_block = self._ir.new_block("join")
        false_target = else_block.name if else_block else join_block.name
        self._terminate(
            ir.Branch(cond=cond, true_target=then_block.name, false_target=false_target),
            span=stmt.span,
        )

        self._current = then_block
        self._lower_body(stmt.then_body)
        if self._current is not None:
            self._terminate(ir.Jump(target=join_block.name))

        if else_block is not None:
            self._current = else_block
            self._lower_body(stmt.else_body)
            if self._current is not None:
                self._terminate(ir.Jump(target=join_block.name))

        self._current = join_block

    def _lower_repeat(self, stmt: ast.Repeat) -> None:
        if self._options.unroll_loops:
            for _ in range(stmt.count):
                self._lower_body(stmt.body)
            return
        self._repeat_counter += 1
        counter = f"%rep{self._repeat_counter}"
        self._ir.locals.add(counter)
        self._emit(ir.Assign(dest=counter, expr=ast.IntLit(value=0)), span=stmt.span)

        header = self._ir.new_block("loop_head")
        body = self._ir.new_block("loop_body")
        after = self._ir.new_block("loop_exit")
        self._terminate(ir.Jump(target=header.name), span=stmt.span)

        self._current = header
        cond = ast.Binary(
            op="<", lhs=ast.Var(name=counter), rhs=ast.IntLit(value=stmt.count)
        )
        self._terminate(
            ir.Branch(cond=cond, true_target=body.name, false_target=after.name),
            span=stmt.span,
        )

        self._current = body
        self._lower_body(stmt.body)
        if self._current is not None:
            self._emit(
                ir.Assign(
                    dest=counter,
                    expr=ast.Binary(
                        op="+", lhs=ast.Var(name=counter), rhs=ast.IntLit(value=1)
                    ),
                )
            )
            self._terminate(ir.Jump(target=header.name))

        self._current = after

    def _lower_atomic(self, stmt: ast.Atomic) -> None:
        if not self._options.keep_manual_atomics:
            self._lower_body(stmt.body)
            return
        region = self._module.fresh_region("m")
        self._emit(ir.AtomicStart(region=region, origin="manual"), span=stmt.span)
        self._open_regions.append(region)
        self._lower_body(stmt.body)
        self._open_regions.pop()
        self._emit(ir.AtomicEnd(region=region, origin="manual"), span=stmt.span)

    def _lower_return(self, stmt: ast.Return) -> None:
        if stmt.expr is not None:
            value = self._lower_expr(stmt.expr)
            self._emit(
                ir.Assign(dest=RET_SLOT, expr=value, scope=ir.SCOPE_LOCAL),
                span=stmt.span,
            )
        for region in reversed(self._open_regions):
            self._emit(ir.AtomicEnd(region=region, origin="manual"), span=stmt.span)
        self._terminate(ir.Jump(target=self._ir.exit), span=stmt.span)

    def _lower_expr_stmt(self, stmt: ast.ExprStmt) -> None:
        expr = stmt.expr
        if isinstance(expr, ast.Call) and expr.func in ast.OUTPUT_BUILTINS:
            args = [self._lower_expr(a) for a in expr.args]
            if self._options.guard_outputs:
                region = self._module.fresh_region("u")
                self._emit(
                    ir.AtomicStart(region=region, origin="uart"), span=stmt.span
                )
                self._emit(ir.OutputInstr(op=expr.func, args=args), span=stmt.span)
                self._emit(ir.AtomicEnd(region=region, origin="uart"), span=stmt.span)
            else:
                self._emit(ir.OutputInstr(op=expr.func, args=args), span=stmt.span)
            return
        if isinstance(expr, ast.Call) and expr.func == "work":
            cycles = self._lower_expr(expr.args[0])
            self._emit(ir.WorkInstr(cycles=cycles), span=stmt.span)
            return
        if isinstance(expr, ast.Call) and expr.func not in ast.BUILTINS:
            self._emit_call(dest=None, call=expr)
            return
        # A pure expression in statement position: evaluate for nested
        # effects (already hoisted) and discard the rest.
        self._lower_expr(expr)

    # -- driver ---------------------------------------------------------------------

    def run(self) -> IRFunction:
        if self._has_ret_value:
            self._ir.locals.add(RET_SLOT)
            self._emit(ir.Assign(dest=RET_SLOT, expr=ast.IntLit(value=0)))
        self._lower_body(self._source.body)
        if self._current is not None:
            self._terminate(ir.Jump(target=self._ir.exit))
        _prune_unreachable(self._ir)
        return self._ir


def _prune_unreachable(func: IRFunction) -> None:
    reachable: set[str] = set()
    stack = [func.entry]
    while stack:
        name = stack.pop()
        if name in reachable:
            continue
        reachable.add(name)
        stack.extend(func.blocks[name].successors())
    reachable.add(func.exit)  # the landing pad always stays
    func.blocks = {
        name: block for name, block in func.blocks.items() if name in reachable
    }


def lower_program(
    program: ast.Program,
    options: LoweringOptions | None = None,
    info: ProgramInfo | None = None,
) -> Module:
    """Lower a validated program to an IR :class:`Module`.

    Validation runs automatically when ``info`` is not supplied.
    """
    options = options or LoweringOptions()
    if info is None:
        info = validate_program(program)
    module = Module(
        functions={},
        globals={name: decl.init for name, decl in program.globals.items()},
        arrays={name: decl.initial_values() for name, decl in program.arrays.items()},
        channels=list(program.channels),
    )
    for func in program.functions.values():
        module.functions[func.name] = _FunctionLowerer(
            module, program, func, info, options
        ).run()
    return module
