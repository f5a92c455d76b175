"""IR well-formedness verifier.

Run after lowering and after every instrumentation pass; catches the usual
compiler-bug classes early: dangling block references, missing terminators,
duplicate labels, unbalanced atomic brackets along acyclic paths, and
stores through undeclared references.
"""

from __future__ import annotations

from repro.ir import instructions as ir
from repro.ir.module import IRError, IRFunction, Module


def verify_function(func: IRFunction, module: Module) -> None:
    if func.entry not in func.blocks:
        raise IRError(f"{func.name}: entry block '{func.entry}' missing")
    if func.exit not in func.blocks:
        raise IRError(f"{func.name}: exit block '{func.exit}' missing")

    seen_labels: set[int] = set()
    for name, block in func.blocks.items():
        if block.terminator is None:
            raise IRError(f"{func.name}/{name}: block has no terminator")
        for succ in block.successors():
            if succ not in func.blocks:
                raise IRError(f"{func.name}/{name}: dangling successor '{succ}'")
        for instr in block.all_instrs():
            if instr.uid.func != func.name:
                raise IRError(
                    f"{func.name}/{name}: instruction {instr.uid} has foreign uid"
                )
            if instr.uid.label in seen_labels:
                raise IRError(
                    f"{func.name}/{name}: duplicate label {instr.uid.label}"
                )
            seen_labels.add(instr.uid.label)
        for instr in block.instrs:
            if isinstance(instr, ir.Terminator):
                raise IRError(
                    f"{func.name}/{name}: terminator {instr.uid} in block body"
                )
            _verify_instr(func, module, instr)

    exit_block = func.blocks[func.exit]
    if not isinstance(exit_block.terminator, ir.RetInstr):
        raise IRError(f"{func.name}: exit block does not end in ret")
    for name, block in func.blocks.items():
        if isinstance(block.terminator, ir.RetInstr) and name != func.exit:
            raise IRError(f"{func.name}/{name}: ret outside the exit landing pad")


def _verify_instr(func: IRFunction, module: Module, instr: ir.Instr) -> None:
    if isinstance(instr, ir.Assign):
        if instr.scope == ir.SCOPE_GLOBAL and instr.dest not in module.globals:
            raise IRError(f"{instr.uid}: global store to undeclared '{instr.dest}'")
        if instr.scope == ir.SCOPE_LOCAL and instr.dest not in func.locals:
            raise IRError(f"{instr.uid}: local store to undeclared '{instr.dest}'")
    elif isinstance(instr, ir.StoreRefInstr):
        if instr.param not in func.by_ref_params:
            raise IRError(
                f"{instr.uid}: store through non-reference parameter '{instr.param}'"
            )
    elif isinstance(instr, ir.StoreArr):
        if instr.array not in module.arrays:
            raise IRError(f"{instr.uid}: store to undeclared array '{instr.array}'")
    elif isinstance(instr, ir.InputInstr):
        if instr.channel not in module.channels:
            raise IRError(f"{instr.uid}: input from undeclared channel")
    elif isinstance(instr, ir.CallInstr):
        if instr.func not in module.functions:
            raise IRError(f"{instr.uid}: call to unknown function '{instr.func}'")
        callee = module.functions[instr.func]
        if len(instr.args) != len(callee.params):
            raise IRError(f"{instr.uid}: arity mismatch calling '{instr.func}'")
        for arg, param in zip(instr.args, callee.params, strict=True):
            if isinstance(arg, ir.RefArg) != param.by_ref:
                raise IRError(
                    f"{instr.uid}: reference/value mismatch on parameter "
                    f"'{param.name}' of '{instr.func}'"
                )


def _check_bracket_balance(func: IRFunction) -> None:
    """Atomic start/end must balance along every acyclic path from entry.

    Depth is tracked per block; joining paths must agree on depth, which
    holds for lowering- and inference-produced regions (region bounds are
    placed at dominator/post-dominator points).  The exit depth is the
    depth at ``ret``, after the exit block's own instructions: inference
    may end a region there, just before ``ret``.
    """
    depth_at: dict[str, int] = {func.entry: 0}
    order = [func.entry]
    seen = {func.entry}
    exit_depth = 0
    idx = 0
    while idx < len(order):
        name = order[idx]
        idx += 1
        depth = depth_at[name]
        block = func.blocks[name]
        for instr in block.instrs:
            if isinstance(instr, ir.AtomicStart):
                depth += 1
            elif isinstance(instr, ir.AtomicEnd):
                depth -= 1
                if depth < 0:
                    raise IRError(
                        f"{func.name}/{name}: atomic_end without matching start"
                    )
        if name == func.exit:
            exit_depth = depth
        for succ in block.successors():
            if succ not in depth_at:
                depth_at[succ] = depth
                if succ not in seen:
                    seen.add(succ)
                    order.append(succ)
            elif depth_at[succ] != depth:
                raise IRError(
                    f"{func.name}: inconsistent atomic depth at join '{succ}' "
                    f"({depth_at[succ]} vs {depth})"
                )
    if exit_depth != 0:
        raise IRError(f"{func.name}: function exits with open atomic region")


def verify_module(module: Module, check_brackets: bool = True) -> None:
    """Verify every function; optionally check atomic bracket balance."""
    if module.entry not in module.functions:
        raise IRError(f"module entry '{module.entry}' missing")
    for func in module.functions.values():
        verify_function(func, module)
        if check_brackets:
            _check_bracket_balance(func)
