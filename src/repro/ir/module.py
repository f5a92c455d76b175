"""IR containers: basic blocks, functions, modules.

A :class:`Module` is the unit the analyses and the runtime operate on.  It
carries the lowered functions plus the nonvolatile data layout and sensor
channels copied from the source program.

Label discipline: labels are assigned once, monotonically, per function.
Instrumentation passes that insert instructions (atomic region markers)
request *fresh* labels -- existing labels are never renumbered, so policy
references held by the analyses stay valid across instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.ir import instructions as ir
from repro.lang import ast as lang_ast


class IRError(Exception):
    """Raised for malformed IR (missing blocks, bad labels, ...)."""


@dataclass
class BasicBlock:
    """A straight-line run of instructions plus one terminator."""

    name: str
    instrs: list[ir.Instr] = field(default_factory=list)
    terminator: Optional[ir.Terminator] = None

    def successors(self) -> list[str]:
        if self.terminator is None:
            return []
        return self.terminator.successors()

    def all_instrs(self) -> Iterator[ir.Instr]:
        """Instructions in execution order, terminator last."""
        yield from self.instrs
        if self.terminator is not None:
            yield self.terminator


@dataclass
class IRFunction:
    name: str
    params: list[lang_ast.Param]
    blocks: dict[str, BasicBlock] = field(default_factory=dict)
    entry: str = "entry"
    exit: str = "exit"
    #: Names bound locally (params, lets, compiler temps); a read of a name
    #: not in this set resolves to nonvolatile global memory.
    locals: set[str] = field(default_factory=set)
    _next_label: int = 0

    # -- construction ---------------------------------------------------------

    def new_block(self, hint: str = "bb") -> BasicBlock:
        name = hint if hint not in self.blocks else f"{hint}{len(self.blocks)}"
        index = 0
        while name in self.blocks:
            index += 1
            name = f"{hint}{len(self.blocks)}_{index}"
        block = BasicBlock(name=name)
        self.blocks[name] = block
        return block

    def fresh_label(self) -> int:
        self._next_label += 1
        return self._next_label

    def stamp(self, instr: ir.Instr) -> ir.Instr:
        """Give ``instr`` a fresh uid in this function."""
        instr.uid = ir.InstrId(self.name, self.fresh_label())
        return instr

    # -- queries ----------------------------------------------------------------

    def block(self, name: str) -> BasicBlock:
        try:
            return self.blocks[name]
        except KeyError:
            raise IRError(f"no block '{name}' in function '{self.name}'") from None

    def all_instrs(self) -> Iterator[ir.Instr]:
        for block in self.blocks.values():
            yield from block.all_instrs()

    def instr_by_label(self, label: int) -> ir.Instr:
        for instr in self.all_instrs():
            if instr.uid.label == label:
                return instr
        raise IRError(f"no instruction labeled {label} in '{self.name}'")

    def block_of(self, uid: ir.InstrId) -> str:
        """Name of the block containing the instruction ``uid``."""
        if uid.func != self.name:
            raise IRError(f"{uid} does not belong to function '{self.name}'")
        for block in self.blocks.values():
            for instr in block.all_instrs():
                if instr.uid == uid:
                    return block.name
        raise IRError(f"instruction {uid} not found in '{self.name}'")

    def position_of(self, uid: ir.InstrId) -> tuple[str, int]:
        """``(block, index)`` of a non-terminator instruction ``uid``.

        Terminators report index ``len(instrs)`` (one past the body).
        """
        for block in self.blocks.values():
            for idx, instr in enumerate(block.instrs):
                if instr.uid == uid:
                    return block.name, idx
            if block.terminator is not None and block.terminator.uid == uid:
                return block.name, len(block.instrs)
        raise IRError(f"instruction {uid} not found in '{self.name}'")

    def predecessors(self) -> dict[str, list[str]]:
        preds: dict[str, list[str]] = {name: [] for name in self.blocks}
        for block in self.blocks.values():
            for succ in block.successors():
                preds[succ].append(block.name)
        return preds

    @property
    def by_ref_params(self) -> set[str]:
        return {p.name for p in self.params if p.by_ref}


@dataclass
class Module:
    """A lowered program: IR functions plus data layout and channels."""

    functions: dict[str, IRFunction]
    globals: dict[str, int] = field(default_factory=dict)
    arrays: dict[str, list[int]] = field(default_factory=dict)
    channels: list[str] = field(default_factory=list)
    entry: str = "main"
    _region_counter: int = 0

    def fresh_region(self, prefix: str = "r") -> str:
        """Allocate a module-unique atomic region id (``aID`` in the paper)."""
        self._region_counter += 1
        return f"{prefix}{self._region_counter}"

    def function(self, name: str) -> IRFunction:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function '{name}' in module") from None

    def instr(self, uid: ir.InstrId) -> ir.Instr:
        return self.function(uid.func).instr_by_label(uid.label)

    def all_instrs(self) -> Iterator[ir.Instr]:
        for func in self.functions.values():
            yield from func.all_instrs()

    def input_instrs(self) -> list[ir.InputInstr]:
        return [i for i in self.all_instrs() if isinstance(i, ir.InputInstr)]

    def annot_instrs(self) -> list[ir.AnnotInstr]:
        return [i for i in self.all_instrs() if isinstance(i, ir.AnnotInstr)]
