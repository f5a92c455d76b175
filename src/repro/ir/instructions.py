"""IR instruction set.

The IR mirrors what Ocelot sees in LLVM: functions of basic blocks, where
each instruction has a unique ``(function, label)`` identity -- the
:class:`InstrId` -- used for provenance chains, policies, and region
placement, exactly as in Figure 5 of the paper.

Design notes:

* The IR is register-based but *not* SSA: locals are named slots.  Pure
  operator expressions stay as trees inside instructions (the analyses only
  care about calls, inputs, and definitions, which are always distinct
  instructions after lowering).
* Impure expressions (calls, inputs) are flattened into temporaries by the
  lowering pass so that every input operation and call site is an
  addressable instruction.
* ``AtomicStart`` / ``AtomicEnd`` are ordinary (non-terminator)
  instructions so that region inference can place them mid-block
  (Algorithm 1's ``truncate`` step works at instruction granularity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.lang import ast as lang_ast
from repro.lang.errors import SourceSpan


@dataclass(frozen=True, order=True)
class InstrId:
    """The paper's ``(f, l)`` pair: function name and instruction label."""

    func: str
    label: int

    def __post_init__(self) -> None:
        # Hashed on every detector query and memo probe, so computed once.
        # ``str`` hashes differ between processes, so the cached value is
        # never pickled (see ``__reduce__``).
        object.__setattr__(self, "_hash", hash((self.func, self.label)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]  # set in __post_init__

    def __reduce__(self) -> tuple[type[InstrId], tuple[str, int]]:
        return (InstrId, (self.func, self.label))

    def __str__(self) -> str:
        return f"({self.func}, {self.label})"


#: Labels not yet assigned by the owning function.
UNASSIGNED = -1


@dataclass
class Instr:
    """Base class for all IR instructions."""

    uid: InstrId = field(default=InstrId("?", UNASSIGNED), kw_only=True)
    span: SourceSpan = field(default_factory=SourceSpan.synthetic, kw_only=True)

    def defined_var(self) -> Optional[str]:
        """Name of the local this instruction defines, if any."""
        return None

    def used_exprs(self) -> list[lang_ast.Expr]:
        """Pure expression trees evaluated by this instruction."""
        return []


# -- operands ----------------------------------------------------------------


@dataclass(frozen=True)
class RefArg:
    """A by-reference call argument ``&name``."""

    name: str

    def __str__(self) -> str:
        return f"&{self.name}"


Operand = Union[lang_ast.Expr, RefArg]


# -- straight-line instructions ------------------------------------------------

#: Scope tags for :class:`Assign` destinations.
SCOPE_LOCAL = "local"
SCOPE_GLOBAL = "global"


@dataclass
class Assign(Instr):
    """``dest := e`` where ``e`` is a pure expression tree.

    ``scope`` records whether ``dest`` is a volatile local or a nonvolatile
    global -- the WAR/EMW analysis and the undo-log runtime key off this.
    """

    dest: str
    expr: lang_ast.Expr
    scope: str = SCOPE_LOCAL

    def defined_var(self) -> Optional[str]:
        return self.dest if self.scope == SCOPE_LOCAL else None

    def used_exprs(self) -> list[lang_ast.Expr]:
        return [self.expr]


@dataclass
class InputInstr(Instr):
    """``dest := IN()`` reading sensor ``channel`` -- the unit of provenance."""

    dest: str
    channel: str

    def defined_var(self) -> Optional[str]:
        return self.dest


@dataclass
class CallInstr(Instr):
    """``dest := f(args)``; ``dest`` is ``None`` for value-discarding calls."""

    dest: Optional[str]
    func: str
    args: list[Operand]

    def defined_var(self) -> Optional[str]:
        return self.dest

    def used_exprs(self) -> list[lang_ast.Expr]:
        return [a for a in self.args if not isinstance(a, RefArg)]

    def ref_args(self) -> list[str]:
        return [a.name for a in self.args if isinstance(a, RefArg)]


@dataclass
class StoreRefInstr(Instr):
    """``*p := e`` -- store through a by-reference parameter."""

    param: str
    expr: lang_ast.Expr

    def used_exprs(self) -> list[lang_ast.Expr]:
        return [self.expr]


@dataclass
class StoreArr(Instr):
    """``a[i] := e`` -- store into a nonvolatile array."""

    array: str
    index: lang_ast.Expr
    expr: lang_ast.Expr

    def used_exprs(self) -> list[lang_ast.Expr]:
        return [self.index, self.expr]


@dataclass
class AnnotInstr(Instr):
    """A timing annotation site: ``Fresh(var)`` or ``Consistent(var, n)``.

    This is the policy *declaration* instruction (the ``decl : (f, l)`` slot
    of Figure 5).  Binding-form annotations (``let fresh x = e``) lower to a
    definition of ``x`` immediately followed by an ``AnnotInstr``.
    """

    kind: str  # lang_ast.AnnotKind.FRESH or .CONSISTENT
    var: str
    set_id: Optional[int] = None


@dataclass
class AtomicStart(Instr):
    """Region start.  ``region`` names the region; ``omega`` is the
    checkpointed nonvolatile set, filled in by the WAR/EMW analysis.

    ``origin`` distinguishes programmer-written regions (``manual``),
    Ocelot-inferred regions (``inferred``), and the small UART guard regions
    around output operations (``uart``, Section 7.2).
    """

    region: str
    origin: str = "manual"
    omega: frozenset[str] = frozenset()


@dataclass
class AtomicEnd(Instr):
    region: str
    origin: str = "manual"


@dataclass
class OutputInstr(Instr):
    """Externally visible output: ``log``, ``alarm``, or ``send``."""

    op: str
    args: list[lang_ast.Expr]

    def used_exprs(self) -> list[lang_ast.Expr]:
        return list(self.args)


@dataclass
class WorkInstr(Instr):
    """``work(n)`` -- burn ``n`` cycles of compute (models processing)."""

    cycles: lang_ast.Expr

    def used_exprs(self) -> list[lang_ast.Expr]:
        return [self.cycles]


@dataclass
class SkipInstr(Instr):
    """The explicit no-op."""


# -- terminators --------------------------------------------------------------


@dataclass
class Terminator(Instr):
    """Base class for block terminators."""

    def successors(self) -> list[str]:
        return []


@dataclass
class Jump(Terminator):
    target: str

    def successors(self) -> list[str]:
        return [self.target]


@dataclass
class Branch(Terminator):
    cond: lang_ast.Expr
    true_target: str
    false_target: str

    def used_exprs(self) -> list[lang_ast.Expr]:
        return [self.cond]

    def successors(self) -> list[str]:
        return [self.true_target, self.false_target]


@dataclass
class RetInstr(Terminator):
    expr: Optional[lang_ast.Expr]

    def used_exprs(self) -> list[lang_ast.Expr]:
        return [self.expr] if self.expr is not None else []
