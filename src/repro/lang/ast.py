"""Abstract syntax for the Ocelot modeling language.

The language follows Appendix A of the paper, extended with the constructs
the benchmark applications need:

* ``nonvolatile`` global scalars and arrays (the paper's nonvolatile memory
  ``N``),
* ``repeat n { ... }`` bounded loops (the paper unrolls bounded loops; we
  keep them in the CFG and bound them at run time),
* pass-by-reference parameters ``&x`` (rule Call-r),
* ``atomic { ... }`` programmer-placed regions (``startatom``/``endatom``),
* the two annotation forms: binding annotations ``let fresh x = e`` /
  ``let consistent(n) x = e`` and statement annotations ``Fresh(x);`` /
  ``Consistent(x, n);`` matching the Rust surface syntax of Figure 3.

Input operations are the primitive expression ``input(channel)`` where
``channel`` names a declared sensor channel; functions wrapping ``input``
become input-deriving functions discovered by the taint analysis, which is
how the paper's ``[IO: fn = tmp, pres, hum]`` declaration is exercised.

Every statement carries a ``label`` -- the per-function instruction label
:math:`\\ell` of the paper -- assigned by :func:`assign_labels`.  A
``(function, label)`` pair uniquely identifies an instruction, which is the
unit of provenance and policy bookkeeping throughout the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.lang.errors import SemanticError, SourceSpan

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    """Base class for expressions.  Subclasses add payload fields."""

    span: SourceSpan = field(default_factory=SourceSpan.synthetic, kw_only=True)


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class Var(Expr):
    name: str


@dataclass
class Unary(Expr):
    op: str  # '-' or '!'
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # + - * / % < <= > >= == != && ||
    lhs: Expr
    rhs: Expr


@dataclass
class Call(Expr):
    """A call in expression position: ``f(a, b, &c)``.

    Builtins (``log``, ``alarm``, ``send``, ``work``, ``min``, ``max``,
    ``abs``) are also represented as calls; the lowering pass maps them onto
    dedicated IR instructions.
    """

    func: str
    args: list[Expr]


@dataclass
class Input(Expr):
    """The primitive input operation ``input(channel)`` (``IN()`` in the paper).

    ``channel`` names a sensor channel declared with an ``inputs`` declaration.
    """

    channel: str


@dataclass
class Index(Expr):
    """Array load ``a[i]``."""

    array: str
    index: Expr


@dataclass
class Ref(Expr):
    """Reference-of ``&x``; only legal as a call argument (as in the paper)."""

    name: str


# ---------------------------------------------------------------------------
# Statements (the paper's commands / instructions)
# ---------------------------------------------------------------------------

UNLABELED = -1


@dataclass
class Stmt:
    """Base class for statements.

    ``label`` is the instruction label within the enclosing function, filled
    in by :func:`assign_labels`.  Compound statements (``if``, ``repeat``,
    ``atomic``) get labels too: the label identifies the *header* operation
    (the branch, the loop bound check, the region start).
    """

    span: SourceSpan = field(default_factory=SourceSpan.synthetic, kw_only=True)
    label: int = field(default=UNLABELED, kw_only=True)


class AnnotKind:
    """Annotation kinds attached to ``let`` bindings.

    ``FRESHCON`` is the combined ``FreshConsistent(x, n)`` form of Figure 9
    (the Tire benchmark): one source line declaring both constraints; the
    lowering splits it into a fresh and a consistent annotation instruction.
    """

    FRESH = "fresh"
    CONSISTENT = "consistent"
    FRESHCON = "freshconsistent"


@dataclass
class Let(Stmt):
    """``let x = e;`` with optional timing annotation.

    ``annot`` is ``None``, :data:`AnnotKind.FRESH`, or
    :data:`AnnotKind.CONSISTENT`; ``set_id`` is the consistent-set id for
    the latter.  The annotated forms correspond to ``let fresh x = e in c``
    and ``let consistent(n) x = e in c`` of Section 4.2.
    """

    name: str
    expr: Expr
    annot: Optional[str] = None
    set_id: Optional[int] = None


@dataclass
class Assign(Stmt):
    """``x = e;`` -- assignment to a mutable local or a nonvolatile global."""

    name: str
    expr: Expr


@dataclass
class StoreRef(Stmt):
    """``*p = e;`` -- store through a pass-by-reference parameter."""

    name: str
    expr: Expr


@dataclass
class StoreIndex(Stmt):
    """``a[i] = e;`` -- store into a nonvolatile array."""

    array: str
    index: Expr
    expr: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt]


@dataclass
class Repeat(Stmt):
    """``repeat n { ... }`` -- a loop with a compile-time bound ``count``."""

    count: int
    body: list[Stmt]


@dataclass
class Atomic(Stmt):
    """``atomic { ... }`` -- a programmer-placed atomic region."""

    body: list[Stmt]


@dataclass
class Return(Stmt):
    expr: Optional[Expr]


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for effect, e.g. ``log(y, z);``."""

    expr: Expr


@dataclass
class AnnotStmt(Stmt):
    """Statement-form annotation: ``Fresh(x);`` or ``Consistent(x, n);``.

    These mirror Ocelot's Rust annotations (calls to empty marker functions,
    Figure 3).  The analysis resolves them onto the reaching definition of
    ``var``.
    """

    kind: str  # AnnotKind.FRESH or AnnotKind.CONSISTENT
    var: str
    set_id: Optional[int] = None


@dataclass
class Skip(Stmt):
    """The no-op instruction of the modeling language."""


# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------


@dataclass
class Param:
    """A function parameter; ``by_ref`` marks ``&x`` pass-by-reference."""

    name: str
    by_ref: bool = False


@dataclass
class FuncDecl:
    name: str
    params: list[Param]
    body: list[Stmt]
    span: SourceSpan = field(default_factory=SourceSpan.synthetic)

    @property
    def param_names(self) -> list[str]:
        return [p.name for p in self.params]


@dataclass
class GlobalDecl:
    """``nonvolatile x = 3;`` -- a scalar in nonvolatile memory."""

    name: str
    init: int = 0
    span: SourceSpan = field(default_factory=SourceSpan.synthetic)


@dataclass
class ArrayDecl:
    """``nonvolatile a[8];`` -- an array in nonvolatile memory."""

    name: str
    size: int
    init: Optional[list[int]] = None
    span: SourceSpan = field(default_factory=SourceSpan.synthetic)

    def initial_values(self) -> list[int]:
        if self.init is None:
            return [0] * self.size
        return list(self.init)


@dataclass
class Program:
    """A complete program: functions, nonvolatile state, sensor channels.

    ``main`` is the entry point, as in the paper.  ``channels`` lists the
    declared sensor channels in declaration order; the violation detector
    assigns each channel a bit-vector position from this order (Section 7.3).
    """

    functions: dict[str, FuncDecl]
    globals: dict[str, GlobalDecl] = field(default_factory=dict)
    arrays: dict[str, ArrayDecl] = field(default_factory=dict)
    channels: list[str] = field(default_factory=list)

    def function(self, name: str) -> FuncDecl:
        try:
            return self.functions[name]
        except KeyError:
            raise SemanticError(f"undefined function '{name}'") from None

    @property
    def main(self) -> FuncDecl:
        return self.function("main")


# Builtin output / utility functions recognized by the lowering pass.  The
# first group produce *observations* (externally visible effects); ``work``
# burns a given number of cycles to model computation.
OUTPUT_BUILTINS = frozenset({"log", "alarm", "send"})
PURE_BUILTINS = frozenset({"min", "max", "abs"})
EFFECT_BUILTINS = OUTPUT_BUILTINS | {"work"}
BUILTINS = EFFECT_BUILTINS | PURE_BUILTINS


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------


def child_blocks(stmt: Stmt) -> list[list[Stmt]]:
    """The nested statement lists of a compound statement (empty for leaves)."""
    if isinstance(stmt, If):
        return [stmt.then_body, stmt.else_body]
    if isinstance(stmt, (Repeat, Atomic)):
        return [stmt.body]
    return []


def walk_stmts(body: list[Stmt]) -> Iterator[Stmt]:
    """Yield every statement in ``body``, depth-first, headers before bodies."""
    for stmt in body:
        yield stmt
        for block in child_blocks(stmt):
            yield from walk_stmts(block)


def walk_exprs(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, depth-first pre-order."""
    yield expr
    if isinstance(expr, Unary):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk_exprs(expr.lhs)
        yield from walk_exprs(expr.rhs)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_exprs(arg)
    elif isinstance(expr, Index):
        yield from walk_exprs(expr.index)


def assign_labels(program: Program) -> None:
    """Assign per-function instruction labels, in lexical order.

    Labels start at 1 inside each function (matching the paper's examples,
    where ``fn app() { 1: x := tmp() ... }``).  Idempotent: re-running
    renumbers consistently.
    """
    for func in program.functions.values():
        counter = 1
        for stmt in walk_stmts(func.body):
            stmt.label = counter
            counter += 1


def find_labeled(func: FuncDecl, label: int) -> Stmt:
    """Look up the statement with ``label`` in ``func`` (raises if missing)."""
    for stmt in walk_stmts(func.body):
        if stmt.label == label:
            return stmt
    raise SemanticError(f"no statement labeled {label} in function '{func.name}'")


Node = Union[Expr, Stmt, FuncDecl, Program]
