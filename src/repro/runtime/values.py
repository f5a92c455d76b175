"""Runtime values with input-dependence taint (Appendix B).

The taint-augmented semantics stores, with every memory cell, the set of
input operations the value depends on: ``N^t, x -> (v, I)``.  A run that
records observations carries it as a frozenset of :class:`InputEvent`
(which op, which channel, when), which the trace predicates of
Definitions 2/3 and the forensics consume.  A violations-only run
(``MachineConfig(emit_observations=False)``) decides every violation from
the detector's bit vector and reads no read's time, so its taint is a
frozenset of :class:`InputSite` (which op, which channel): each input op
has one constant taint, :func:`site_taint`, instead of a new event per
read.  Values, stats and violations are the same either way; only the
taint elements differ, and a value that depends on two reads of one op
holds one site where it held two events.

Cells are immutable; assignment replaces the cell.  A by-reference
parameter binds to a :class:`RefValue` naming the owning stack depth and
variable, which stays valid across checkpoint copies because checkpoints
copy whole stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.instructions import InstrId


@dataclass(frozen=True)
class InputEvent:
    """One dynamic input operation: which instruction, when, which channel."""

    uid: InstrId
    channel: str
    tau: int

    def __str__(self) -> str:
        return f"{self.channel}@{self.tau}{self.uid}"


@dataclass(frozen=True)
class InputSite:
    """One static input operation: which instruction, which channel."""

    uid: InstrId
    channel: str


#: ``InputEvent``s where a machine records observations, ``InputSite``s
#: where it runs violations-only (a machine adds only its own kind).
Taint = frozenset[InputEvent] | frozenset[InputSite]
NO_TAINT: Taint = frozenset()


def site_taint(uid: InstrId, channel: str) -> Taint:
    """The taint of a value read by input op ``uid`` in a violations-only
    run.  The fast engine builds it once per op, at decode (and once per
    generated run), and shares it among every read of the op."""
    return frozenset((InputSite(uid, channel),))


@dataclass(slots=True, unsafe_hash=True)
class TVal:
    """A tainted value: the integer/boolean payload plus its input set.

    Immutable by convention: nothing assigns a field after construction,
    so cells may share one object.  Not ``frozen`` because a frozen
    dataclass builds through ``object.__setattr__``, which costs about
    2.5x a plain slotted ``__init__`` on the engines' hottest path; the
    hash is the frozen one (``unsafe_hash``: the field tuple).
    """

    value: int
    taint: Taint = NO_TAINT

    @staticmethod
    def of(value: int | bool) -> "TVal":
        return TVal(value=int(value))

    @property
    def as_bool(self) -> bool:
        return bool(self.value)


ZERO = TVal(0)


@dataclass(frozen=True)
class RefValue:
    """A reference into the volatile stack: ``(frame depth, variable)``."""

    depth: int
    name: str

    def __str__(self) -> str:
        return f"&[{self.depth}]{self.name}"


Cell = TVal | RefValue


def merge_taint(*taints: Taint) -> Taint:
    result: Taint = NO_TAINT
    for taint in taints:
        if taint:
            result = result | taint
    return result
