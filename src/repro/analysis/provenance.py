"""Provenance chains -- the paper's :math:`\\rho ::= nil | (f_1, l_1) :: \\rho`.

A chain is a tuple of :class:`~repro.ir.instructions.InstrId`: the call
sites walked from ``main`` down to an operation, with the operation itself
as the last element.  Chains disambiguate multiple calls to the same
function ("the purpose of provenance information is to disambiguate
multiple calls to the same input operation in a policy", Section 5.1) --
e.g. the two calls to ``pres`` in Figure 6(b) yield

    (app, 1) :: (confirm, 2) :: (pres, 1) :: (sense, 0)
    (app, 1) :: (confirm, 3) :: (pres, 1) :: (sense, 0)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.instructions import InstrId

#: A calling context: the call-site uids from ``main`` down to the current
#: function.  The empty tuple is ``main`` itself.
Context = tuple[InstrId, ...]


@dataclass(frozen=True, order=True)
class Chain:
    """A context-qualified operation: call sites from ``main`` + the op."""

    ids: tuple[InstrId, ...]

    def __post_init__(self) -> None:
        if not self.ids:
            raise ValueError("a chain has at least the operation itself")
        # Chains key the detector bit vector and memo shards; the hash is
        # computed once and, like InstrId's, never pickled (``str`` hashes
        # differ between processes).
        object.__setattr__(self, "_hash", hash((self.ids,)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]  # set in __post_init__

    def __reduce__(self) -> tuple[type[Chain], tuple[tuple[InstrId, ...]]]:
        return (Chain, (self.ids,))

    @staticmethod
    def of(context: Context, op: InstrId) -> "Chain":
        return Chain(ids=tuple(context) + (op,))

    @property
    def op(self) -> InstrId:
        """The operation at the end of the chain."""
        return self.ids[-1]

    @property
    def context(self) -> Context:
        """The calling context (all but the operation)."""
        return self.ids[:-1]

    def extends(self, prefix: Context) -> bool:
        """True if this chain's call path starts with ``prefix``."""
        return self.ids[: len(prefix)] == tuple(prefix)

    def __len__(self) -> int:
        return len(self.ids)

    def __str__(self) -> str:
        return "::".join(str(i) for i in self.ids)


def common_context(chains: list[Chain]) -> Context:
    """Longest common call-site prefix of ``chains``.

    Only *call-site* elements participate: the terminal operation of a
    chain never joins the prefix, so the result is always a valid calling
    context.  This is the deepest call-tree node containing every chain,
    which is what ``findCandidate`` (Algorithm 1) computes by recursion --
    see :func:`repro.core.inference.find_candidate` for the faithful
    recursive version and the property test equating the two.
    """
    if not chains:
        return ()
    limit = min(len(c) - 1 for c in chains)  # exclude each chain's op
    prefix: list[InstrId] = []
    for depth in range(limit):
        first = chains[0].ids[depth]
        if all(c.ids[depth] == first for c in chains):
            prefix.append(first)
        else:
            break
    return tuple(prefix)


def representative_op(chain: Chain, context: Context) -> InstrId:
    """The instruction representing ``chain`` inside ``context``'s function.

    If the chain is exactly one level below the context it is the operation
    itself; otherwise it is the call site within the candidate function that
    leads toward the operation (the hoisting step of Algorithm 1, lines
    7--16).
    """
    if not chain.extends(context):
        raise ValueError(f"{chain} does not extend context {context}")
    return chain.ids[len(context)]
