"""Function taint summaries, following Figure 5 of the paper.

A summary describes how input taint flows through a function:

* a **local summary** (``lSum``) covers taint *generated within* the
  function (an input operation in its body or below): it flows to every
  caller, through the return (``ret``) or a by-reference parameter
  (``&arg``);
* a **caller summary** (``CSum``) covers taint *passed in* by a specific
  call site: it flows back only to that calling context (context
  sensitivity).

Each entry records the originating input operation and a ``fromtp`` tag --
``local(l)``, ``retBy(f, l)``, ``pbr(f, l)`` or ``argBy(f, l)`` -- plus the
fully resolved provenance chain.  The paper reconstructs chains lazily by
linking entries (``callChain(FS, ins)``); our analysis is context-complete,
so it resolves chains eagerly and stores them on the entry, keeping
``call_chain`` a constant-time lookup.  The checker verifies the two views
agree (every resolved chain's shape matches its ``fromtp`` spine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.analysis.provenance import Chain
from repro.ir.instructions import InstrId

# -- fromtp: how taint reached the value ---------------------------------------


@dataclass(frozen=True)
class FromLocal:
    """Taint born here: the input instruction at label ``label``."""

    label: int

    def __str__(self) -> str:
        return f"local({self.label})"


@dataclass(frozen=True)
class FromRet:
    """Taint returned by the callee invoked at call site ``site``."""

    site: InstrId

    def __str__(self) -> str:
        return f"retBy{self.site}"


@dataclass(frozen=True)
class FromPbr:
    """Taint written back through a by-reference argument at ``site``."""

    site: InstrId

    def __str__(self) -> str:
        return f"pbr{self.site}"


@dataclass(frozen=True)
class FromArg:
    """Taint passed in as an argument by the caller at ``site``."""

    site: InstrId

    def __str__(self) -> str:
        return f"argBy{self.site}"


FromTp = Union[FromLocal, FromRet, FromPbr, FromArg]


# -- taint map entries -----------------------------------------------------------

SINK_RET = "ret"


def sink_ref(param: str) -> str:
    """Sink name for a write through by-reference parameter ``param``."""
    return f"&{param}"


@dataclass(frozen=True)
class InInfo:
    """One ``(input : (f, l), fromTp : fromtp)`` record with resolved chain."""

    input: InstrId
    from_tp: FromTp
    chain: Chain

    def __str__(self) -> str:
        return f"(input: {self.input}, fromTp: {self.from_tp})"


@dataclass
class TaintMap:
    """``sink <- inInfo`` rows for one flow direction out of a function."""

    entries: dict[str, set[InInfo]] = field(default_factory=dict)

    def add(self, sink: str, info: InInfo) -> None:
        self.entries.setdefault(sink, set()).add(info)

    def get(self, sink: str) -> set[InInfo]:
        return self.entries.get(sink, set())

    def __bool__(self) -> bool:
        return any(self.entries.values())


@dataclass
class FunctionSummary:
    """``fsum ::= lSum..., CSum...`` for one function."""

    name: str
    local: TaintMap = field(default_factory=TaintMap)
    #: call-site uid -> taint map for that calling context
    callers: dict[InstrId, TaintMap] = field(default_factory=dict)

    def caller(self, site: InstrId) -> TaintMap:
        return self.callers.setdefault(site, TaintMap())


@dataclass
class FunctionSummaries:
    """``FS``: every function's summary."""

    by_func: dict[str, FunctionSummary] = field(default_factory=dict)

    def of(self, name: str) -> FunctionSummary:
        return self.by_func.setdefault(name, FunctionSummary(name=name))

    def all_entries(self) -> list[tuple[str, str, str, InInfo]]:
        """Flattened view: ``(function, scope, sink, entry)`` rows.

        ``scope`` is ``"local"`` or the call-site string for caller
        summaries.  Used by reporting and the consistency checks.
        """
        rows: list[tuple[str, str, str, InInfo]] = []
        for name, summary in self.by_func.items():
            for sink, infos in summary.local.entries.items():
                for info in infos:
                    rows.append((name, "local", sink, info))
            for site, tmap in summary.callers.items():
                for sink, infos in tmap.entries.items():
                    for info in infos:
                        rows.append((name, str(site), sink, info))
        return rows


def call_chain(info: InInfo) -> Chain:
    """``callChain(FS, ins)``: the provenance chain for a summary entry.

    Our entries store the eagerly resolved chain; the paper's lazy linking
    would reconstruct the same object (the checker cross-validates shape).
    """
    return info.chain
