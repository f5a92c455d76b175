"""Call graph over IR functions.

The modeling language forbids recursion (validated up front), so the call
graph is a DAG.  Region inference walks it root-first (``findCandidate``,
Algorithm 1); the taint analysis walks call *paths*, which are finite for
the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir import instructions as ir
from repro.ir.module import Module


@dataclass(frozen=True)
class CallSite:
    """A call edge: instruction ``uid`` in ``caller`` invoking ``callee``."""

    caller: str
    callee: str
    uid: ir.InstrId


@dataclass
class CallGraph:
    entry: str
    #: callee -> list of call sites that invoke it
    callers: dict[str, list[CallSite]] = field(default_factory=dict)
    #: caller -> list of call sites it contains
    callees: dict[str, list[CallSite]] = field(default_factory=dict)

    def callees_of(self, func: str) -> list[CallSite]:
        return self.callees.get(func, [])

    def callers_of(self, func: str) -> list[CallSite]:
        return self.callers.get(func, [])

    def reachable_from(self, root: str) -> set[str]:
        seen: set[str] = set()
        stack = [root]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(site.callee for site in self.callees_of(name))
        return seen

    def topo_order(self, root: str | None = None) -> list[str]:
        """Functions in callee-first topological order (leaves first)."""
        root = root or self.entry
        order: list[str] = []
        seen: set[str] = set()

        def visit(name: str) -> None:
            if name in seen:
                return
            seen.add(name)
            for site in self.callees_of(name):
                visit(site.callee)
            order.append(name)

        visit(root)
        return order


def build_call_graph(module: Module) -> CallGraph:
    graph = CallGraph(entry=module.entry)
    graph.callers = {name: [] for name in module.functions}
    graph.callees = {name: [] for name in module.functions}
    for func in module.functions.values():
        for instr in func.all_instrs():
            if isinstance(instr, ir.CallInstr) and instr.func in module.functions:
                site = CallSite(caller=func.name, callee=instr.func, uid=instr.uid)
                graph.callees[func.name].append(site)
                graph.callers[instr.func].append(site)
    return graph
