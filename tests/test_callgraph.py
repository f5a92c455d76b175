"""Call graph tests."""

from repro.ir.callgraph import build_call_graph
from repro.ir.lowering import lower_program
from repro.lang.parser import parse_program

SRC = """
fn leaf() { return 1; }
fn mid() { let a = leaf(); let b = leaf(); return a + b; }
fn side() { return 2; }
fn main() {
  let x = mid();
  let y = side();
  log(x, y);
}
"""


def build(source=SRC):
    module = lower_program(parse_program(source))
    return module, build_call_graph(module)


class TestStructure:
    def test_callers_and_callees(self):
        module, graph = build()
        assert {s.callee for s in graph.callees_of("main")} == {"mid", "side"}
        assert {s.caller for s in graph.callers_of("leaf")} == {"mid"}
        assert len(graph.callers_of("leaf")) == 2  # two distinct call sites

    def test_call_sites_have_distinct_uids(self):
        module, graph = build()
        uids = [s.uid for s in graph.callers_of("leaf")]
        assert len(set(uids)) == 2

    def test_reachable_from_main(self):
        module, graph = build()
        assert graph.reachable_from("main") == {"main", "mid", "side", "leaf"}

    def test_topo_order_leaves_first(self):
        module, graph = build()
        order = graph.topo_order("main")
        assert order.index("leaf") < order.index("mid") < order.index("main")

    def test_builtins_not_in_graph(self):
        module, graph = build()
        assert "log" not in graph.callees
