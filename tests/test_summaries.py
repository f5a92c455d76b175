"""Function-summary structure tests (Figure 5)."""

from repro.analysis.provenance import Chain
from repro.analysis.summaries import (
    SINK_RET,
    FromArg,
    FromLocal,
    FromRet,
    InInfo,
    TaintMap,
    call_chain,
    sink_ref,
)
from repro.analysis.taint import analyze_module
from repro.ir.instructions import InstrId
from repro.ir.lowering import lower_program
from repro.lang.parser import parse_program


def summaries_for(source: str):
    module = lower_program(parse_program(source))
    return module, analyze_module(module).summaries


class TestStructures:
    def test_taint_map_add_get(self):
        tmap = TaintMap()
        info = InInfo(
            input=InstrId("get", 3),
            from_tp=FromLocal(3),
            chain=Chain(ids=(InstrId("get", 3),)),
        )
        tmap.add(SINK_RET, info)
        assert info in tmap.get(SINK_RET)
        assert bool(tmap)

    def test_empty_map_is_falsy(self):
        assert not TaintMap()

    def test_sink_ref_naming(self):
        assert sink_ref("out") == "&out"

    def test_call_chain_returns_resolved(self):
        chain = Chain(ids=(InstrId("main", 2), InstrId("get", 3)))
        info = InInfo(input=InstrId("get", 3), from_tp=FromRet(InstrId("main", 2)), chain=chain)
        assert call_chain(info) == chain


class TestPaperExamples:
    def test_pres_style_local_summary(self):
        """Figure 5's pres example: input generated locally flows to ret."""
        module, summaries = summaries_for(
            "inputs sense;\n"
            "fn pres() { let p = input(sense); let p2 = p + 1; return p2; }\n"
            "fn main() { let y = pres(); Fresh(y); log(y); }"
        )
        pres = summaries.of("pres")
        entries = pres.local.get(SINK_RET)
        assert entries
        entry = next(iter(entries))
        assert isinstance(entry.from_tp, FromLocal)
        assert entry.input.func == "pres"

    def test_norm_style_caller_summary(self):
        """Figure 5's norm example: argument taint flows back via ret,
        recorded per calling context (argBy)."""
        module, summaries = summaries_for(
            "inputs sense;\n"
            "fn norm(v) { return v / 2; }\n"
            "fn main() { let t = input(sense); let n = norm(t); "
            "Fresh(n); log(n); }"
        )
        norm = summaries.of("norm")
        assert len(norm.callers) == 1
        site, tmap = next(iter(norm.callers.items()))
        ret_rows = tmap.get(SINK_RET)
        assert ret_rows
        assert any(isinstance(r.from_tp, FromArg) for r in ret_rows)
        arg_rows = tmap.get("v")
        assert arg_rows  # how the taint came in

    def test_pbr_summary(self):
        module, summaries = summaries_for(
            "inputs sense;\n"
            "fn fill(&out) { *out = input(sense); }\n"
            "fn main() { let x = 0; fill(&x); Fresh(x); log(x); }"
        )
        fill = summaries.of("fill")
        rows = fill.local.get(sink_ref("out"))
        assert rows
        assert next(iter(rows)).input.func == "fill"

    def test_all_entries_flattens(self):
        module, summaries = summaries_for(
            "inputs sense;\n"
            "fn get() { let v = input(sense); return v; }\n"
            "fn main() { let x = get(); Fresh(x); log(x); }"
        )
        rows = summaries.all_entries()
        assert rows
        functions = {row[0] for row in rows}
        assert "get" in functions
        for _func, scope, _sink, info in rows:
            assert scope == "local" or scope.startswith("(")
            assert info.chain.op == info.input
