"""Taint analysis parity: exact facts, one analysis per build, the debug check.

A function analysis skips its confirming solve only when nothing the
solve read grew after it was read (see
:class:`repro.analysis.taint.TaintAnalysis`).  Generated programs rarely
make a skip matter, so the first tests pin, fact for fact, programs where
a solve does read a value that grows later; the pinned values are those
of the analysis that always ran every confirming solve.  The rest check
that each build analyzes once, that region inference's markers change no
fact, and that debug builds re-check the facts on the final module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import pytest
from hypothesis import HealthCheck, given, settings

import repro.analysis.taint as taint
from repro.analysis.taint import TaintResult, analyze_module
from repro.apps import BENCHMARKS
from repro.core.passes import (
    BuildConfig,
    BuildContext,
    PassManager,
    PipelineError,
    config_names,
    get_config,
)
from repro.core.pipeline import PipelineOptions, compile_source
from repro.ir import instructions as ir
from repro.ir.lowering import LoweringOptions, lower_program
from repro.lang import ast
from repro.lang.parser import parse_program
from tests.strategies import program_sources


def facts(result: TaintResult) -> dict:
    """Every fact of a taint result, as sorted strings."""
    return {
        "annot_inputs": {
            str(uid): sorted(map(str, chains))
            for uid, chains in result.annot_inputs.items()
        },
        "annot_chains": {
            str(uid): sorted(map(str, chains))
            for uid, chains in result.annot_chains.items()
        },
        "uses": {pid: sorted(map(str, chains)) for pid, chains in result.uses.items()},
        "summaries": sorted(
            f"{func} {scope} {sink} {info}"
            for func, scope, sink, info in result.summaries.all_entries()
        ),
    }


def analyze(source: str, unroll_loops: bool = True) -> dict:
    module = lower_program(
        parse_program(source), options=LoweringOptions(unroll_loops=unroll_loops)
    )
    return facts(analyze_module(module))


def analyze_confirming_every_pass(
    source: str, monkeypatch: pytest.MonkeyPatch, unroll_loops: bool = True
) -> dict:
    """The analysis with every confirming solve run."""
    real = taint.stabilize

    def always_confirm(step, snapshot, analysis, scope, max_rounds=64, settled=None):
        return real(step, snapshot, analysis, scope, max_rounds)

    with monkeypatch.context() as patch:
        patch.setattr(taint, "stabilize", always_confirm)
        return analyze(source, unroll_loops)


# -- pinned facts ---------------------------------------------------------------

#: ``get`` reads ``g`` before ``main`` writes it from an input, so only a
#: second global round carries the input to the ``Fresh``.
GLOBAL_VIA_CALLEE = """\
inputs a;
nonvolatile g = 0;

fn get() {
  return g;
}

fn main() {
  let x = get();
  Fresh(x);
  log(x);
  let y = input(a);
  g = y;
}
"""

GLOBAL_VIA_CALLEE_FACTS = {
    "annot_inputs": {"(main, 4)": ["(main, 8)"]},
    "annot_chains": {"(main, 4)": ["(main, 4)"]},
    "uses": {"fresh@main:4": ["(main, 6)"]},
    "summaries": ["get (main, 2) ret (input: (main, 8), fromTp: argBy(main, 2))"],
}

#: Without unrolling, the loop head is control dependent on the ``if``
#: in its body (the ``return`` leaves the loop), and it reads that
#: branch's facts in the first sweep, before the branch reads ``c``'s
#: input on the back edge; ``y`` picks the input up through the head.
LOOP_BRANCH = """\
inputs a;

fn main() {
  let c = 0;
  let y = 0;
  repeat 3 {
    y = 1;
    if c > 0 {
      return;
    }
    c = input(a);
  }
  Fresh(y);
  log(y);
}
"""

LOOP_BRANCH_FACTS = {
    "annot_inputs": {"(main, 14)": ["(main, 10)"]},
    "annot_chains": {"(main, 14)": ["(main, 14)"]},
    "uses": {"fresh@main:14": ["(main, 16)"]},
    "summaries": [],
}

#: ``fill`` returns its input through a by-reference parameter, so the
#: chain reaches ``show`` from a ``pbr`` hop.
BY_REFERENCE = """\
inputs a;

fn fill(&out) {
  let v = input(a);
  *out = v;
}

fn show(v) {
  log(v);
}

fn main() {
  let x = 0;
  fill(&x);
  Fresh(x);
  show(x);
}
"""

BY_REFERENCE_FACTS = {
    "annot_inputs": {"(main, 4)": ["(main, 3)::(fill, 2)"]},
    "annot_chains": {"(main, 4)": ["(main, 4)"]},
    "uses": {"fresh@main:4": ["(main, 5)", "(main, 5)::(show, 3)"]},
    "summaries": [
        "fill local &out (input: (fill, 2), fromTp: local(2))",
        "show (main, 5) v (input: (fill, 2), fromTp: pbr(main, 3))",
    ],
}

#: ``let r = h`` reads ``h`` before ``h = g`` grows it in the last sweep
#: of ``f``'s first solve, so that solve returns no chain while ``*out``
#: carries one: ``main``'s call would record the chain's hop kind as
#: ``pbr`` (hop kinds are first-writer-wins) if ``f`` stopped after one
#: solve.  Only the confirming solve makes ``retBy`` the first writer.
RETURN_BEFORE_GROWTH = """\
inputs a;
nonvolatile g = 0;
nonvolatile h = 0;

fn f(&out) {
  let r = h;
  h = g;
  let v = input(a);
  g = v;
  *out = v;
  return r;
}

fn show(p) {
  log(p);
}

fn main() {
  let x = 0;
  let y = f(&x);
  Fresh(x);
  show(x);
  log(y);
}
"""

RETURN_BEFORE_GROWTH_FACTS = {
    "annot_inputs": {"(main, 5)": ["(main, 3)::(f, 5)"]},
    "annot_chains": {"(main, 5)": ["(main, 5)"]},
    "uses": {"fresh@main:5": ["(main, 6)", "(main, 6)::(show, 3)"]},
    "summaries": [
        "f local &out (input: (f, 5), fromTp: local(5))",
        "f local ret (input: (f, 5), fromTp: local(5))",
        "show (main, 6) p (input: (f, 5), fromTp: retBy(main, 3))",
    ],
}

PINNED = [
    pytest.param(GLOBAL_VIA_CALLEE, True, GLOBAL_VIA_CALLEE_FACTS, id="global-via-callee"),
    pytest.param(LOOP_BRANCH, False, LOOP_BRANCH_FACTS, id="loop-branch"),
    pytest.param(BY_REFERENCE, True, BY_REFERENCE_FACTS, id="by-reference"),
    pytest.param(
        RETURN_BEFORE_GROWTH,
        True,
        RETURN_BEFORE_GROWTH_FACTS,
        id="return-before-growth",
    ),
]


class TestPinnedFacts:
    @pytest.mark.parametrize("source, unroll, expected", PINNED)
    def test_facts_are_pinned(self, source, unroll, expected):
        assert analyze(source, unroll_loops=unroll) == expected

    @pytest.mark.parametrize("source, unroll, expected", PINNED)
    def test_confirming_every_pass_agrees(self, source, unroll, expected, monkeypatch):
        assert (
            analyze_confirming_every_pass(source, monkeypatch, unroll_loops=unroll)
            == expected
        )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(source=program_sources(min_annotations=1))
def test_skipping_settled_passes_matches_confirming_every_pass(source, monkeypatch):
    for unroll in (True, False):
        assert analyze(source, unroll) == analyze_confirming_every_pass(
            source, monkeypatch, unroll
        )


# -- one analysis per build ---------------------------------------------------------

SRC = """\
inputs temp;

fn main() {
  let x = input(temp);
  Fresh(x);
  if x > 5 {
    alarm();
  }
  skip;
}
"""


#: ``x`` reads no input, so its policy is trivial, yet its branch carries
#: its tag: inference puts ``y``'s region markers in the tagged block.
TRIVIAL_TAG_OVER_REGION = """\
inputs b;

fn main() {
  let x = 5;
  Fresh(x);
  if x > 3 {
    let y = input(b);
    Fresh(y);
    log(y);
  }
}
"""


class TestInferredMarkers:
    @pytest.mark.parametrize("config", ["ocelot", "atomics-trivial"])
    def test_markers_under_a_tagged_branch_are_not_uses(self, config):
        # Debug is on (see conftest), so the build also passes the
        # cross-check against a fresh analysis of the final module.
        compiled = compile_source(TRIVIAL_TAG_OVER_REGION, config)
        module = compiled.module
        markers = {
            instr.uid
            for instr in module.all_instrs()
            if isinstance(instr, (ir.AtomicStart, ir.AtomicEnd))
            and instr.origin == "inferred"
        }
        then = module.function("main").blocks["then"]
        assert markers & {instr.uid for instr in then.instrs}
        uses = {chain.op for chains in compiled.taint.uses.values() for chain in chains}
        assert uses and not uses & markers
        before_inference = lower_program(compiled.program)
        assert facts(compiled.taint) == facts(analyze_module(before_inference))

    def test_inserting_markers_changes_no_fact(self):
        module = lower_program(parse_program(TRIVIAL_TAG_OVER_REGION))
        before = facts(analyze_module(module))
        main = module.function("main")
        for block in main.blocks.values():
            for marker in (
                ir.AtomicStart(region="t", origin="inferred"),
                ir.AtomicEnd(region="t", origin="inferred"),
            ):
                block.instrs.insert(0, main.stamp(marker))
        assert facts(analyze_module(module)) == before


class TestOneAnalysisPerBuild:
    @pytest.mark.parametrize("config", config_names())
    def test_timings_list_taint_once(self, config):
        compiled = compile_source(SRC, config)
        assert [t.stage for t in compiled.timings].count("taint") == 1

    @pytest.mark.parametrize("config", config_names())
    @pytest.mark.parametrize("app", sorted(BENCHMARKS))
    def test_facts_describe_the_final_module(self, app, config):
        compiled = compile_source(
            BENCHMARKS[app].source, config, PipelineOptions(strict=False)
        )
        assert compiled.taint.module is compiled.module
        assert facts(compiled.taint) == facts(analyze_module(compiled.module))


@dataclass(frozen=True)
class LogFreshAfterItsRegion:
    """Test-only pass: log the ``Fresh`` variable once more at the end of
    ``main``, after its region -- a new use the facts do not have."""

    name: ClassVar[str] = "log-fresh-late"

    def run(self, ctx: BuildContext) -> None:
        module = ctx.need_module()
        main = module.function("main")
        (annot,) = [a for a in module.annot_instrs() if a.kind == "fresh"]
        output = main.stamp(ir.OutputInstr(op="log", args=[ast.Var(name=annot.var)]))
        main.blocks[main.exit].instrs.append(output)


def _late_log_config() -> BuildConfig:
    passes = list(get_config("ocelot").passes)
    at = [p.name for p in passes].index("war-omegas") + 1
    passes.insert(at, LogFreshAfterItsRegion())
    return BuildConfig(name="ocelot-late-log", passes=tuple(passes))


def _build(config: BuildConfig, debug: bool) -> BuildContext:
    ctx = BuildContext(
        program=parse_program(SRC), config_name=config.name, debug=debug
    )
    return PassManager(config.passes).run(ctx)


class TestDebugCrossCheck:
    def test_a_pass_changing_the_facts_is_named(self):
        with pytest.raises(
            PipelineError,
            match=r"config 'ocelot-late-log' \(passes after the analysis: "
            r"policies, infer-regions, verify-ir, war-omegas, log-fresh-late, "
            r"check\): uses differ",
        ):
            _build(_late_log_config(), debug=True)

    def test_release_builds_skip_the_check(self):
        ctx = _build(_late_log_config(), debug=False)
        assert ctx.check is not None

    def test_the_check_runs_once_on_the_final_module(self):
        calls = []
        real = analyze_module

        def counting(module):
            calls.append(module)
            return real(module)

        import repro.core.passes.base as base

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(base, "analyze_module", counting)
            ctx = _build(get_config("ocelot-opt"), debug=True)
        assert calls == [ctx.module]
