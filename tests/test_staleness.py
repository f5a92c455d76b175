"""The static staleness-window analysis and its verdicts."""

from __future__ import annotations

import pytest

from repro.analysis.intervals import (
    NEVER,
    CycleIntervalLattice,
    Interval,
)
from repro.analysis.provenance import Chain
from repro.analysis.specialize import (
    constant_channels,
    fold_expr,
    specialize_module,
)
from repro.analysis.staleness import (
    BOOT,
    VERDICT_DOOMED,
    VERDICT_ENV,
    VERDICT_SAFE,
    analyze_staleness,
    analyze_windows,
    probe_run,
)
from repro.core.pipeline import compile_source
from repro.ir.instructions import InstrId
from repro.lang import ast as lang_ast
from repro.runtime.detector import build_detector_plan
from repro.sensors.environment import Environment, constant
from repro.verify import VerifyBounds, verify_program

BOUNDS = VerifyBounds(
    max_activations=1, max_failures=1, max_cycles=100_000, max_states=50_000
)

#: One required input on every path, a cheap span: structurally SAFE
#: wherever regions make bits survive, ENV-DEPENDENT under bare JIT.
SRC_STRAIGHT = """\
inputs temp;

fn main() {
  let t = input(temp);
  Fresh(t);
  let u = t + 1;
  log(u);
}
"""

#: The required input executes on only one branch arm: fires even on the
#: failure-free run when the arm is not taken.
SRC_ONE_ARM = """\
inputs cond, temp;

fn main() {
  let t = 0;
  let c = input(cond);
  if c > 0 {
    t = input(temp);
  }
  Fresh(t);
  log(t);
}
"""

#: A long work span between input and use: the minimum input-to-use
#: distance exceeds the usable-energy window.
SRC_LONG_SPAN = """\
inputs temp;

fn main() {
  let t = input(temp);
  work(5000);
  Fresh(t);
  let u = t + 1;
  log(u);
}
"""

#: A loop between input and use (compiled with ``unroll_loops=False`` so
#: the CFG keeps the back edge): the upper window bound must widen to
#: infinity while the lower bound stays finite.
SRC_LOOP = """\
inputs temp;

fn main() {
  let t = input(temp);
  repeat 5 {
    work(10);
  }
  Fresh(t);
  let u = t + 1;
  log(u);
}
"""


def _env(compiled, value: int) -> Environment:
    env = Environment()
    for channel in compiled.module.channels:
        env.bind(channel, constant(value))
    return env


class TestInterval:
    def test_never_requires_both_none(self):
        with pytest.raises(ValueError):
            Interval(lo=None, hi=3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(lo=5, hi=2)

    def test_shift_moves_both_bounds(self):
        assert Interval(2, 7).shift(3, 4) == Interval(5, 11)

    def test_shift_unknown_cost_unbounds_hi(self):
        assert Interval(2, 7).shift(3, None) == Interval(5, None)

    def test_shift_of_never_is_never(self):
        assert NEVER.shift(10, 10) is NEVER

    def test_hull_takes_extremes(self):
        assert Interval(2, 5).hull(Interval(4, 9)) == Interval(2, 9)

    def test_hull_with_never_keeps_finite_lo(self):
        # NEVER = [inf, inf]: joining leaves the minimum but unbounds
        # the maximum.
        assert Interval(2, 5).hull(NEVER) == Interval(2, None)

    def test_render(self):
        assert Interval(3, None).render() == "[3, inf]"
        assert NEVER.render() == "[never]"


class TestLatticeWiden:
    def test_stable_entries_pass_through(self):
        lat = CycleIntervalLattice()
        chain = Chain.of((), InstrId("f", 1))
        fact = {chain: Interval(3, 9)}
        assert lat.widen(fact, dict(fact)) == fact

    def test_growing_hi_jumps_to_infinity(self):
        lat = CycleIntervalLattice()
        chain = Chain.of((), InstrId("f", 1))
        out = lat.widen({chain: Interval(3, 9)}, {chain: Interval(3, 12)})
        assert out[chain] == Interval(3, None)

    def test_shrinking_lo_jumps_to_zero(self):
        lat = CycleIntervalLattice()
        chain = Chain.of((), InstrId("f", 1))
        out = lat.widen({chain: Interval(5, 9)}, {chain: Interval(2, 9)})
        assert out[chain] == Interval(0, 9)

    def test_join_treats_missing_as_never(self):
        lat = CycleIntervalLattice()
        chain = Chain.of((), InstrId("f", 1))
        out = lat.join({chain: Interval(2, 4)}, {})
        assert out[chain] == Interval(2, None)


class TestWindows:
    def test_straight_line_is_exact(self):
        compiled = compile_source(SRC_STRAIGHT, "jit")
        plan = build_detector_plan(compiled.policies)
        result = analyze_windows(compiled.module, plan.bit_chains)
        (site,) = plan.checks
        (required,) = plan.checks_at(site)[0].required
        window = result.window(site, required)
        assert window.lo == window.hi  # single path, no joins
        assert window.lo > 0

    def test_boot_clock_present_everywhere(self):
        compiled = compile_source(SRC_STRAIGHT, "jit")
        plan = build_detector_plan(compiled.policies)
        result = analyze_windows(compiled.module, plan.bit_chains)
        (site,) = plan.checks
        assert not result.window(site, BOOT).never

    def test_loop_widens_hi_keeps_finite_lo(self):
        from tests.conftest import JIT_LOOPS

        compiled = compile_source(SRC_LOOP, JIT_LOOPS)
        plan = build_detector_plan(compiled.policies)
        result = analyze_windows(compiled.module, plan.bit_chains)
        site = min(plan.checks)
        check = plan.checks_at(site)[0]
        temp_chain = min(check.required)
        window = result.window(site, temp_chain)
        assert window.lo is not None  # zero-trip path keeps a real minimum
        assert window.hi is None  # loop trips widen the maximum away

    def test_unanalyzed_site_reads_never(self):
        compiled = compile_source(SRC_STRAIGHT, "jit")
        plan = build_detector_plan(compiled.policies)
        result = analyze_windows(compiled.module, plan.bit_chains)
        ghost = Chain.of((), InstrId("nowhere", 99))
        assert result.window(ghost, BOOT).never


class TestProbe:
    def test_records_reached_sites_and_firings(self):
        compiled = compile_source(SRC_ONE_ARM, "jit")
        plan = build_detector_plan(compiled.policies)
        # cond = 0: the arm is skipped, the fresh check fires.
        result = probe_run(compiled, _env(compiled, 0), plan)
        assert result.completed
        assert result.executed
        assert result.fired

    def test_clean_program_fires_nothing(self):
        compiled = compile_source(SRC_STRAIGHT, "jit")
        plan = build_detector_plan(compiled.policies)
        result = probe_run(compiled, _env(compiled, 1), plan)
        assert result.completed
        assert not result.fired


class TestVerdicts:
    def test_structural_safe_under_regions(self):
        compiled = compile_source(SRC_STRAIGHT, "ocelot")
        report = analyze_staleness(compiled, [("one", _env(compiled, 1))])
        assert report.counts() == {
            VERDICT_SAFE: 1,
            VERDICT_DOOMED: 0,
            VERDICT_ENV: 0,
        }
        (verdict,) = report.verdicts
        assert "must-available" in verdict.reason
        assert verdict.level == "info"

    def test_env_dependent_under_jit(self):
        compiled = compile_source(SRC_STRAIGHT, "jit")
        report = analyze_staleness(compiled, [("one", _env(compiled, 1))])
        (verdict,) = report.verdicts
        assert verdict.verdict == VERDICT_ENV
        assert verdict.level == "warning"
        assert verdict.windows  # reports the cycle windows

    def test_env_available_safe(self):
        # The branch folds under a constant environment, putting the
        # required input on every feasible path.
        compiled = compile_source(SRC_ONE_ARM, "ocelot")
        report = analyze_staleness(compiled, [("one", _env(compiled, 1))])
        (verdict,) = report.verdicts
        assert verdict.verdict == VERDICT_SAFE
        assert verdict.safe_envs == ("one",)
        assert "every registered environment" in verdict.reason

    def test_doomed_fires_without_failure(self):
        compiled = compile_source(SRC_ONE_ARM, "jit")
        report = analyze_staleness(compiled, [("zero", _env(compiled, 0))])
        (verdict,) = report.verdicts
        assert verdict.verdict == VERDICT_DOOMED
        assert "without power failures" in verdict.reason
        assert verdict.witness
        assert verdict.level == "error"

    def test_doomed_stale_window(self):
        compiled = compile_source(SRC_LONG_SPAN, "jit")
        report = analyze_staleness(compiled, [("zero", _env(compiled, 0))])
        doomed = report.by_verdict(VERDICT_DOOMED)
        assert doomed, report.render_text()
        verdict = doomed[0]
        assert verdict.threshold is not None
        assert verdict.threshold > report.window_cycles
        assert "usable-energy window" in verdict.reason

    def test_window_override_flips_stale_verdict(self):
        compiled = compile_source(SRC_LONG_SPAN, "jit")
        generous = analyze_staleness(
            compiled, [("zero", _env(compiled, 0))], window=1_000_000
        )
        assert not generous.by_verdict(VERDICT_DOOMED)

    def test_consistent_fixit_names_dominator_block(self):
        src = """\
inputs a, b;

fn main() {
  let consistent(1) x = input(a);
  work(40);
  let consistent(1) y = input(b);
  Consistent(y, 1);
  log(x + y);
}
"""
        compiled = compile_source(src, "jit")
        report = analyze_staleness(compiled, [("one", _env(compiled, 1))])
        consistent = [v for v in report.verdicts if v.kind == "consistent"]
        assert consistent
        assert any(v.fixits for v in consistent)
        assert any("atomic region" in f for v in consistent for f in v.fixits)


class TestReport:
    def test_exit_codes_gate_by_severity(self):
        compiled = compile_source(SRC_ONE_ARM, "jit")
        doomed = analyze_staleness(compiled, [("zero", _env(compiled, 0))])
        assert doomed.exit_code("error") == 1
        assert doomed.exit_code("never") == 0
        clean = analyze_staleness(
            compile_source(SRC_STRAIGHT, "ocelot"),
            [("one", _env(compiled, 1))],
        )
        assert clean.exit_code("error") == 0
        assert clean.exit_code("warning") == 0
        warn = analyze_staleness(
            compile_source(SRC_STRAIGHT, "jit"),
            [("one", _env(compiled, 1))],
        )
        assert warn.exit_code("error") == 0
        assert warn.exit_code("warning") == 1

    def test_diagnostics_carry_lint_stage_and_levels(self):
        from repro.core.passes.base import DIAG_ERROR

        compiled = compile_source(SRC_ONE_ARM, "jit")
        report = analyze_staleness(compiled, [("zero", _env(compiled, 0))])
        diags = report.diagnostics()
        assert diags
        assert all(d.stage == "lint" for d in diags)
        assert any(d.level == DIAG_ERROR for d in diags)

    def test_to_dict_roundtrips_through_json(self):
        import json

        compiled = compile_source(SRC_LONG_SPAN, "jit")
        report = analyze_staleness(compiled, [("zero", _env(compiled, 0))])
        data = json.loads(json.dumps(report.to_dict()))
        assert data["config"] == "jit"
        assert data["summary"] == report.counts()
        assert len(data["verdicts"]) == len(report.verdicts)

    def test_relevant_bits_excludes_safe_only_bits(self):
        compiled = compile_source(SRC_STRAIGHT, "ocelot")
        report = analyze_staleness(compiled, [("one", _env(compiled, 1))])
        assert report.counts()[VERDICT_SAFE] == len(report.verdicts)
        assert report.relevant_bits() == frozenset()

    def test_doomed_uids_name_trigger_sites(self):
        compiled = compile_source(SRC_ONE_ARM, "jit")
        report = analyze_staleness(compiled, [("zero", _env(compiled, 0))])
        (verdict,) = report.by_verdict(VERDICT_DOOMED)
        assert report.doomed_uids() == frozenset({verdict.site.op})


class TestSpecialize:
    def test_constant_channels_need_period_one(self):
        env = Environment()
        env.bind("a", constant(7))
        assert constant_channels(env) == {"a": 7}

    def test_fold_expr_mirrors_machine_ops(self):
        expr = lang_ast.Binary(
            op="+",
            lhs=lang_ast.IntLit(value=2),
            rhs=lang_ast.Var(name="x"),
        )
        assert fold_expr(expr, {"x": 3}) == 5
        assert fold_expr(expr, {}) is None

    def test_noop_when_no_constant_channel(self):
        compiled = compile_source(SRC_ONE_ARM, "jit")
        env = Environment()  # nothing bound
        assert specialize_module(compiled.module, env) is compiled.module

    def test_folded_branch_keeps_uid(self):
        from repro.ir import instructions as ir

        compiled = compile_source(SRC_ONE_ARM, "jit")
        module = specialize_module(compiled.module, _env(compiled, 1))
        assert module is not compiled.module
        original = compiled.module.function("main")
        specialized = module.function("main")
        folded = [
            (name, block.terminator)
            for name, block in specialized.blocks.items()
            if isinstance(block.terminator, ir.Jump)
            and isinstance(original.blocks[name].terminator, ir.Branch)
        ]
        assert folded
        for name, terminator in folded:
            assert terminator.uid == original.blocks[name].terminator.uid


class TestVerifierGuidance:
    def test_seeded_search_reaches_same_verdict_faster_or_equal(self):
        compiled = compile_source(SRC_ONE_ARM, "jit")
        env = _env(compiled, 0)
        report = analyze_staleness(compiled, [("zero", env)])
        plan = build_detector_plan(compiled.policies)
        plain = verify_program(
            compiled, env, bounds=BOUNDS, plan=plan, minimize=False
        )
        guided = verify_program(
            compiled,
            env,
            bounds=BOUNDS,
            plan=plan,
            minimize=False,
            seed_uids=report.doomed_uids(),
            relevant_bits=report.relevant_bits(),
        )
        assert guided.kind == plain.kind
        assert guided.stats.explored <= plain.stats.explored

    def test_relevant_bits_pruning_preserves_proof(self):
        compiled = compile_source(SRC_STRAIGHT, "ocelot")
        env = _env(compiled, 1)
        report = analyze_staleness(compiled, [("one", env)])
        plain = verify_program(compiled, env, bounds=BOUNDS, minimize=False)
        guided = verify_program(
            compiled,
            env,
            bounds=BOUNDS,
            minimize=False,
            seed_uids=report.doomed_uids(),
            relevant_bits=report.relevant_bits(),
        )
        assert plain.kind == "proof"
        assert guided.kind == "proof"
        assert guided.stats.explored <= plain.stats.explored
