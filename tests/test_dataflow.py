"""The generic dataflow framework and its convergence guarantees."""

from __future__ import annotations

import pytest

from repro.analysis.availability import analyze_availability
from repro.analysis.dataflow import (
    BACKWARD,
    FORWARD,
    AllPathsLattice,
    ConvergenceError,
    FunctionDataflow,
    ReachInfo,
    SetIntersectLattice,
    SetUnionLattice,
    stabilize,
)
from repro.analysis.provenance import Chain
from repro.analysis.taint import TaintAnalysis, analyze_module
from repro.ir.lowering import lower_program
from repro.lang.parser import parse_program

#: A diamond with a loop: entry -> branch -> (then | else) -> join -> exit,
#: where the then-arm loops while it holds.
DIAMOND_SRC = """\
inputs ch;

fn main() {
  let c = input(ch);
  let i = 0;
  if c > 0 {
    log(c);
  } else {
    log(0);
  }
  log(i);
}
"""

#: Global taint feedback: `h` reads `g` *before* `g` is written from an
#: input, so the read only sees the taint on the second global round.
FEEDBACK_SRC = """\
inputs ch;
nonvolatile g = 0;

fn main() {
  let h = g;
  g = input(ch);
  log(h);
}
"""


def _main_func(src: str):
    return lower_program(parse_program(src)).function("main")


class TestSolver:
    def test_forward_may_union_at_joins(self):
        func = _main_func(DIAMOND_SRC)
        flow = FunctionDataflow(func)

        class Collect:
            name = "collect-blocks"
            direction = FORWARD
            lattice = SetUnionLattice()

            def boundary(self):
                return frozenset()

            def transfer(self, block_name, fact):
                return fact | {block_name}

        solution = flow.solve(Collect())
        # The exit block's flow-in fact saw both arms of the branch.
        exit_in = solution.in_fact(func.exit)
        arms = [
            name
            for name in func.blocks
            if name not in (func.entry, func.exit)
        ]
        assert any(arm in exit_in for arm in arms)
        assert func.entry in exit_in
        # Forward out-facts include the block itself.
        assert func.exit in solution.out_fact(func.exit)

    def test_forward_must_intersection_at_joins(self):
        func = _main_func(DIAMOND_SRC)
        flow = FunctionDataflow(func)

        class ArmOnly:
            """Each arm generates its own token; the join must keep none."""

            name = "arm-tokens"
            direction = FORWARD
            lattice = SetIntersectLattice()

            def boundary(self):
                return frozenset()

            def transfer(self, block_name, fact):
                succs = flow.successors[block_name]
                if len(succs) == 1 and succs[0] != func.exit:
                    return fact | {block_name}
                return fact

        solution = flow.solve(ArmOnly())
        join_blocks = [
            name
            for name, preds in flow.predecessors.items()
            if len(preds) >= 2
        ]
        assert join_blocks, "diamond program should have a join"
        for join in join_blocks:
            assert solution.in_fact(join) == frozenset()

    def test_backward_all_paths(self):
        func = _main_func(DIAMOND_SRC)
        flow = FunctionDataflow(func)
        branch_block = next(
            name
            for name, succs in flow.successors.items()
            if len(succs) == 2
        )
        one_arm = flow.successors[branch_block][0]

        class HitsArm:
            name = "hits-arm"
            direction = BACKWARD
            lattice = AllPathsLattice()

            def boundary(self):
                return False

            def transfer(self, block_name, fact):
                return block_name == one_arm or fact

        solution = flow.solve(HitsArm())
        # Only one arm hits the site, so at the branch not-all-paths hold.
        arm_facts = [
            solution.out_fact(succ, False)
            for succ in flow.successors[branch_block]
        ]
        assert arm_facts.count(True) == 1

    def test_solver_round_cap_raises_structured_error(self):
        func = _main_func(DIAMOND_SRC)
        flow = FunctionDataflow(func)

        class NonMonotone:
            name = "runaway"
            direction = FORWARD
            lattice = SetUnionLattice()

            def __init__(self):
                self.tick = 0

            def boundary(self):
                return frozenset()

            def transfer(self, block_name, fact):
                self.tick += 1
                return fact | {self.tick}  # grows forever

        with pytest.raises(ConvergenceError) as err:
            flow.solve(NonMonotone(), max_rounds=5)
        assert err.value.analysis == "runaway"
        assert err.value.scope == "main"
        assert err.value.rounds == 5

    def test_reach_info(self):
        func = _main_func(DIAMOND_SRC)
        flow = FunctionDataflow(func)
        reach = ReachInfo.of(flow)
        assert func.exit in reach.reaches[func.entry]
        assert func.entry in reach.reached_by[func.exit]
        between = reach.between(func.entry, func.exit)
        assert func.entry in between and func.exit in between


class TestStabilize:
    def test_runs_until_snapshot_stable(self):
        state = []

        def step():
            if len(state) < 3:
                state.append(len(state))

        rounds = stabilize(step, lambda: len(state), "toy", "unit")
        # 3 growth rounds + 1 confirming round.
        assert rounds == 4
        assert state == [0, 1, 2]

    def test_round_cap_raises(self):
        state = []

        def step():
            state.append(0)

        with pytest.raises(ConvergenceError) as err:
            stabilize(step, lambda: len(state), "toy", "unit", max_rounds=3)
        assert err.value.analysis == "toy"
        assert err.value.rounds == 3

    def test_settled_round_skips_the_confirming_round(self):
        state = []

        def step():
            if len(state) < 3:
                state.append(len(state))

        rounds = stabilize(
            step, lambda: len(state), "toy", "unit", settled=lambda: len(state) == 3
        )
        assert rounds == 3
        assert state == [0, 1, 2]

    def test_settled_is_not_asked_on_the_last_allowed_round(self):
        asked = []

        def settled():
            asked.append(True)
            return True

        state = []
        with pytest.raises(ConvergenceError):
            stabilize(
                lambda: state.append(0),
                lambda: len(state),
                "toy",
                "unit",
                max_rounds=1,
                settled=settled,
            )
        assert asked == []


class TestTaintOnFramework:
    """The taint analysis' fixpoints are framework instances now."""

    def test_outer_fixpoint_cap_is_enforced(self):
        module = lower_program(parse_program(FEEDBACK_SRC))
        # One round is not enough for the read-before-write feedback:
        # `h = g` runs before `g = input(ch)` writes the global, so the
        # read only observes the taint on the second global round.
        with pytest.raises(ConvergenceError) as err:
            TaintAnalysis(module, max_rounds=1).run()
        assert err.value.analysis == "global-taint"
        assert err.value.scope == "main"
        assert err.value.rounds == 1
        # The default cap converges on the same module.
        result = TaintAnalysis(module).run()
        assert result.module is module

    def test_results_unchanged_vs_known_program(self, weather_ocelot):
        # The rewrite onto the framework must not perturb the analysis:
        # weather/ocelot still derives one fresh and one consistent policy.
        kinds = sorted(p.kind for p in weather_ocelot.policies.all_policies())
        assert kinds == ["consistent", "fresh"]
        result = analyze_module(weather_ocelot.module)
        assert set(result.uses) == {
            p.pid
            for p in weather_ocelot.policies.all_policies()
            if p.kind == "fresh"
        }


class TestAvailability:
    def test_nothing_available_outside_regions(self):
        module = lower_program(parse_program(DIAMOND_SRC))
        result = analyze_availability(module)
        # Without atomic regions a JIT reboot can resume anywhere, so no
        # chain is ever must-available.
        assert all(not fact for fact in result.before.values())

    def test_region_inputs_available_at_uses(self, weather_ocelot):
        result = analyze_availability(weather_ocelot.module)
        plan_checks = weather_ocelot.detector_plan().checks
        # weather/ocelot encloses each policy in a region, so at every
        # check site the required chains are must-available.
        baseline = plan_checks if plan_checks else {}
        assert baseline, "weather/ocelot should have check sites"
        for site, checks in baseline.items():
            available = result.at(site)
            for check in checks:
                assert set(check.required) <= set(available), (
                    site,
                    check.pid,
                )

    def test_facts_are_context_qualified(self, calls_ocelot):
        result = analyze_availability(calls_ocelot.module)
        contexts = {chain.context for chain in result.before}
        assert len(contexts) > 1  # facts recorded under call contexts
        assert all(isinstance(c, Chain) for c in result.before)


#: A counted loop kept as a real back edge (``unroll_loops=False``).
LOOP_SRC = """\
inputs ch;

fn main() {
  let t = input(ch);
  repeat 3 {
    work(10);
  }
  log(t);
}
"""

#: A function whose body is empty: entry jumps straight to exit.
EMPTY_FN_SRC = """\
fn nothing() {
}

fn main() {
  nothing();
  log(0);
}
"""


def _loop_module():
    from repro.core.pipeline import compile_source

    from tests.conftest import JIT_LOOPS

    return compile_source(LOOP_SRC, JIT_LOOPS).module


class TestIntervalWidening:
    """The solver's widening hook, driven by the cycle-interval lattice."""

    def test_loop_converges_within_round_cap(self):
        from repro.analysis.staleness import analyze_windows

        module = _loop_module()
        plan_chains = frozenset(
            Chain.of((), instr.uid)
            for func in module.functions.values()
            for block in func.blocks.values()
            for instr in block.all_instrs()
            if type(instr).__name__ == "InputInstr"
        )
        # Without widening the loop grows the upper bound every round
        # and the solver would hit its cap; with it, this terminates.
        result = analyze_windows(module, plan_chains)
        assert result.rounds > 0

    def test_widened_hi_is_infinite_lo_stays_exact(self):
        from repro.analysis.intervals import Interval
        from repro.analysis.staleness import analyze_windows

        module = _loop_module()
        func = module.function("main")
        input_uid = next(
            instr.uid
            for block in func.blocks.values()
            for instr in block.all_instrs()
            if type(instr).__name__ == "InputInstr"
        )
        chain = Chain.of((), input_uid)
        result = analyze_windows(module, frozenset({chain}))
        post_loop = [
            interval
            for site, fact in result.before.items()
            for tracked, interval in fact.items()
            if tracked == chain and interval.hi is None
        ]
        assert post_loop, "loop never widened any window"
        assert all(isinstance(iv, Interval) for iv in post_loop)
        assert all(iv.lo is not None for iv in post_loop)

    def test_acyclic_diamond_keeps_exact_bounds(self):
        from repro.analysis.staleness import analyze_windows

        module = lower_program(parse_program(DIAMOND_SRC))
        func = module.function("main")
        input_uid = next(
            instr.uid
            for block in func.blocks.values()
            for instr in block.all_instrs()
            if type(instr).__name__ == "InputInstr"
        )
        chain = Chain.of((), input_uid)
        result = analyze_windows(module, frozenset({chain}))
        # Every recorded window on an acyclic CFG stays finite: the
        # merge-count threshold never trips on diamond joins.
        windows = [
            interval
            for fact in result.before.values()
            for tracked, interval in fact.items()
            if tracked == chain
        ]
        assert windows
        assert all(iv.hi is not None for iv in windows)

    def test_round_cap_names_staleness(self):
        from repro.analysis.dataflow import ConvergenceError
        from repro.analysis.staleness import analyze_windows

        module = _loop_module()
        with pytest.raises(ConvergenceError) as err:
            analyze_windows(module, frozenset(), max_rounds=1)
        assert err.value.analysis == "staleness"
        assert err.value.rounds == 1


class TestSolverEdgeCases:
    def test_unreachable_block_gets_no_fact(self):
        from repro.ir import instructions as ir
        from repro.ir.module import BasicBlock, IRFunction

        blocks = {
            "entry": BasicBlock(
                name="entry",
                instrs=[],
                terminator=ir.Jump(target="exit", uid=ir.InstrId("f", 1)),
            ),
            "island": BasicBlock(
                name="island",
                instrs=[],
                terminator=ir.Jump(target="exit", uid=ir.InstrId("f", 2)),
            ),
            "exit": BasicBlock(
                name="exit",
                instrs=[],
                terminator=ir.RetInstr(expr=None, uid=ir.InstrId("f", 3)),
            ),
        }
        func = IRFunction(name="f", params=[], blocks=blocks)

        class Reached:
            name = "reached"
            direction = FORWARD
            lattice = SetUnionLattice()

            def boundary(self):
                return frozenset({"entry"})

            def transfer(self, block_name, fact):
                return fact | {block_name}

        solution = FunctionDataflow(func).solve(Reached())
        assert "entry" in solution.out_fact("exit")
        # First-reaching-fact convention: a block no path enters simply
        # has no fact, rather than a fabricated bottom.
        assert solution.out_fact("island") is None

    def test_empty_function_body_solves(self):
        from repro.analysis.staleness import analyze_windows

        module = lower_program(parse_program(EMPTY_FN_SRC))
        result = analyze_windows(module, frozenset())
        assert result.contexts >= 2  # main plus the called empty body

    def test_empty_tracked_set_still_records_boot(self):
        from repro.analysis.staleness import BOOT, analyze_windows

        module = lower_program(parse_program(EMPTY_FN_SRC))
        result = analyze_windows(module, frozenset())
        assert result.before  # every instruction got a fact
        assert all(BOOT in fact for fact in result.before.values())
