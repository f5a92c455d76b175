"""Check-optimizer parity: optimized builds are bit-identical, but cheaper.

The optimizer's contract (following the formal-foundation discipline: a
transformation is sound iff observable traces are unchanged) is enforced
here bit-exactly: for every app and for hypothesis-generated programs
with seeded check sites, an ``*-opt`` build must produce byte-identical
observation traces, :class:`RunStats`, logical clocks, return values,
and nonvolatile state as its baseline configuration -- across both
execution engines, under continuous, energy-driven, and
scheduled-failure power -- while executing **at most** as many detector
queries, and strictly fewer wherever the baseline checks at all.  The
structural side (every policy-required check accounted for, consumed
queries at least as strong, the checker still passing) is verified via
:func:`repro.ir.opt.verify_plan`.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.provenance import Chain
from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.core.pipeline import compile_source
from repro.eval.profiles import STANDARD_PROFILE, EnergyProfile
from repro.ir.opt import OptimizedPlan, verify_plan
from repro.runtime import engine
from repro.runtime.detector import build_detector_plan
from repro.runtime.engine import ENGINE_FAST, ENGINE_REFERENCE, create_machine
from repro.runtime.supply import ContinuousPower, FailurePoint, ScheduledFailures
from repro.sensors.environment import Environment, random_walk, steps
from tests.strategies import program_sources

#: (baseline config, optimized config) pairs under parity contract.
PAIRS = (
    ("ocelot", "ocelot-opt"),
    ("ocelot", "ocelot-nohoist"),
    ("ocelot", "ocelot-nocoalesce"),
    ("jit", "jit-opt"),
)

_PROFILE = EnergyProfile(
    capacity=2500,
    low_threshold=500,
    boot_fraction=(0.7, 1.0),
    harvest_rate=250,
    harvest_spread=3.0,
)


def _gen_env(seed: int) -> Environment:
    return Environment(
        {
            "alpha": steps([3, 11, 7], 900),
            "beta": random_walk(20, 5, seed=seed, interval=300),
            "gamma": steps([-4, 18], 1500),
        }
    )


def _outcome(engine, compiled, make_env, make_supply, costs=None):
    kwargs = {"costs": costs} if costs is not None else {}
    machine = create_machine(
        engine, compiled, make_env(), make_supply(), **kwargs
    )
    result = machine.run()
    return {
        "trace": tuple(result.trace.events),
        "stats": result.stats,
        "ret": result.ret,
        "tau": machine.tau,
        "nv": machine.nv.snapshot_values(),
        "queries": machine.detector_queries,
    }


def _assert_pair_parity(base, opt, context="", check_queries=True):
    for key in ("trace", "stats", "ret", "tau", "nv"):
        assert base[key] == opt[key], f"{context}: {key} diverged"
    if check_queries:
        # The <= guarantee is per failure-free path: a reboot between a
        # hoisted query and its consumers invalidates the cache, and the
        # consumer's fallback scan can exceed the baseline count for that
        # interrupted pass.  Callers disable the assertion for scenarios
        # that inject power failures.
        assert opt["queries"] <= base["queries"], (
            f"{context}: optimized build executed more checks "
            f"({opt['queries']} > {base['queries']})"
        )


class TestBenchmarkParity:
    """All shipped apps x optimizer configs x supply kinds x engines."""

    def test_apps_bit_identical_with_fewer_checks(self):
        for app, meta in BENCHMARKS.items():
            costs = meta.cost_model()
            for base_cfg, opt_cfg in PAIRS:
                base = GLOBAL_CACHE.get_or_compile(meta.source, base_cfg)
                opt = GLOBAL_CACHE.get_or_compile(meta.source, opt_cfg)
                for supply_kind in ("continuous", "harvest"):
                    if supply_kind == "continuous":
                        def make_supply():
                            return ContinuousPower()
                    else:
                        proto = STANDARD_PROFILE.make_supply(seed=11)

                        def make_supply(proto=proto):
                            return proto.spawn(23)

                    for engine in (ENGINE_REFERENCE, ENGINE_FAST):
                        outcomes = [
                            _outcome(
                                engine,
                                compiled,
                                lambda meta=meta: meta.env_factory(5),
                                make_supply,
                                costs=costs,
                            )
                            for compiled in (base, opt)
                        ]
                        _assert_pair_parity(
                            *outcomes,
                            context=f"{app}/{opt_cfg}/{supply_kind}/{engine}",
                            check_queries=supply_kind == "continuous",
                        )

    @pytest.mark.parametrize("threshold", [1, 10**9], ids=["eager", "never"])
    def test_apps_bit_identical_across_segment_threshold(
        self, threshold, monkeypatch
    ):
        """The sweep above on fresh builds (segment hit counts at zero)
        with every segment compiled on first entry, and with none."""
        monkeypatch.setattr(engine, "SEGMENT_COMPILE_THRESHOLD", threshold)
        for app, meta in BENCHMARKS.items():
            costs = meta.cost_model()
            harvest = functools.partial(
                STANDARD_PROFILE.make_supply(seed=11).spawn, 23
            )
            for base_cfg, opt_cfg in PAIRS:
                builds = [compile_source(meta.source, c) for c in (base_cfg, opt_cfg)]
                for make_supply in (ContinuousPower, harvest):
                    outcomes = [
                        _outcome(
                            ENGINE_FAST,
                            compiled,
                            lambda meta=meta: meta.env_factory(5),
                            make_supply,
                            costs=costs,
                        )
                        for compiled in builds
                    ]
                    _assert_pair_parity(
                        *outcomes, context=f"{app}/{opt_cfg}", check_queries=False
                    )

    def test_region_enforced_apps_drop_all_queries(self):
        """Under full Ocelot the regions subsume every runtime check --
        the paper's central claim, realized as zero detector queries."""
        meta = BENCHMARKS["tire"]
        base = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        opt = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot-opt")
        proto = STANDARD_PROFILE.make_supply(seed=5)
        outcomes = [
            _outcome(
                ENGINE_FAST,
                compiled,
                lambda: meta.env_factory(3),
                lambda: proto.spawn(31),
                costs=meta.cost_model(),
            )
            for compiled in (base, opt)
        ]
        _assert_pair_parity(*outcomes, context="tire/ocelot-opt")
        assert outcomes[0]["queries"] > 0
        assert outcomes[1]["queries"] == 0

    def test_injection_at_every_baseline_check_site(self):
        """Power failures right before each check site: the fallback and
        cache-invalidation paths must stay bit-exact."""
        meta = BENCHMARKS["tire"]
        for base_cfg, opt_cfg in (("ocelot", "ocelot-opt"), ("jit", "jit-opt")):
            base = GLOBAL_CACHE.get_or_compile(meta.source, base_cfg)
            opt = GLOBAL_CACHE.get_or_compile(meta.source, opt_cfg)
            costs = meta.cost_model()
            sites = sorted(base.detector_plan().checks)
            assert sites
            for site in sites:
                for engine in (ENGINE_REFERENCE, ENGINE_FAST):
                    outcomes = [
                        _outcome(
                            engine,
                            compiled,
                            lambda: meta.env_factory(0),
                            lambda site=site: ScheduledFailures(
                                [FailurePoint(chain=site)], off_cycles=25_000
                            ),
                            costs=costs,
                        )
                        for compiled in (base, opt)
                    ]
                    _assert_pair_parity(
                        *outcomes,
                        context=f"{opt_cfg} inject at {site}",
                        check_queries=False,
                    )


class TestStaticPlan:
    """Structural invariants of the optimized plans."""

    def test_plans_verify_and_never_grow(self):
        for app, meta in BENCHMARKS.items():
            for _base_cfg, opt_cfg in PAIRS:
                opt = GLOBAL_CACHE.get_or_compile(meta.source, opt_cfg)
                plan = opt.detector_plan()
                assert isinstance(plan, OptimizedPlan), (app, opt_cfg)
                baseline = build_detector_plan(opt.policies)
                verify_plan(baseline, plan)
                assert plan.static_queries <= baseline.total_checks
                assert plan.bit_chains == baseline.bit_chains

    def test_checker_verdict_matches_baseline(self):
        for app, meta in BENCHMARKS.items():
            for base_cfg, opt_cfg in PAIRS:
                base = GLOBAL_CACHE.get_or_compile(meta.source, base_cfg)
                opt = GLOBAL_CACHE.get_or_compile(meta.source, opt_cfg)
                assert base.check.ok == opt.check.ok, (app, opt_cfg)

    def test_fingerprints_and_cache_keys_differ(self):
        from repro.core.cache import CacheKey
        from repro.core.passes import get_config

        src = BENCHMARKS["tire"].source
        assert (
            get_config("ocelot").fingerprint()
            != get_config("ocelot-opt").fingerprint()
        )
        assert CacheKey.make(src, "ocelot") != CacheKey.make(src, "ocelot-opt")
        assert CacheKey.make(src, "ocelot-opt") != CacheKey.make(
            src, "ocelot-nohoist"
        )

    def test_emit_artifacts_render(self):
        from repro.core.passes import emit_artifact

        opt = GLOBAL_CACHE.get_or_compile(BENCHMARKS["tire"].source, "ocelot-opt")
        assert "static queries" in emit_artifact(opt, "opt")
        assert "availability" in emit_artifact(opt, "dataflow")
        base = GLOBAL_CACHE.get_or_compile(BENCHMARKS["tire"].source, "ocelot")
        assert "no optimized plan" in emit_artifact(base, "opt")
        assert "no dataflow summary" in emit_artifact(base, "dataflow")


HOIST_SRC = """\
inputs alpha, beta;

fn main() {
  let c = input(beta);
  let x = input(alpha);
  Fresh(x);
  if c > 0 {
    log(x);
  } else {
    log(x + 1);
  }
}
"""

COALESCE_SRC = """\
inputs alpha, beta;

fn main() {
  let x = input(alpha);
  Fresh(x);
  let y = input(beta);
  Fresh(y);
  log(x + y);
}
"""

SUBSUME_SRC = """\
inputs alpha;

fn main() {
  let x = input(alpha);
  Fresh(x);
  if x > 2 {
    log(x);
  } else {
    log(0);
  }
  log(x);
}
"""

#: A subsumption anchor (the `h = x` site feeding the nested `k = x`
#: consume) that the hoist pass would also like to convert: converting
#: it must not orphan its consumers' query id.
ANCHOR_VS_HOIST_SRC = """\
inputs alpha, beta;
nonvolatile h = 0;
nonvolatile k = 0;
nonvolatile m = 0;

fn main() {
  let c = input(beta);
  let x = input(alpha);
  Fresh(x);
  if c > 0 {
    h = x;
    if c > 1 {
      k = x;
    }
  } else {
    m = x;
  }
}
"""



def _crafted_env() -> Environment:
    return Environment(
        {"alpha": steps([1, 9], 700), "beta": steps([-3, 4], 500)}
    )


class TestCraftedShapes:
    """Hand-built programs that pin each optimization down individually."""

    def _parity_under_failures(self, src: str, base_cfg="jit", opt_cfg="jit-opt"):
        base = compile_source(src, base_cfg)
        opt = compile_source(src, opt_cfg)
        proto = _PROFILE.make_supply(seed=7)
        scenarios = [lambda: ContinuousPower()] + [
            lambda seed=seed: proto.spawn(seed) for seed in range(6)
        ]
        for site in sorted(base.detector_plan().checks):
            scenarios.append(
                lambda site=site: ScheduledFailures(
                    [FailurePoint(chain=site)], off_cycles=9_000
                )
            )
        for index, make_supply in enumerate(scenarios):
            for engine in (ENGINE_REFERENCE, ENGINE_FAST):
                outcomes = [
                    _outcome(engine, compiled, _crafted_env, make_supply)
                    for compiled in (base, opt)
                ]
                _assert_pair_parity(
                    *outcomes,
                    context=f"{opt_cfg}/{engine}",
                    check_queries=index == 0,  # continuous power only
                )
        return base, opt

    def test_hoisting_synthesizes_a_dominator_query(self):
        base, opt = self._parity_under_failures(HOIST_SRC)
        plan = opt.detector_plan()
        hoists = [
            hoist
            for actions in plan.actions.values()
            for hoist in actions.hoists
        ]
        assert hoists, "both-arm uses should hoist to the branch dominator"
        # Without hoisting the queries stay at the arms.
        nohoist = compile_source(
            HOIST_SRC, "ocelot-nohoist"
        )  # region-enforced: elided instead
        assert nohoist.detector_plan().static_queries <= plan.static_queries

    def test_coalescing_fuses_same_site_checks(self):
        base, opt = self._parity_under_failures(COALESCE_SRC)
        plan = opt.detector_plan()
        fused = [a for a in plan.actions.values() if a.fused is not None]
        assert fused, "two fresh checks at one use site should fuse"
        assert plan.static_queries < build_detector_plan(opt.policies).total_checks

    def test_subsumption_consumes_dominating_query(self):
        from repro.runtime.detector import OP_CONSUME

        base, opt = self._parity_under_failures(SUBSUME_SRC)
        plan = opt.detector_plan()
        consumes = [
            op
            for actions in plan.actions.values()
            for op in actions.ops
            if op.mode == OP_CONSUME
        ]
        assert consumes, "uses dominated by the branch check should consume"

    def test_hoist_never_orphans_subsumption_anchors(self):
        """A subsumption anchor the hoist pass would also like to convert
        must stay behind as a direct query: every consumed query id needs
        a producer (regression: hoisting used to overwrite anchor hids,
        leaving their consumers dangling and failing plan verification)."""
        from repro.runtime.detector import OP_CONSUME, OP_FULL

        _base, opt = self._parity_under_failures(ANCHOR_VS_HOIST_SRC)
        plan = opt.detector_plan()
        producers = {
            op.hid
            for actions in plan.actions.values()
            for op in actions.ops
            if op.mode == OP_FULL and op.hid >= 0
        }
        producers |= {
            hoist.hid
            for actions in plan.actions.values()
            for hoist in actions.hoists
        }
        consumers = {
            op.hid
            for actions in plan.actions.values()
            for op in actions.ops
            if op.mode == OP_CONSUME
        }
        assert consumers, "the nested use should consume a dominating query"
        assert consumers <= producers

    def test_path_clear_sees_cycle_tail_after_site(self):
        """An input after the site in its own block counts as a kill when
        the block sits on a cycle avoiding the anchor (regression: only
        the prefix before the site was scanned)."""
        from repro.ir import instructions as ir
        from repro.ir.module import BasicBlock, IRFunction
        from repro.ir.opt.passes import _Scope
        from repro.lang import ast as lang_ast

        func = IRFunction(name="f", params=[], entry="A", exit="X")
        blocks = {name: BasicBlock(name=name) for name in ("A", "H", "B", "X")}
        func.blocks = blocks
        anchor = func.stamp(ir.SkipInstr())
        site = func.stamp(ir.SkipInstr())
        kill = func.stamp(ir.InputInstr(dest="v", channel="alpha"))
        blocks["A"].instrs = [anchor]
        blocks["A"].terminator = func.stamp(ir.Jump(target="H"))
        blocks["H"].terminator = func.stamp(
            ir.Branch(
                cond=lang_ast.IntLit(value=1),
                true_target="B",
                false_target="X",
            )
        )
        blocks["B"].instrs = [site, kill]  # the kill sits *after* the site
        blocks["B"].terminator = func.stamp(ir.Jump(target="H"))
        blocks["X"].terminator = func.stamp(ir.RetInstr(expr=None))

        scope = _Scope.of((), func)
        required = frozenset({Chain.of((), kill.uid)})
        a_pos = scope.positions[anchor.uid]
        b_pos = scope.positions[site.uid]
        assert scope.executes_before(a_pos, b_pos)
        # B -> H -> B re-executes the input between consecutive site
        # visits without re-passing the anchor in A.
        assert not scope.path_clear(a_pos, b_pos, required)
        # The prefix before the site stays clear when there is no cycle.
        blocks["H"].terminator = func.stamp(
            ir.Branch(
                cond=lang_ast.IntLit(value=1),
                true_target="B",
                false_target="X",
            )
        )
        blocks["B"].terminator = func.stamp(ir.Jump(target="X"))
        acyclic = _Scope.of((), func)
        assert acyclic.path_clear(
            acyclic.positions[anchor.uid],
            acyclic.positions[site.uid],
            required,
        )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=program_sources(min_annotations=1),
    pair=st.sampled_from(PAIRS),
    env_seed=st.integers(0, 50),
)
def test_random_programs_parity_continuous(source, pair, env_seed):
    base_cfg, opt_cfg = pair
    base = compile_source(source, base_cfg)
    opt = compile_source(source, opt_cfg)
    for engine in (ENGINE_REFERENCE, ENGINE_FAST):
        outcomes = [
            _outcome(engine, c, lambda: _gen_env(env_seed), ContinuousPower)
            for c in (base, opt)
        ]
        _assert_pair_parity(*outcomes, context=f"{opt_cfg}/{engine}\n{source}")


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=program_sources(min_annotations=1),
    pair=st.sampled_from(PAIRS),
    env_seed=st.integers(0, 50),
    supply_seed=st.integers(0, 1000),
)
def test_random_programs_parity_energy_driven(source, pair, env_seed, supply_seed):
    base_cfg, opt_cfg = pair
    base = compile_source(source, base_cfg)
    opt = compile_source(source, opt_cfg)
    proto = _PROFILE.make_supply(seed=1)
    outcomes = [
        _outcome(
            ENGINE_FAST,
            c,
            lambda: _gen_env(env_seed),
            lambda: proto.spawn(supply_seed),
        )
        for c in (base, opt)
    ]
    _assert_pair_parity(
        *outcomes, context=f"{opt_cfg}\n{source}", check_queries=False
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=program_sources(min_annotations=1),
    pair=st.sampled_from(PAIRS),
    env_seed=st.integers(0, 50),
    occurrence=st.integers(1, 3),
    data=st.data(),
)
def test_random_programs_parity_scheduled_failures(
    source, pair, env_seed, occurrence, data
):
    """Inject a failure before a random baseline check site, both builds."""
    base_cfg, opt_cfg = pair
    base = compile_source(source, base_cfg)
    opt = compile_source(source, opt_cfg)
    sites = sorted(base.detector_plan().checks)
    if not sites:
        return
    site = data.draw(st.sampled_from(sites))
    for engine in (ENGINE_REFERENCE, ENGINE_FAST):
        outcomes = [
            _outcome(
                engine,
                c,
                lambda: _gen_env(env_seed),
                lambda: ScheduledFailures(
                    [FailurePoint(chain=site, occurrence=occurrence)],
                    off_cycles=8_000,
                ),
            )
            for c in (base, opt)
        ]
        _assert_pair_parity(
            *outcomes,
            context=f"{opt_cfg} fail at {site}\n{source}",
            check_queries=False,
        )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=program_sources(min_annotations=1), pair=st.sampled_from(PAIRS))
def test_random_programs_static_invariants(source, pair):
    """Optimized plans verify structurally and never add queries."""
    _base_cfg, opt_cfg = pair
    opt = compile_source(source, opt_cfg)
    plan = opt.detector_plan()
    assert isinstance(plan, OptimizedPlan)
    baseline = build_detector_plan(opt.policies)
    verify_plan(baseline, plan)
    assert plan.static_queries <= baseline.total_checks
