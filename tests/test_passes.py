"""Pass-based toolchain tests: pipelines, fingerprints, registry, emit.

Covers the API-redesign contracts: the three paper configs are
registered pass pipelines, reordered/modified pipelines produce distinct
cache keys, derived configs run through the campaign engine with
serial/parallel parity, and every stage artifact is dumpable.
"""

import pytest

from repro.core.cache import CacheKey, CompileCache
from repro.core.passes import (
    ARTIFACTS,
    BuildConfig,
    BuildContext,
    BuildPolicies,
    Check,
    InferRegions,
    Lower,
    PassManager,
    PipelineError,
    Taint,
    UnknownConfigError,
    Validate,
    VerifyIR,
    config_names,
    emit_artifact,
    get_config,
    pipeline_fingerprint,
    register_config,
    resolve_config,
)
from repro.core.pipeline import CONFIGS, compile_source
from repro.lang.parser import parse_program

SRC = (
    "inputs temp, pres, hum;\n"
    "fn main() {\n"
    "  let x = input(temp);\n"
    "  Fresh(x);\n"
    "  if x > 5 { alarm(); }\n"
    "  let consistent(1) y = input(pres);\n"
    "  let consistent(1) z = input(hum);\n"
    "  log(y, z);\n"
    "}"
)

ANALYSIS = (Validate(), Lower(), VerifyIR(), Taint(), BuildPolicies())


class TestRegistry:
    def test_paper_configs_registered(self):
        for name in CONFIGS:
            config = get_config(name)
            assert config.name == name
            assert config.passes

    def test_derived_configs_registered(self):
        names = config_names()
        assert "ocelot-noguard" in names
        assert "atomics-trivial" in names

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownConfigError, match="registered:"):
            get_config("turbo")
        with pytest.raises(ValueError):  # UnknownConfigError is a ValueError
            get_config("turbo")

    def test_enforces_flag_matches_check_pass(self):
        assert get_config("ocelot").enforces
        assert get_config("atomics").enforces
        assert not get_config("jit").enforces

    def test_resolve_accepts_instances_and_names(self):
        ocelot = get_config("ocelot")
        assert resolve_config("ocelot") is ocelot
        assert resolve_config(ocelot) is ocelot
        with pytest.raises(TypeError):
            resolve_config(42)

    def test_reregistering_same_pipeline_is_idempotent(self):
        ocelot = get_config("ocelot")
        clone = BuildConfig(name="ocelot", passes=ocelot.passes)
        assert register_config(clone) is ocelot

    def test_name_clash_with_different_pipeline_rejected(self):
        clash = BuildConfig(name="ocelot", passes=(*ANALYSIS, Check()))
        with pytest.raises(ValueError, match="different"):
            register_config(clash)

    def test_replacing_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="no stage"):
            get_config("jit").replacing(
                "jit-x", "bogus", infer_regions=InferRegions()
            )


class TestFingerprints:
    def test_same_pipeline_same_fingerprint(self):
        assert pipeline_fingerprint(ANALYSIS) == pipeline_fingerprint(ANALYSIS)

    def test_reordered_pipeline_changes_fingerprint(self):
        reordered = (Validate(), Lower(), Taint(), VerifyIR(), BuildPolicies())
        assert pipeline_fingerprint(ANALYSIS) != pipeline_fingerprint(reordered)

    def test_pass_parameter_changes_fingerprint(self):
        a = (*ANALYSIS, InferRegions(), Check())
        b = (*ANALYSIS, InferRegions(include_trivial=True), Check())
        assert pipeline_fingerprint(a) != pipeline_fingerprint(b)

    def test_all_registered_configs_have_distinct_fingerprints(self):
        prints = {get_config(n).fingerprint() for n in config_names()}
        assert len(prints) == len(config_names())

    def test_cache_key_uses_pipeline_fingerprint(self):
        reordered = BuildConfig(
            name="reordered-analysis",
            passes=(Validate(), Lower(), Taint(), VerifyIR(), BuildPolicies(), Check()),
        )
        straight = BuildConfig(
            name="straight-analysis",
            passes=(*ANALYSIS, Check()),
        )
        assert CacheKey.make(SRC, reordered) != CacheKey.make(SRC, straight)

    def test_identical_pipelines_share_cache_entries(self):
        # Two configs with different names but the same passes are the
        # same build; the cache must deduplicate them.
        cache = CompileCache()
        alias_a = BuildConfig(name="alias-a", passes=get_config("ocelot").passes)
        alias_b = BuildConfig(name="alias-b", passes=get_config("ocelot").passes)
        first = cache.get_or_compile(SRC, alias_a)
        second = cache.get_or_compile(SRC, alias_b)
        assert first is second
        assert cache.stats.hits == 1

    def test_derived_config_key_differs_from_parent(self):
        assert CacheKey.make(SRC, "ocelot") != CacheKey.make(SRC, "ocelot-noguard")
        assert CacheKey.make(SRC, "atomics") != CacheKey.make(SRC, "atomics-trivial")


class TestPassManager:
    def test_records_one_timing_per_pass_execution(self):
        config = get_config("ocelot")
        compiled = compile_source(SRC, config)
        assert [t.stage for t in compiled.timings] == [
            p.name for p in config.passes
        ]
        assert all(t.seconds >= 0 for t in compiled.timings)
        assert [t.index for t in compiled.timings] == list(
            range(len(config.passes))
        )

    def test_diagnostics_are_structured(self):
        compiled = compile_source(SRC, "ocelot")
        stages = {d.stage for d in compiled.diagnostics}
        assert {"validate", "lower", "taint", "policies", "check"} <= stages
        assert all(d.level in ("info", "warning", "error") for d in compiled.diagnostics)

    def test_jit_records_check_failures_as_error_diagnostics(self):
        compiled = compile_source(SRC, "jit")
        errors = [d for d in compiled.diagnostics if d.level == "error"]
        assert errors
        assert len(errors) == len(compiled.check.failures)

    def test_empty_pipeline_rejected(self):
        with pytest.raises(PipelineError):
            PassManager(())

    def test_missing_lower_is_a_clear_error(self):
        ctx = BuildContext(program=parse_program(SRC))
        with pytest.raises(PipelineError, match="Lower"):
            PassManager((Taint(),)).run(ctx)

    def test_unchecked_pipeline_never_claims_enforcement(self):
        unchecked = BuildConfig(name="unchecked", passes=ANALYSIS)
        compiled = compile_source(SRC, unchecked)
        assert not compiled.enforces_policies
        assert any("no Check pass" in f for f in compiled.check.failures)


class TestDerivedConfigs:
    def test_noguard_drops_uart_regions(self):
        from repro.ir import instructions as ir

        guarded = compile_source(SRC, "ocelot")
        noguard = compile_source(SRC, "ocelot-noguard")
        origins = lambda c: {  # noqa: E731
            i.origin
            for i in c.module.all_instrs()
            if isinstance(i, ir.AtomicStart)
        }
        assert "uart" in origins(guarded)
        assert "uart" not in origins(noguard)
        assert noguard.check.ok

    def test_atomics_trivial_enforces(self):
        compiled = compile_source(SRC, "atomics-trivial")
        assert compiled.check.ok
        assert len(compiled.regions) >= len(compile_source(SRC, "atomics").regions)


class TestDetectorPlanCache:
    def test_plan_built_once_and_reused(self):
        compiled = compile_source(SRC, "ocelot")
        assert compiled.detector_plan() is compiled.detector_plan()
        assert compiled.detector_plan().total_checks > 0


class TestArtifacts:
    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_source(SRC, "ocelot")

    @pytest.mark.parametrize("kind", sorted(ARTIFACTS))
    def test_every_artifact_renders(self, compiled, kind):
        text = emit_artifact(compiled, kind)
        assert isinstance(text, str) and text

    def test_unknown_artifact_lists_known(self, compiled):
        with pytest.raises(ValueError, match="known:"):
            emit_artifact(compiled, "bytecode")

    def test_timings_artifact_totals(self, compiled):
        text = emit_artifact(compiled, "timings")
        assert "total" in text
        assert "check" in text


class TestCampaignCustomConfigs:
    """Derived + custom configs through the campaign engine (serial vs
    parallel bit-identical)."""

    def spec(self, configs):
        from repro.eval.campaign import CampaignSpec, EnvironmentSpec, SupplySpec

        return CampaignSpec(
            name="derived",
            apps=("cem", "greenhouse"),
            configs=configs,
            environments=(EnvironmentSpec(env_seed=0),),
            supplies=(SupplySpec.from_profile(seed_offset=23),),
            seeds=(0,),
            budget_cycles=30_000,
        )

    def test_derived_configs_sweep_with_executor_parity(self):
        from repro.eval.campaign import CampaignExecutor, run_campaign

        spec = self.spec(("ocelot-noguard", "atomics-trivial"))
        serial = run_campaign(spec, CampaignExecutor())
        parallel = run_campaign(spec, CampaignExecutor(processes=2))
        assert serial.fingerprint() == parallel.fingerprint()
        assert {j.config for j in serial.jobs} == {
            "ocelot-noguard",
            "atomics-trivial",
        }
        for job in serial.jobs:
            assert job.completed_runs > 0
            assert job.violating_runs == 0  # both derived configs enforce

    def test_build_config_instances_accepted_and_normalized(self):
        custom = BuildConfig(
            name="ocelot-trivial-regions",
            passes=get_config("ocelot")
            .replacing(
                "ocelot-trivial-regions",
                "test ablation",
                infer_regions=InferRegions(include_trivial=True),
                check=Check(include_trivial=True),
            )
            .passes,
        )
        spec = self.spec((custom, "jit"))
        assert spec.configs == ("ocelot-trivial-regions", "jit")
        from repro.eval.campaign import run_campaign

        result = run_campaign(spec)
        assert {j.config for j in result.jobs} == {"ocelot-trivial-regions", "jit"}

    def test_unknown_config_name_is_a_campaign_error(self):
        from repro.eval.campaign import CampaignError

        with pytest.raises(CampaignError, match="registered:"):
            self.spec(("warpspeed",))
