"""Benchmark application tests: every app compiles, runs, and enforces."""

import pytest

from repro.apps import BENCHMARK_NAMES, BENCHMARKS
from repro.core.pipeline import CONFIGS, compile_source
from repro.runtime.harness import run_activations, run_continuous
from repro.runtime.supply import ContinuousPower, FailurePoint, ScheduledFailures
from repro.runtime.harness import run_once


@pytest.fixture(scope="module")
def builds():
    return {
        name: {cfg: compile_source(meta.source, cfg) for cfg in CONFIGS}
        for name, meta in BENCHMARKS.items()
    }


class TestRegistry:
    def test_six_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 6
        assert set(BENCHMARK_NAMES) == {
            "activity", "cem", "greenhouse", "photo", "send_photo", "tire",
        }

    def test_get_benchmark_unknown(self):
        from repro.apps import get_benchmark

        with pytest.raises(KeyError):
            get_benchmark("nope")

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_metadata_shape(self, name):
        meta = BENCHMARKS[name]
        assert meta.loc > 10
        assert meta.paper_loc > 0
        assert meta.annotation_lines >= 1
        assert set(meta.paper_effort) == {"ocelot", "tics", "samoyed"}

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_environment_covers_channels(self, name):
        meta = BENCHMARKS[name]
        compiled = compile_source(meta.source, "jit")
        env = meta.env_factory(0)
        for channel in compiled.module.channels:
            env.read(channel, 0)  # must not raise


class TestCompilation:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_all_configs_compile(self, builds, name):
        for config in CONFIGS:
            assert builds[name][config].module is not None

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_ocelot_and_atomics_pass_checks(self, builds, name):
        assert builds[name]["ocelot"].check.ok
        assert builds[name]["atomics"].check.ok

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_jit_fails_checks(self, builds, name):
        assert not builds[name]["jit"].check.ok

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_ocelot_inferred_regions_exist(self, builds, name):
        assert builds[name]["ocelot"].taint.annot_inputs
        assert builds[name]["ocelot"].regions


class TestExecution:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_continuous_run_clean(self, builds, name):
        meta = BENCHMARKS[name]
        for config in CONFIGS:
            result = run_continuous(
                builds[name][config], meta.env_factory(0),
                costs=meta.cost_model(),
            )
            assert result.stats.completed, (name, config)
            assert result.stats.violations == 0, (name, config)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_ocelot_survives_every_pathological_point(self, builds, name):
        meta = BENCHMARKS[name]
        compiled = builds[name]["ocelot"]
        plan = compiled.detector_plan()
        for site in sorted(plan.checks):
            result = run_once(
                compiled,
                meta.env_factory(0),
                ScheduledFailures([FailurePoint(chain=site)], off_cycles=20_000),
                costs=meta.cost_model(),
                plan=plan,
            )
            assert result.stats.completed, (name, site)
            assert result.stats.violations == 0, (name, site)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_repeated_activations_accumulate_state(self, builds, name):
        meta = BENCHMARKS[name]
        outcome = run_activations(
            builds[name]["ocelot"],
            meta.env_factory(0),
            ContinuousPower(),
            budget_cycles=10**9,
            costs=meta.cost_model(),
            max_activations=4,
        )
        assert len(outcome.records) == 4
        assert all(r.completed and r.violations == 0 for r in outcome.records)


class TestSourceHygiene:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_annotation_counts_match_source(self, name):
        """The effort-model metadata must agree with the actual source."""
        meta = BENCHMARKS[name]
        text = meta.source
        # "Fresh(" does not substring-match "FreshConsistent(" (the paren
        # differs), so no subtraction is needed for the fresh count.
        fresh = text.count("Fresh(") + text.count("let fresh ")
        consistent = text.count("Consistent(") - text.count("FreshConsistent(")
        consistent += text.count("let consistent(")
        freshcon = text.count("FreshConsistent(")
        assert fresh == meta.fresh_lines, name
        assert consistent == meta.consistent_lines, name
        assert freshcon == meta.freshcon_lines, name

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_constraints_column_is_consistent(self, name):
        meta = BENCHMARKS[name]
        if meta.fresh_lines:
            assert "Fresh" in meta.constraints
        if meta.consistent_lines:
            assert "Con" in meta.constraints
        if meta.freshcon_lines:
            assert "FreshCon" in meta.constraints
