"""Compile-cache tests: content-addressed keying, hits, invalidation."""

import pytest

from repro.apps import BENCHMARKS
from repro.core.cache import CacheKey, CompileCache, compile_cached
from repro.core.passes import config_names
from repro.core.pipeline import CONFIGS, PipelineOptions, compile_program
from repro.lang.ast import walk_stmts
from repro.lang.errors import SemanticError
from repro.lang.parser import parse_program
from repro.lang.printer import print_program

SOURCE = """\
inputs temp;

fn main() {
  let t = input(temp);
  Fresh(t);
  log(t);
}
"""

OTHER_SOURCE = SOURCE.replace("log(t)", "log(t + 1)")


@pytest.fixture()
def cache():
    return CompileCache()


class TestKeying:
    def test_same_inputs_same_key(self):
        assert CacheKey.make(SOURCE, "ocelot") == CacheKey.make(SOURCE, "ocelot")

    def test_source_changes_key(self):
        assert CacheKey.make(SOURCE, "ocelot") != CacheKey.make(
            OTHER_SOURCE, "ocelot"
        )

    def test_config_changes_key(self):
        keys = {CacheKey.make(SOURCE, config) for config in CONFIGS}
        assert len(keys) == len(CONFIGS)

    def test_options_change_key(self):
        default = CacheKey.make(SOURCE, "ocelot", PipelineOptions())
        tweaked = CacheKey.make(SOURCE, "ocelot", PipelineOptions(strict=False))
        assert default != tweaked

    def test_default_options_key_matches_explicit_default(self):
        assert CacheKey.make(SOURCE, "ocelot") == CacheKey.make(
            SOURCE, "ocelot", PipelineOptions()
        )


class TestHitMiss:
    def test_second_compile_hits(self, cache):
        first = cache.get_or_compile(SOURCE, "ocelot")
        second = cache.get_or_compile(SOURCE, "ocelot")
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.compiles == 1

    def test_info_variant_reports_cached_flag(self, cache):
        _, cached = cache.get_or_compile_with_info(SOURCE, "ocelot")
        assert not cached
        _, cached = cache.get_or_compile_with_info(SOURCE, "ocelot")
        assert cached

    def test_different_source_misses(self, cache):
        cache.get_or_compile(SOURCE, "ocelot")
        cache.get_or_compile(OTHER_SOURCE, "ocelot")
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_different_options_miss(self, cache):
        cache.get_or_compile(SOURCE, "ocelot")
        cache.get_or_compile(SOURCE, "ocelot", PipelineOptions(strict=False))
        assert cache.stats.misses == 2

    def test_different_config_misses(self, cache):
        for config in CONFIGS:
            cache.get_or_compile(SOURCE, config)
        assert cache.stats.misses == len(CONFIGS)
        assert cache.stats.hits == 0


class TestInvalidation:
    def test_clear_forces_recompile(self, cache):
        first = cache.get_or_compile(SOURCE, "ocelot")
        cache.clear()
        assert len(cache) == 0
        second = cache.get_or_compile(SOURCE, "ocelot")
        assert first is not second
        assert cache.stats.misses == 1  # stats reset with the entries

    def test_edited_source_never_served_stale(self, cache):
        stale = cache.get_or_compile(SOURCE, "ocelot")
        fresh = cache.get_or_compile(OTHER_SOURCE, "ocelot")
        assert stale is not fresh
        assert cache.stats.hits == 0

    def test_eviction_respects_max_entries(self):
        cache = CompileCache(max_entries=2)
        cache.get_or_compile(SOURCE, "ocelot")
        cache.get_or_compile(SOURCE, "jit")
        cache.get_or_compile(SOURCE, "atomics")
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # the oldest entry (ocelot) was dropped, so it recompiles
        cache.get_or_compile(SOURCE, "ocelot")
        assert cache.stats.misses == 4

    def test_bad_max_entries_rejected(self):
        with pytest.raises(ValueError):
            CompileCache(max_entries=0)


@pytest.fixture()
def parses(monkeypatch):
    """Sources parsed through ``repro.core.pipeline.parse_program``."""
    import repro.core.pipeline as pipeline

    seen: list[str] = []
    real = pipeline.parse_program

    def counting(source):
        seen.append(source)
        return real(source)

    monkeypatch.setattr(pipeline, "parse_program", counting)
    return seen


class TestParseOnce:
    def test_configs_of_one_source_share_one_parse(self, cache, parses):
        ocelot = cache.get_or_compile(SOURCE, "ocelot")
        jit = cache.get_or_compile(SOURCE, "jit")
        assert parses == [SOURCE]
        assert ocelot.program is jit.program

    def test_clear_forces_a_reparse(self, cache, parses):
        cache.get_or_compile(SOURCE, "ocelot")
        cache.clear()
        cache.get_or_compile(SOURCE, "jit")
        assert parses == [SOURCE, SOURCE]

    def test_evicting_a_sources_last_build_drops_its_program(self, parses):
        cache = CompileCache(max_entries=1)
        cache.get_or_compile(SOURCE, "ocelot")
        cache.get_or_compile(SOURCE, "jit")  # evicts ocelot, keeps the parse
        assert parses == [SOURCE]
        cache.get_or_compile(OTHER_SOURCE, "ocelot")  # evicts SOURCE's last build
        cache.get_or_compile(SOURCE, "ocelot")
        assert parses == [SOURCE, OTHER_SOURCE, SOURCE]

    def test_a_failed_compile_keeps_no_program(self, cache, parses):
        invalid = "inputs temp;\nfn main() {\n  log(y);\n}\n"  # parses, fails validation
        for config in ("ocelot", "jit"):
            with pytest.raises(SemanticError):
                cache.get_or_compile(invalid, config)
        assert parses == [invalid, invalid]


class TestSharedProgramStaysUnchanged:
    @pytest.mark.parametrize("app", sorted(BENCHMARKS))
    def test_every_config_compiles_from_one_parsed_program(self, app):
        program = parse_program(BENCHMARKS[app].source)
        text = print_program(program)
        labels = _labels(program)
        for config in config_names():
            compile_program(program, config, PipelineOptions(strict=False))
        assert print_program(program) == text
        assert _labels(program) == labels


def _labels(program) -> list[tuple[str, int]]:
    return [
        (name, stmt.label)
        for name, func in program.functions.items()
        for stmt in walk_stmts(func.body)
    ]


class TestModuleHelpers:
    def test_compile_cached_uses_explicit_cache(self, cache):
        compiled = compile_cached(SOURCE, "ocelot", cache=cache)
        assert compile_cached(SOURCE, "ocelot", cache=cache) is compiled

    def test_global_cache_shares_builds(self):
        from repro.core.cache import GLOBAL_CACHE

        source = BENCHMARKS["greenhouse"].source
        compiled = GLOBAL_CACHE.get_or_compile(source, "ocelot")
        assert GLOBAL_CACHE.get_or_compile(source, "ocelot") is compiled
        before = GLOBAL_CACHE.stats.hits
        GLOBAL_CACHE.get_or_compile(source, "ocelot")
        assert GLOBAL_CACHE.stats.hits == before + 1


class TestDiagnosticReplay:
    """A cache hit must surface the same pass diagnostics as the cold
    build -- verdicts served from cache silently vanishing would defeat
    any diagnostic-gated CLI (``repro lint`` being the sharpest case)."""

    def test_hit_carries_cold_build_diagnostics(self, cache):
        cold = cache.get_or_compile(SOURCE, "ocelot")
        assert cold.diagnostics, "cold build produced no diagnostics"
        hit, was_cached = cache.get_or_compile_with_info(SOURCE, "ocelot")
        assert was_cached
        assert hit.diagnostics == cold.diagnostics
        assert [d.render() for d in hit.diagnostics] == [
            d.render() for d in cold.diagnostics
        ]

    def test_replay_across_configs(self, cache):
        for config in CONFIGS:
            cold = cache.get_or_compile(SOURCE, config)
            hit, was_cached = cache.get_or_compile_with_info(SOURCE, config)
            assert was_cached, config
            assert hit.diagnostics == cold.diagnostics, config

    def test_lint_verdicts_stable_across_cache_hit(self, cache):
        from repro.analysis.staleness import analyze_staleness

        cold = cache.get_or_compile(SOURCE, "ocelot")
        cold_report = analyze_staleness(cold, probe=False)
        hit, was_cached = cache.get_or_compile_with_info(SOURCE, "ocelot")
        assert was_cached
        hit_report = analyze_staleness(hit, probe=False)
        assert [v.to_dict() for v in hit_report.verdicts] == [
            v.to_dict() for v in cold_report.verdicts
        ]
