"""Shared builds of the six benchmarks in all three configurations.

Builds come from the content-addressed :data:`repro.core.cache.GLOBAL_CACHE`,
so the CLI, the campaign engine, the table/figure modules, and the
benchmarks all reuse the same compiled programs within one process.
``config`` arguments accept a registered configuration name or a
:class:`~repro.core.passes.BuildConfig` instance.
"""

from __future__ import annotations

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.core.pipeline import CONFIGS, CompiledProgram, ConfigLike


def build(name: str, config: ConfigLike) -> CompiledProgram:
    meta = BENCHMARKS[name]
    return GLOBAL_CACHE.get_or_compile(meta.source, config)


def all_builds(name: str) -> dict[str, CompiledProgram]:
    return {config: build(name, config) for config in CONFIGS}
