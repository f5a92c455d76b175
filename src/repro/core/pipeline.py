"""The Ocelot compilation toolchain (Figure 3) -- facade.

Compilation is a *pass pipeline* over a mutable build context (see
:mod:`repro.core.passes`): each registered
:class:`~repro.core.passes.BuildConfig` declares the ordered passes of
one configuration, and :func:`compile_program` simply resolves the
configuration and hands the context to a
:class:`~repro.core.passes.PassManager`.  The paper's three
configurations (Section 7.2) are registered pipelines --

* ``ocelot`` -- validate, lower, taint, policies, region inference,
  WAR/EMW omega stamping, Section 5.2 checks.  The analysis runs once:
  inference and stamping only add markers to the analyzed module in
  place, and the analysis skips inferred markers, so its facts hold for
  the final module (debug builds re-check that; see
  :class:`~repro.core.passes.PassManager`);
* ``jit`` -- no manual or inferred regions; it stamps, then analyzes the
  final module, and its check report records the
  violations-by-construction the paper's Table 2 demonstrates;
* ``atomics`` -- the DINO-style whole-program region transform, then the
  Ocelot pipeline on top;

-- and derived ablations (``ocelot-noguard``, ``atomics-trivial``, or
any user-registered config) are declared the same way, so no
``if config == ...`` branching exists in the compile path.

:class:`~repro.core.cache.CompileCache` parses each source once and
calls :func:`compile_program` per configuration; it looks up
``parse_program`` and ``compile_program`` on this module at call time.

This module keeps the historical entry points (``compile_source`` /
``compile_program`` / ``compile_all_configs``) and re-exports the shared
dataclasses (:class:`CompiledProgram`, :class:`PipelineOptions`,
:class:`CompileError`), so existing callers keep working unchanged.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.passes import (
    BuildConfig,
    BuildContext,
    CompiledProgram,
    CompileError,
    PassManager,
    PipelineOptions,
    UnknownConfigError,
    config_names,
    resolve_config,
)
from repro.lang import ast
from repro.lang.parser import parse_program

#: The three build configurations of the evaluation (Section 7.2).
#: More are registered in :mod:`repro.core.passes.config`; use
#: :func:`repro.core.passes.config_names` for the full list.
CONFIG_OCELOT = "ocelot"
CONFIG_JIT = "jit"
CONFIG_ATOMICS = "atomics"
CONFIGS = (CONFIG_OCELOT, CONFIG_JIT, CONFIG_ATOMICS)

ConfigLike = Union[str, BuildConfig]

__all__ = [
    "CONFIG_OCELOT",
    "CONFIG_JIT",
    "CONFIG_ATOMICS",
    "CONFIGS",
    "ConfigLike",
    "CompileError",
    "CompiledProgram",
    "PipelineOptions",
    "UnknownConfigError",
    "compile_program",
    "compile_source",
    "compile_all_configs",
    "config_names",
]


def compile_program(
    program: ast.Program,
    config: ConfigLike = CONFIG_OCELOT,
    options: Optional[PipelineOptions] = None,
    source: Optional[str] = None,
) -> CompiledProgram:
    """Run ``config``'s pass pipeline over ``program``.

    ``config`` is a registered configuration name or a
    :class:`BuildConfig` instance; unknown names raise
    :class:`UnknownConfigError` (a :class:`ValueError`) listing every
    registered name.
    """
    build = resolve_config(config)
    ctx = BuildContext(
        program=program,
        options=options or PipelineOptions(),
        config_name=build.name,
        source=source,
    )
    PassManager(build.passes).run(ctx)
    return ctx.finish()


def compile_source(
    source: str,
    config: ConfigLike = CONFIG_OCELOT,
    options: Optional[PipelineOptions] = None,
) -> CompiledProgram:
    """Parse and compile program text under one build configuration."""
    program = parse_program(source)
    return compile_program(program, config=config, options=options, source=source)


def compile_all_configs(
    source: str, options: Optional[PipelineOptions] = None
) -> dict[str, CompiledProgram]:
    """The three builds of the evaluation, from one annotated source."""
    return {
        config: compile_source(source, config=config, options=options)
        for config in CONFIGS
    }
