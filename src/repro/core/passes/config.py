"""Build configurations: named, registered pass pipelines.

A :class:`BuildConfig` replaces the old hardcoded config-string triple:
the three paper configurations (Section 7.2) are *declared* here as pass
pipelines, and new scenarios -- ablations, baselines, sensitivity
variants -- are registered the same way instead of being hand-coded into
the compiler.  Anything that accepts a configuration (the pipeline
facade, the compile cache, the campaign engine, the CLI) resolves either
a registered name or a ``BuildConfig`` instance through this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.passes.base import Pass, pipeline_fingerprint
from repro.core.passes.stages import (
    AnnotateOmegas,
    BuildPolicies,
    Check,
    InferRegions,
    Lower,
    OptimizeChecks,
    ShapeAtomicsOnly,
    Taint,
    Validate,
    VerifyIR,
)


class UnknownConfigError(ValueError):
    """An unregistered configuration name was requested."""


@dataclass(frozen=True)
class BuildConfig:
    """One named build configuration: an ordered pass pipeline."""

    name: str
    passes: tuple[Pass, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a build configuration needs a name")
        if not self.passes:
            raise ValueError(f"config '{self.name}' declares no passes")
        # Accept any iterable of passes but store a tuple (hashable, stable).
        if not isinstance(self.passes, tuple):
            object.__setattr__(self, "passes", tuple(self.passes))

    def fingerprint(self) -> str:
        """Content hash of the pipeline -- the cache identity of builds."""
        return pipeline_fingerprint(self.passes)

    @property
    def enforces(self) -> bool:
        """Does this configuration promise the Section 5.2 guarantees?"""
        return any(
            isinstance(p, Check) and p.enforced for p in self.passes
        )

    def replacing(self, name: str, description: str, **swaps: Pass) -> "BuildConfig":
        """A derived config with passes swapped by stage name.

        ``swaps`` maps a pass's ``name`` (with ``-`` spelled ``_``) to its
        replacement, e.g. ``replacing(..., lower=Lower(guard_outputs=False))``.
        """
        by_stage = {key.replace("_", "-"): value for key, value in swaps.items()}
        passes = tuple(by_stage.get(p.name, p) for p in self.passes)
        missing = set(by_stage) - {p.name for p in self.passes}
        if missing:
            raise ValueError(
                f"config '{self.name}' has no stage(s) {sorted(missing)} to replace"
            )
        return BuildConfig(name=name, passes=passes, description=description)


#: Registry of named configurations (populated below and by callers).
_REGISTRY: dict[str, BuildConfig] = {}


def register_config(config: BuildConfig, replace: bool = False) -> BuildConfig:
    """Register ``config`` under its name; returns it for chaining."""
    existing = _REGISTRY.get(config.name)
    if existing is not None and not replace:
        if existing.fingerprint() == config.fingerprint():
            return existing
        raise ValueError(
            f"config '{config.name}' is already registered with a different "
            "pipeline (pass replace=True to override)"
        )
    _REGISTRY[config.name] = config
    return config


def config_names() -> tuple[str, ...]:
    """Every registered configuration name, sorted."""
    return tuple(sorted(_REGISTRY))


def get_config(name: str) -> BuildConfig:
    """The registered configuration called ``name``.

    Raises :class:`UnknownConfigError` with the full list of registered
    names, so the CLI and the campaign engine report actionable errors.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(config_names())
        raise UnknownConfigError(
            f"unknown build configuration '{name}' (registered: {known})"
        ) from None


def resolve_config(config: Union[str, BuildConfig]) -> BuildConfig:
    """Normalize a configuration argument: registered name or instance."""
    if isinstance(config, BuildConfig):
        return config
    if isinstance(config, str):
        return get_config(config)
    raise TypeError(
        f"expected a config name or BuildConfig, got {type(config).__name__}"
    )


def ensure_registered(config: Union[str, BuildConfig]) -> str:
    """Register ``config`` if needed and return its name.

    Used by the campaign engine so custom ``BuildConfig`` objects become
    resolvable by name inside worker processes (which inherit the
    registry via fork).  A name clash with a *different* pipeline is an
    error rather than a silent override.
    """
    if isinstance(config, str):
        get_config(config)  # raises UnknownConfigError if absent
        return config
    return register_config(config).name


# ---------------------------------------------------------------------------
# The paper's three configurations (Section 7.2), as declared pipelines.

# Each pipeline analyzes once.  Region inference only inserts atomic
# markers into the analyzed module, in place, which the analysis skips, and
# omega stamping only fills in their checkpoint sets, so the facts computed
# before them are the final module's facts; debug builds re-run the
# analysis on the final module to check exactly that (see `PassManager`).
# The JIT baseline stamps first and analyzes the final module directly.

OCELOT = register_config(
    BuildConfig(
        name="ocelot",
        description="full Ocelot: taint, inference, WAR/EMW, Section 5.2 checks",
        passes=(
            Validate(),
            Lower(),
            VerifyIR(),
            Taint(),
            BuildPolicies(),
            InferRegions(),
            VerifyIR(),
            AnnotateOmegas(),
            Check(),
        ),
    )
)

JIT = register_config(
    BuildConfig(
        name="jit",
        description="JIT-only baseline: no manual or inferred regions, "
        "violations detected at runtime",
        passes=(
            Validate(),
            Lower(keep_manual_atomics=False),
            VerifyIR(),
            AnnotateOmegas(),
            Taint(),
            BuildPolicies(),
            Check(enforced=False, use_region_map=False),
        ),
    )
)

ATOMICS = register_config(
    BuildConfig(
        name="atomics",
        description="Atomics-only baseline (DINO-style regions) plus Ocelot "
        "inference on top",
        passes=(
            ShapeAtomicsOnly(),
            Validate(),
            Lower(),
            VerifyIR(),
            Taint(),
            BuildPolicies(),
            InferRegions(),
            VerifyIR(),
            AnnotateOmegas(),
            Check(),
        ),
    )
)

# ---------------------------------------------------------------------------
# Derived configurations: declared, not hand-coded.  These exercise the
# registry and widen the scenario space (ablations the ROADMAP asks for).

OCELOT_NOGUARD = register_config(
    OCELOT.replacing(
        "ocelot-noguard",
        "ablation: Ocelot without the Section 7.2 UART output guards",
        lower=Lower(guard_outputs=False),
    )
)

ATOMICS_TRIVIAL = register_config(
    ATOMICS.replacing(
        "atomics-trivial",
        "ablation: Atomics-only keeping trivially-enforced inferred regions",
        infer_regions=InferRegions(include_trivial=True),
        check=Check(include_trivial=True),
    )
)

# ---------------------------------------------------------------------------
# Check-optimizer configurations: the tuned pipeline plus per-pass
# ablations.  ``ocelot-opt`` is ``ocelot`` with the IR check optimizer
# appended -- same regions, same policies, same checker verdict, but the
# detector plan is rewritten to execute strictly fewer runtime checks
# with bit-exact observation parity (see ``tests/test_opt_parity.py``).

OCELOT_OPT = register_config(
    BuildConfig(
        name="ocelot-opt",
        description="tuned Ocelot: + redundant-check elimination, check "
        "hoisting, and check coalescing over the detector plan",
        passes=(*OCELOT.passes, OptimizeChecks()),
    )
)

OCELOT_NOHOIST = register_config(
    BuildConfig(
        name="ocelot-nohoist",
        description="ablation: the check optimizer without check hoisting",
        passes=(*OCELOT.passes, OptimizeChecks(hoist=False)),
    )
)

OCELOT_NOCOALESCE = register_config(
    BuildConfig(
        name="ocelot-nocoalesce",
        description="ablation: the check optimizer without check coalescing",
        passes=(*OCELOT.passes, OptimizeChecks(coalesce=False)),
    )
)

JIT_OPT = register_config(
    BuildConfig(
        name="jit-opt",
        description="JIT-only baseline + check optimizer: no regions, so "
        "elimination is inert and hoisting/coalescing carry the plan -- "
        "the configuration that stress-tests optimized checks that fire",
        passes=(*JIT.passes, OptimizeChecks()),
    )
)
