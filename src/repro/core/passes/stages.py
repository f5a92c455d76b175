"""Concrete toolchain passes (the boxes of Figure 3).

Each pass is a frozen dataclass so pipelines are pure data: parameters
participate in the pipeline fingerprint, and therefore in compile-cache
keys.  Ablation configs like ``ocelot-noguard`` are declared by swapping
in a pass with a different parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.analysis.policies import build_policies
from repro.analysis.taint import analyze_module
from repro.baselines.atomics_only import atomics_only_transform
from repro.core.checker import check_program
from repro.core.inference import infer_atomic
from repro.core.passes.base import (
    DIAG_ERROR,
    BuildContext,
    CompileError,
    PipelineError,
)
from repro.core.war import annotate_omegas
from repro.ir.lowering import LoweringOptions, lower_program
from repro.ir.verify import verify_module
from repro.lang.validate import validate_program


@dataclass(frozen=True)
class ShapeAtomicsOnly:
    """Rewrite the program into the Atomics-only (DINO-style) shape."""

    name: ClassVar[str] = "shape-atomics"

    def run(self, ctx: BuildContext) -> None:
        ctx.program = atomics_only_transform(ctx.program)
        ctx.diag(self.name, "applied the Atomics-only region transform")


@dataclass(frozen=True)
class Validate:
    """Validate the (possibly reshaped) program and gather ProgramInfo."""

    name: ClassVar[str] = "validate"

    def run(self, ctx: BuildContext) -> None:
        ctx.info = validate_program(ctx.program)
        ctx.diag(self.name, f"validated {len(ctx.program.functions)} function(s)")


@dataclass(frozen=True)
class Lower:
    """Lower the AST to the CFG-based IR (``getAnnotations`` input).

    ``keep_manual_atomics=False`` strips programmer regions (the pure JIT
    baseline); ``guard_outputs`` and ``unroll_loops`` are the
    :class:`~repro.ir.lowering.LoweringOptions` of the same names.
    """

    name: ClassVar[str] = "lower"

    keep_manual_atomics: bool = True
    guard_outputs: bool = True
    unroll_loops: bool = True

    def run(self, ctx: BuildContext) -> None:
        options = LoweringOptions(
            guard_outputs=self.guard_outputs,
            keep_manual_atomics=self.keep_manual_atomics,
            unroll_loops=self.unroll_loops,
        )
        ctx.module = lower_program(ctx.program, options=options, info=ctx.info)
        ctx.diag(
            self.name,
            f"lowered to {len(ctx.module.functions)} IR function(s) "
            f"({sum(1 for _ in ctx.module.all_instrs())} instructions)",
        )


@dataclass(frozen=True)
class VerifyIR:
    """Structural IR well-formedness checks (after lowering / rewriting)."""

    name: ClassVar[str] = "verify-ir"

    def run(self, ctx: BuildContext) -> None:
        verify_module(ctx.need_module())


@dataclass(frozen=True)
class Taint:
    """The interprocedural input-taint analysis (Algorithm 2).

    Runs once per pipeline.  In enforcing pipelines it runs before region
    inference, which only inserts atomic markers into the analyzed module
    in place (omega stamping then fills in their checkpoint sets), and the
    analysis skips inferred markers, so the same facts feed inference and
    the checks.  Debug builds re-check them on the final module; see
    :class:`~repro.core.passes.base.PassManager`.
    """

    name: ClassVar[str] = "taint"

    def run(self, ctx: BuildContext) -> None:
        ctx.taint = analyze_module(ctx.need_module())
        ctx.diag(
            self.name,
            f"{len(ctx.taint.annot_inputs)} annotated site(s), "
            f"{len(ctx.taint.uses)} policy use set(s)",
        )


@dataclass(frozen=True)
class BuildPolicies:
    """Policy construction from taint facts (``buildSummary`` of Figure 3)."""

    name: ClassVar[str] = "policies"

    def run(self, ctx: BuildContext) -> None:
        ctx.policies = build_policies(ctx.need_taint())
        ctx.diag(self.name, f"built {len(ctx.policies)} policy declaration(s)")


@dataclass(frozen=True)
class InferRegions:
    """Atomic-region inference + insertion (Algorithm 1).

    ``include_trivial`` also materializes regions for trivially enforced
    policies.
    """

    name: ClassVar[str] = "infer-regions"

    include_trivial: bool = False

    def run(self, ctx: BuildContext) -> None:
        ctx.policy_map, ctx.regions = infer_atomic(
            ctx.need_module(),
            ctx.need_policies(),
            include_trivial=self.include_trivial,
        )
        ctx.diag(self.name, f"inserted {len(ctx.regions)} inferred region(s)")


@dataclass(frozen=True)
class AnnotateOmegas:
    """WAR/EMW analysis stamping undo-log omega sets on every region."""

    name: ClassVar[str] = "war-omegas"

    def run(self, ctx: BuildContext) -> None:
        ctx.region_infos = annotate_omegas(ctx.need_module())
        ctx.diag(self.name, f"stamped {len(ctx.region_infos)} region(s)")


@dataclass(frozen=True)
class Check:
    """The Section 5.2 checks over the final, instrumented module.

    ``enforced=True`` marks a configuration that promises correctness:
    under strict options a failing report raises :class:`CompileError`.
    ``use_region_map=False`` checks without the inference's policy map
    (the JIT baseline, which inserted no regions).
    """

    name: ClassVar[str] = "check"

    enforced: bool = True
    use_region_map: bool = True
    include_trivial: bool = False

    def run(self, ctx: BuildContext) -> None:
        ctx.check = check_program(
            ctx.need_module(),
            ctx.need_policies(),
            ctx.need_taint(),
            ctx.policy_map if self.use_region_map else None,
            include_trivial=self.include_trivial,
        )
        for failure in ctx.check.failures:
            ctx.diag(self.name, failure, level=DIAG_ERROR)
        if not ctx.check.failures:
            ctx.diag(self.name, "all policy checks passed")
        if self.enforced and ctx.options.strict and not ctx.check.ok:
            raise CompileError(
                f"{ctx.config_name} build failed policy checks: "
                f"{ctx.check.failures[:3]}"
            )


@dataclass(frozen=True)
class OptimizeChecks:
    """The check optimizer: rewrite the detector plan with fewer queries.

    Runs the :mod:`repro.ir.opt` passes -- redundant-check elimination,
    check hoisting, check coalescing (each toggleable for the ablation
    configs) -- over the final analyzed module and stores the resulting
    :class:`~repro.ir.opt.OptimizedPlan` as the build's detector plan.
    Observation-stream equivalence with the unoptimized plan is the
    pass's contract (the parity suite enforces it bit-exactly); under
    ``BuildContext.debug`` the plan's structural soundness invariants
    are re-verified here, failing the build with this stage named.
    """

    name: ClassVar[str] = "opt-checks"

    eliminate: bool = True
    hoist: bool = True
    coalesce: bool = True

    def run(self, ctx: BuildContext) -> None:
        from repro.ir.opt import optimize_checks, verify_plan

        result = optimize_checks(
            ctx.need_module(),
            ctx.need_policies(),
            eliminate=self.eliminate,
            hoist=self.hoist,
            coalesce=self.coalesce,
        )
        if ctx.debug:
            try:
                verify_plan(result.baseline, result.plan)
            except ValueError as exc:
                raise PipelineError(
                    f"optimized check plan failed verification in pass "
                    f"'{self.name}' of config '{ctx.config_name}': {exc}"
                ) from exc
        ctx.check_plan = result.plan
        ctx.dataflow = result.dataflow
        for stats in result.plan.passes:
            ctx.diag(self.name, stats.render())
        ctx.diag(
            self.name,
            f"{result.plan.baseline_checks} check(s) -> "
            f"{result.plan.static_queries} static quer(y/ies), "
            f"{len(result.plan.elided)} elided outright",
        )
