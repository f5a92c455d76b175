"""The pass framework behind the Ocelot toolchain.

The Figure 3 toolchain is an ordered sequence of *passes* over one
mutable :class:`BuildContext`: each pass reads the artifacts earlier
passes produced (program, module, taint, policies, regions) and writes
its own.  :class:`PassManager` runs a pipeline, recording per-stage wall
time (:class:`StageTiming`) and structured :class:`Diagnostic` entries
the CLI can dump with ``python -m repro build --emit timings``.

Pipelines are *data*: a tuple of pass instances.  Every pass is a frozen
dataclass, so a pipeline has a stable :func:`pipeline_fingerprint` --
the content-addressed identity the compile cache keys builds on.
Reordering passes, swapping a pass, or changing one parameter changes
the fingerprint, so two builds share a cache entry exactly when they ran
the same passes with the same parameters over the same source.

This module also owns the dataclasses shared by every layer of the
compiler (:class:`PipelineOptions`, :class:`CompiledProgram`,
:class:`CompileError`); :mod:`repro.core.pipeline` re-exports them for
compatibility.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, Sequence, runtime_checkable

from repro.analysis.policies import PolicyDecls, PolicyMap
from repro.analysis.taint import TaintResult, analyze_module
from repro.core.checker import CheckReport
from repro.core.inference import InferredRegion
from repro.core.war import RegionInfo
from repro.ir.module import IRError, Module
from repro.ir.verify import verify_module
from repro.lang import ast
from repro.lang.validate import ProgramInfo

DIAG_INFO = "info"
DIAG_WARNING = "warning"
DIAG_ERROR = "error"

#: Environment switch for :attr:`BuildContext.debug`; the test suite and
#: CI export ``REPRO_DEBUG_VERIFY=1`` so every transforming pass is
#: followed by a full IR verification, and the pipeline's taint facts are
#: checked against a fresh analysis of the final module (bugs fail fast
#: with the offending pass named).
DEBUG_ENV_VAR = "REPRO_DEBUG_VERIFY"


def _debug_default() -> bool:
    return os.environ.get(DEBUG_ENV_VAR, "") not in ("", "0")


class CompileError(Exception):
    """Raised when a build that promises correctness fails its checks."""


class PipelineError(Exception):
    """A malformed pass pipeline (missing stages, artifacts never built)."""


@dataclass
class PipelineOptions:
    """Compilation knobs that apply to *every* configuration.

    What a build computes is set by the pass parameters of its
    :class:`~repro.core.passes.BuildConfig` (an ablation that drops output
    guards, say, is ``Lower(guard_outputs=False)``); options only decide
    whether a build that fails its checks raises.
    """

    #: raise if a correctness-promising config fails the checks
    strict: bool = True


@dataclass(frozen=True)
class Diagnostic:
    """One structured note a pass recorded while running."""

    stage: str
    level: str  # info | warning | error
    message: str

    def to_dict(self) -> dict:
        return {"stage": self.stage, "level": self.level, "message": self.message}

    def render(self) -> str:
        return f"[{self.level:7}] {self.stage}: {self.message}"


@dataclass(frozen=True)
class StageTiming:
    """Wall time of one pass execution within a pipeline run."""

    index: int
    stage: str
    seconds: float

    def to_dict(self) -> dict:
        return {"index": self.index, "stage": self.stage, "seconds": self.seconds}


@dataclass
class BuildContext:
    """Mutable state threaded through a pass pipeline.

    Passes communicate exclusively through this object: earlier stages
    fill in artifacts, later stages consume them via the ``need_*``
    accessors, which turn a missing prerequisite into a clear
    :class:`PipelineError` naming the absent stage.
    """

    program: ast.Program
    options: PipelineOptions = field(default_factory=PipelineOptions)
    config_name: str = "custom"
    source: Optional[str] = None
    #: artifacts, in rough pipeline order
    info: Optional[ProgramInfo] = None
    module: Optional[Module] = None
    taint: Optional[TaintResult] = None
    policies: Optional[PolicyDecls] = None
    policy_map: PolicyMap = field(default_factory=PolicyMap)
    regions: list[InferredRegion] = field(default_factory=list)
    region_infos: list[RegionInfo] = field(default_factory=list)
    check: Optional[CheckReport] = None
    #: optimized detector plan + dataflow summary (the OptimizeChecks pass)
    check_plan: Optional[object] = None
    dataflow: Optional[object] = None
    #: bookkeeping the PassManager and passes append to
    diagnostics: list[Diagnostic] = field(default_factory=list)
    timings: list[StageTiming] = field(default_factory=list)
    #: when set (default: the REPRO_DEBUG_VERIFY env var), the pass
    #: manager re-verifies the IR after every pass once a module exists,
    #: naming the offending pass on failure, and re-checks the taint
    #: facts against a fresh analysis of the final module
    debug: bool = field(default_factory=_debug_default)

    def diag(self, stage: str, message: str, level: str = DIAG_INFO) -> None:
        self.diagnostics.append(Diagnostic(stage=stage, level=level, message=message))

    def _need(self, value, artifact: str, producer: str):
        if value is None:
            raise PipelineError(
                f"pipeline for '{self.config_name}' needs {artifact} but no "
                f"{producer} pass ran yet"
            )
        return value

    def need_module(self) -> Module:
        return self._need(self.module, "an IR module", "Lower")

    def need_taint(self) -> TaintResult:
        return self._need(self.taint, "taint facts", "Taint")

    def need_policies(self) -> PolicyDecls:
        return self._need(self.policies, "policy declarations", "BuildPolicies")

    def finish(self) -> "CompiledProgram":
        """Package the accumulated artifacts into a :class:`CompiledProgram`.

        A pipeline must at least lower and analyze; a missing check is
        tolerated but recorded as a failing report, so an unchecked
        custom pipeline never claims to enforce its policies.
        """
        module = self.need_module()
        taint = self.need_taint()
        policies = self.need_policies()
        check = self.check
        if check is None:
            check = CheckReport(ok=False, failures=["pipeline ran no Check pass"])
            self.diag(
                "finish", "no Check pass ran; build marked non-enforcing",
                level=DIAG_WARNING,
            )
        return CompiledProgram(
            config=self.config_name,
            program=self.program,
            module=module,
            taint=taint,
            policies=policies,
            policy_map=self.policy_map,
            regions=self.regions,
            region_infos=self.region_infos,
            check=check,
            source=self.source,
            timings=list(self.timings),
            diagnostics=list(self.diagnostics),
            check_plan=self.check_plan,
            dataflow=self.dataflow,
        )


@runtime_checkable
class Pass(Protocol):
    """One stage of the toolchain: reads/writes a :class:`BuildContext`."""

    name: str

    def run(self, ctx: BuildContext) -> None: ...


def pass_fingerprint(stage: Pass) -> tuple:
    """Stable identity of one pass: class, declared name, parameters."""
    params: tuple = ()
    if dataclasses.is_dataclass(stage):
        params = dataclasses.astuple(stage)
    return (type(stage).__qualname__, stage.name, params)


def pipeline_fingerprint(passes: Iterable[Pass]) -> str:
    """Content hash of an ordered pass pipeline (the cache-key component)."""
    payload = repr([pass_fingerprint(p) for p in passes])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PassManager:
    """Runs an ordered pass pipeline over one build context.

    Per-pass wall times land in ``ctx.timings`` (one entry per pass
    *execution*, so a pass appearing twice in a pipeline is timed twice).

    Pipelines analyze once, usually before region inference and omega
    stamping, which only insert markers into the analyzed module in
    place, markers the analysis skips; so the first taint facts are the
    final module's facts (``ctx.taint.module is ctx.module``).  Under
    ``ctx.debug`` that argument is checked on every build: after the last
    pass, if taint facts exist, the manager re-runs the analysis on the
    final module and raises :class:`PipelineError`, naming the config and
    the passes that ran after the analysis, when the annotation inputs,
    annotation chains, uses or summary entries differ from ``ctx.taint``.
    """

    def __init__(self, passes: Sequence[Pass]):
        self.passes: tuple[Pass, ...] = tuple(passes)
        if not self.passes:
            raise PipelineError("a pass pipeline needs at least one pass")

    def fingerprint(self) -> str:
        return pipeline_fingerprint(self.passes)

    def run(self, ctx: BuildContext) -> BuildContext:
        analyzed = -1  # index of the last pass that set ctx.taint
        for index, stage in enumerate(self.passes):
            taint = ctx.taint
            started = time.perf_counter()
            stage.run(ctx)
            ctx.timings.append(
                StageTiming(
                    index=index,
                    stage=stage.name,
                    seconds=time.perf_counter() - started,
                )
            )
            if ctx.debug and ctx.module is not None:
                try:
                    verify_module(ctx.module)
                except IRError as exc:
                    raise PipelineError(
                        f"debug IR verification failed after pass "
                        f"'{stage.name}' in config '{ctx.config_name}': {exc}"
                    ) from exc
            if ctx.taint is not taint:
                analyzed = index
        if ctx.debug and ctx.taint is not None:
            _check_taint(ctx, [later.name for later in self.passes[analyzed + 1 :]])
        return ctx


def _check_taint(ctx: BuildContext, after: list[str]) -> None:
    """Debug: ``ctx.taint`` must be the facts of the final module."""
    taint = ctx.taint
    assert taint is not None and ctx.module is not None
    if taint.module is not ctx.module:
        problem = "the taint facts describe another module"
    else:
        fresh = analyze_module(ctx.module)
        differ = [
            name
            for name in ("annot_inputs", "annot_chains", "uses")
            if getattr(fresh, name) != getattr(taint, name)
        ]
        if set(fresh.summaries.all_entries()) != set(taint.summaries.all_entries()):
            differ.append("summaries")
        if not differ:
            return
        problem = (
            f"{', '.join(differ)} differ from a fresh analysis of the final module"
        )
    raise PipelineError(
        f"debug taint cross-check failed in config '{ctx.config_name}' "
        f"(passes after the analysis: {', '.join(after) or 'none'}): {problem}"
    )


@dataclass
class CompiledProgram:
    """Everything the runtime and the evaluation need about one build."""

    config: str
    #: the parsed program the build was lowered from (for Atomics-only
    #: builds, its reshaped copy); read-only, because the compile cache
    #: compiles every build of one source from one parsed program
    program: ast.Program
    module: Module
    taint: TaintResult
    policies: PolicyDecls
    policy_map: PolicyMap
    regions: list[InferredRegion]
    region_infos: list[RegionInfo]
    check: CheckReport
    source: Optional[str] = None
    #: per-pass wall times and structured notes from the build
    timings: list[StageTiming] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: optimized detector plan (OptimizeChecks); when present it *is* the
    #: build's detector plan, so the compile cache -- keyed on the pass
    #: pipeline fingerprint, which includes the optimizer's parameters --
    #: effectively keys engines and decoded code on the optimized plan
    check_plan: object = field(default=None, repr=False, compare=False)
    #: dataflow summary behind the optimized plan (--emit dataflow)
    dataflow: object = field(default=None, repr=False, compare=False)
    #: lazily built and cached; the harness asks once per activation
    _detector_plan: object = field(default=None, repr=False, compare=False)
    #: pre-decoded execution code, one entry per (detector plan, cost
    #: model) pair -- see :func:`repro.runtime.engine.code_for`.  Builds
    #: are interned by the compile cache keyed on (source, pipeline
    #: fingerprint), so this instance cache is fingerprint-keyed too.
    _engine_code: list = field(
        default_factory=list, repr=False, compare=False
    )

    @property
    def enforces_policies(self) -> bool:
        """Did this build pass the Section 5.2 checks?"""
        return self.check.ok

    def detector_plan(self):
        if self.check_plan is not None:
            return self.check_plan
        if self._detector_plan is None:
            from repro.runtime.detector import build_detector_plan

            self._detector_plan = build_detector_plan(self.policies)
        return self._detector_plan
