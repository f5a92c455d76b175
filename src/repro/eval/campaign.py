"""Parallel evaluation campaigns: declarative sweeps over the job matrix.

The paper's evaluation (Tables 1-4, Figures 7-8) is a grid: applications
x build configurations x environments x power supplies x seeds.  The
config axis takes any registered build configuration -- the paper's
three, the shipped ablations, or user-registered
:class:`~repro.core.passes.BuildConfig` pipelines.  A
:class:`CampaignSpec` describes that grid declaratively; :func:`run_campaign`
expands it into picklable :class:`JobSpec` entries, executes them through a
pluggable executor (:class:`CampaignExecutor` on any number of workers),
and aggregates the per-job outcomes into a :class:`CampaignResult` with a
stable JSON encoding.

Every piece that crosses a process boundary -- job specs, job results --
is built from primitives only (no closures, no IR objects), so the
multiprocessing backend can fan jobs out with plain pickling.  Programs
compile once per campaign through :data:`repro.core.cache.GLOBAL_CACHE`:
the parent precompiles every (app, config) pair before forking, so worker
processes inherit warm builds and report ``compile_cached=True``.

Two job modes cover the paper's experimental regimes:

* ``activations`` -- repeated activations for a logical-time budget
  (Figures 7-8, Table 2b); continuous power is just a supply kind.
* ``injection`` -- pathological power failures at every detector check
  site (Table 2a).
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass
from typing import Optional, Protocol, Sequence

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.core.passes import (
    BuildConfig,
    UnknownConfigError,
    ensure_registered,
)
from repro.core.pipeline import CONFIGS, ConfigLike
from repro.ir.instructions import InstrId
from repro.eval.profiles import (
    STANDARD_BUDGET_CYCLES,
    STANDARD_PROFILE,
    EnergyProfile,
)
from repro.eval.report import Table
from repro.parallel import fork_map
from repro.runtime.engine import ENGINE_FAST, ENGINES
from repro.runtime.executor import MachineConfig
from repro.runtime.harness import ActivationRecord, run_activations, run_once
from repro.runtime.supply import (
    ContinuousPower,
    FailurePoint,
    PowerSupply,
    ScheduledFailures,
)
from repro.sensors.environment import Environment, bind_signal_specs
from repro.telemetry.trace import span as _span

MODE_ACTIVATIONS = "activations"
MODE_INJECTION = "injection"
MODES = (MODE_ACTIVATIONS, MODE_INJECTION)

SUPPLY_CONTINUOUS = "continuous"
SUPPLY_HARVEST = "harvest"
SUPPLY_SCHEDULE = "schedule"


class CampaignError(ValueError):
    """A malformed campaign spec (unknown app, config, mode, ...)."""


# ---------------------------------------------------------------------------
# Declarative axes


@dataclass(frozen=True)
class EnvironmentSpec:
    """One sensed-world configuration, described by data only.

    ``env_seed`` feeds the application's own environment factory;
    ``overrides`` rebind individual channels with textual signal specs
    (same grammar as the CLI's ``--set``: ``"42"`` or ``"1,5:200"``),
    keeping the spec picklable and JSON-serializable.
    """

    name: str = "default"
    env_seed: int = 0
    overrides: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        # Validate override grammar up front: a bad spec string should
        # fail the campaign at construction, not a worker mid-sweep.
        try:
            bind_signal_specs(Environment(), self.overrides)
        except ValueError as exc:
            raise CampaignError(
                f"environment '{self.name}' override {exc}"
            ) from None

    def build(self, app: str) -> Environment:
        meta = BENCHMARKS[app]
        return bind_signal_specs(meta.env_factory(self.env_seed), self.overrides)

    def to_dict(self) -> dict:
        data = {"name": self.name, "env_seed": self.env_seed}
        if self.overrides:
            data["overrides"] = dict(self.overrides)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EnvironmentSpec":
        overrides = tuple(sorted(dict(data.get("overrides", {})).items()))
        return cls(
            name=data.get("name", "default"),
            env_seed=int(data.get("env_seed", 0)),
            overrides=overrides,
        )


@dataclass(frozen=True)
class SupplySpec:
    """One power-supply configuration (continuous wall power or a
    capacitor + harvester setup mirroring :class:`EnergyProfile`).

    ``seed_offset`` decorrelates the supply's randomness from the
    environment seed, matching how the table/figure modules historically
    offset their supply seeds.

    Kind ``schedule`` is a deterministic failure schedule -- typically a
    verifier counterexample (:meth:`repro.verify.Schedule.to_supply_spec`)
    dropped into a campaign: ``points`` holds ``(func, label,
    occurrence)`` triples and ``off_cycles`` the constant recharge time;
    the harvest knobs and seed are ignored (the supply is seed-invariant
    by construction).
    """

    name: str = SUPPLY_HARVEST
    kind: str = SUPPLY_HARVEST
    capacity: int = 3000
    low_threshold: int = 600
    boot_fraction: tuple[float, float] = (0.65, 1.0)
    harvest_rate: int = 300
    harvest_spread: float = 3.0
    seed_offset: int = 0
    points: tuple[tuple[str, int, int], ...] = ()
    off_cycles: int = 10_000

    def __post_init__(self) -> None:
        if self.kind not in (SUPPLY_CONTINUOUS, SUPPLY_HARVEST, SUPPLY_SCHEDULE):
            raise CampaignError(f"unknown supply kind '{self.kind}'")
        for entry in self.points:
            func, label, occurrence = entry
            if not isinstance(func, str) or int(occurrence) < 1:
                raise CampaignError(f"bad schedule point {entry!r}")

    @classmethod
    def continuous(cls, name: str = SUPPLY_CONTINUOUS) -> "SupplySpec":
        return cls(name=name, kind=SUPPLY_CONTINUOUS)

    @classmethod
    def from_profile(
        cls,
        profile: EnergyProfile = STANDARD_PROFILE,
        name: str = SUPPLY_HARVEST,
        seed_offset: int = 0,
    ) -> "SupplySpec":
        return cls(
            name=name,
            kind=SUPPLY_HARVEST,
            capacity=profile.capacity,
            low_threshold=profile.low_threshold,
            boot_fraction=profile.boot_fraction,
            harvest_rate=profile.harvest_rate,
            harvest_spread=profile.harvest_spread,
            seed_offset=seed_offset,
        )

    def profile(self) -> EnergyProfile:
        return EnergyProfile(
            capacity=self.capacity,
            low_threshold=self.low_threshold,
            boot_fraction=self.boot_fraction,
            harvest_rate=self.harvest_rate,
            harvest_spread=self.harvest_spread,
        )

    def build(self, seed: int) -> PowerSupply:
        if self.kind == SUPPLY_CONTINUOUS:
            return ContinuousPower()
        if self.kind == SUPPLY_SCHEDULE:
            return ScheduledFailures(
                [
                    FailurePoint(
                        uid=InstrId(func, int(label)), occurrence=int(occ)
                    )
                    for func, label, occ in self.points
                ],
                off_cycles=self.off_cycles,
            )
        return self.profile().make_supply(seed=seed + self.seed_offset)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["boot_fraction"] = list(self.boot_fraction)
        data["points"] = [list(p) for p in self.points]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SupplySpec":
        data = dict(data)
        if "boot_fraction" in data:
            data["boot_fraction"] = tuple(data["boot_fraction"])
        if "points" in data:
            data["points"] = tuple(tuple(p) for p in data["points"])
        return cls(**data)


def _config_name(config: ConfigLike) -> str:
    """Normalize one config axis entry to a registered name.

    Accepts a registered name or a :class:`BuildConfig` instance; custom
    instances are registered on the fly so forked workers can resolve
    them by name.
    """
    if isinstance(config, BuildConfig):
        try:
            return ensure_registered(config)
        except ValueError as exc:
            raise CampaignError(str(exc)) from None
    try:
        ensure_registered(config)
    except UnknownConfigError as exc:
        raise CampaignError(str(exc)) from None
    return config


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative grid a campaign sweeps.

    ``expand`` produces one :class:`JobSpec` per point of
    apps x configs x environments x supplies x seeds.  The ``configs``
    axis accepts registered configuration names or
    :class:`~repro.core.passes.BuildConfig` instances (normalized to
    their registered names, so specs stay picklable and
    JSON-serializable).
    """

    apps: tuple[str, ...]
    configs: tuple[ConfigLike, ...] = CONFIGS
    environments: tuple[EnvironmentSpec, ...] = (EnvironmentSpec(),)
    supplies: tuple[SupplySpec, ...] = (SupplySpec(),)
    seeds: tuple[int, ...] = (0,)
    mode: str = MODE_ACTIVATIONS
    budget_cycles: int = STANDARD_BUDGET_CYCLES
    max_activations: int = 100_000
    #: off-time per injected failure (``injection`` mode only)
    off_cycles: int = 25_000
    #: execution engine; results are engine-independent (the parity
    #: suite proves bit-identity), so this is an escape hatch only
    engine: str = ENGINE_FAST
    name: str = "campaign"

    def __post_init__(self) -> None:
        if not self.apps:
            raise CampaignError("campaign needs at least one app")
        if self.engine not in ENGINES:
            raise CampaignError(
                f"unknown engine '{self.engine}'; known: {', '.join(ENGINES)}"
            )
        for app in self.apps:
            if app not in BENCHMARKS:
                known = ", ".join(BENCHMARKS)
                raise CampaignError(f"unknown app '{app}'; known: {known}")
        object.__setattr__(
            self, "configs", tuple(_config_name(c) for c in self.configs)
        )
        if self.mode not in MODES:
            raise CampaignError(
                f"unknown mode '{self.mode}'; known: {', '.join(MODES)}"
            )
        if self.mode == MODE_INJECTION and (
            len(self.supplies) != 1 or len(self.seeds) != 1
        ):
            # Injection replaces the supply with scheduled failures and
            # draws no randomness from the seed; extra axis points would
            # run identical jobs and double-count every aggregate.
            raise CampaignError(
                "injection mode ignores the supply and seed axes; "
                "specify exactly one supply and one seed"
            )
        names = [e.name for e in self.environments]
        if len(set(names)) != len(names):
            raise CampaignError(f"duplicate environment names: {names}")
        names = [s.name for s in self.supplies]
        if len(set(names)) != len(names):
            raise CampaignError(f"duplicate supply names: {names}")

    @property
    def size(self) -> int:
        return (
            len(self.apps)
            * len(self.configs)
            * len(self.environments)
            * len(self.supplies)
            * len(self.seeds)
        )

    def expand(self) -> list["JobSpec"]:
        """The full job matrix, in deterministic grid order."""
        return [
            JobSpec(
                app=app,
                config=config,
                environment=env,
                supply=supply,
                seed=seed,
                mode=self.mode,
                budget_cycles=self.budget_cycles,
                max_activations=self.max_activations,
                off_cycles=self.off_cycles,
                engine=self.engine,
            )
            for app, config, env, supply, seed in itertools.product(
                self.apps, self.configs, self.environments, self.supplies, self.seeds
            )
        ]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "apps": list(self.apps),
            "configs": list(self.configs),
            "environments": [e.to_dict() for e in self.environments],
            "supplies": [s.to_dict() for s in self.supplies],
            "seeds": list(self.seeds),
            "mode": self.mode,
            "budget_cycles": self.budget_cycles,
            "max_activations": self.max_activations,
            "off_cycles": self.off_cycles,
            "engine": self.engine,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        apps = data.get("apps", "all")
        if apps == "all":
            apps = list(BENCHMARKS)
        configs = data.get("configs", list(CONFIGS))
        if configs == "all":
            configs = list(CONFIGS)
        environments = tuple(
            EnvironmentSpec.from_dict(e)
            for e in data.get("environments", [{"name": "default"}])
        )
        supplies = tuple(
            SupplySpec.from_dict(s)
            for s in data.get("supplies", [{"name": SUPPLY_HARVEST}])
        )
        return cls(
            apps=tuple(apps),
            configs=tuple(configs),
            environments=environments,
            supplies=supplies,
            seeds=tuple(data.get("seeds", [0])),
            mode=data.get("mode", MODE_ACTIVATIONS),
            budget_cycles=int(data.get("budget_cycles", STANDARD_BUDGET_CYCLES)),
            max_activations=int(data.get("max_activations", 100_000)),
            off_cycles=int(data.get("off_cycles", 25_000)),
            engine=data.get("engine", ENGINE_FAST),
            name=data.get("name", "campaign"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"campaign spec is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise CampaignError("campaign spec must be a JSON object")
        try:
            return cls.from_dict(data)
        except CampaignError:
            raise
        except (TypeError, ValueError) as exc:
            # Unknown keys, wrong types, non-integer numbers: surface them
            # as spec errors, not tracebacks.
            raise CampaignError(f"malformed campaign spec: {exc}") from None


# ---------------------------------------------------------------------------
# Jobs


@dataclass(frozen=True)
class JobSpec:
    """One cell of the campaign grid; pickles with primitives only."""

    app: str
    config: str
    environment: EnvironmentSpec
    supply: SupplySpec
    seed: int
    mode: str = MODE_ACTIVATIONS
    budget_cycles: int = STANDARD_BUDGET_CYCLES
    max_activations: int = 100_000
    off_cycles: int = 25_000
    engine: str = ENGINE_FAST

    @property
    def job_id(self) -> str:
        return (
            f"{self.app}/{self.config}/{self.environment.name}"
            f"/{self.supply.name}/s{self.seed}"
        )


@dataclass(frozen=True)
class JobResult:
    """Everything a finished job reports, as JSON-ready primitives."""

    job_id: str
    app: str
    config: str
    environment: str
    supply: str
    seed: int
    mode: str
    #: compile-side facts
    region_count: int
    compile_cached: bool
    #: activations mode
    activations: int = 0
    completed_runs: int = 0
    violating_runs: int = 0
    violations: int = 0
    fresh_violations: int = 0
    consistent_violations: int = 0
    cycles_on: int = 0
    cycles_off: int = 0
    completed_cycles_on: int = 0
    completed_cycles_off: int = 0
    reboots: int = 0
    #: injection mode
    injection_points: int = 0
    injection_violating: int = 0
    #: bit-vector detector scans (both modes; deterministic, so part of
    #: the fingerprint -- optimizer wins show up in campaign reports)
    detector_queries: int = 0
    #: not part of the deterministic fingerprint
    wall_time: float = 0.0

    @property
    def violation_rate(self) -> float:
        """Fraction of *complete* runs containing a violation."""
        if self.completed_runs == 0:
            return 0.0
        return self.violating_runs / self.completed_runs

    @property
    def injection_rate(self) -> float:
        """Fraction of fired injection points that produced a violation."""
        if self.injection_points == 0:
            return 0.0
        return self.injection_violating / self.injection_points

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        return cls(**data)

    def fingerprint(self) -> dict:
        """Deterministic payload: drops wall time and cache incidentals."""
        data = self.to_dict()
        data.pop("wall_time")
        data.pop("compile_cached")
        return data


def execute_job(job: JobSpec) -> JobResult:
    """Run one job in the current process (the executor entry point).

    Builds come from the process-wide compile cache; environments and
    supplies are materialized from the job's declarative specs, so a job
    is a pure function of its spec -- serial and multiprocess executors
    produce identical results.
    """
    with _span("campaign.job", "campaign", job=job.job_id):
        return _execute_job(job)


def _execute_job(job: JobSpec) -> JobResult:
    started = time.perf_counter()
    meta = BENCHMARKS[job.app]
    compiled, cached = GLOBAL_CACHE.get_or_compile_with_info(
        meta.source, job.config
    )
    costs = meta.cost_model()
    common = dict(
        job_id=job.job_id,
        app=job.app,
        config=job.config,
        environment=job.environment.name,
        supply=job.supply.name,
        seed=job.seed,
        mode=job.mode,
        region_count=len(compiled.regions),
        compile_cached=cached,
    )

    if job.mode == MODE_INJECTION:
        plan = compiled.detector_plan()
        # Only stats and violation counts are kept: run violations-only.
        config = MachineConfig(emit_observations=False)
        fired = violating = fresh = consistent = reboots = 0
        queries = 0
        for site in sorted(plan.checks):
            env = job.environment.build(job.app)
            supply = ScheduledFailures(
                [FailurePoint(chain=site)], off_cycles=job.off_cycles
            )
            record = ActivationRecord.from_run(
                0,
                run_once(
                    compiled, env, supply, costs=costs, plan=plan,
                    config=config, engine=job.engine,
                ),
            )
            if not record.completed:
                raise RuntimeError(f"{job.job_id} stuck at site {site}")
            queries += record.detector_queries
            if not supply.all_fired:
                # The site sits on a path this environment never takes;
                # no failure was injected, so the run says nothing.
                continue
            fired += 1
            reboots += record.reboots
            fresh += record.fresh_violations
            consistent += record.consistent_violations
            if record.violating:
                violating += 1
        return JobResult(
            **common,
            violations=fresh + consistent,
            fresh_violations=fresh,
            consistent_violations=consistent,
            reboots=reboots,
            injection_points=fired,
            injection_violating=violating,
            detector_queries=queries,
            wall_time=time.perf_counter() - started,
        )

    env = job.environment.build(job.app)
    supply = job.supply.build(job.seed)
    outcome = run_activations(
        compiled,
        env,
        supply,
        budget_cycles=job.budget_cycles,
        costs=costs,
        max_activations=job.max_activations,
        engine=job.engine,
    )
    summary = outcome.summary()
    return JobResult(
        **common,
        activations=summary.activations,
        completed_runs=summary.completed_runs,
        violating_runs=summary.violating_runs,
        violations=summary.violations,
        fresh_violations=summary.fresh_violations,
        consistent_violations=summary.consistent_violations,
        cycles_on=summary.cycles_on,
        cycles_off=summary.cycles_off,
        completed_cycles_on=summary.completed_cycles_on,
        completed_cycles_off=summary.completed_cycles_off,
        reboots=summary.reboots,
        detector_queries=summary.detector_queries,
        wall_time=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Executors


class Executor(Protocol):
    """Anything that can run a batch of jobs and keep their order."""

    name: str

    def run(self, jobs: Sequence[JobSpec]) -> list[JobResult]: ...


class CampaignExecutor:
    """Run jobs on ``processes`` workers (:func:`repro.parallel.fork_map`).

    One worker runs the jobs in-process, in order (the deterministic
    baseline).  More fan them out: workers inherit the parent's warm
    compile cache where ``fork`` exists and resolve the jobs' build
    configurations by name either way; a worker that dies raises
    :class:`~repro.parallel.WorkerError`.
    """

    def __init__(self, processes: int = 1) -> None:
        if processes <= 0:
            raise ValueError("processes must be positive")
        self.processes = processes
        self.name = "serial" if processes == 1 else "multiprocess"

    def run(self, jobs: Sequence[JobSpec]) -> list[JobResult]:
        return fork_map(
            execute_job, jobs, {job.config for job in jobs}, self.processes
        )


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class AggregateRow:
    """Sums over every job of one (app, config) cell."""

    app: str
    config: str
    jobs: int
    activations: int
    completed_runs: int
    violating_runs: int
    violations: int
    fresh_violations: int
    consistent_violations: int
    cycles_on: int
    cycles_off: int
    reboots: int
    region_count: int
    injection_points: int
    injection_violating: int
    detector_queries: int = 0

    @property
    def violation_rate(self) -> float:
        if self.completed_runs == 0:
            return 0.0
        return self.violating_runs / self.completed_runs


@dataclass
class CampaignResult:
    """Every job result plus campaign-level bookkeeping."""

    spec: CampaignSpec
    jobs: list[JobResult]
    executor: str = "serial"
    wall_time: float = 0.0
    compiles: int = 0
    cache_hits: int = 0

    def job(self, job_id: str) -> JobResult:
        for result in self.jobs:
            if result.job_id == job_id:
                return result
        raise KeyError(f"no job '{job_id}' in campaign '{self.spec.name}'")

    def by_cell(self) -> dict[tuple[str, str], list[JobResult]]:
        cells: dict[tuple[str, str], list[JobResult]] = {}
        for result in self.jobs:
            cells.setdefault((result.app, result.config), []).append(result)
        return cells

    def aggregate(self) -> list[AggregateRow]:
        """Per-(app, config) sums, in the spec's grid order."""
        cells = self.by_cell()
        rows = []
        for app in self.spec.apps:
            for config in self.spec.configs:
                members = cells.get((app, config), [])
                if not members:
                    continue
                rows.append(
                    AggregateRow(
                        app=app,
                        config=config,
                        jobs=len(members),
                        activations=sum(r.activations for r in members),
                        completed_runs=sum(r.completed_runs for r in members),
                        violating_runs=sum(r.violating_runs for r in members),
                        violations=sum(r.violations for r in members),
                        fresh_violations=sum(
                            r.fresh_violations for r in members
                        ),
                        consistent_violations=sum(
                            r.consistent_violations for r in members
                        ),
                        cycles_on=sum(r.cycles_on for r in members),
                        cycles_off=sum(r.cycles_off for r in members),
                        reboots=sum(r.reboots for r in members),
                        region_count=members[0].region_count,
                        injection_points=sum(
                            r.injection_points for r in members
                        ),
                        injection_violating=sum(
                            r.injection_violating for r in members
                        ),
                        detector_queries=sum(
                            r.detector_queries for r in members
                        ),
                    )
                )
        return rows

    def fingerprint(self) -> list[dict]:
        """Deterministic view for executor-parity comparisons."""
        return [job.fingerprint() for job in self.jobs]

    def table(self) -> Table:
        table = Table(
            title=f"Campaign '{self.spec.name}' ({self.spec.mode} mode)",
            headers=[
                "App",
                "Config",
                "Jobs",
                "Runs",
                "Violating",
                "Reboots",
                "Regions",
            ],
        )
        for row in self.aggregate():
            runs = (
                row.injection_points
                if self.spec.mode == MODE_INJECTION
                else row.completed_runs
            )
            violating = (
                row.injection_violating
                if self.spec.mode == MODE_INJECTION
                else row.violating_runs
            )
            table.add_row(
                row.app,
                row.config,
                row.jobs,
                runs,
                violating,
                row.reboots,
                row.region_count,
            )
        table.add_note(
            f"{len(self.jobs)} jobs via {self.executor} executor in "
            f"{self.wall_time:.2f}s; {self.compiles} compiles, "
            f"{self.cache_hits} cache hits"
        )
        return table

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "executor": self.executor,
            "wall_time": self.wall_time,
            "compiles": self.compiles,
            "cache_hits": self.cache_hits,
            "jobs": [job.to_dict() for job in self.jobs],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        return cls(
            spec=CampaignSpec.from_dict(data["spec"]),
            jobs=[JobResult.from_dict(j) for j in data["jobs"]],
            executor=data.get("executor", "serial"),
            wall_time=float(data.get("wall_time", 0.0)),
            compiles=int(data.get("compiles", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Driver


def precompile(spec: CampaignSpec) -> int:
    """Warm the global cache with every (app, config) build of ``spec``.

    Returns the number of builds that actually compiled.  Running before
    the executor guarantees each program compiles once per campaign: the
    serial executor then hits on every job, and forked workers inherit
    the warm cache.
    """
    compiled_now = 0
    for app, config in itertools.product(spec.apps, spec.configs):
        meta = BENCHMARKS[app]
        _, cached = GLOBAL_CACHE.get_or_compile_with_info(meta.source, config)
        if not cached:
            compiled_now += 1
    return compiled_now


def run_campaign(
    spec: CampaignSpec, executor: Optional[Executor] = None
) -> CampaignResult:
    """Expand ``spec``, execute every job, and aggregate the results."""
    if executor is None:
        executor = CampaignExecutor()
    started = time.perf_counter()
    with _span("campaign", "campaign", spec=spec.name, executor=executor.name):
        compiles = precompile(spec)
        jobs = spec.expand()
        results = executor.run(jobs)
    cache_hits = sum(1 for r in results if r.compile_cached)
    return CampaignResult(
        spec=spec,
        jobs=results,
        executor=executor.name,
        wall_time=time.perf_counter() - started,
        compiles=compiles,
        cache_hits=cache_hits,
    )


def cells(
    result: CampaignResult,
    environment: Optional[str] = None,
    supply: Optional[str] = None,
    seed: Optional[int] = None,
) -> dict[tuple[str, str], JobResult]:
    """Index one (environment, supply, seed) slice by (app, config).

    The table/figure modules sweep a single environment and supply, so
    this is their bridge from a campaign back to per-cell rows.  Raises
    if the filter leaves more than one job per cell.
    """
    picked: dict[tuple[str, str], JobResult] = {}
    for job in result.jobs:
        if environment is not None and job.environment != environment:
            continue
        if supply is not None and job.supply != supply:
            continue
        if seed is not None and job.seed != seed:
            continue
        key = (job.app, job.config)
        if key in picked:
            raise CampaignError(
                f"ambiguous cell {key}: narrow the environment/supply/seed "
                "filter"
            )
        picked[key] = job
    return picked


def lint_campaign(spec: CampaignSpec) -> dict[tuple[str, str], dict[str, int]]:
    """Static staleness verdict counts for every (app, config) cell.

    Companion to :func:`run_campaign` for ``campaign --lint``: before (or
    instead of) burning cycles on dynamic sweeps, the static analysis
    says which checks are provably SAFE, provably DOOMED, or
    environment-dependent under each build config.  Deliberately *not*
    called from the run path -- the analysis is compile-time machinery,
    so the activation/injection hot loops never pay for it.
    """
    from repro.analysis.staleness import analyze_staleness

    out: dict[tuple[str, str], dict[str, int]] = {}
    for app in spec.apps:
        source = BENCHMARKS[app].source
        for config in spec.configs:
            compiled = GLOBAL_CACHE.get_or_compile(source, config)
            out[(app, config)] = analyze_staleness(compiled).counts()
    return out


def lint_table(spec: CampaignSpec) -> Table:
    """Render :func:`lint_campaign` as the standard report table."""
    from repro.analysis.staleness import (
        VERDICT_DOOMED,
        VERDICT_ENV,
        VERDICT_SAFE,
    )

    table = Table(
        title=f"Campaign '{spec.name}' static lint",
        headers=["App", "Config", "Safe", "Doomed", "Env-dependent"],
    )
    for (app, config), counts in lint_campaign(spec).items():
        table.add_row(
            app,
            config,
            counts[VERDICT_SAFE],
            counts[VERDICT_DOOMED],
            counts[VERDICT_ENV],
        )
    return table
