"""Figure 8: intermittent runtimes, split into on-time and charging time.

Benchmarks run on the standard harvesting profile; per-activation on-time
and off (charging) time are normalized to the benchmark's *continuous JIT*
runtime, reproducing the stacked bars of Figure 8.  Shape targets: total
runtime dominated by charging (the grey stack); on-time proportions
between configurations mirroring Figure 7's continuous proportions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import BENCHMARKS
from repro.core.pipeline import CONFIGS, ConfigLike
from repro.eval.campaign import (
    CampaignSpec,
    EnvironmentSpec,
    Executor,
    SupplySpec,
    cells,
    run_campaign,
)
from repro.eval.figure7 import Figure7Row, measure_figure7
from repro.eval.profiles import STANDARD_BUDGET_CYCLES, STANDARD_PROFILE, EnergyProfile
from repro.eval.report import Table, geometric_mean


@dataclass
class Figure8Row:
    app: str
    #: config -> (mean on-cycles, mean off-cycles) per activation
    cycles: dict[str, tuple[float, float]]
    continuous_jit: float

    def normalized_on(self, config: str) -> float:
        return self.cycles[config][0] / self.continuous_jit

    def normalized_total(self, config: str) -> float:
        on, off = self.cycles[config]
        return (on + off) / self.continuous_jit


def intermittent_spec(
    profile: EnergyProfile = STANDARD_PROFILE,
    budget: int = STANDARD_BUDGET_CYCLES,
    seed: int = 0,
    configs: tuple[ConfigLike, ...] = CONFIGS,
) -> CampaignSpec:
    """The Figure 8 grid: every app x config on the harvesting testbed."""
    return CampaignSpec(
        name="figure8-intermittent",
        apps=tuple(BENCHMARKS),
        configs=configs,
        environments=(EnvironmentSpec(env_seed=seed),),
        supplies=(SupplySpec.from_profile(profile, seed_offset=17),),
        seeds=(seed,),
        budget_cycles=budget,
    )


def measure_figure8(
    profile: EnergyProfile = STANDARD_PROFILE,
    budget: int = STANDARD_BUDGET_CYCLES,
    seed: int = 0,
    continuous: list[Figure7Row] | None = None,
    executor: Executor | None = None,
    configs: tuple[ConfigLike, ...] = CONFIGS,
) -> list[Figure8Row]:
    continuous = (
        continuous
        if continuous is not None
        else measure_figure7(seed=seed, executor=executor, configs=configs)
    )
    jit_baseline = {row.app: row.cycles["jit"] for row in continuous}
    spec = intermittent_spec(profile, budget, seed, configs)
    result = run_campaign(spec, executor)
    by_cell = cells(result)
    rows: list[Figure8Row] = []
    for name in BENCHMARKS:
        cycles: dict[str, tuple[float, float]] = {}
        for config in spec.configs:
            job = by_cell[(name, config)]
            assert job.completed_runs, f"{name}/{config} completed no activations"
            cycles[config] = (
                job.completed_cycles_on / job.completed_runs,
                job.completed_cycles_off / job.completed_runs,
            )
        rows.append(
            Figure8Row(app=name, cycles=cycles, continuous_jit=jit_baseline[name])
        )
    return rows


def figure8(rows: list[Figure8Row] | None = None) -> Table:
    rows = rows if rows is not None else measure_figure8()
    table = Table(
        title="Figure 8: Intermittent runtimes, normalized to continuous JIT",
        headers=[
            "App",
            "JIT on",
            "JIT total",
            "Ocelot on",
            "Ocelot total",
            "Atomics on",
            "Atomics total",
        ],
    )
    for row in rows:
        table.add_row(
            row.app,
            row.normalized_on("jit"),
            row.normalized_total("jit"),
            row.normalized_on("ocelot"),
            row.normalized_total("ocelot"),
            row.normalized_on("atomics"),
            row.normalized_total("atomics"),
        )
    table.add_row(
        "gmean",
        geometric_mean([r.normalized_on("jit") for r in rows]),
        geometric_mean([r.normalized_total("jit") for r in rows]),
        geometric_mean([r.normalized_on("ocelot") for r in rows]),
        geometric_mean([r.normalized_total("ocelot") for r in rows]),
        geometric_mean([r.normalized_on("atomics") for r in rows]),
        geometric_mean([r.normalized_total("atomics") for r in rows]),
    )
    table.add_note(
        "'on' is execution time; 'total' adds off/charging time, which "
        "dominates (the paper's grey stacked bars)"
    )
    return table


if __name__ == "__main__":
    print(figure8().render_text())
