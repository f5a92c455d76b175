"""Figure 7: continuous-power runtimes of JIT / Atomics-only / Ocelot.

Each benchmark runs on continuous power under all three build
configurations; runtimes are averaged over many activations (the sensed
environment evolves with logical time, so single activations are noisy)
and normalized to the JIT build.  Paper shape targets: Ocelot's geometric
mean within ~10% of JIT; Atomics-only similar except CEM (~2.5x, its undo
log must back the whole compressed-log structure) and Tire (slightly
*faster* than Ocelot, because the flattened outer region amortizes the
frequently-executing inferred region inside it).
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
from repro.eval.profiles import CONTINUOUS_ACTIVATIONS
from repro.eval.report import Table, geometric_mean


@dataclass
class Figure7Row:
    app: str
    cycles: dict[str, float]  # config -> mean on-cycles per activation

    def normalized(self, config: str) -> float:
        return self.cycles[config] / self.cycles["jit"]


def continuous_spec(
    activations: int = CONTINUOUS_ACTIVATIONS,
    seed: int = 0,
    configs: tuple[ConfigLike, ...] = CONFIGS,
) -> CampaignSpec:
    """The Figure 7 grid: every app x config on wall power."""
    return CampaignSpec(
        name="figure7-continuous",
        apps=tuple(BENCHMARKS),
        configs=configs,
        environments=(EnvironmentSpec(env_seed=seed),),
        supplies=(SupplySpec.continuous(),),
        seeds=(seed,),
        budget_cycles=10**12,
        max_activations=activations,
    )


def measure_figure7(
    activations: int = CONTINUOUS_ACTIVATIONS,
    seed: int = 0,
    executor: Executor | None = None,
    configs: tuple[ConfigLike, ...] = CONFIGS,
) -> list[Figure7Row]:
    spec = continuous_spec(activations, seed, configs)
    if "jit" not in spec.configs:
        raise ValueError("figure 7 normalizes to the 'jit' build; include it")
    result = run_campaign(spec, executor)
    by_cell = cells(result)
    rows: list[Figure7Row] = []
    for name in BENCHMARKS:
        cycles: dict[str, float] = {}
        for config in spec.configs:
            job = by_cell[(name, config)]
            assert job.activations, f"{name}/{config} produced no activations"
            cycles[config] = job.cycles_on / job.activations
        rows.append(Figure7Row(app=name, cycles=cycles))
    return rows


def figure7(rows: list[Figure7Row] | None = None) -> Table:
    rows = rows if rows is not None else measure_figure7()
    table = Table(
        title="Figure 7: Continuous runtimes, normalized to JIT",
        headers=["App", "JIT cycles", "Ocelot", "Atomics-only"],
    )
    for row in rows:
        table.add_row(
            row.app,
            int(row.cycles["jit"]),
            row.normalized("ocelot"),
            row.normalized("atomics"),
        )
    table.add_row(
        "gmean",
        "-",
        geometric_mean([r.normalized("ocelot") for r in rows]),
        geometric_mean([r.normalized("atomics") for r in rows]),
    )
    table.add_note(
        "paper: Ocelot gmean ~1.07; Atomics-only ~2.5x on CEM and slightly "
        "faster than Ocelot on Tire"
    )
    return table


if __name__ == "__main__":
    print(figure7().render_text())
