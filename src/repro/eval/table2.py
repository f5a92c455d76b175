"""Table 2: correctness of Ocelot vs JIT.

(a) **Pathological injection**: power failures are injected exactly where
they can expose a timing violation -- "immediately before the use of a
fresh variable and between input operations in a consistent set" (Section
7.3).  Every detector check site is one pathological point; a benchmark's
row reports the percentage of injection runs that produced a violation.
Expected: Ocelot 0% everywhere, JIT 100% everywhere.

(b) **Intermittent power**: benchmarks loop on the standard harvesting
profile for a fixed logical-time window; the row reports the percentage of
*complete* runs containing a violation.  Expected: Ocelot 0% everywhere;
JIT rates ordered by how much of each program the constraints span (paper:
Photo 77, Activity/SendPhoto 50, Greenhouse 24, Tire 3, CEM 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import BENCHMARKS
from repro.eval.campaign import (
    MODE_INJECTION,
    CampaignSpec,
    EnvironmentSpec,
    Executor,
    SupplySpec,
    cells,
    run_campaign,
)
from repro.eval.profiles import STANDARD_BUDGET_CYCLES, STANDARD_PROFILE, EnergyProfile
from repro.eval.report import Table

#: Paper's Table 2b JIT percentages, for side-by-side reporting.
PAPER_2B_JIT = {
    "activity": 50,
    "cem": 0,
    "greenhouse": 24,
    "photo": 77,
    "send_photo": 50,
    "tire": 3,
}


@dataclass
class Table2aRow:
    app: str
    #: config -> (violating runs, total injection runs)
    results: dict[str, tuple[int, int]]

    def rate(self, config: str) -> float:
        violating, total = self.results[config]
        return 100.0 * violating / total if total else 0.0


def injection_spec(
    configs: tuple[str, ...] = ("ocelot", "jit"),
    off_cycles: int = 25_000,
    seed: int = 0,
) -> CampaignSpec:
    """The Table 2a grid: a failure at every detector check site."""
    return CampaignSpec(
        name="table2a-injection",
        apps=tuple(BENCHMARKS),
        configs=configs,
        environments=(EnvironmentSpec(env_seed=seed),),
        supplies=(SupplySpec.continuous(),),
        seeds=(seed,),
        mode=MODE_INJECTION,
        off_cycles=off_cycles,
    )


def measure_table2a(
    configs: tuple[str, ...] = ("ocelot", "jit"),
    off_cycles: int = 25_000,
    seed: int = 0,
    executor: Executor | None = None,
) -> list[Table2aRow]:
    result = run_campaign(injection_spec(configs, off_cycles, seed), executor)
    by_cell = cells(result)
    rows: list[Table2aRow] = []
    for name in BENCHMARKS:
        results: dict[str, tuple[int, int]] = {}
        for config in configs:
            job = by_cell[(name, config)]
            results[config] = (job.injection_violating, job.injection_points)
        rows.append(Table2aRow(app=name, results=results))
    return rows


def table2a(rows: list[Table2aRow] | None = None) -> Table:
    rows = rows if rows is not None else measure_table2a()
    table = Table(
        title="Table 2a: % violating with pathological power-failure points",
        headers=["App", "Ocelot", "JIT", "injection points"],
    )
    for row in rows:
        table.add_row(
            row.app,
            f"{row.rate('ocelot'):.0f}%",
            f"{row.rate('jit'):.0f}%",
            row.results["jit"][1],
        )
    table.add_note("paper: Ocelot 0% and JIT 100% on every benchmark")
    return table


@dataclass
class Table2bRow:
    app: str
    #: config -> (violation rate 0..1, completed runs)
    results: dict[str, tuple[float, int]]


def intermittent_spec(
    configs: tuple[str, ...] = ("ocelot", "jit"),
    profile: EnergyProfile = STANDARD_PROFILE,
    budget: int = STANDARD_BUDGET_CYCLES,
    seed: int = 0,
) -> CampaignSpec:
    """The Table 2b grid: intermittent power for a fixed budget."""
    return CampaignSpec(
        name="table2b-intermittent",
        apps=tuple(BENCHMARKS),
        configs=configs,
        environments=(EnvironmentSpec(env_seed=seed),),
        supplies=(SupplySpec.from_profile(profile, seed_offset=23),),
        seeds=(seed,),
        budget_cycles=budget,
    )


def measure_table2b(
    configs: tuple[str, ...] = ("ocelot", "jit"),
    profile: EnergyProfile = STANDARD_PROFILE,
    budget: int = STANDARD_BUDGET_CYCLES,
    seed: int = 0,
    executor: Executor | None = None,
) -> list[Table2bRow]:
    result = run_campaign(
        intermittent_spec(configs, profile, budget, seed), executor
    )
    by_cell = cells(result)
    rows: list[Table2bRow] = []
    for name in BENCHMARKS:
        results: dict[str, tuple[float, int]] = {}
        for config in configs:
            job = by_cell[(name, config)]
            results[config] = (job.violation_rate, job.completed_runs)
        rows.append(Table2bRow(app=name, results=results))
    return rows


def table2b(rows: list[Table2bRow] | None = None) -> Table:
    rows = rows if rows is not None else measure_table2b()
    table = Table(
        title="Table 2b: % violating while running intermittently",
        headers=["App", "Ocelot", "JIT", "JIT (paper)", "completed runs"],
    )
    for row in rows:
        table.add_row(
            row.app,
            f"{row.results['ocelot'][0] * 100:.0f}%",
            f"{row.results['jit'][0] * 100:.0f}%",
            f"{PAPER_2B_JIT[row.app]}%",
            row.results["jit"][1],
        )
    table.add_note(
        "fixed logical-time window per benchmark (the paper used 100 s "
        "wall-clock); rates depend on constraint-span fractions"
    )
    return table


if __name__ == "__main__":
    print(table2a().render_text())
    print()
    print(table2b().render_text())
