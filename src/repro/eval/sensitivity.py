"""Sensitivity study: how the headline results vary with the environment.

The paper runs one physical setup ("the off, charging times are dictated
by the physical environment", Section 7.2); a simulator can do better and
show the claims are not artifacts of one operating point.  Two sweeps:

* **Harvest rate** (Figure 8's axis): off-time shrinks with rate, but the
  *on-time* proportions between configurations -- the actual claims --
  stay put, and charging dominates everywhere below wall power.
* **Capacitor size** (Table 2b's axis): bigger buffers mean rarer
  failures and lower JIT violation rates, while Ocelot stays at zero at
  every size that keeps its regions feasible (Section 5.3's boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.eval.profiles import EnergyProfile
from repro.eval.report import Table
from repro.runtime.harness import run_activations


@dataclass
class HarvestPoint:
    rate: int
    #: config -> (mean on-cycles, mean off-cycles)
    cycles: dict[str, tuple[float, float]]

    def off_share(self, config: str) -> float:
        on, off = self.cycles[config]
        return off / (on + off) if on + off else 0.0


def sweep_harvest_rate(
    app: str = "greenhouse",
    rates: tuple[int, ...] = (100, 300, 900),
    budget: int = 120_000,
    seed: int = 0,
) -> list[HarvestPoint]:
    meta = BENCHMARKS[app]
    costs = meta.cost_model()
    points: list[HarvestPoint] = []
    for rate in rates:
        profile = EnergyProfile(harvest_rate=rate)
        cycles: dict[str, tuple[float, float]] = {}
        for config in ("jit", "ocelot"):
            outcome = run_activations(
                GLOBAL_CACHE.get_or_compile(meta.source, config),
                meta.env_factory(seed),
                profile.make_supply(seed=seed + 7),
                budget_cycles=budget,
                costs=costs,
            )
            count = max(1, outcome.completed_runs)
            cycles[config] = (
                outcome.completed_cycles_on / count,
                outcome.completed_cycles_off / count,
            )
        points.append(HarvestPoint(rate=rate, cycles=cycles))
    return points


@dataclass
class CapacityPoint:
    capacity: int
    jit_violation_rate: float
    ocelot_violation_rate: float
    jit_runs: int


def sweep_capacity(
    app: str = "send_photo",
    capacities: tuple[int, ...] = (2400, 3000, 4500),
    budget: int = 150_000,
    seed: int = 0,
) -> list[CapacityPoint]:
    meta = BENCHMARKS[app]
    costs = meta.cost_model()
    points: list[CapacityPoint] = []
    for capacity in capacities:
        profile = EnergyProfile(capacity=capacity)
        rates: dict[str, tuple[float, int]] = {}
        for config in ("jit", "ocelot"):
            outcome = run_activations(
                GLOBAL_CACHE.get_or_compile(meta.source, config),
                meta.env_factory(seed),
                profile.make_supply(seed=seed + 13),
                budget_cycles=budget,
                costs=costs,
            )
            rates[config] = (outcome.violation_rate, outcome.completed_runs)
        points.append(
            CapacityPoint(
                capacity=capacity,
                jit_violation_rate=rates["jit"][0],
                ocelot_violation_rate=rates["ocelot"][0],
                jit_runs=rates["jit"][1],
            )
        )
    return points


def sensitivity_tables(seed: int = 0) -> list[Table]:
    harvest = Table(
        title="Sensitivity: harvest rate vs charging share (greenhouse)",
        headers=["rate (units/kcycle)", "JIT off-share", "Ocelot off-share"],
    )
    for point in sweep_harvest_rate(seed=seed):
        harvest.add_row(
            point.rate,
            point.off_share("jit"),
            point.off_share("ocelot"),
        )
    harvest.add_note("off-share falls with harvest rate; ordering is stable")

    capacity = Table(
        title="Sensitivity: capacitor size vs JIT violation rate (send_photo)",
        headers=["capacity", "JIT violating", "Ocelot violating", "JIT runs"],
    )
    for point in sweep_capacity(seed=seed):
        capacity.add_row(
            point.capacity,
            f"{point.jit_violation_rate * 100:.0f}%",
            f"{point.ocelot_violation_rate * 100:.0f}%",
            point.jit_runs,
        )
    capacity.add_note(
        "bigger buffers fail less often, so JIT violates less -- Ocelot is "
        "0% at every feasible size"
    )
    return [harvest, capacity]


if __name__ == "__main__":
    for table in sensitivity_tables():
        print(table.render_text())
        print()
