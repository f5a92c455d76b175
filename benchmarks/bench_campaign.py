"""Benchmark: campaign throughput, cold vs. cached builds.

The campaign engine's pitch is that compilation happens once per
(app, config) pair no matter how many grid cells reuse it.  This
benchmark times the same sweep against an empty compile cache and
warm, and records both in ``BENCH_campaign.json``::

    python benchmarks/bench_campaign.py          # write BENCH_campaign.json
    python benchmarks/bench_campaign.py --quick  # CI gate: small sweep, no record

``--quick`` fails (exit 1) if the warm cache stops paying for itself --
a cold run must recompile and a cached run must not, so pass-pipeline
regressions in compile throughput or cache keying fail the build.
"""

from __future__ import annotations

import benchkit

from repro.core.cache import GLOBAL_CACHE
from repro.eval.campaign import (
    CampaignExecutor,
    CampaignSpec,
    EnvironmentSpec,
    SupplySpec,
    run_campaign,
)
from repro.telemetry import MetricsRegistry, absorb_campaign


def bench_spec(budget: int) -> CampaignSpec:
    """A representative sweep: 3 apps x 3 configs x 2 envs x 2 seeds."""
    return CampaignSpec(
        name="bench-campaign",
        apps=("greenhouse", "tire", "cem"),
        configs=("ocelot", "jit", "atomics"),
        environments=(
            EnvironmentSpec("default", env_seed=0),
            EnvironmentSpec("shifted", env_seed=7),
        ),
        supplies=(SupplySpec.from_profile(seed_offset=23),),
        seeds=(0, 1),
        budget_cycles=budget,
    )


def measure(quick: bool) -> dict:
    """Cold vs. cached campaign throughput, best-of-``rounds``.

    The final cached run is absorbed into the registry and published
    under ``"metrics"``.
    """
    rounds, budget = (1, 20_000) if quick else (3, 60_000)
    spec = bench_spec(budget)
    jobs = spec.size

    def cold():
        GLOBAL_CACHE.clear()
        result = run_campaign(spec, CampaignExecutor())
        assert result.compiles > 0
        return result

    def cached():
        result = run_campaign(spec, CampaignExecutor())
        assert result.compiles == 0
        return result

    registry = MetricsRegistry()
    results = benchkit.best_of(registry, rounds, {
        "bench.campaign.cold.seconds": cold,
        "bench.campaign.cached.seconds": cached,
        "bench.campaign.cached_multiprocess.seconds":
            lambda: run_campaign(
                spec, CampaignExecutor(processes=benchkit.host()["cores"])
            ),
    })
    absorb_campaign(registry, results["bench.campaign.cached.seconds"][-1])
    cold_s, cached_s, parallel_s = (
        registry.histogram(name).min for name in results
    )
    return {
        "benchmark": "campaign-throughput",
        "spec": {
            "apps": len(spec.apps),
            "configs": len(spec.configs),
            "environments": len(spec.environments),
            "seeds": len(spec.seeds),
            "jobs": jobs,
            "budget_cycles": spec.budget_cycles,
        },
        "rounds": rounds,
        **benchkit.host(),
        "cold_seconds": round(cold_s, 4),
        "cached_seconds": round(cached_s, 4),
        "cached_multiprocess_seconds": round(parallel_s, 4),
        "cold_jobs_per_second": round(jobs / cold_s, 2),
        "cached_jobs_per_second": round(jobs / cached_s, 2),
        "cache_speedup": round(cold_s / cached_s, 3),
        "metrics": registry.to_dict(command="bench_campaign"),
    }


def gates(record: dict) -> list[benchkit.Gate]:
    speedup = record["cache_speedup"]
    return [(speedup > 1.0, f"warm cache {speedup}x cold compiles (gate > 1.0)")]


if __name__ == "__main__":
    raise SystemExit(benchkit.main("campaign", measure, gates))
