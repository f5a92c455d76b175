"""Benchmark: campaign throughput, cold vs. cached builds.

The campaign engine's pitch is that compilation happens once per
(app, config) pair no matter how many grid cells reuse it.  This
benchmark measures the same sweep twice -- once against an empty compile
cache, once warm -- and, run as a script, records the numbers in
``BENCH_campaign.json`` at the repo root so the perf trajectory is
tracked alongside the code::

    python benchmarks/bench_campaign.py          # write BENCH_campaign.json
    python benchmarks/bench_campaign.py --quick  # CI gate: small sweep, no record
    pytest benchmarks/bench_campaign.py          # pytest-benchmark timings

``--quick`` runs a reduced sweep and *fails* (exit 1) if the warm cache
stops paying for itself -- a cold run must recompile and a cached run
must not, so pass-pipeline regressions in compile throughput or cache
keying fail the build.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

try:  # only the pytest entry points need it; script mode runs without
    import pytest
except ModuleNotFoundError:  # pragma: no cover - exercised in CI smoke
    pytest = None

from repro.core.cache import GLOBAL_CACHE
from repro.eval.campaign import (
    CampaignSpec,
    EnvironmentSpec,
    MultiprocessExecutor,
    SerialExecutor,
    SupplySpec,
    run_campaign,
)
from repro.telemetry import MetricsRegistry, absorb_campaign

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"


def bench_spec(budget: int = 60_000) -> CampaignSpec:
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


def run_cold(spec: CampaignSpec):
    GLOBAL_CACHE.clear()
    return run_campaign(spec, SerialExecutor())


def run_cached(spec: CampaignSpec):
    return run_campaign(spec, SerialExecutor())


def test_campaign_cold(benchmark):
    spec = bench_spec()
    result = benchmark(run_cold, spec)
    assert result.compiles == len(spec.apps) * len(spec.configs)


def test_campaign_cached(benchmark):
    spec = bench_spec()
    run_campaign(spec)  # warm the cache outside the timed body
    result = benchmark(run_cached, spec)
    assert result.compiles == 0


def _slow(fn):
    return pytest.mark.slow(fn) if pytest is not None else fn


@_slow
def test_campaign_multiprocess(benchmark):
    spec = bench_spec(budget=120_000)
    run_campaign(spec)  # warm so forked workers inherit builds
    result = benchmark.pedantic(
        run_campaign,
        args=(spec, MultiprocessExecutor()),
        rounds=3,
        iterations=1,
    )
    assert len(result.jobs) == spec.size


def measure(rounds: int = 3, budget: int = 60_000) -> dict:
    """Cold vs. cached campaign throughput, best-of-``rounds``.

    Legs are timed through a :class:`MetricsRegistry` -- the same
    machinery behind the CLI's ``--metrics-out`` -- so this record and
    the metrics schema agree on field names; the final cached run is
    absorbed into the registry and published under ``"metrics"``.
    """
    spec = bench_spec(budget=budget)
    jobs = spec.size

    registry = MetricsRegistry()
    cached = None
    for _ in range(rounds):
        with registry.timer("bench.campaign.cold.seconds"):
            cold = run_cold(spec)
        assert cold.compiles > 0

        with registry.timer("bench.campaign.cached.seconds"):
            cached = run_cached(spec)
        assert cached.compiles == 0

        with registry.timer("bench.campaign.cached_multiprocess.seconds"):
            run_campaign(spec, MultiprocessExecutor())

    absorb_campaign(registry, cached)
    histograms = registry.to_dict()["histograms"]
    cold_s = histograms["bench.campaign.cold.seconds"]["min"]
    cached_s = histograms["bench.campaign.cached.seconds"]["min"]
    parallel_s = histograms["bench.campaign.cached_multiprocess.seconds"]["min"]
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
        "cores": os.cpu_count() or 1,
        "cold_seconds": round(cold_s, 4),
        "cached_seconds": round(cached_s, 4),
        "cached_multiprocess_seconds": round(parallel_s, 4),
        "cold_jobs_per_second": round(jobs / cold_s, 2),
        "cached_jobs_per_second": round(jobs / cached_s, 2),
        "cache_speedup": round(cold_s / cached_s, 3),
        "metrics": registry.to_dict(command="bench_campaign"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="campaign throughput benchmark")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced CI sweep: check cold-vs-cached instead of recording",
    )
    args = parser.parse_args(argv)

    if args.quick:
        record = measure(rounds=1, budget=20_000)
        print(json.dumps(record, indent=2))
        speedup = record["cache_speedup"]
        if speedup <= 1.0:
            print(f"FAIL: warm cache no faster than cold compiles ({speedup=})")
            return 1
        print(f"ok: cache speedup {speedup}x")
        return 0

    record = measure()
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"record written to {RECORD_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
