"""Benchmark: fleet throughput -- serial and vectorized, on one or many cores.

The fleet engine's pitch is device scaling: same-class devices batch
through the memoizing vector executor, which replays equivalent
activations instead of stepping them, and independent devices split
across worker processes.  This benchmark times the same fleets both
ways and records devices/second in ``BENCH_fleet.json``::

    python benchmarks/bench_fleet.py          # write BENCH_fleet.json
    python benchmarks/bench_fleet.py --quick  # CI gate: small fleets, no record

Four tiers:

* **heterogeneous** -- serial against the vector executor on one worker
  per core, on a mixed 3-class fleet (parity enforced everywhere; the
  parallel speedup is gated only on multi-core hosts, where the workers
  have something to win -- the record carries the gate decision and its
  reason);
* **memo** -- a homogeneous fleet (one device class, deterministic
  supply randomness) through the vector executor, against a serial
  baseline measured on a sample of the same class.  The full run sizes
  this tier at 500k devices (the cohort engine's cost per wave is
  population-independent); ``--quick`` fails if the vector executor
  stops beating serial by at least 10x -- the memoizer's win is
  core-count independent, so this gate holds on single-core CI too;
* **jittered** -- a stochastic fleet with per-device harvest-rate jitter
  sharing one environment: the case exact supply tokens could never hit
  on.  Quantized supply keys replay the reboot-free prefix across the
  whole population, so the gate asserts a *nonzero* hit rate on top of
  byte parity;
* **persistent** -- the jittered fleet run twice through ``--memo-dir``
  style persistence: the warm run must report ``disk_loads > 0``, a
  strictly better hit rate, and a byte-identical aggregate.
"""

from __future__ import annotations

import tempfile

import benchkit

from repro.eval.campaign import SupplySpec
from repro.fleet import (
    DeviceClass,
    FleetSpec,
    SerialFleetExecutor,
    VectorFleetExecutor,
    aggregate_fingerprint,
    precompile_fleet,
    run_fleet,
)
from repro.telemetry import MetricsRegistry, absorb_fleet


def bench_spec(devices: int, budget: int) -> FleetSpec:
    """A representative heterogeneous fleet, rescaled to ``devices``."""
    spec = FleetSpec(
        name="bench-fleet",
        fleet_seed=17,
        budget_cycles=budget,
        classes=(
            DeviceClass(
                name="tire-ocelot",
                app="tire",
                config="ocelot",
                count=2,
                supply=SupplySpec(harvest_rate=300),
                harvest_jitter=0.5,
                phase_jitter=8_000,
            ),
            DeviceClass(
                name="greenhouse-jit",
                app="greenhouse",
                config="jit",
                count=1,
                harvest_jitter=0.3,
            ),
            DeviceClass(
                name="cem-atomics",
                app="cem",
                config="atomics",
                count=1,
                phase_jitter=10_000,
            ),
        ),
    )
    return spec.with_total_devices(devices)


def uniform_spec(devices: int, budget: int) -> FleetSpec:
    """A homogeneous fleet: the vector executor's representative case.

    One class, deterministic supply randomness (no harvest spread,
    degenerate boot band), no per-device jitter -- every device provably
    repeats device zero, so the memoizer replays nearly everything.
    """
    return FleetSpec(
        name="bench-fleet-uniform",
        fleet_seed=23,
        budget_cycles=budget,
        classes=(
            DeviceClass(
                name="tire-uniform",
                app="tire",
                config="ocelot",
                count=devices,
                supply=SupplySpec(
                    name="rf",
                    harvest_rate=300,
                    harvest_spread=1.0,
                    boot_fraction=(1.0, 1.0),
                ),
            ),
        ),
    )


def jittered_spec(devices: int, budget: int) -> FleetSpec:
    """A stochastic, per-device-jittered fleet sharing one environment.

    Every device draws its own harvest rate (RF shadowing) and boot/off
    randomness, so exact supply tokens are unique per device.  Quantized
    supply keys ride the reboot-free prefix -- the devices share charge
    trajectories until their first power failure scatters them.
    """
    return FleetSpec(
        name="bench-fleet-jittered",
        fleet_seed=31,
        budget_cycles=budget,
        classes=(
            DeviceClass(
                name="tire-jittered",
                app="tire",
                config="ocelot",
                count=devices,
                supply=SupplySpec(harvest_rate=300),
                harvest_jitter=0.5,
            ),
        ),
    )


def measure_parallel(devices: int, budget: int, rounds: int) -> dict:
    """Serial vs. vector-on-every-core fleet throughput, best-of-``rounds``.

    The final serial run is absorbed into the registry and published
    under ``"metrics"``.
    """
    spec = bench_spec(devices, budget)
    precompile_fleet(spec)
    registry = MetricsRegistry()
    results = benchkit.best_of(registry, rounds, {
        "bench.fleet.serial.seconds":
            lambda: run_fleet(spec, SerialFleetExecutor()),
        "bench.fleet.parallel.seconds":
            lambda: run_fleet(
                spec, VectorFleetExecutor(processes=benchkit.host()["cores"])
            ),
    })
    serial, parallel = (runs[-1] for runs in results.values())
    assert aggregate_fingerprint(serial) == aggregate_fingerprint(
        parallel
    ), "serial and parallel aggregates differ"
    absorb_fleet(registry, serial)
    serial_s, parallel_s = (registry.histogram(name).min for name in results)
    return {
        "benchmark": "fleet-throughput",
        "spec": {
            "devices": devices,
            "classes": len(spec.classes),
            "budget_cycles": spec.budget_cycles,
            "activations": serial.aggregate.total_activations,
        },
        "rounds": rounds,
        **benchkit.host(),
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "serial_devices_per_second": round(devices / serial_s, 2),
        "parallel_devices_per_second": round(devices / parallel_s, 2),
        "parallel_speedup": round(serial_s / parallel_s, 3),
        "metrics": registry.to_dict(command="bench_fleet"),
    }


def measure_vector_tier(
    make_spec, devices: int, budget: int, serial_sample: int
) -> dict:
    """The vector executor on ``make_spec``'s fleet vs. a serial baseline.

    The serial baseline runs on a ``serial_sample``-device slice of the
    same fleet (serial cost is linear in devices, so per-device rates
    compare directly); byte parity is asserted on that slice before the
    full vectorized run is timed.
    """
    sample_count = min(serial_sample, devices)
    sample = make_spec(sample_count, budget)
    precompile_fleet(sample)
    registry = MetricsRegistry()
    with registry.timer("serial"):
        serial = run_fleet(sample, SerialFleetExecutor())
    assert aggregate_fingerprint(
        run_fleet(sample, VectorFleetExecutor())
    ) == aggregate_fingerprint(serial), (
        f"serial and vector aggregates differ on {sample.name}"
    )
    full = make_spec(devices, budget)
    with registry.timer("vector"):
        vector = run_fleet(full, VectorFleetExecutor())
    serial_s = registry.seconds("serial")
    vector_s = registry.seconds("vector")
    serial_dps = sample_count / serial_s
    vector_dps = devices / vector_s
    return {
        "devices": devices,
        "serial_sample_devices": sample_count,
        "budget_cycles": budget,
        "activations": vector.aggregate.total_activations,
        "serial_seconds": round(serial_s, 4),
        "vector_seconds": round(vector_s, 4),
        "serial_devices_per_second": round(serial_dps, 2),
        "vector_devices_per_second": round(vector_dps, 2),
        "vector_speedup": round(vector_dps / serial_dps, 2),
        "memo_hit_rate": round(vector.memo["hit_rate"], 6),
        "memo_hits": vector.memo["hits"],
        "memo_misses": vector.memo["misses"],
    }


def measure_persistent_tier(devices: int, budget: int) -> dict:
    """Cold vs. warm runs of the jittered fleet through an on-disk memo.

    The cold run populates the store; the warm run (a fresh executor, as
    a fresh process would be) must load entries from disk, score a
    strictly better hit rate, and produce byte-identical aggregates.
    """
    spec = jittered_spec(devices, budget)
    precompile_fleet(spec)
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="bench-memo-") as memo_dir:
        with registry.timer("cold"):
            cold = run_fleet(spec, "vector", memo_dir=memo_dir)
        with registry.timer("warm"):
            warm = run_fleet(spec, "vector", memo_dir=memo_dir)
    assert aggregate_fingerprint(cold) == aggregate_fingerprint(
        warm
    ), "cold and warm persistent-memo aggregates differ"
    assert warm.memo["disk_loads"] > 0, "warm run loaded nothing from disk"
    assert (
        warm.memo["hit_rate"] > cold.memo["hit_rate"]
    ), "disk-backed warm run did not improve the hit rate"
    return {
        "devices": devices,
        "budget_cycles": budget,
        "cold_seconds": round(registry.seconds("cold"), 4),
        "warm_seconds": round(registry.seconds("warm"), 4),
        "cold_hit_rate": round(cold.memo["hit_rate"], 6),
        "warm_hit_rate": round(warm.memo["hit_rate"], 6),
        "warm_disk_loads": warm.memo["disk_loads"],
    }


def parallel_gate(cores: int) -> dict:
    """The parallel-speedup gate decision on ``cores``, with its reason.

    On a single-core host the vector executor runs in-process, so
    ``parallel_speedup`` measures the memo alone and may sit near 1.0
    -- expected behavior, not a regression: the gate is skipped and the
    record says why.
    """
    if cores < 2:
        return {
            "cores": cores,
            "gated": False,
            "reason": "single core: workers have nothing to win; "
            "speedup reported but not asserted",
        }
    return {
        "cores": cores,
        "gated": True,
        "reason": f"multi-core host ({cores} cores): speedup must exceed 1.0",
    }


def measure(quick: bool) -> dict:
    # (heterogeneous, memo, jittered, persistent) devices; the serial
    # baseline samples of the memo and jittered tiers.
    sizes, budget, sample, rounds = (
        ((200, 2_000, 300, 150), 20_000, 100, 1)
        if quick
        else ((240, 500_000, 2_000, 500), 25_000, 200, 3)
    )
    record = measure_parallel(sizes[0], budget, rounds)
    record["parallel_gate"] = parallel_gate(record["cores"])
    record["memo_tier"] = measure_vector_tier(
        uniform_spec, sizes[1], budget, sample
    )
    record["jittered_tier"] = measure_vector_tier(
        jittered_spec, sizes[2], budget, sample
    )
    record["persistent_tier"] = measure_persistent_tier(sizes[3], budget)
    return record


def gates(record: dict) -> list[benchkit.Gate]:
    vector_speedup = record["memo_tier"]["vector_speedup"]
    hits = record["jittered_tier"]["memo_hit_rate"]
    gate = record["parallel_gate"]
    speedup = record["parallel_speedup"]
    return [
        (vector_speedup >= 10.0, "vector executor on a homogeneous fleet "
         f"{vector_speedup}x serial (gate >= 10x)"),
        (hits > 0.0, f"jittered-fleet memo hit rate {hits} (gate > 0)"),
        (not gate["gated"] or speedup > 1.0,
         f"parallel speedup {speedup}x on {gate['cores']} cores; "
         f"{gate['reason']}"),
    ]


if __name__ == "__main__":
    raise SystemExit(benchkit.main("fleet", measure, gates))
