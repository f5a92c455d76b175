"""Benchmark: abstract-machine throughput, reference vs. fast engine.

Every harness -- campaigns, fleets, the evaluation tables -- bottoms out
in the per-instruction step loop, so this benchmark tracks the one
number the whole stack scales with: interpreted instructions per second,
for both the Appendix H reference machine and the pre-decoded fast
engine, over a mixed workload (energy-harvesting and continuous runs
across apps and build configurations)::

    python benchmarks/bench_machine.py          # write BENCH_machine.json
    python benchmarks/bench_machine.py --quick  # CI gate, no record

Both engines drive identical activation streams (same builds, same
spawned supplies, same environments); the benchmark asserts the streams
agree on instructions, activations, reboots, violations, and executed
checks before timing them -- a cheap standing parity check next to the
full suites in ``tests/test_engine_parity.py`` and
``tests/test_opt_parity.py``.  Per-config records include
``checks_executed`` (detector bit-vector scans), and the
``check_optimizer`` section compares ``tire/ocelot`` against
``tire/ocelot-opt`` on the same supply stream.  ``--quick`` fails
(exit 1) if the fast engine is not at least as fast as the reference,
if ``ocelot-opt`` does not execute strictly fewer checks than
``ocelot``, or if it loses on instructions/s beyond timer noise; the
recorded run is expected to show >= 2x engine speedup and 100% check
elimination for the region-enforced app.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import benchkit

from repro.runtime.engine import ENGINE_FAST, ENGINE_REFERENCE, FastMachine
from repro.runtime.executor import Machine
from repro.telemetry import MetricsRegistry

#: (app, config, supply kind): a mix of region-heavy, JIT-only, and
#: checkpoint-free execution shapes.
WORKLOAD = (
    ("tire", "ocelot", "harvest"),
    ("tire", "ocelot-opt", "harvest"),
    ("greenhouse", "jit", "harvest"),
    ("cem", "atomics", "harvest"),
    ("activity", "ocelot", "continuous"),
)

#: each engine's activation entry point
RUN = {ENGINE_REFERENCE: Machine.run, ENGINE_FAST: FastMachine.run}

#: The check-optimizer gate compares these two workload pairs: same app,
#: same supply stream, baseline vs. optimized pipeline.
GATE_BASE = "tire/ocelot/harvest"
GATE_OPT = "tire/ocelot-opt/harvest"

#: Wall-clock tolerance for the instructions/s leg of the gate: the two
#: configs execute identical instruction streams, so "not slower" is the
#: expectation, measured with a small allowance for CI timer noise.
GATE_IPS_TOLERANCE = 0.95


def _run_engine(engine: str, budget: int, registry: MetricsRegistry) -> dict:
    """Drive the whole workload under one engine; each pair's counters.

    Each pair is timed under its own name, so the check-optimizer gate
    can compare configs.
    """
    counters = {}
    for app, config, supply_kind in WORKLOAD:
        pair = f"{app}/{config}/{supply_kind}"
        with registry.timer(f"bench.machine.{engine}.{pair}.seconds"):
            counters[pair] = benchkit.drive(
                engine, RUN[engine], app, config, supply_kind, budget
            )
    return counters


def _total(counters: dict) -> Counter:
    total = Counter()
    for pair in counters.values():
        total.update(pair)
    return total


def measure(quick: bool) -> dict:
    """Reference vs. fast instructions/second, best-of-``rounds``."""
    budget, rounds = (300_000, 1) if quick else (1_500_000, 3)
    benchkit.warm_builds(WORKLOAD)
    registry = MetricsRegistry()
    runs = benchkit.best_of(registry, rounds, {
        f"bench.machine.{engine}.seconds":
            partial(_run_engine, engine, budget, registry)
        for engine in (ENGINE_REFERENCE, ENGINE_FAST)
    })
    ref, fast = ([_total(run) for run in engine] for engine in runs.values())
    for totals in (ref, fast):
        assert all(t == totals[0] for t in totals), "an engine is nondeterministic"
    assert ref[0] == fast[0], (
        f"engines diverged on the bench workload: {ref[0]} != {fast[0]}"
    )
    ref_s, fast_s = (registry.histogram(name).min for name in runs)
    instructions, activations = fast[0]["instructions"], fast[0]["activations"]
    configs = {}
    for pair, pc in runs[f"bench.machine.{ENGINE_FAST}.seconds"][-1].items():
        seconds = registry.histogram(f"bench.machine.fast.{pair}.seconds").min
        configs[pair] = {
            "instructions": pc["instructions"],
            "checks_executed": pc["detector_queries"],
            "violations": pc["violations"],
            "seconds": round(seconds, 4),
            "instructions_per_second": round(pc["instructions"] / seconds),
        }
    base, opt = configs[GATE_BASE], configs[GATE_OPT]
    return {
        "benchmark": "machine-throughput",
        "workload": {
            "pairs": ["/".join(w) for w in WORKLOAD],
            "budget_cycles": budget,
            "instructions": instructions,
            "activations": activations,
            "reboots": fast[0]["reboots"],
        },
        "rounds": rounds,
        **benchkit.host(),
        "reference_seconds": round(ref_s, 4),
        "fast_seconds": round(fast_s, 4),
        "reference_instructions_per_second": round(instructions / ref_s),
        "fast_instructions_per_second": round(instructions / fast_s),
        "reference_activations_per_second": round(activations / ref_s, 1),
        "fast_activations_per_second": round(activations / fast_s, 1),
        "speedup": round(ref_s / fast_s, 3),
        "configs": configs,
        "check_optimizer": {
            "baseline": GATE_BASE,
            "optimized": GATE_OPT,
            "baseline_checks_executed": base["checks_executed"],
            "optimized_checks_executed": opt["checks_executed"],
            "baseline_instructions_per_second": base["instructions_per_second"],
            "optimized_instructions_per_second": opt["instructions_per_second"],
            "checks_eliminated_fraction": round(
                1 - opt["checks_executed"] / max(1, base["checks_executed"]), 4
            ),
        },
        "metrics": registry.to_dict(command="bench_machine"),
    }


def gates(record: dict) -> list[benchkit.Gate]:
    speedup = record["speedup"]
    gate = record["check_optimizer"]
    base_checks = gate["baseline_checks_executed"]
    opt_checks = gate["optimized_checks_executed"]
    base_ips = gate["baseline_instructions_per_second"]
    opt_ips = gate["optimized_instructions_per_second"]
    return [
        (speedup >= 1.0, f"fast engine {speedup}x the reference (gate >= 1.0; "
         "parity enforced)"),
        (opt_checks < base_checks, f"ocelot-opt executed {opt_checks} checks "
         f"vs ocelot's {base_checks} (gate: fewer)"),
        (opt_ips >= base_ips * GATE_IPS_TOLERANCE, f"ocelot-opt at {opt_ips} vs "
         f"ocelot's {base_ips} instructions/s (gate >= {GATE_IPS_TOLERANCE}x)"),
    ]


if __name__ == "__main__":
    raise SystemExit(benchkit.main("machine", measure, gates))
