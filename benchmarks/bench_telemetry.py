"""Benchmark: telemetry overhead -- disabled, tracing, and metrics legs.

The telemetry layer's contract is *zero overhead when disabled*: the
engines check a module-level tracer once per activation and the
sim-time trace is derived post-hoc, so the per-instruction hot loop
carries no telemetry branches.  This benchmark holds the contract to a
number::

    python benchmarks/bench_telemetry.py          # write BENCH_telemetry.json
    python benchmarks/bench_telemetry.py --quick  # CI gate, no record

Four legs drive the same fast-engine workload (same builds, same
spawned supplies, same environments):

``raw``
    the pre-telemetry hot path -- ``_run_to_completion()`` called
    directly, bypassing the per-activation tracer check entirely;
``disabled``
    the production entry point ``run()`` with telemetry off (what
    every harness executes today);
``tracing``
    ``run()`` with the wall-clock tracer enabled;
``metrics``
    ``run()`` with every activation absorbed into a
    :class:`~repro.telemetry.metrics.MetricsRegistry`.

All four legs must agree on instructions, activations, reboots,
violations, and detector queries -- telemetry that perturbed execution
would trip the parity assert before any timing is reported.
``--quick`` fails (exit 1) if the disabled path costs more than
``GATE_OVERHEAD`` over the raw path.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import benchkit

from repro.runtime.engine import ENGINE_FAST, FastMachine
from repro.telemetry import (
    MetricsRegistry,
    absorb_run,
    disable_tracing,
    enable_tracing,
)

#: (app, config, supply kind): region-heavy, JIT-only, and continuous
#: execution shapes, mirroring the machine-throughput workload.
WORKLOAD = (
    ("tire", "ocelot", "harvest"),
    ("greenhouse", "jit", "harvest"),
    ("activity", "ocelot", "continuous"),
)

MODES = ("raw", "disabled", "tracing", "metrics")

#: Disabled-path budget: ``run()`` with telemetry off may cost at most
#: 2% over calling the activation body directly, measured as the ratio
#: of best-of-rounds times to keep CI timer noise out of the verdict.
GATE_OVERHEAD = 1.02


def _absorbing(registry: MetricsRegistry):
    def activate(machine):
        result = machine.run()
        absorb_run(registry, result)
        return result

    return activate


def _run_mode(mode: str, budget: int) -> Counter:
    """Drive the whole workload under one telemetry mode."""
    totals = Counter()
    if mode == "tracing":
        enable_tracing()
    try:
        for app, config, supply_kind in WORKLOAD:
            if mode == "raw":
                activate = FastMachine._run_to_completion
            elif mode == "metrics":
                activate = _absorbing(MetricsRegistry())
            else:
                activate = FastMachine.run
            totals.update(benchkit.drive(
                ENGINE_FAST, activate, app, config, supply_kind, budget
            ))
    finally:
        disable_tracing()
    return totals


def measure(quick: bool) -> dict:
    """Per-mode seconds (best-of-``rounds``) with counter parity."""
    budget, rounds = (300_000, 12) if quick else (1_500_000, 7)
    benchkit.warm_builds(WORKLOAD)
    registry = MetricsRegistry()
    runs = benchkit.best_of(registry, rounds, {
        f"bench.telemetry.{mode}.seconds": partial(_run_mode, mode, budget)
        for mode in MODES
    })
    baseline = runs["bench.telemetry.raw.seconds"][0]
    for name, totals in runs.items():
        assert all(t == baseline for t in totals), (
            f"telemetry perturbed execution: {name} diverged from raw"
        )
    seconds = {
        mode: registry.histogram(f"bench.telemetry.{mode}.seconds").min
        for mode in MODES
    }
    instructions = baseline["instructions"]
    return {
        "benchmark": "telemetry-overhead",
        "workload": {
            "pairs": ["/".join(w) for w in WORKLOAD],
            "budget_cycles": budget,
            "instructions": instructions,
            "activations": baseline["activations"],
            "detector_queries": baseline["detector_queries"],
        },
        "rounds": rounds,
        **benchkit.host(),
        "seconds": {mode: round(seconds[mode], 4) for mode in MODES},
        "instructions_per_second": {
            mode: round(instructions / seconds[mode]) for mode in MODES
        },
        "disabled_overhead": round(seconds["disabled"] / seconds["raw"], 4),
        "tracing_overhead": round(seconds["tracing"] / seconds["disabled"], 4),
        "metrics_overhead": round(seconds["metrics"] / seconds["disabled"], 4),
        "metrics": registry.to_dict(command="bench_telemetry"),
    }


def gates(record: dict) -> list[benchkit.Gate]:
    overhead = record["disabled_overhead"]
    return [(
        overhead <= GATE_OVERHEAD,
        f"disabled telemetry at {overhead}x the raw hot path (gate <= "
        f"{GATE_OVERHEAD}x, counter parity enforced); tracing at "
        f"{record['tracing_overhead']}x disabled",
    )]


if __name__ == "__main__":
    raise SystemExit(benchkit.main("telemetry", measure, gates))
