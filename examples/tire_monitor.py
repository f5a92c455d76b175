#!/usr/bin/env python3
"""The Tire benchmark on harvested energy: a full deployment simulation.

Runs the paper's own tire-safety application (Figure 9) for a fixed
logical-time window on the simulated RF-harvesting testbed, comparing the
three build configurations the evaluation uses:

* **JIT** -- fastest, but burst warnings can be decided on stale motion
  data and torn pressure snapshots;
* **Ocelot** -- inferred regions enforce the Fresh / Consistent /
  FreshConsistent constraints by construction;
* **Atomics-only** -- the whole program inside programmer-placed regions.

Prints per-configuration activity: completed checks, urgent warnings,
violations, and the time split between running and charging.

Run with::

    python examples/tire_monitor.py
"""

from repro import compile_source, run_activations
from repro.apps import BENCHMARKS
from repro.eval.profiles import STANDARD_PROFILE

BUDGET_CYCLES = 250_000


def main() -> None:
    meta = BENCHMARKS["tire"]
    print("Tire safety monitor --", meta.constraints, "constraints")
    print(f"sensors: {', '.join(meta.sensors)}  |  source: {meta.loc} LoC")
    print(f"simulating {BUDGET_CYCLES} cycles on the standard RF profile\n")

    header = (
        f"{'config':8s} {'runs':>5s} {'violating':>10s} {'on-cycles':>10s} "
        f"{'charging':>10s} {'reboots':>8s}"
    )
    print(header)
    print("-" * len(header))
    for config in ("jit", "ocelot", "atomics"):
        compiled = compile_source(meta.source, config)
        outcome = run_activations(
            compiled,
            meta.env_factory(0),
            STANDARD_PROFILE.make_supply(seed=42),
            budget_cycles=BUDGET_CYCLES,
            costs=meta.cost_model(),
        )
        print(
            f"{config:8s} {outcome.completed_runs:5d} "
            f"{outcome.violating_runs:10d} {outcome.cycles_on:10d} "
            f"{outcome.cycles_off:10d} {outcome.reboots:8d}"
        )

    print()
    print("JIT completes the most checks per unit time but some of its")
    print("burst-tire decisions used inconsistent snapshots (violating")
    print("runs above).  Ocelot trades a few percent of throughput for")
    print("zero violations; Atomics-only pays region overhead everywhere.")


if __name__ == "__main__":
    main()
