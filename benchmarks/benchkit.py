"""What the ``bench_*.py`` throughput scripts share.

Each script measures one subsystem.  Run bare, it writes its record to
``BENCH_<name>.json`` at the repo root, so the perf trajectory is
tracked alongside the code; with ``--quick`` it runs a reduced version
as a CI gate and writes nothing::

    python benchmarks/bench_fleet.py          # write BENCH_fleet.json
    python benchmarks/bench_fleet.py --quick  # CI gate, no record

A script hands :func:`main` its ``measure(quick)`` and ``gates(record)``
functions.  Every record states its host (:func:`host`), and legs are
timed through a :class:`~repro.telemetry.MetricsRegistry` -- the
machinery behind the CLI's ``--metrics-out`` -- so records and the
metrics schema agree on field names.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.eval.profiles import STANDARD_PROFILE
from repro.runtime.engine import create_machine
from repro.runtime.executor import NVState
from repro.runtime.supply import ContinuousPower
from repro.telemetry import MetricsRegistry

ROOT = Path(__file__).resolve().parent.parent

#: a gate's verdict and what it checked, printed as ``ok:`` or ``FAIL:``
Gate = tuple[bool, str]


def host() -> dict:
    """The host facts of ``perfbench``'s records, numpy aside."""
    return {
        "cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(
    name: str,
    measure: Callable[[bool], dict],
    gates: Callable[[dict], list[Gate]],
    *,
    gate_full: bool = False,
    argv: list[str] | None = None,
) -> int:
    """Measure, print the record, and gate it (``--quick``) or write it.

    The exit status is 1 when a gate fails.  With ``gate_full`` the full
    run is gated too, and a failing record is not written.
    """
    parser = argparse.ArgumentParser(description=f"{name} benchmark")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI gate: a reduced run, checked, no record written",
    )
    quick = parser.parse_args(argv).quick
    record = measure(quick)
    print(json.dumps(record, indent=2))
    if quick or gate_full:
        verdicts = gates(record)
        for passed, text in verdicts:
            print(f"{'ok' if passed else 'FAIL'}: {text}")
        if not all(passed for passed, _ in verdicts):
            return 1
    if not quick:
        path = ROOT / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"record written to {path}")
    return 0


def best_of(
    registry: MetricsRegistry, rounds: int, legs: dict[str, Callable[[], Any]]
) -> dict[str, list]:
    """Run every leg once per round, in order, timed under its name.

    Returns each leg's results, one per round.  A leg's best time is
    ``registry.histogram(name).min``: host noise only ever inflates a
    sample, so the fastest round converges on the true time from above,
    and a lone preempted round cannot flip a gate the way a mean can.
    """
    results: dict[str, list] = {name: [] for name in legs}
    for _ in range(rounds):
        for name, leg in legs.items():
            # Rounds repeat one allocation sequence, so without this a
            # full collection owed to earlier legs lands at the same
            # point of every round, always inside the same leg.
            gc.collect()
            with registry.timer(name):
                results[name].append(leg())
    return results


def warm_builds(workload) -> None:
    """Compile each ``(app, config, ...)`` of ``workload`` before timing."""
    for app, config, *_ in workload:
        GLOBAL_CACHE.get_or_compile(BENCHMARKS[app].source, config)


def drive(engine: str, activate, app: str, config: str, supply_kind: str,
          budget: int) -> dict:
    """Run one device's activation stream to its logical-time budget.

    Each activation is ``activate(machine)`` on a fresh ``engine``
    machine -- an unbound ``run`` or ``_run_to_completion``, so the loop
    adds no per-activation work of its own.  Returns the counters that
    parity checks compare and throughput numbers divide by.
    """
    meta = BENCHMARKS[app]
    compiled = GLOBAL_CACHE.get_or_compile(meta.source, config)
    costs = meta.cost_model()
    plan = compiled.detector_plan()
    env = meta.env_factory(13)
    supply = (
        ContinuousPower()
        if supply_kind == "continuous"
        else STANDARD_PROFILE.make_supply(seed=5).spawn(31)
    )
    nv = NVState.initial(compiled.module)
    tau = 0
    instructions = activations = reboots = violations = queries = 0
    while tau < budget:
        machine = create_machine(
            engine, compiled, env, supply,
            costs=costs, plan=plan, nv=nv, start_tau=tau,
        )
        result = activate(machine)
        tau = machine.tau
        instructions += result.stats.instructions
        reboots += result.stats.reboots
        violations += result.stats.violations
        queries += machine.detector_queries
        activations += 1
        if not result.stats.completed:
            break
    return {
        "instructions": instructions,
        "activations": activations,
        "reboots": reboots,
        "violations": violations,
        "detector_queries": queries,
    }
