"""Fleet reporting: aggregate tables and parity fingerprints.

Rendering is split from the engine so anything holding a
:class:`~repro.fleet.engine.FleetResult` -- the CLI, the demo scripts,
the benchmark harness -- shares one table layout, and so executor-parity
checks have a single definition of "the deterministic part" of a run.
"""

from __future__ import annotations

import json

from repro.eval.report import Table
from repro.fleet.aggregate import DUTY_BINS, ClassAggregate


def fleet_table(result) -> Table:
    """The per-class aggregate table of a fleet run."""
    table = Table(
        title=f"Fleet '{result.spec.name}' ({result.devices} devices)",
        headers=[
            "Class",
            "App",
            "Config",
            "Devices",
            "Activations",
            "Completed",
            "Violating",
            "Viol%",
            "Duty%",
            "Reboots",
        ],
    )
    for name in result.aggregate.class_names:
        agg = result.aggregate[name]
        table.add_row(
            name,
            agg.app,
            agg.config,
            agg.devices,
            agg.activations,
            agg.completed_runs,
            agg.violating_runs,
            100.0 * agg.violation_rate,
            100.0 * agg.duty_cycle,
            agg.reboots,
        )
    used = (
        result.executor
        if result.executor_used == result.executor
        else f"{result.executor}, ran {result.executor_used}"
    )
    table.add_note(
        f"{result.aggregate.total_activations} activations via "
        f"{used} executor ({result.engine} engine) in {result.wall_time:.2f}s "
        f"({result.devices_per_second:.1f} devices/s)"
    )
    if result.resumed_devices:
        table.add_note(
            f"resumed from checkpoint: {result.resumed_devices} devices "
            "folded from a previous invocation"
        )
    memo = getattr(result, "memo", None)
    if memo:
        table.add_note(
            f"activation memo: {memo['hits']} hits / {memo['misses']} "
            f"misses ({100.0 * memo['hit_rate']:.1f}% replayed, "
            f"{memo['entries']} entries)"
        )
        disk_loads = memo.get("disk_loads", 0)
        if disk_loads:
            table.add_note(
                f"persistent memo: started warm with {disk_loads} entries "
                "loaded from disk"
            )
        evictions = memo.get("evictions", 0)
        if evictions:
            table.add_note(
                f"memo cap: {evictions} LRU evictions (evicted keys "
                "re-miss; aggregates unaffected)"
            )
    return table


def histogram_table(result) -> Table:
    """Staleness / consistency-failure histograms per class.

    Columns are per-activation violation counts (0 .. 5+); a healthy
    enforced build concentrates all mass in the 0 column, a baseline
    spreads right -- the fleet-scale version of the Table 2b story.
    """
    table = Table(
        title=f"Fleet '{result.spec.name}' violation histograms",
        headers=["Class", "Kind", "0", "1", "2", "3", "4", "5+"],
    )
    for name in result.aggregate.class_names:
        agg: ClassAggregate = result.aggregate[name]
        table.add_row(name, "fresh", *agg.fresh_hist)
        table.add_row(name, "consistent", *agg.consistent_hist)
    return table


def duty_table(result) -> Table:
    """On/off duty-cycle distribution per class (10% bins)."""
    headers = ["Class"] + [
        f"{100 * i // DUTY_BINS}-{100 * (i + 1) // DUTY_BINS}%"
        for i in range(DUTY_BINS)
    ]
    table = Table(
        title=f"Fleet '{result.spec.name}' duty-cycle distribution",
        headers=headers,
    )
    for name in result.aggregate.class_names:
        table.add_row(name, *result.aggregate[name].duty_hist)
    return table


def aggregate_fingerprint(result) -> str:
    """Canonical bytes of the deterministic part of a fleet run.

    Everything except wall time and executor identity: the spec, the
    device count, and the full aggregate.  Two runs of the same spec --
    serial vs. vector on workers, one-shot vs. checkpoint-resumed --
    must agree on this string exactly.
    """
    return json.dumps(
        {
            "spec": result.spec.to_dict(),
            "devices": result.devices,
            "aggregate": result.aggregate.to_dict(),
        },
        sort_keys=True,
        indent=2,
    )
