"""``repro.fleet``: scalable multi-device intermittent fleet simulation.

The paper evaluates one device at a time; deployments run fleets.  This
subsystem executes thousands of intermittently-powered devices in one
simulation:

* :mod:`repro.fleet.spec` -- declarative :class:`FleetSpec` (JSON-loadable,
  mirroring campaign specs) with generators for heterogeneous populations;
* :mod:`repro.fleet.device` -- materialization with shared compiled builds
  and cheaply re-seeded per-device supplies;
* :mod:`repro.fleet.scheduler` -- a logical-time scheduler advancing many
  machines in tau order;
* :mod:`repro.fleet.aggregate` -- streaming, mergeable, byte-deterministic
  aggregates (violation rates, staleness/consistency histograms, duty
  cycles) that never materialize per-activation results;
* :mod:`repro.fleet.engine` -- the serial executor (the oracle), the
  executor registry, and checkpoint/resume so long runs split across
  invocations;
* :mod:`repro.fleet.vector` -- the production executor: activation
  memoization with quantized supply keys, cohort wave batching over
  same-class devices, and a batched miss driver, on one process or
  dealt round-robin to workers (:mod:`repro.parallel`), still
  bit-identical to the serial path;
* :mod:`repro.fleet.memostore` -- content-addressed on-disk persistence
  for the activation memo (``--memo-dir``), so re-runs start warm;
* :mod:`repro.fleet.report` -- tables and parity fingerprints.

Entry point: ``python -m repro fleet SPEC.json --devices N --executor vector``
(``--parallel`` runs the same executor on one worker per core).
"""

from repro.fleet.aggregate import ClassAggregate, FleetAggregator
from repro.fleet.device import DeviceFactory, FleetDevice
from repro.fleet.engine import (
    AGGREGATE_PARITY_SCHEME,
    FleetCheckpoint,
    FleetResult,
    SerialFleetExecutor,
    checkpoint_fingerprint,
    make_fleet_executor,
    precompile_fleet,
    run_fleet,
    run_shard,
)
from repro.fleet.memostore import MemoStore
from repro.fleet.vector import (
    ActivationMemo,
    NVCodec,
    QuantEntry,
    VectorFleetExecutor,
)
from repro.fleet.report import (
    aggregate_fingerprint,
    duty_table,
    fleet_table,
    histogram_table,
)
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.spec import DeviceClass, DeviceSpec, FleetError, FleetSpec

__all__ = [
    "AGGREGATE_PARITY_SCHEME",
    "ActivationMemo",
    "ClassAggregate",
    "FleetAggregator",
    "DeviceFactory",
    "FleetDevice",
    "FleetCheckpoint",
    "FleetResult",
    "MemoStore",
    "NVCodec",
    "QuantEntry",
    "SerialFleetExecutor",
    "VectorFleetExecutor",
    "checkpoint_fingerprint",
    "make_fleet_executor",
    "precompile_fleet",
    "run_fleet",
    "run_shard",
    "aggregate_fingerprint",
    "duty_table",
    "fleet_table",
    "histogram_table",
    "FleetScheduler",
    "DeviceClass",
    "DeviceSpec",
    "FleetError",
    "FleetSpec",
]
