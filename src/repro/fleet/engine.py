"""Fleet execution: executors, checkpointing, results.

The engine turns a :class:`FleetSpec` into an aggregate:

1. expand the spec into per-device :class:`DeviceSpec` rows (pure data);
2. precompile every (app, config) build once into the shared cache;
3. hand device batches to an executor -- :class:`SerialFleetExecutor`
   runs each device's activations to exhaustion, one device after
   another, in-process (the oracle);
   :class:`~repro.fleet.vector.VectorFleetExecutor` memoizes
   activations and can deal devices round-robin to worker processes.
   Aggregation is commutative integer summation, so both executors
   produce **bit-identical** aggregates;
4. optionally checkpoint after every chunk of devices, so a
   million-activation fleet splits across invocations: a resumed run
   folds the checkpointed aggregate and continues with the next device,
   producing the same bytes as one uninterrupted run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol, Sequence

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.eval.report import Table
from repro.fleet.aggregate import FleetAggregator
from repro.fleet.device import DeviceFactory
from repro.fleet.memostore import write_atomically
from repro.fleet.spec import DeviceSpec, FleetError, FleetSpec
from repro.runtime.engine import ENGINE_FAST
from repro.telemetry.trace import span as _span


def run_shard(
    devices: Sequence[DeviceSpec], engine: str = ENGINE_FAST
) -> FleetAggregator:
    """Run one batch of devices to exhaustion; the executor work unit.

    Materializes each device through one :class:`DeviceFactory` (shared
    builds, spawned supplies) in expansion order, runs its activations
    until its stepper is exhausted, and streams every activation into a
    fresh aggregator.  Devices are independent and the fold is
    commutative, so one live stepper at a time suffices.
    """
    factory = DeviceFactory(engine=engine)
    aggregator = FleetAggregator()
    for spec in devices:
        aggregator.add_devices(spec, 1)
        stepper = factory.build(spec)
        while (record := stepper.step()) is not None:
            aggregator.observe(spec, record)
    return aggregator


class FleetExecutor(Protocol):
    """Runs a batch of devices and returns its aggregate."""

    name: str

    def run(self, devices: Sequence[DeviceSpec]) -> FleetAggregator: ...


class SerialFleetExecutor:
    """Every device of the batch to exhaustion, in-process."""

    name = "serial"

    def __init__(self, engine: str = ENGINE_FAST) -> None:
        self.engine = engine

    def run(self, devices: Sequence[DeviceSpec]) -> FleetAggregator:
        with _span("fleet.serial", "fleet", devices=len(devices)):
            return run_shard(devices, engine=self.engine)


# ---------------------------------------------------------------------------
# Checkpointing

#: Version of the cross-executor aggregate-parity contract.  Both
#: executor families (serial, vector on any number of workers) fold
#: activations with commutative integer sums into the same canonical
#: aggregate encoding, so a checkpoint written by one family resumes
#: under another and the final bytes match an uninterrupted run.  If a
#: future change breaks that equivalence, bump this string: checkpoint
#: fingerprints bind it (the same pattern as the seed-scheme fingerprint
#: binding), so every older checkpoint is rejected instead of silently
#: mixing families.
#: fleet-parity-2: ``ClassAggregate`` grew ``detector_queries``; older
#: checkpoints lack the key and must be rejected on resume.
AGGREGATE_PARITY_SCHEME = "fleet-parity-2"


def checkpoint_fingerprint(spec: FleetSpec) -> str:
    """What a checkpoint must match to be resumable against ``spec``.

    Binds the spec fingerprint (itself seed-scheme-bound) together with
    the aggregate-parity scheme, so a resume is accepted exactly when
    the remaining devices *and* the fold semantics are provably the
    same as the run that wrote the checkpoint -- regardless of which
    executor family wrote it.
    """
    payload = json.dumps(
        {
            "parity": AGGREGATE_PARITY_SCHEME,
            "spec": spec.fingerprint(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class FleetCheckpoint:
    """Resume point: how many devices are folded into ``aggregate``.

    Devices are folded in expansion order, so ``devices_done`` plus the
    spec fingerprint fully determines the remaining work.  The aggregate
    is stored in its canonical dict form; resuming merges it and
    continues -- sums make the split invisible in the final bytes.
    ``executor_family`` records who wrote the checkpoint, so a resumed
    run can report every family that contributed to its aggregate.
    """

    fingerprint: str
    devices_done: int
    aggregate: dict
    executor_family: str = ""

    def save(self, path: Path | str) -> None:
        payload = {
            "fingerprint": self.fingerprint,
            "devices_done": self.devices_done,
            "aggregate": self.aggregate,
            "executor_family": self.executor_family,
        }
        # Write-then-rename so a crash mid-save never corrupts the
        # previous checkpoint (resume would silently restart otherwise).
        write_atomically(
            Path(path),
            (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode(),
        )

    @classmethod
    def load(cls, path: Path | str) -> "FleetCheckpoint":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FleetError(f"cannot load fleet checkpoint: {exc}") from None
        try:
            return cls(
                fingerprint=data["fingerprint"],
                devices_done=int(data["devices_done"]),
                aggregate=data["aggregate"],
                executor_family=str(data.get("executor_family", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FleetError(f"malformed fleet checkpoint: {exc}") from None


# ---------------------------------------------------------------------------
# Results


@dataclass
class FleetResult:
    """Aggregate plus run-level bookkeeping."""

    spec: FleetSpec
    aggregate: FleetAggregator
    executor: str = "serial"
    #: every executor family that built the aggregate, ``+``-joined (a
    #: resumed run lists the checkpoint's writer first)
    executor_used: str = "serial"
    engine: str = ENGINE_FAST
    devices: int = 0
    wall_time: float = 0.0
    resumed_devices: int = 0
    #: activation-memo accounting (vector executor only; None otherwise)
    memo: Optional[dict] = None

    @property
    def devices_per_second(self) -> float:
        if self.wall_time <= 0:
            return 0.0
        return (self.devices - self.resumed_devices) / self.wall_time

    def rows(self) -> list[dict]:
        """Per-class aggregate rows -- the deterministic report payload."""
        rows = []
        for name in self.aggregate.class_names:
            agg = self.aggregate[name]
            rows.append({"class": name, **agg.to_dict()})
        return rows

    def table(self) -> Table:
        from repro.fleet.report import fleet_table

        return fleet_table(self)

    def to_dict(self) -> dict:
        payload = {
            "spec": self.spec.to_dict(),
            "executor": self.executor,
            "executor_used": self.executor_used,
            "engine": self.engine,
            "devices": self.devices,
            "wall_time": self.wall_time,
            "resumed_devices": self.resumed_devices,
            "aggregate": self.aggregate.to_dict(),
        }
        if self.memo is not None:
            payload["memo"] = self.memo
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# Driver


def precompile_fleet(spec: FleetSpec) -> int:
    """Warm the compile cache with every (app, config) build of the fleet.

    Device classes share builds: a fleet of 10,000 devices over 3 classes
    compiles at most 3 programs, and forked fleet workers inherit all of
    them.  Returns the number of fresh compiles.
    """
    compiled_now = 0
    pairs = {(c.app, c.config) for c in spec.classes}
    for app, config in sorted(pairs):
        meta = BENCHMARKS[app]
        _, cached = GLOBAL_CACHE.get_or_compile_with_info(meta.source, config)
        if not cached:
            compiled_now += 1
    return compiled_now


def run_fleet(
    spec: FleetSpec,
    executor: FleetExecutor | str = "serial",
    processes: int = 1,
    checkpoint_path: Optional[Path | str] = None,
    checkpoint_every: Optional[int] = None,
    engine: str = ENGINE_FAST,
    memo_dir: Optional[Path | str] = None,
) -> FleetResult:
    """Run (or resume) a whole fleet and aggregate it.

    With ``checkpoint_path``, progress is saved after every
    ``checkpoint_every`` devices (default 256) and a matching checkpoint
    on disk is resumed from instead of restarting; the final aggregate
    is byte-identical to an uninterrupted run.  A checkpoint whose
    fingerprint does not match ``spec`` is an error, not a silent
    restart.

    ``executor`` is ``"serial"``, ``"vector"`` or an executor instance.
    ``processes`` (the worker count) and ``memo_dir`` (a persistent
    activation memo, one worker only) configure the named vector
    executor; with any other executor they raise :class:`FleetError`
    instead of silently doing nothing.
    """
    if executor == "serial":
        if processes != 1:
            raise FleetError(
                f"--jobs {processes} needs the vector executor, not 'serial'"
            )
        if memo_dir is not None:
            raise FleetError(
                "--memo-dir needs the vector executor, not 'serial'"
            )
        executor = SerialFleetExecutor(engine=engine)
    elif executor == "vector":
        from repro.fleet.vector import VectorFleetExecutor

        executor = VectorFleetExecutor(
            engine=engine, memo_dir=memo_dir, processes=processes
        )
    elif isinstance(executor, str):
        raise FleetError(
            f"unknown fleet executor '{executor}' (serial | vector)"
        )
    elif processes != 1 or memo_dir is not None:
        raise FleetError(
            "processes and memo_dir configure the executor named 'vector'; "
            "an executor instance carries its own"
        )
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise FleetError("checkpoint_every must be positive")
    if checkpoint_every is not None and checkpoint_path is None:
        # Chunking without a checkpoint path would silently persist
        # nothing while paying a fresh executor batch per chunk.
        raise FleetError("checkpoint_every requires a checkpoint path")

    started = time.perf_counter()
    devices = spec.expand()
    aggregate = FleetAggregator()
    start_index = 0
    used: list[str] = []
    fingerprint = (
        checkpoint_fingerprint(spec) if checkpoint_path is not None else ""
    )

    if checkpoint_path is not None and Path(checkpoint_path).exists():
        checkpoint = FleetCheckpoint.load(checkpoint_path)
        if checkpoint.fingerprint != fingerprint:
            # Covers both a different fleet spec and a checkpoint written
            # under an older parity scheme: either way the remaining work
            # or the fold semantics are not provably the same, so resuming
            # -- even within the same executor family -- is refused.
            raise FleetError(
                f"checkpoint '{checkpoint_path}' belongs to a different "
                "fleet spec or aggregate-parity scheme; delete it or "
                "point --checkpoint elsewhere"
            )
        if not checkpoint.executor_family:
            raise FleetError(
                f"checkpoint '{checkpoint_path}' does not record which "
                "executor family wrote it; cannot prove its aggregate "
                "matches this run -- delete it to restart"
            )
        if checkpoint.devices_done > len(devices):
            raise FleetError(
                f"checkpoint claims {checkpoint.devices_done} devices done "
                f"but the fleet has only {len(devices)}"
            )
        aggregate = FleetAggregator.from_dict(checkpoint.aggregate)
        start_index = checkpoint.devices_done
        # Cross-family resume is sound (that is what the parity
        # fingerprint just proved); report every family that built the
        # final aggregate, not just this process's.
        if checkpoint.devices_done > 0:
            used.append(checkpoint.executor_family)

    precompile_fleet(spec)
    if start_index < len(devices) and executor.name not in used:
        used.append(executor.name)
    chunk = (
        checkpoint_every
        if checkpoint_every is not None
        else (256 if checkpoint_path is not None else len(devices) or 1)
    )
    for lo in itertools.count(start_index, chunk):
        if lo >= len(devices):
            break
        batch = devices[lo : lo + chunk]
        aggregate.merge(executor.run(batch))
        if checkpoint_path is not None:
            FleetCheckpoint(
                fingerprint=fingerprint,
                devices_done=lo + len(batch),
                aggregate=aggregate.to_dict(),
                executor_family=executor.name,
            ).save(checkpoint_path)

    memo_stats = getattr(executor, "memo_stats", None)
    return FleetResult(
        spec=spec,
        aggregate=aggregate,
        executor=executor.name,
        executor_used="+".join(used) if used else executor.name,
        engine=getattr(executor, "engine", engine),
        devices=len(devices),
        wall_time=time.perf_counter() - started,
        resumed_devices=start_index,
        memo=memo_stats() if memo_stats is not None else None,
    )
