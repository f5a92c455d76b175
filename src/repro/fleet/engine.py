"""Fleet execution: serial and sharded runs, checkpointing, results.

The engine turns a :class:`FleetSpec` into an aggregate:

1. expand the spec into per-device :class:`DeviceSpec` rows (pure data);
2. precompile every (app, config) build once into the shared cache;
3. hand device batches to an executor -- :class:`SerialFleetExecutor`
   runs one tau-ordered scheduler over the batch in-process;
   :class:`ShardedFleetExecutor` deals devices round-robin to worker
   processes, each running its own scheduler, and merges the shard
   aggregates.  Aggregation is commutative integer summation, so both
   executors produce **bit-identical** aggregates;
4. optionally checkpoint after every chunk of devices, so a
   million-activation fleet splits across invocations: a resumed run
   folds the checkpointed aggregate and continues with the next device,
   producing the same bytes as one uninterrupted run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol, Sequence

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.core.passes import BuildConfig, get_config, register_config
from repro.eval.report import Table
from repro.fleet.aggregate import FleetAggregator
from repro.fleet.device import DeviceFactory
from repro.fleet.memostore import write_atomically
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.spec import DeviceSpec, FleetError, FleetSpec
from repro.runtime.engine import ENGINE_FAST
from repro.telemetry.trace import span as _span


def run_shard(
    devices: Sequence[DeviceSpec], engine: str = ENGINE_FAST
) -> FleetAggregator:
    """Run one batch of devices to exhaustion; the executor work unit.

    Materializes the batch through one :class:`DeviceFactory` (shared
    builds, spawned supplies), schedules it in tau order, and streams
    every activation into a fresh aggregator.
    """
    factory = DeviceFactory(engine=engine)
    aggregator = FleetAggregator()
    materialized = []
    for spec in devices:
        aggregator.add_device(spec)
        materialized.append(factory.build(spec))
    FleetScheduler(materialized).run(aggregator.observe)
    return aggregator


def _run_shard_payload(payload: tuple[tuple[DeviceSpec, ...], str]) -> dict:
    """Worker entry point: ship the aggregate back as primitives."""
    devices, engine = payload
    return run_shard(devices, engine=engine).to_dict()


def _register_worker_configs(configs: tuple[BuildConfig, ...]) -> None:
    for config in configs:
        register_config(config, replace=True)


class FleetExecutor(Protocol):
    """Runs a batch of devices and returns its aggregate."""

    name: str

    def run(self, devices: Sequence[DeviceSpec]) -> FleetAggregator: ...


class SerialFleetExecutor:
    """One scheduler over the whole batch, in-process."""

    name = "serial"

    def __init__(self, engine: str = ENGINE_FAST) -> None:
        self.engine = engine
        #: what actually executed the last batch (serial always itself)
        self.used = "serial"

    def run(self, devices: Sequence[DeviceSpec]) -> FleetAggregator:
        with _span("fleet.serial", "fleet", devices=len(devices)):
            return run_shard(devices, engine=self.engine)


class ShardedFleetExecutor:
    """Deal devices across worker processes; merge shard aggregates.

    Sharding is round-robin over the expansion order (device ``i`` goes
    to shard ``i mod n``), which balances heterogeneous classes across
    workers without any cross-process coordination.  Workers prefer the
    ``fork`` start method to inherit the parent's warm compile cache; a
    pool initializer re-registers the fleet's build configurations so
    spawned workers resolve them by name too.

    Small batches fall back to the in-process path: with one effective
    worker, or fewer than ``min_devices_per_shard`` devices per shard,
    pool setup and aggregate shipping cost more than the sharding wins
    (the regression the ``BENCH_fleet.json`` sharding_speedup < 1 run
    exposed).  Aggregation is commutative either way, so the fallback is
    invisible in the result bytes; ``used`` records which path ran so
    the fleet report can say what actually executed.
    """

    name = "sharded"

    def __init__(
        self,
        processes: Optional[int] = None,
        shards: Optional[int] = None,
        engine: str = ENGINE_FAST,
        min_devices_per_shard: int = 16,
    ) -> None:
        if processes is not None and processes <= 0:
            raise ValueError("processes must be positive (or None for auto)")
        if shards is not None and shards <= 0:
            raise ValueError("shards must be positive (or None for auto)")
        if min_devices_per_shard <= 0:
            raise ValueError("min_devices_per_shard must be positive")
        self.processes = processes
        self.shards = shards
        self.engine = engine
        self.min_devices_per_shard = min_devices_per_shard
        #: executor actually used by the last ``run`` ("sharded" or "serial")
        self.used = "sharded"

    def _context(self):
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()

    def run(self, devices: Sequence[DeviceSpec]) -> FleetAggregator:
        with _span("fleet.sharded", "fleet", devices=len(devices)):
            return self._run(devices)

    def _run(self, devices: Sequence[DeviceSpec]) -> FleetAggregator:
        ctx = self._context()
        processes = self.processes or min(len(devices) or 1, ctx.cpu_count() or 1)
        shard_count = min(self.shards or processes, len(devices) or 1)
        if self.shards is None:
            # Right-size rather than all-or-nothing: a many-core host
            # with a medium batch runs fewer, fuller shards instead of
            # losing parallelism entirely to the small-batch fallback.
            # An explicit shard count is honored as given.
            shard_count = min(
                shard_count, max(1, len(devices) // self.min_devices_per_shard)
            )
        if processes == 1 or shard_count <= 1:
            self.used = "serial"
            return run_shard(devices, engine=self.engine)
        self.used = "sharded"
        shards = [
            (tuple(devices[i::shard_count]), self.engine)
            for i in range(shard_count)
        ]
        configs = tuple(
            get_config(name)
            for name in sorted({d.config for d in devices})
        )
        aggregate = FleetAggregator()
        with ctx.Pool(
            processes=min(processes, shard_count),
            initializer=_register_worker_configs,
            initargs=(configs,),
        ) as pool:
            for payload in pool.map(_run_shard_payload, shards):
                aggregate.merge(FleetAggregator.from_dict(payload))
        return aggregate


def make_fleet_executor(
    name: str,
    processes: Optional[int] = None,
    engine: str = ENGINE_FAST,
    memo_dir: Optional[Path | str] = None,
    supply_buckets: Optional[int] = None,
) -> FleetExecutor:
    if name == "vector":
        from repro.fleet.vector import DEFAULT_SUPPLY_BUCKETS, VectorFleetExecutor

        return VectorFleetExecutor(
            engine=engine,
            memo_dir=memo_dir,
            supply_buckets=(
                supply_buckets
                if supply_buckets is not None
                else DEFAULT_SUPPLY_BUCKETS
            ),
        )
    if memo_dir is not None or supply_buckets is not None:
        # The memo knobs silently doing nothing on a memo-less executor
        # would read as "persistence is on" when it is not.
        raise FleetError(
            f"--memo-dir / --supply-buckets require the vector executor, "
            f"not '{name}'"
        )
    if name == "serial":
        return SerialFleetExecutor(engine=engine)
    if name in ("sharded", "parallel"):
        return ShardedFleetExecutor(processes=processes, engine=engine)
    raise FleetError(
        f"unknown fleet executor '{name}' (serial | sharded | vector)"
    )


# ---------------------------------------------------------------------------
# Checkpointing

#: Version of the cross-executor aggregate-parity contract.  All three
#: executor families (serial, sharded, vector) fold activations with
#: commutative integer sums into the same canonical aggregate encoding,
#: so a checkpoint written by one family resumes under another and the
#: final bytes match an uninterrupted run.  If a future change breaks
#: that equivalence, bump this string: checkpoint fingerprints bind it
#: (the same pattern as the seed-scheme fingerprint binding), so every
#: older checkpoint is rejected instead of silently mixing families.
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
    #: executor path that actually ran (a sharded executor may fall back
    #: to the serial path on small batches / single-core hosts)
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
    compiles at most 3 programs, and forked shard workers inherit all of
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
    executor: FleetExecutor | str | None = None,
    processes: Optional[int] = None,
    checkpoint_path: Optional[Path | str] = None,
    checkpoint_every: Optional[int] = None,
    engine: str = ENGINE_FAST,
    memo_dir: Optional[Path | str] = None,
    supply_buckets: Optional[int] = None,
) -> FleetResult:
    """Run (or resume) a whole fleet and aggregate it.

    With ``checkpoint_path``, progress is saved after every
    ``checkpoint_every`` devices (default 256) and a matching checkpoint
    on disk is resumed from instead of restarting; the final aggregate
    is byte-identical to an uninterrupted run.  A checkpoint whose
    fingerprint does not match ``spec`` is an error, not a silent
    restart.

    ``memo_dir`` backs the vector executor's activation memo with a
    persistent on-disk store and ``supply_buckets`` tunes its quantized
    supply keys; both require ``executor`` to name the vector family.
    """
    if memo_dir is not None or supply_buckets is not None:
        if not isinstance(executor, str) or executor != "vector":
            raise FleetError(
                "memo_dir / supply_buckets require executor='vector' "
                "(pass a configured VectorFleetExecutor instance otherwise)"
            )
    if executor is None:
        executor = SerialFleetExecutor(engine=engine)
    elif isinstance(executor, str):
        executor = make_fleet_executor(
            executor,
            processes=processes,
            engine=engine,
            memo_dir=memo_dir,
            supply_buckets=supply_buckets,
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
        chunk_used = getattr(executor, "used", executor.name)
        if chunk_used not in used:
            used.append(chunk_used)
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
