"""Vectorized fleet execution: cohorts, memoized activations, quantized keys.

A fleet's cost is dominated by stepping instructions, yet most of that
work is redundant: devices of one class share a compiled program, and an
activation's outcome is a pure function of its resume-point state --
nonvolatile memory, supply state, and the environment's behavior from
the start time (the observation behind the formal treatment in
Surbatovich et al.).  This executor exploits that in four layers:

* **Activation memoization** (:class:`ActivationMemo`).  Every executed
  activation is cached under a key built from equivalence *tokens*:
  program (app, build config, engine), environment identity, a
  time token (:meth:`Environment.segment_token
  <repro.sensors.environment.Environment.segment_token>` quantizes the
  start time when the environment is exactly periodic and the
  nonvolatile state carries no absolute-time taint), a structural
  nonvolatile-state token, and a supply token
  (:mod:`repro.energy.segments`).  A hit replays the cached
  :class:`~repro.runtime.harness.ActivationRecord`, time delta, and
  post-states without stepping a single instruction.  The memo is
  LRU-bounded (by entry count) and can persist to a
  content-addressed on-disk store (:mod:`repro.fleet.memostore`) keyed
  under the program fingerprint and aggregate-parity scheme, so re-runs
  and resumed checkpoints start warm.

* **Quantized supply keys** (:class:`QuantEntry`).  Exact supply tokens
  make every key unique on jittered fleets (per-device harvest rates
  and RNG stream positions).  Stochastic energy-driven supplies instead
  key on the capacitor geometry plus a configurable charge *bucket*,
  excluding everything per-device.  The bucketed key is paired with a
  replay gate that keeps it exact: an entry is stored only for a
  reboot-free activation and records the charge level it executed at; a
  hit replays only for devices at or above that level.  A reboot-free
  activation consults the supply only through charge checks monotone in
  the starting level, so the gated replay is bit-identical to real
  execution (contract spelled out in :mod:`repro.energy.segments`,
  perturbation-tested in ``tests/test_fleet_vector.py``).

* **Cohort wave batching** (:class:`_Cohort`).  Devices in provably
  identical situations -- same tokens, same logical time -- live in one
  cohort carrying a single shared state plus (for quantized cohorts) a
  per-member charge-level list.  Waves iterate cohorts, not
  devices: a homogeneous million-device fleet is *one* cohort, and each
  wave costs one memo probe and one aggregate fold, independent of
  population.  Cohorts split when replayed charge levels straddle a
  bucket boundary and merge when states reconverge.

* **Batched miss path** (:class:`_MissBatch`).  Misses within a class
  batch run through one driver holding the shared decoded program, cost
  model, and detector plan; it drives the machine directly (no
  per-activation stepper object), reuses the codec's preallocated
  struct-of-arrays NV buffers (:class:`NVCodec`), and folds each wave's
  records through one ``observe_many``-style sink.  Devices whose
  supply goes opaque mid-run fall back to the scalar
  :class:`~repro.runtime.harness.ActivationStepper`.

Soundness: tokens are conservative.  A supply without memo hooks, an
aperiodic environment, an unencodable nonvolatile state -- each only
*loses cache hits*; it never manufactures a false equivalence.  The
aggregate is commutative integer summation, so the vectorized fold is
byte-identical to the serial executor on any number of workers
(property-tested in ``tests/test_fleet_vector.py``, including bucketed
hits and warm disk-memo runs).
"""

from __future__ import annotations

import os
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, NamedTuple, Optional, Sequence

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE, CacheKey
from repro.energy.segments import (
    capture_supply_state,
    restore_supply_state,
    supply_memo_token,
)
from repro.eval.campaign import SupplySpec
from repro.fleet.aggregate import FleetAggregator
from repro.fleet.memostore import MEMO_SCHEMA, MemoStore
from repro.fleet.spec import DeviceSpec, FleetError
from repro.parallel import fork_map
from repro.runtime.engine import ENGINE_FAST, create_machine
from repro.runtime.executor import MachineConfig, NVState
from repro.runtime.detector import BitVector
from repro.runtime.harness import ActivationRecord, ActivationStepper
from repro.sensors.environment import bind_signal_specs
from repro.runtime.supply import PowerSupply
from repro.telemetry.trace import span as _span


#: Default number of charge buckets spanning a capacitor's capacity for
#: quantized supply keys.  Coarser (fewer) buckets collapse more devices
#: onto one key; the replay gate keeps any granularity exact.
DEFAULT_SUPPLY_BUCKETS = 32

#: Fewest devices worth a worker process: a smaller batch runs on fewer
#: workers, or in-process, because pool start-up and shipping the
#: aggregate back would cost more than the worker wins.
MIN_DEVICES_PER_WORKER = 16


# ---------------------------------------------------------------------------
# Nonvolatile-state tokens


class NVRef(NamedTuple):
    """A tokenized nonvolatile state: hashable identity + replayable copy."""

    #: hashable structural token; equal tokens => equal nonvolatile states
    token: Hashable
    #: immutable copy: (globals dict, arrays dict of tuples, bits frozenset)
    snapshot: tuple
    #: True when any cell carries input taint (absolute-time provenance)
    tainted: bool


def materialize_nv(ref: NVRef) -> NVState:
    """A fresh mutable :class:`NVState` from a tokenized snapshot."""
    globals_, arrays, bits = ref.snapshot
    return NVState(
        globals=dict(globals_),
        arrays={name: list(cells) for name, cells in arrays.items()},
        bits=BitVector(set(bits)),
    )


class NVCodec:
    """Per-program struct-of-arrays encoder for nonvolatile state.

    A compiled program fixes the nonvolatile layout: its global names,
    array names and lengths, and the universe of detector bit chains.
    The codec assigns each a slot once, then digests any state of that
    program as (packed int64 values, bit mask, sparse taint list) --
    the value digest is one ``tobytes`` over a stdlib ``array("q")``
    of them.  The value buffer is preallocated once and reused across
    encodes, so the batched miss path pays no per-activation list
    churn.  Anything outside the fixed layout (huge integers, an
    unexpected chain, a shape drift) falls back to a slower but exact
    structural tuple; the fallback only costs speed, never identity.
    """

    def __init__(self, module, plan) -> None:
        self.global_names = tuple(sorted(module.globals))
        self.array_names = tuple(sorted(module.arrays))
        self._bit_index = {
            chain: i for i, chain in enumerate(sorted(plan.bit_chains))
        }
        # Reused across encodes; tobytes() copies, so reuse is safe.
        self._values: list[int] = []

    def encode(self, nv: NVState) -> NVRef:
        """Tokenize ``nv``; the snapshot copies every mutable container."""
        globals_ = nv.globals
        arrays = nv.arrays
        bits = nv.bits.bits
        snapshot = (
            dict(globals_),
            {name: tuple(cells) for name, cells in arrays.items()},
            frozenset(bits),
        )
        try:
            token, tainted = self._packed(globals_, arrays, bits)
        except (KeyError, OverflowError, TypeError, ValueError):
            token, tainted = self._structural(globals_, arrays, bits)
        return NVRef(token=token, snapshot=snapshot, tainted=tainted)

    def _packed(self, globals_, arrays, bits):
        if len(globals_) != len(self.global_names):
            raise ValueError("global layout drifted")
        if len(arrays) != len(self.array_names):
            raise ValueError("array layout drifted")
        values = self._values
        values.clear()
        taints: list[tuple[int, frozenset]] = []
        for name in self.global_names:
            cell = globals_[name]
            if cell.taint:
                taints.append((len(values), cell.taint))
            values.append(cell.value)
        for name in self.array_names:
            cells = arrays[name]
            values.append(len(cells))
            for cell in cells:
                if cell.taint:
                    taints.append((len(values), cell.taint))
                values.append(cell.value)
        mask = 0
        for chain in bits:
            mask |= 1 << self._bit_index[chain]
        # bytes objects cache their hash, so repeated dict probes on the
        # same token re-digest nothing.
        packed = array("q", values).tobytes()
        return ("v", packed, mask, tuple(taints)), bool(taints)

    @staticmethod
    def _structural(globals_, arrays, bits):
        token = (
            "s",
            tuple((name, globals_[name]) for name in sorted(globals_)),
            tuple((name, tuple(arrays[name])) for name in sorted(arrays)),
            frozenset(bits),
        )
        tainted = any(cell.taint for cell in globals_.values()) or any(
            cell.taint for cells in arrays.values() for cell in cells
        )
        return token, tainted


# ---------------------------------------------------------------------------
# The memo table


@dataclass
class MemoEntry:
    """Everything needed to replay one memoized activation (exact key)."""

    record: object  # ActivationRecord; treated as immutable once cached
    tau_delta: int
    post_nv: NVRef
    post_supply_token: Optional[Hashable]
    post_supply_capture: object


@dataclass
class QuantEntry:
    """A replayable activation under a *quantized* supply key.

    Stored only for reboot-free activations.  ``exec_level`` is the
    charge level the recorded run started from; the replay gate admits
    only devices at or above it (monotonicity makes that exact -- see
    :mod:`repro.energy.segments`).  ``exec_level`` tightens downward
    whenever a lower-level device re-executes the same key reboot-free.
    A replayed device ends at ``level - consumed`` with its RNG streams
    untouched (a reboot-free activation never draws them).
    """

    record: object  # ActivationRecord; reboot-free, treated as immutable
    tau_delta: int
    post_nv: NVRef
    consumed: int
    exec_level: int


@dataclass
class MemoStats:
    """Hit/miss accounting, in device-activations."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: entries adopted from the persistent store (cold size of warm runs)
    disk_loads: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self, entries: int = 0) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_loads": self.disk_loads,
            "hit_rate": self.hit_rate,
            "entries": entries,
        }


class ActivationMemo:
    """Bounded LRU activation cache shared across batches and chunks.

    Capped by entry count; eviction drops the least-recently-used
    entry.  Entries still referenced by in-flight cohorts stay alive
    through those references, so eviction can only cause future misses,
    never wrong replays -- an evicted key simply re-executes on next
    encounter and the aggregate bytes are unchanged (tested).
    """

    def __init__(self, max_entries: int = 65_536) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = MemoStats()
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def items(self):
        return self._entries.items()

    def get(self, key: Hashable):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, entry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1


# ---------------------------------------------------------------------------
# The batched miss driver


class _MissBatch:
    """Amortized miss execution for one class batch.

    Holds the batch's shared decoded program, cost model, detector
    plan, and NV codec once; every miss drives the machine directly
    instead of building a per-activation
    :class:`~repro.runtime.harness.ActivationStepper`, and post-state
    tokenization reuses the codec's preallocated buffers.  Devices that
    diverge into opaque supply state mid-wave fall back to the scalar
    stepper (:meth:`stepper`).
    """

    __slots__ = ("compiled", "costs", "plan", "engine", "codec")

    #: a record keeps no trace, so every miss runs violations-only
    _config = MachineConfig(emit_observations=False)

    def __init__(self, compiled, costs, plan, engine: str, codec: NVCodec):
        self.compiled = compiled
        self.costs = costs
        self.plan = plan
        self.engine = engine
        self.codec = codec

    def run(self, env, supply, nv_ref: NVRef, tau: int, index: int):
        """One real activation; returns (record, tau_delta, post_nv)."""
        machine = create_machine(
            self.engine,
            self.compiled,
            env,
            supply,
            costs=self.costs,
            plan=self.plan,
            nv=materialize_nv(nv_ref),
            config=self._config,
            start_tau=tau,
        )
        record = ActivationRecord.from_run(index, machine.run())
        return record, machine.tau - tau, self.codec.encode(machine.nv)

    def stepper(self, spec, env, supply, nv, start_tau, start_index):
        """Scalar fallback for devices pinned to real stepping."""
        return ActivationStepper(
            self.compiled,
            env,
            supply,
            spec.budget_cycles,
            costs=self.costs,
            plan=self.plan,
            max_activations=spec.max_activations,
            nv=nv,
            engine=self.engine,
            start_tau=start_tau,
            start_index=start_index,
        )


# ---------------------------------------------------------------------------
# Cohorts

#: Sentinel: a uni cohort whose supply has never run (spawn, don't restore).
_FRESH = object()
#: Sentinel: a uni cohort whose supply token has not been computed yet.
_UNSET = object()


class _Cohort:
    """A set of devices in a provably identical situation.

    All members share logical time, activation index, nonvolatile
    state, and supply equivalence; liveness (budget, activation cap,
    stuckness) is all-or-nothing because those limits are uniform
    within the cohort.  Three kinds:

    * ``uni`` -- exact supply-token equivalence (deterministic
      supplies): one shared capture, one representative executes.
    * ``quant`` -- bucketed equivalence (stochastic energy-driven
      supplies): members share the charge *bucket* but keep individual
      levels and lazily-materialized supply objects.
    * ``mat`` -- a singleton pinned to a real scalar stepper (opaque
      supply state).
    """

    __slots__ = (
        "kind",
        "positions",
        "tau",
        "index",
        "stuck",
        "budget",
        "cap",
        "env_key",
        "env",
        "period",
        "nv_ref",
        # uni
        "stoken",
        "capture",
        # quant
        "static",
        "bucket_size",
        "bucket",
        "levels",
        "supplies",
        # mat
        "stepper",
    )

    def __init__(self, kind, positions, budget, cap, env_key, env, period, nv_ref):
        self.kind = kind
        self.positions = positions
        self.tau = 0
        self.index = 0
        self.stuck = False
        self.budget = budget
        self.cap = cap
        self.env_key = env_key
        self.env = env
        self.period = period
        self.nv_ref = nv_ref
        self.stoken = _UNSET
        self.capture = _FRESH
        self.static = None
        self.bucket_size = 0
        self.bucket = 0
        self.levels = None
        self.supplies = None
        self.stepper = None

    def alive(self) -> bool:
        return (
            not self.stuck and self.tau < self.budget and self.index < self.cap
        )

    def time_token(self):
        """Period-quantized start time, absolute when taint forbids it."""
        if self.period is None or self.nv_ref.tainted:
            return self.tau
        return self.tau % self.period


# ---------------------------------------------------------------------------
# The executor


class VectorFleetExecutor:
    """Batch same-class devices through one shared decode + memo table.

    Drop-in peer of the serial executor: ``run`` takes device specs and
    returns a :class:`FleetAggregator` whose canonical JSON is
    byte-identical to the serial one.  The memo table persists across
    ``run`` calls, so checkpointed chunked runs keep their warm cache;
    with ``memo_dir`` it also persists across processes through a
    :class:`~repro.fleet.memostore.MemoStore`.

    With ``processes`` above one (``None``: one per core), device ``i``
    of a batch goes to worker ``i mod n`` through
    :func:`repro.parallel.fork_map`; each worker runs a fresh executor
    over its share and the parent sums their aggregates and memo
    counts.  Worker memos are not merged back, so ``memo_dir`` needs
    one worker.
    """

    name = "vector"

    def __init__(
        self,
        engine: str = ENGINE_FAST,
        memo: Optional[ActivationMemo] = None,
        memo_dir: Optional[Path | str] = None,
        supply_buckets: int = DEFAULT_SUPPLY_BUCKETS,
        processes: Optional[int] = 1,
    ) -> None:
        if supply_buckets < 0:
            raise ValueError("supply_buckets must be >= 0 (0 disables)")
        if processes is not None and processes <= 0:
            raise ValueError("processes must be positive (or None for auto)")
        if memo_dir is not None and processes != 1:
            raise FleetError(
                "--memo-dir needs the vector executor on one worker "
                "(worker memos are not merged back into the store)"
            )
        self.engine = engine
        self.processes = processes
        self.memo = memo if memo is not None else ActivationMemo()
        self.supply_buckets = supply_buckets
        self.store = MemoStore(memo_dir) if memo_dir is not None else None
        self._shard_tokens: dict = {}
        self._dirty: set = set()
        self._supply_protos: dict[SupplySpec, PowerSupply] = {}
        self._envs: dict = {}
        self._codecs: dict = {}
        self._initials: dict = {}

    # -- shared-resource caches ---------------------------------------------

    def memo_stats(self) -> dict:
        """Hit/miss accounting for reports and benchmarks."""
        return self.memo.stats.to_dict(entries=len(self.memo))

    def _spawn_supply(self, spec: DeviceSpec) -> PowerSupply:
        proto = self._supply_protos.get(spec.supply)
        if proto is None:
            proto = spec.supply.build(0)
            self._supply_protos[spec.supply] = proto
        return proto.spawn(spec.seed + spec.supply.seed_offset)

    def _env(self, spec: DeviceSpec):
        """(env_key, env, period) for ``spec``; envs are pure, so shared."""
        key = (spec.app, spec.env_seed, spec.env_overrides, spec.phase)
        cached = self._envs.get(key)
        if cached is None:
            env = BENCHMARKS[spec.app].env_factory(spec.env_seed)
            if spec.env_overrides:
                bind_signal_specs(env, spec.env_overrides)
            env = env.shifted(spec.phase)
            cached = self._envs[key] = (key, env, env.period())
        return cached

    def _codec(self, spec: DeviceSpec, compiled, plan):
        key = (spec.app, spec.config)
        codec = self._codecs.get(key)
        if codec is None:
            codec = self._codecs[key] = NVCodec(compiled.module, plan)
            self._initials[key] = codec.encode(
                NVState.initial(compiled.module)
            )
        return codec, self._initials[key]

    def _supply_mode(self, sspec) -> str:
        """How a class's supplies group: uni / quant / exact.

        ``uni`` needs spawn-equivalence across per-device seeds, which
        is provable for our own spec kinds: continuous and schedule
        supplies are seed-invariant, and a harvest supply with
        degenerate jitter and boot band excludes every RNG from its
        token.  Stochastic harvest supplies quantize (unless bucketing
        is disabled); anything unrecognized degrades to per-device
        exact tokens -- conservative, never wrong.
        """
        if not isinstance(sspec, SupplySpec):
            return "exact"
        if sspec.kind != "harvest":
            return "uni"
        lo, hi = sspec.boot_fraction
        if sspec.harvest_spread == 1.0 and hi <= lo:
            return "uni"
        return "quant" if self.supply_buckets > 0 else "exact"

    # -- persistent shards ---------------------------------------------------

    def _load_shard(self, prog_key, meta) -> None:
        if self.store is None or prog_key in self._shard_tokens:
            return
        app, config, engine = prog_key
        token = repr(
            (
                MEMO_SCHEMA,
                _parity_scheme(),
                app,
                config,
                engine,
                CacheKey.make(meta.source, config),
                repr(meta.cost_model()),
            )
        )
        self._shard_tokens[prog_key] = token
        loaded = 0
        for key, entry in self.store.load(token).items():
            if key not in self.memo:
                self.memo.put(key, entry)
                loaded += 1
        self.memo.stats.disk_loads += loaded

    def _save_shards(self) -> None:
        if self.store is None:
            return
        for prog_key in sorted(self._dirty):
            entries = {
                key: entry
                for key, entry in self.memo.items()
                if key[0] == prog_key
            }
            if self.store.save(self._shard_tokens[prog_key], entries):
                self._dirty.discard(prog_key)

    # -- execution -----------------------------------------------------------

    def run(self, devices: Sequence[DeviceSpec]) -> FleetAggregator:
        with _span("fleet.vector", "fleet", devices=len(devices)):
            workers = min(
                self.processes or os.cpu_count() or 1,
                len(devices) // MIN_DEVICES_PER_WORKER,
            )
            if workers > 1:
                return self._run_workers(devices, workers)
            aggregator = FleetAggregator()
            batches: dict[str, list[DeviceSpec]] = {}
            for spec in devices:
                batches.setdefault(spec.class_name, []).append(spec)
            for specs in batches.values():
                aggregator.add_devices(specs[0], len(specs))
                self._run_batch(specs, aggregator)
            self._save_shards()
            return aggregator

    def _run_workers(
        self, devices: Sequence[DeviceSpec], workers: int
    ) -> FleetAggregator:
        """Deal ``devices`` round-robin to ``workers`` processes; sum up."""
        payloads = [
            (tuple(devices[i::workers]), self.engine, self.supply_buckets)
            for i in range(workers)
        ]
        aggregator = FleetAggregator()
        stats = self.memo.stats
        for aggregate, hits, misses, evictions in fork_map(
            _run_worker, payloads, {spec.config for spec in devices}, workers
        ):
            aggregator.merge(FleetAggregator.from_dict(aggregate))
            stats.hits += hits
            stats.misses += misses
            stats.evictions += evictions
        return aggregator

    def _run_batch(
        self, specs: list[DeviceSpec], aggregator: FleetAggregator
    ) -> None:
        first = specs[0]
        meta = BENCHMARKS[first.app]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, first.config)
        costs = meta.cost_model()
        plan = compiled.detector_plan()
        codec, init_ref = self._codec(first, compiled, plan)
        prog_key = (first.app, first.config, self.engine)
        self._load_shard(prog_key, meta)
        driver = _MissBatch(compiled, costs, plan, self.engine, codec)

        cohorts = self._initial_cohorts(specs, init_ref)
        sink: dict = {}
        while True:
            live = [c for c in cohorts if c.alive()]
            if not live:
                break
            groups: dict = {}
            next_cohorts: list[_Cohort] = []
            for c in live:
                if c.kind == "mat":
                    self._step_mat(c, sink)
                    next_cohorts.append(c)
                    continue
                if c.kind == "uni":
                    if c.stoken is _UNSET:
                        c = self._resolve_uni(c, specs, driver)
                        if c.kind == "mat":
                            self._step_mat(c, sink)
                            next_cohorts.append(c)
                            continue
                    gkey = (
                        "u",
                        c.env_key,
                        c.budget,
                        c.cap,
                        c.index,
                        c.tau,
                        c.nv_ref.token,
                        c.stoken,
                    )
                else:
                    gkey = (
                        "q",
                        c.env_key,
                        c.budget,
                        c.cap,
                        c.index,
                        c.tau,
                        c.nv_ref.token,
                        c.static,
                        c.bucket_size,
                        c.bucket,
                    )
                groups.setdefault(gkey, []).append(c)
            for gkey, cs in groups.items():
                if gkey[0] == "u":
                    next_cohorts.extend(
                        self._wave_uni(cs, prog_key, specs, driver, sink)
                    )
                else:
                    next_cohorts.extend(
                        self._wave_quant(cs, prog_key, specs, driver, sink)
                    )
            self._flush_sink(sink, first, aggregator)
            cohorts = next_cohorts

    # -- cohort formation ----------------------------------------------------

    def _initial_cohorts(
        self, specs: list[DeviceSpec], init_ref: NVRef
    ) -> list[_Cohort]:
        cohorts: dict = {}
        order: list[_Cohort] = []
        for pos, spec in enumerate(specs):
            env_key, env, period = self._env(spec)
            mode = self._supply_mode(spec.supply)
            if mode == "quant":
                static = (
                    "energyq",
                    spec.supply.capacity,
                    spec.supply.low_threshold,
                )
                ckey = (
                    "q",
                    env_key,
                    spec.budget_cycles,
                    spec.max_activations,
                    static,
                )
            elif mode == "uni":
                ckey = (
                    "u",
                    env_key,
                    spec.budget_cycles,
                    spec.max_activations,
                    spec.supply,
                )
            else:
                ckey = ("x", pos)
            cohort = cohorts.get(ckey)
            if cohort is None:
                kind = "quant" if mode == "quant" else "uni"
                cohort = _Cohort(
                    kind,
                    [],
                    spec.budget_cycles,
                    spec.max_activations,
                    env_key,
                    env,
                    period,
                    init_ref,
                )
                if kind == "quant":
                    cohort.static = ckey[4]
                cohorts[ckey] = cohort
                order.append(cohort)
            cohort.positions.append(pos)
        for cohort in order:
            if cohort.kind == "quant":
                capacity = cohort.static[1]
                cohort.bucket_size = max(
                    1, capacity // max(1, self.supply_buckets)
                )
                cohort.bucket = capacity // cohort.bucket_size
                cohort.levels = [capacity] * len(cohort.positions)
                cohort.supplies = [None] * len(cohort.positions)
        return order

    def _resolve_uni(
        self, cohort: _Cohort, specs: list[DeviceSpec], driver: _MissBatch
    ) -> _Cohort:
        """Compute a cold uni cohort's supply token with one probe spawn.

        An opaque token (no memo hooks) pins every member to the scalar
        stepper; callers get back either the same cohort (token set) or
        a replacement ``mat`` cohort (singletons only reach this path
        opaque, because grouping by spec proved nothing about them).
        """
        spec = specs[cohort.positions[0]]
        supply = self._spawn_supply(spec)
        token = supply_memo_token(supply)
        if token is not None:
            cohort.stoken = token
            return cohort
        assert len(cohort.positions) == 1, "opaque supply in a shared cohort"
        mat = _Cohort(
            "mat",
            cohort.positions,
            cohort.budget,
            cohort.cap,
            cohort.env_key,
            cohort.env,
            cohort.period,
            cohort.nv_ref,
        )
        mat.stepper = driver.stepper(
            spec, cohort.env, supply, materialize_nv(cohort.nv_ref), 0, 0
        )
        return mat

    # -- wave processing -----------------------------------------------------

    def _wave_uni(self, cs, prog_key, specs, driver, sink):
        rep = cs[0]
        members = sum(len(c.positions) for c in cs)
        mkey = (prog_key, rep.env_key, rep.time_token(), rep.nv_ref.token, rep.stoken)
        entry = self.memo.get(mkey)
        if entry is None:
            spec = specs[rep.positions[0]]
            supply = self._spawn_supply(spec)
            if rep.capture is not _FRESH:
                restore_supply_state(supply, rep.capture)
            record, tau_delta, post_nv = driver.run(
                rep.env, supply, rep.nv_ref, rep.tau, rep.index
            )
            entry = MemoEntry(
                record=record,
                tau_delta=tau_delta,
                post_nv=post_nv,
                post_supply_token=supply_memo_token(supply),
                post_supply_capture=capture_supply_state(supply),
            )
            self.memo.put(mkey, entry)
            self._dirty.add(prog_key)
            self.memo.stats.misses += 1
            self.memo.stats.hits += members - 1
        else:
            self.memo.stats.hits += members
        _sink(sink, entry.record, members)
        new_tau = rep.tau + entry.tau_delta
        new_index = rep.index + 1
        if not entry.record.completed:
            return []  # every member is stuck; records already folded
        if entry.post_supply_token is None:
            # Post-state supply became opaque: pin each member to a real
            # stepper from here on (the scalar fallback path).
            if new_tau >= rep.budget or new_index >= rep.cap:
                return []
            out = []
            for c in cs:
                for pos in c.positions:
                    supply = self._spawn_supply(specs[pos])
                    restore_supply_state(supply, entry.post_supply_capture)
                    mat = _Cohort(
                        "mat",
                        [pos],
                        c.budget,
                        c.cap,
                        c.env_key,
                        c.env,
                        c.period,
                        entry.post_nv,
                    )
                    mat.tau = new_tau
                    mat.index = new_index
                    mat.stepper = driver.stepper(
                        specs[pos],
                        c.env,
                        supply,
                        materialize_nv(entry.post_nv),
                        new_tau,
                        new_index,
                    )
                    out.append(mat)
            return out
        if len(cs) > 1:
            positions = rep.positions
            for c in cs[1:]:
                positions.extend(c.positions)
        rep.tau = new_tau
        rep.index = new_index
        rep.nv_ref = entry.post_nv
        rep.stoken = entry.post_supply_token
        rep.capture = entry.post_supply_capture
        return [rep]

    def _wave_quant(self, cs, prog_key, specs, driver, sink):
        rep = cs[0]
        bsize = rep.bucket_size
        qkey = (
            prog_key,
            rep.env_key,
            rep.time_token(),
            rep.nv_ref.token,
            ("q", rep.static, bsize, rep.bucket),
        )
        entry = self.memo.get(qkey)
        if entry is not None and all(
            min(c.levels) >= entry.exec_level for c in cs
        ):
            return self._quant_replay_all(cs, entry, sink)
        # Mixed wave: walk members in deterministic order; the first
        # reboot-free execution publishes (or tightens) the bucket entry
        # and later members in the same wave ride it.
        new_index = rep.index + 1
        regroup: dict = {}
        order: list[_Cohort] = []
        for c in cs:
            levels = c.levels
            supplies = c.supplies
            for i, pos in enumerate(c.positions):
                level = levels[i]
                if entry is not None and level >= entry.exec_level:
                    self.memo.stats.hits += 1
                    _sink(sink, entry.record, 1)
                    if entry.record.completed:
                        self._requeue(
                            regroup,
                            order,
                            c,
                            new_index,
                            rep.tau + entry.tau_delta,
                            entry.post_nv,
                            level - entry.consumed,
                            pos,
                            supplies[i],
                        )
                    continue
                supply = supplies[i]
                if supply is None:
                    supply = self._spawn_supply(specs[pos])
                # Bucketed replays track levels outside the supply
                # object; re-sync before real execution.
                supply.capacitor.level = level
                record, tau_delta, post_nv = driver.run(
                    c.env, supply, c.nv_ref, rep.tau, rep.index
                )
                self.memo.stats.misses += 1
                _sink(sink, record, 1)
                new_level = supply.capacitor.level
                if record.reboots == 0 and record.cycles_off == 0:
                    if entry is None:
                        entry = QuantEntry(
                            record=record,
                            tau_delta=tau_delta,
                            post_nv=post_nv,
                            consumed=level - new_level,
                            exec_level=level,
                        )
                        self.memo.put(qkey, entry)
                        self._dirty.add(prog_key)
                    elif level < entry.exec_level:
                        # Same key, reboot-free from a lower level: the
                        # identical path re-ran; widen the gate.
                        entry.exec_level = level
                        self._dirty.add(prog_key)
                if record.completed:
                    self._requeue(
                        regroup,
                        order,
                        c,
                        new_index,
                        rep.tau + tau_delta,
                        post_nv,
                        new_level,
                        pos,
                        supply,
                    )
        return order

    def _quant_replay_all(self, cs, entry: QuantEntry, sink) -> list:
        """Whole-group bucketed replay: one drain + bucket split."""
        members = sum(len(c.positions) for c in cs)
        self.memo.stats.hits += members
        _sink(sink, entry.record, members)
        if not entry.record.completed:
            return []
        consumed = entry.consumed
        by_bucket: dict = {}
        order: list[_Cohort] = []
        for c in cs:
            c.tau += entry.tau_delta
            c.index += 1
            c.nv_ref = entry.post_nv
            bsize = c.bucket_size
            c.levels = [lv - consumed for lv in c.levels]
            buckets = [lv // bsize for lv in c.levels]
            uniq = sorted(set(buckets))
            whole = len(uniq) == 1
            for bucket in uniq:
                target = by_bucket.get(bucket)
                if whole and target is None:
                    # Common case: the cohort stays whole; keep its
                    # membership lists as they are.
                    c.bucket = bucket
                    by_bucket[bucket] = c
                    order.append(c)
                    continue
                if whole:
                    positions = c.positions
                    levels = c.levels
                    supplies = c.supplies
                else:
                    sel = [j for j, b in enumerate(buckets) if b == bucket]
                    positions = [c.positions[j] for j in sel]
                    levels = [c.levels[j] for j in sel]
                    supplies = [c.supplies[j] for j in sel]
                if target is None:
                    split = _Cohort(
                        "quant",
                        list(positions),
                        c.budget,
                        c.cap,
                        c.env_key,
                        c.env,
                        c.period,
                        c.nv_ref,
                    )
                    split.tau = c.tau
                    split.index = c.index
                    split.static = c.static
                    split.bucket_size = bsize
                    split.bucket = bucket
                    split.levels = levels
                    split.supplies = list(supplies)
                    by_bucket[bucket] = split
                    order.append(split)
                else:
                    target.positions.extend(positions)
                    target.supplies.extend(supplies)
                    target.levels.extend(levels)
        return order

    @staticmethod
    def _requeue(
        regroup, order, src: _Cohort, index, tau, nv_ref, level, pos, supply
    ) -> None:
        """File one quant member into its post-activation cohort."""
        bucket = level // src.bucket_size
        key = (tau, nv_ref.token, bucket)
        cohort = regroup.get(key)
        if cohort is None:
            cohort = _Cohort(
                "quant",
                [],
                src.budget,
                src.cap,
                src.env_key,
                src.env,
                src.period,
                nv_ref,
            )
            cohort.tau = tau
            cohort.index = index
            cohort.static = src.static
            cohort.bucket_size = src.bucket_size
            cohort.bucket = bucket
            cohort.levels = []
            cohort.supplies = []
            regroup[key] = cohort
            order.append(cohort)
        cohort.positions.append(pos)
        cohort.levels.append(level)
        cohort.supplies.append(supply)

    def _step_mat(self, cohort: _Cohort, sink) -> None:
        record = cohort.stepper.step()
        assert record is not None, "cohort liveness disagrees with stepper"
        cohort.tau = cohort.stepper.tau
        cohort.index += 1
        if not record.completed:
            cohort.stuck = True
        _sink(sink, record, 1)

    @staticmethod
    def _flush_sink(sink: dict, spec: DeviceSpec, aggregator) -> None:
        """One ``observe_many`` per distinct record content per wave."""
        for record, count in sink.values():
            aggregator.observe_many(spec, record, count)
        sink.clear()


def _sink(sink: dict, record, count: int) -> None:
    key = (
        record.index,
        record.completed,
        record.violations,
        record.cycles_on,
        record.cycles_off,
        record.reboots,
        record.fresh_violations,
        record.consistent_violations,
        record.detector_queries,
    )
    slot = sink.get(key)
    if slot is None:
        sink[key] = [record, count]
    else:
        slot[1] += count


def _run_worker(payload) -> tuple[dict, int, int, int]:
    """Worker entry: a fresh in-process executor over one shard."""
    devices, engine, supply_buckets = payload
    executor = VectorFleetExecutor(engine=engine, supply_buckets=supply_buckets)
    aggregate = executor.run(devices)
    stats = executor.memo.stats
    return aggregate.to_dict(), stats.hits, stats.misses, stats.evictions


def _parity_scheme() -> str:
    from repro.fleet.engine import AGGREGATE_PARITY_SCHEME

    return AGGREGATE_PARITY_SCHEME
