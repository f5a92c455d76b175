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
  nonvolatile state carries no input taint), a structural
  nonvolatile-state token, and a supply token (the supply's own
  ``memo_token`` hook).  A hit replays the cached
  :class:`~repro.runtime.harness.ActivationRecord`, time delta, and
  post-states without stepping a single instruction.  The memo is
  LRU-bounded (by entry count) and can persist to a
  content-addressed on-disk store (:mod:`repro.fleet.memostore`) keyed
  under the program fingerprint and aggregate-parity scheme, so re-runs
  and resumed checkpoints start warm.

* **Quantized supply keys** (:class:`QuantEntry`).  Exact supply tokens
  make every key unique on jittered fleets (per-device harvest rates
  and RNG stream positions).  Stochastic energy-driven supplies instead
  key on the capacitor geometry alone, excluding everything per-device
  and the charge level itself.  The key is paired with a replay gate
  that keeps it exact: an entry is stored only for a reboot-free
  activation and records the charge level it executed at; a hit
  replays only for devices at or above that level.  A reboot-free
  activation consults the supply only through charge checks monotone in
  the starting level, so the gated replay is bit-identical to real
  execution (contract spelled out on :class:`QuantEntry`, key
  properties tested in ``tests/test_fleet_vector.py``).

* **Cohort wave batching** (:class:`_Cohort`).  Devices in provably
  identical situations -- same tokens, same logical time -- live in one
  cohort carrying a single shared state plus (for quantized cohorts) a
  per-member charge-level list.  Waves iterate cohorts, not
  devices: a homogeneous million-device fleet is *one* cohort, and each
  wave costs one memo probe and one aggregate fold, independent of
  population.  A quantized wave whose members all pass the replay gate
  stays one cohort; a wave with members below the gate walks them one
  by one and regroups them by post-activation time and state.

* **Batched miss path** (:class:`_MissBatch`).  Misses within a class
  batch run on one machine over the shared decoded program, cost model,
  and detector plan, restarted per miss over that device's state (no
  per-activation stepper or machine object); it tokenizes each
  post-state through the class's struct-of-arrays codec
  (:class:`NVCodec`), and folds each wave's records through one
  ``observe_many``-style sink.

Soundness: tokens are conservative.  An aperiodic environment or an
unencodable nonvolatile state only *loses cache hits*; it never
manufactures a false equivalence.  Every supply a fleet can hold is
built from a :class:`~repro.eval.campaign.SupplySpec` (``DeviceClass``
rejects anything else), and each kind it builds answers the memo hooks
(``memo_token``, ``memo_capture``, ``memo_restore``) exactly.  The
aggregate is commutative integer summation, so the vectorized fold is
byte-identical to the serial executor on any number of workers
(property-tested in ``tests/test_fleet_vector.py``, including gated
quantized hits and warm disk-memo runs).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, NamedTuple, Optional, Sequence

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE, CacheKey
from repro.eval.campaign import SupplySpec
from repro.fleet.aggregate import FleetAggregator
from repro.fleet.device import DeviceFactory
from repro.fleet.memostore import MEMO_SCHEMA, MemoStore
from repro.fleet.spec import DeviceSpec, FleetError
from repro.parallel import fork_map
from repro.runtime.engine import ENGINE_FAST, create_machine
from repro.runtime.executor import MachineConfig, NVState
from repro.runtime.detector import BitVector
from repro.runtime.harness import ActivationRecord
from repro.telemetry.trace import span as _span


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
    #: True when any cell carries input taint; the memo key then keeps
    #: absolute time (see :meth:`_Cohort.memo_key`)
    tainted: bool


def materialize_nv(ref: NVRef) -> NVState:
    """A fresh mutable :class:`NVState` from a tokenized snapshot."""
    globals_, arrays, bits = ref.snapshot
    # positional, and no comprehension call for a program without arrays
    return NVState(
        dict(globals_),
        {name: list(cells) for name, cells in arrays.items()} if arrays else {},
        BitVector(set(bits)),
    )


class NVCodec:
    """Per-program struct-of-arrays encoder for nonvolatile state.

    A compiled program fixes the nonvolatile layout: its global names,
    array names and lengths, and the universe of detector bit chains.
    The codec assigns each a slot once, then digests any state of that
    program as (packed int64 values, bit mask, sparse taint list) --
    the value digest is one ``tobytes`` over a stdlib ``array("q")``
    of them.  Every state it sees comes from a violations-only run, so
    each taint in the list is a frozenset of
    :class:`~repro.runtime.values.InputSite` (input op and channel, no
    read time): two states share a token when their values agree and
    each tainted cell came from the same input ops, whenever they ran;
    each chain's bit is precomputed, so the mask is one OR per set
    chain.  Anything outside the fixed layout (huge integers, an unexpected
    chain, a shape drift) falls back to a slower but exact structural
    tuple; the fallback only costs speed, never identity.
    """

    def __init__(self, module, plan) -> None:
        self.global_names = tuple(sorted(module.globals))
        self.array_names = tuple(sorted(module.arrays))
        self._chain_bit = {
            chain: 1 << i for i, chain in enumerate(sorted(plan.bit_chains))
        }

    def encode(self, nv: NVState) -> NVRef:
        """Tokenize ``nv``; the snapshot copies every mutable container."""
        globals_ = nv.globals
        arrays = nv.arrays
        bits = nv.bits.bits
        snapshot = (
            dict(globals_),
            {name: tuple(cells) for name, cells in arrays.items()} if arrays else {},
            frozenset(bits),
        )
        try:
            token, tainted = self._packed(globals_, arrays, bits)
        except (KeyError, OverflowError, TypeError, ValueError):
            token, tainted = self._structural(globals_, arrays, bits)
        return NVRef(token, snapshot, tainted)

    def _packed(self, globals_, arrays, bits):
        if len(globals_) != len(self.global_names):
            raise ValueError("global layout drifted")
        if len(arrays) != len(self.array_names):
            raise ValueError("array layout drifted")
        values: list[int] = []
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
        chain_bit = self._chain_bit
        for chain in bits:
            mask |= chain_bit[chain]
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

    record: ActivationRecord
    tau_delta: int
    post_nv: NVRef
    post_supply_token: Hashable
    post_supply_capture: object


@dataclass
class QuantEntry:
    """A replayable activation under a *quantized* supply key.

    Stored only for reboot-free activations (``reboots == 0`` and
    ``cycles_off == 0``).  ``exec_level`` is the charge level the
    recorded run started from; the replay gate admits only devices at
    or above it.  That gate is exact: a reboot-free activation never
    recharges, never draws boot or harvest randomness, and consults the
    supply only through checks of the form ``level - energy <=
    low_threshold``, each monotone in the starting level.  If the
    recorded run from ``L`` tripped none of them, a device at ``L' >=
    L`` (same program, environment segment and nonvolatile state) trips
    none either and executes the identical path.  ``exec_level``
    tightens downward whenever a lower-level device re-executes the
    same key reboot-free.  A replayed device ends at ``level -
    consumed`` with its RNG streams untouched.
    """

    record: ActivationRecord  # reboot-free
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
    plan, and NV codec once.  Every miss runs on one machine, built at
    the batch's first miss and restarted by
    :meth:`~repro.runtime.executor.MachineCore.begin_activation` over
    the miss's environment, supply, nonvolatile state and clock, which
    equals a fresh machine over them; the codec tokenizes each
    post-state.
    """

    __slots__ = ("compiled", "costs", "plan", "engine", "codec", "machine")

    #: a record keeps no trace, so every miss runs violations-only
    _config = MachineConfig(emit_observations=False)

    def __init__(self, compiled, costs, plan, engine: str, codec: NVCodec):
        self.compiled = compiled
        self.costs = costs
        self.plan = plan
        self.engine = engine
        self.codec = codec
        self.machine = None

    def run(self, env, supply, nv_ref: NVRef, tau: int, index: int):
        """One real activation; returns (record, tau_delta, post_nv)."""
        machine = self.machine
        if machine is None:
            machine = self.machine = create_machine(
                self.engine,
                self.compiled,
                env,
                supply,
                costs=self.costs,
                plan=self.plan,
                config=self._config,
            )
        machine.begin_activation(
            env=env, supply=supply, nv=materialize_nv(nv_ref), tau=tau
        )
        record = ActivationRecord.from_run(index, machine.run())
        return record, machine.tau - tau, self.codec.encode(machine.nv)


# ---------------------------------------------------------------------------
# Cohorts


class _Cohort:
    """A set of devices in a provably identical situation.

    All members share logical time, activation index, nonvolatile
    state, and supply equivalence; liveness (budget, activation cap) is
    all-or-nothing because those limits are uniform within the cohort,
    and a wave drops every member whose activation got stuck.  Two
    kinds:

    * ``uni`` -- exact supply-token equivalence (wall power, failure
      schedules, harvest supplies without randomness): one shared
      supply token and capture, one representative executes.
    * ``quant`` -- stochastic energy-driven supplies: members share the
      capacitor geometry but keep individual charge levels and
      lazily-materialized supply objects; the :class:`QuantEntry`
      replay gate decides each member's hit.
    """

    __slots__ = (
        "kind",
        "positions",
        "tau",
        "index",
        "budget",
        "cap",
        "env_key",
        "env",
        "period",
        "nv_ref",
        # the memo key's supply component: the exact token (uni) or
        # ("q", capacity, low_threshold) (quant)
        "stoken",
        # uni
        "capture",
        # quant
        "levels",
        "supplies",
    )

    def __init__(self, kind, positions, budget, cap, env_key, env, period, nv_ref):
        self.kind = kind
        self.positions = positions
        self.tau = 0
        self.index = 0
        self.budget = budget
        self.cap = cap
        self.env_key = env_key
        self.env = env
        self.period = period
        self.nv_ref = nv_ref
        self.stoken = None
        self.capture = None
        self.levels = None
        self.supplies = None

    def alive(self) -> bool:
        return self.tau < self.budget and self.index < self.cap

    def memo_key(self, prog_key) -> tuple:
        """The memo key of this cohort's next activation.

        (program, environment, time, nonvolatile state, supply): the
        start time is period-quantized unless the state is tainted, and
        the supply is the exact token (``uni``) or the capacitor
        geometry (``quant``).
        """
        nv_ref = self.nv_ref
        if self.period is None or nv_ref.tainted:
            time = self.tau
        else:
            time = self.tau % self.period
        return (prog_key, self.env_key, time, nv_ref.token, self.stoken)


def _quantized(sspec: SupplySpec) -> bool:
    """Whether a class's supplies form ``quant`` cohorts (else ``uni``).

    ``uni`` needs spawn-equivalence across per-device seeds, which holds
    for every spec kind but one: continuous and schedule supplies are
    seed-invariant, and a harvest supply with degenerate jitter and boot
    band excludes every RNG from its token.  Stochastic harvest supplies
    quantize.
    """
    if sspec.kind != "harvest":
        return False
    lo, hi = sspec.boot_fraction
    return sspec.harvest_spread != 1.0 or hi > lo


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

    With ``processes`` above one, device ``i`` of a batch goes to worker
    ``i mod n`` through :func:`repro.parallel.fork_map`; each worker runs
    a fresh executor over its share and the parent sums their aggregates
    and memo counts.  Worker memos are not merged back, so ``memo_dir``
    needs one worker.
    """

    name = "vector"

    def __init__(
        self,
        engine: str = ENGINE_FAST,
        memo: Optional[ActivationMemo] = None,
        memo_dir: Optional[Path | str] = None,
        processes: int = 1,
    ) -> None:
        if processes <= 0:
            raise ValueError("processes must be positive")
        if memo_dir is not None and processes != 1:
            raise FleetError(
                "--memo-dir needs the vector executor on one worker "
                "(worker memos are not merged back into the store)"
            )
        self.engine = engine
        self.processes = processes
        self.memo = memo if memo is not None else ActivationMemo()
        self.store = MemoStore(memo_dir) if memo_dir is not None else None
        self._shard_tokens: dict = {}
        self._dirty: set = set()
        self._factory = DeviceFactory(engine)
        self._envs: dict = {}
        self._codecs: dict = {}
        self._initials: dict = {}

    # -- shared-resource caches ---------------------------------------------

    def memo_stats(self) -> dict:
        """Hit/miss accounting for reports and benchmarks."""
        return self.memo.stats.to_dict(entries=len(self.memo))

    def _env(self, spec: DeviceSpec):
        """(env_key, env, period) for ``spec``; envs are pure, so shared."""
        key = (spec.app, spec.env_seed, spec.env_overrides, spec.phase)
        cached = self._envs.get(key)
        if cached is None:
            env = self._factory.environment(spec)
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
                self.processes, len(devices) // MIN_DEVICES_PER_WORKER
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
            (tuple(devices[i::workers]), self.engine) for i in range(workers)
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
        waves = {"uni": self._wave_uni, "quant": self._wave_quant}
        sink: dict = {}
        while True:
            # Live cohorts sharing a memo key and (budget, cap, index,
            # tau) ride one wave; the memo key leads the group key.
            groups: dict = {}
            for c in cohorts:
                if c.alive():
                    key = c.memo_key(prog_key)
                    gkey = (key, c.budget, c.cap, c.index, c.tau)
                    groups.setdefault(gkey, []).append(c)
            if not groups:
                break
            cohorts = []
            for gkey, cs in groups.items():
                wave = waves[cs[0].kind]
                cohorts += wave(cs, gkey[0], prog_key, specs, driver, sink)
            self._flush_sink(sink, first, aggregator)

    # -- cohort formation ----------------------------------------------------

    def _initial_cohorts(
        self, specs: list[DeviceSpec], init_ref: NVRef
    ) -> list[_Cohort]:
        cohorts: dict = {}
        order: list[_Cohort] = []
        for pos, spec in enumerate(specs):
            env_key, env, period = self._env(spec)
            sspec = spec.supply
            quant = _quantized(sspec)
            supply_key = (
                ("q", sspec.capacity, sspec.low_threshold) if quant else sspec
            )
            ckey = (
                env_key, spec.budget_cycles, spec.max_activations, supply_key
            )
            cohort = cohorts.get(ckey)
            if cohort is None:
                cohort = _Cohort(
                    "quant" if quant else "uni",
                    [],
                    spec.budget_cycles,
                    spec.max_activations,
                    env_key,
                    env,
                    period,
                    init_ref,
                )
                if quant:
                    cohort.stoken = supply_key
                    cohort.levels = []
                    cohort.supplies = []
                else:
                    # Every member spawns an equivalent supply, so the
                    # first member's token and state stand for all.
                    supply = self._factory.supply(spec)
                    cohort.stoken = supply.memo_token()
                    cohort.capture = supply.memo_capture()
                cohorts[ckey] = cohort
                order.append(cohort)
            cohort.positions.append(pos)
            if quant:
                cohort.levels.append(sspec.capacity)
                cohort.supplies.append(None)
        return order

    # -- wave processing -----------------------------------------------------

    def _wave_uni(self, cs, mkey, prog_key, specs, driver, sink):
        rep = cs[0]
        members = sum(len(c.positions) for c in cs)
        entry = self.memo.get(mkey)
        if entry is None:
            supply = self._factory.supply(specs[rep.positions[0]])
            supply.memo_restore(rep.capture)
            record, tau_delta, post_nv = driver.run(
                rep.env, supply, rep.nv_ref, rep.tau, rep.index
            )
            entry = MemoEntry(
                record=record,
                tau_delta=tau_delta,
                post_nv=post_nv,
                post_supply_token=supply.memo_token(),
                post_supply_capture=supply.memo_capture(),
            )
            self.memo.put(mkey, entry)
            self._dirty.add(prog_key)
            self.memo.stats.misses += 1
            self.memo.stats.hits += members - 1
        else:
            self.memo.stats.hits += members
        _sink(sink, entry.record, members)
        if not entry.record.completed:
            return []  # every member is stuck; records already folded
        if len(cs) > 1:
            positions = rep.positions
            for c in cs[1:]:
                positions.extend(c.positions)
        rep.tau += entry.tau_delta
        rep.index += 1
        rep.nv_ref = entry.post_nv
        rep.stoken = entry.post_supply_token
        rep.capture = entry.post_supply_capture
        return [rep]

    def _wave_quant(self, cs, qkey, prog_key, specs, driver, sink):
        rep = cs[0]
        entry = self.memo.get(qkey)
        if entry is not None and all(
            min(c.levels) >= entry.exec_level for c in cs
        ):
            return self._quant_replay_all(cs, entry, sink)
        # Mixed wave: walk members in deterministic order; the first
        # reboot-free execution publishes (or tightens) the entry and
        # later members in the same wave ride it.
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
                    supply = self._factory.supply(specs[pos])
                # Gated replays track levels outside the supply object;
                # re-sync before real execution.
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
        """Whole-wave gated replay: one drain, one cohort."""
        members = sum(len(c.positions) for c in cs)
        self.memo.stats.hits += members
        _sink(sink, entry.record, members)
        if not entry.record.completed:
            return []
        rep = cs[0]
        levels = rep.levels
        for c in cs[1:]:
            rep.positions.extend(c.positions)
            levels.extend(c.levels)
            rep.supplies.extend(c.supplies)
        consumed = entry.consumed
        rep.levels = [lv - consumed for lv in levels]
        rep.tau += entry.tau_delta
        rep.index += 1
        rep.nv_ref = entry.post_nv
        return [rep]

    @staticmethod
    def _requeue(
        regroup, order, src: _Cohort, index, tau, nv_ref, level, pos, supply
    ) -> None:
        """File one quant member into its post-activation cohort."""
        key = (tau, nv_ref.token)
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
            cohort.stoken = src.stoken
            cohort.levels = []
            cohort.supplies = []
            regroup[key] = cohort
            order.append(cohort)
        cohort.positions.append(pos)
        cohort.levels.append(level)
        cohort.supplies.append(supply)

    @staticmethod
    def _flush_sink(sink: dict, spec: DeviceSpec, aggregator) -> None:
        """One ``observe_many`` per distinct record content per wave."""
        for record, count in sink.values():
            aggregator.observe_many(spec, record, count)
        sink.clear()


def _sink(sink: dict, record: ActivationRecord, count: int) -> None:
    """Count ``record`` in a wave's sink; equal records share one slot."""
    slot = sink.get(record)
    if slot is None:
        sink[record] = [record, count]
    else:
        slot[1] += count


def _run_worker(payload) -> tuple[dict, int, int, int]:
    """Worker entry: a fresh in-process executor over one shard."""
    devices, engine = payload
    executor = VectorFleetExecutor(engine=engine)
    aggregate = executor.run(devices)
    stats = executor.memo.stats
    return aggregate.to_dict(), stats.hits, stats.misses, stats.evictions


def _parity_scheme() -> str:
    from repro.fleet.engine import AGGREGATE_PARITY_SCHEME

    return AGGREGATE_PARITY_SCHEME
