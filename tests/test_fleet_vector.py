"""Vectorized fleet executor: parity, memo-key soundness, hit rates.

The vector executor's whole value proposition is "same bytes, fewer
instructions": these tests pin the byte-identity against the serial
executor, in-process and on workers (including under hypothesis-generated
fleets, with quantized supply keys behind the replay gate, a fleet
whose devices share keys across charge levels, and warm disk-backed
memo runs), prove the memo key cannot produce false hits (perturbing
one nonvolatile bit, one stored value, one taint or one environment
segment changes its token, and the executor's own key,
``_Cohort.memo_key``, changes with the capacitor geometry but not with
the charge level), and check that the intended hits actually happen (a
homogeneous deterministic fleet replays almost everything; a jittered
fleet scores nonzero hits via quantization).
"""

from __future__ import annotations

import pickle
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.eval.campaign import EnvironmentSpec, SupplySpec
from repro.fleet import (
    ActivationMemo,
    DeviceClass,
    FleetAggregator,
    FleetCheckpoint,
    FleetError,
    FleetSpec,
    MemoStore,
    NVCodec,
    QuantEntry,
    VectorFleetExecutor,
    aggregate_fingerprint,
    checkpoint_fingerprint,
    run_fleet,
    run_shard,
)
from repro.fleet.device import DeviceFactory
from repro.fleet.memostore import MEMO_SCHEMA
from repro.ir.instructions import InstrId
from repro.runtime.engine import ENGINE_FAST
from repro.runtime.executor import NVState
from repro.runtime.harness import ActivationRecord
from repro.runtime.supply import FailurePoint, ScheduledFailures
from repro.runtime.values import InputEvent, TVal
from repro.sensors.environment import Environment, constant, steps
from tests.strategies import constant_harvest_fleet_specs, fleet_specs


def uniform_spec(count: int = 40, **overrides) -> FleetSpec:
    """A homogeneous fleet whose devices are provably equivalent.

    Deterministic supply randomness (no harvest spread, degenerate boot
    band) plus no per-device jitter means every device repeats device
    zero's activations exactly -- the memoizer's best case.
    """
    defaults = dict(
        classes=(
            DeviceClass(
                name="tire",
                app="tire",
                config="ocelot",
                count=count,
                supply=SupplySpec(
                    name="rf",
                    harvest_rate=300,
                    harvest_spread=1.0,
                    boot_fraction=(1.0, 1.0),
                ),
            ),
        ),
        fleet_seed=11,
        budget_cycles=60_000,
        name="uniform",
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


def mixed_spec(**overrides) -> FleetSpec:
    """A small heterogeneous fleet with real stochastic supplies."""
    defaults = dict(
        classes=(
            DeviceClass(
                name="tire",
                app="tire",
                config="ocelot",
                count=5,
                supply=SupplySpec(name="rf", harvest_rate=300),
            ),
            DeviceClass(
                name="gh",
                app="greenhouse",
                config="jit",
                count=4,
                supply=SupplySpec(
                    name="weak", harvest_rate=220, seed_offset=3
                ),
                phase_jitter=4_000,
            ),
        ),
        fleet_seed=5,
        budget_cycles=30_000,
        name="mixed",
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


def jittered_spec(count: int = 12, **overrides) -> FleetSpec:
    """A stochastic fleet with per-device harvest jitter, one shared env.

    Exact supply tokens are unique per device here (per-device rates and
    RNG streams); only quantized keys can score hits.
    """
    defaults = dict(
        classes=(
            DeviceClass(
                name="tire-jittered",
                app="tire",
                config="ocelot",
                count=count,
                supply=SupplySpec(name="rf", harvest_rate=300),
                harvest_jitter=0.5,
            ),
        ),
        fleet_seed=29,
        budget_cycles=30_000,
        name="jittered",
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


#: The memo-key program component of tire/ocelot on the fast engine.
TIRE_PROG = ("tire", "ocelot", ENGINE_FAST)


def _initial_cohorts(devices):
    """The cohorts a vector executor forms for one tire/ocelot batch."""
    executor = VectorFleetExecutor()
    meta = BENCHMARKS["tire"]
    compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
    plan = compiled.detector_plan()
    _, init_ref = executor._codec(devices[0], compiled, plan)
    return executor._initial_cohorts(list(devices), init_ref)


def _key_of(devices):
    """The memo key of a single device's first activation."""
    (cohort,) = _initial_cohorts(devices)
    return cohort.memo_key(TIRE_PROG)


def _tire_codec() -> tuple[NVCodec, NVState]:
    meta = BENCHMARKS["tire"]
    compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
    plan = compiled.detector_plan()
    return NVCodec(compiled.module, plan), NVState.initial(compiled.module)


class TestVectorParity:
    def test_matches_serial_on_mixed_fleet(self, monkeypatch):
        # One device per worker is enough, so with processes=2 this small
        # fleet really fans out.
        monkeypatch.setattr("repro.fleet.vector.MIN_DEVICES_PER_WORKER", 1)
        spec = mixed_spec()
        serial = run_fleet(spec, "serial")
        assert serial.memo is None
        for processes in (1, 2):
            vector = run_fleet(spec, "vector", processes=processes)
            assert aggregate_fingerprint(vector) == aggregate_fingerprint(
                serial
            )
            assert vector.executor == vector.executor_used == "vector"
            assert vector.memo is not None and vector.memo["misses"] > 0

    def test_matches_serial_on_uniform_fleet(self):
        spec = uniform_spec(count=12)
        serial = run_fleet(spec, "serial")
        vector = run_fleet(spec, "vector")
        assert aggregate_fingerprint(vector) == aggregate_fingerprint(serial)

    @given(spec=fleet_specs())
    @settings(max_examples=10, deadline=None)
    def test_vector_matches_serial_property(self, spec):
        devices = spec.expand()
        serial = run_shard(devices)
        vector = VectorFleetExecutor().run(devices)
        assert vector.to_json() == serial.to_json()

    def test_memo_survives_chunking(self):
        # One executor over many chunks must equal one-shot execution:
        # entries learned in chunk k legally replay in chunk k+1.
        spec = uniform_spec(count=20)
        devices = spec.expand()
        one_shot = VectorFleetExecutor().run(devices)
        chunked_executor = VectorFleetExecutor()
        merged = FleetAggregator()
        for lo in range(0, len(devices), 6):
            merged.merge(chunked_executor.run(devices[lo : lo + 6]))
        assert merged.to_json() == one_shot.to_json()
        assert chunked_executor.memo.stats.hits > 0


class TestMemoKeySoundness:
    def test_flipping_one_nv_bit_changes_token(self):
        codec, nv = _tire_codec()
        baseline = codec.encode(nv).token
        chains = sorted(codec._chain_bit)
        assert chains, "tire/ocelot should have detector bit chains"
        nv.bits.set(chains[0])
        assert codec.encode(nv).token != baseline

    def test_each_bit_is_distinct(self):
        codec, nv = _tire_codec()
        chains = sorted(codec._chain_bit)
        tokens = set()
        for chain in chains:
            fresh = NVState.initial(
                GLOBAL_CACHE.get_or_compile(
                    BENCHMARKS["tire"].source, "ocelot"
                ).module
            )
            fresh.bits.set(chain)
            tokens.add(codec.encode(fresh).token)
        assert len(tokens) == len(chains)

    @given(delta=st.integers(-1000, 1000).filter(lambda d: d != 0))
    @settings(max_examples=25, deadline=None)
    def test_perturbing_one_value_changes_token(self, delta):
        codec, nv = _tire_codec()
        baseline = codec.encode(nv).token
        name = sorted(nv.globals)[0]
        cell = nv.globals[name]
        nv.globals[name] = TVal(cell.value + delta, cell.taint)
        assert codec.encode(nv).token != baseline

    def test_tainting_a_value_changes_token(self):
        codec, nv = _tire_codec()
        ref = codec.encode(nv)
        assert ref.tainted is False
        name = sorted(nv.globals)[0]
        cell = nv.globals[name]
        event = InputEvent(uid=InstrId("main", 1), channel="pressure", tau=7)
        nv.globals[name] = TVal(cell.value, frozenset({event}))
        tainted = codec.encode(nv)
        assert tainted.token != ref.token
        assert tainted.tainted is True

    def test_changing_one_environment_segment_changes_token(self):
        env = Environment(
            {"pressure": steps([10, 20, 30], dwell=100), "temp": constant(4)}
        )
        period = env.period()
        assert period == 300
        # Same segment => same token; a different segment => different
        # token; one full period later => provably the same world again.
        assert env.segment_token(50) == env.segment_token(50)
        assert env.segment_token(50) != env.segment_token(150)
        assert env.segment_token(50) == env.segment_token(50 + period)

    def test_aperiodic_environment_never_collapses_times(self):
        from repro.sensors.environment import random_walk

        env = Environment({"walk": random_walk(0, 2, seed=9)})
        assert env.period() is None
        assert env.segment_token(123) == 123
        assert env.segment_token(123) != env.segment_token(456)

    def test_packed_token_bytes_are_pinned(self):
        # Memo shards on disk are keyed by these bytes: a change to the
        # packing (layout, width, byte order) would make every shard
        # written before it miss.  Packed int64 in native byte order.
        codec, nv = _tire_codec()
        values = [-3, 2**40 + 5, 7, -(2**63), 2**63 - 1]
        for name, value in zip(sorted(nv.globals), values, strict=True):
            nv.globals[name] = TVal(value, frozenset())
        nv.bits.set(sorted(codec._chain_bit)[-1])
        packed = bytes.fromhex(
            "fdffffffffffffff" "0500000000010000" "0700000000000000"
            "0000000000000080" "ffffffffffffff7f"
        )
        if sys.byteorder == "big":
            packed = b"".join(
                packed[i : i + 8][::-1] for i in range(0, len(packed), 8)
            )
        assert codec.encode(nv).token == ("v", packed, 1 << 8, ())

    def test_structural_fallback_agrees_on_identity(self):
        # Values beyond int64 force the structural token path; identical
        # states must still collide and perturbed ones must not.
        codec, nv = _tire_codec()
        name = sorted(nv.globals)[0]
        nv.globals[name] = TVal(2**80, frozenset())
        one = codec.encode(nv).token
        two = codec.encode(nv).token
        assert one == two
        nv.globals[name] = TVal(2**80 + 1, frozenset())
        assert codec.encode(nv).token != one


class TestHitRates:
    def test_homogeneous_fleet_replays_almost_everything(self):
        executor = VectorFleetExecutor()
        result = run_fleet(uniform_spec(count=50), executor=executor)
        stats = executor.memo.stats
        assert stats.hits + stats.misses > 0
        # 49 of 50 equivalent devices ride the first device's entries.
        assert stats.hit_rate >= 0.9
        assert result.memo["hit_rate"] >= 0.9

    def test_jittered_fleet_still_correct_with_low_hit_rate(self):
        spec = FleetSpec(
            classes=(
                DeviceClass(
                    name="tire",
                    app="tire",
                    config="ocelot",
                    count=6,
                    supply=SupplySpec(name="rf", harvest_rate=300),
                ),
            ),
            fleet_seed=11,
            budget_cycles=30_000,
            name="jittered",
        )
        serial = run_fleet(spec, "serial")
        vector = run_fleet(spec, "vector")
        assert aggregate_fingerprint(vector) == aggregate_fingerprint(serial)


class TestQuantizedSupplyTokens:
    """Soundness of the executor's quantized keys (no-false-hit contract).

    Every key here comes from ``_Cohort.memo_key`` over cohorts that
    ``_initial_cohorts`` formed, so the tests check the key the executor
    actually probes the memo with.
    """

    def test_members_at_different_levels_share_one_cohort_and_key(self):
        # File two members of one quant cohort at opposite ends of the
        # 3000-unit capacitor's usable range the way a mixed wave does:
        # the charge level is no part of the key, so they ride one
        # cohort.  A wave that admits them and a third member filed in
        # another wave drains all three at once into one cohort.
        (src,) = _initial_cohorts(jittered_spec(count=3).expand())
        assert src.kind == "quant"
        regroup: dict = {}
        order: list = []
        for pos, level in enumerate((3000, 601)):
            VectorFleetExecutor._requeue(
                regroup, order, src, 1, 700, src.nv_ref, level, pos, None
            )
        (cohort,) = order
        assert cohort.positions == [0, 1] and cohort.levels == [3000, 601]
        key = cohort.memo_key(TIRE_PROG)
        assert key == (
            TIRE_PROG, src.env_key, 700, src.nv_ref.token, ("q", 3000, 600)
        )
        other: list = []
        VectorFleetExecutor._requeue(
            {}, other, src, 1, 700, src.nv_ref, 1500, 2, None
        )
        assert other[0].memo_key(TIRE_PROG) == key
        entry = QuantEntry(
            record=ActivationRecord(
                index=1,
                completed=True,
                violations=0,
                cycles_on=50,
                cycles_off=0,
                reboots=0,
            ),
            tau_delta=50,
            post_nv=src.nv_ref,
            consumed=100,
            exec_level=601,
        )
        sink: dict = {}
        (after,) = VectorFleetExecutor()._quant_replay_all(
            [cohort, other[0]], entry, sink
        )
        assert after.positions == [0, 1, 2]
        assert after.levels == [2900, 501, 1400]
        assert (after.tau, after.index) == (750, 2)
        assert [count for _, count in sink.values()] == [3]

    def test_quantized_token_ignores_per_device_randomness(self):
        # Devices with different seeds, harvest rates and boot bands:
        # exact keys differ (rates and RNG streams diverge), quantized
        # keys agree -- that is the whole point.
        devices = jittered_spec(count=3).expand()
        devices[2] = replace(
            devices[2],
            supply=replace(devices[2].supply, boot_fraction=(0.5, 0.9)),
        )
        assert len({d.seed for d in devices}) == 3
        assert len({d.supply.harvest_rate for d in devices}) == 3
        factory = DeviceFactory()
        assert len({factory.supply(d).memo_token() for d in devices}) == 3
        assert len({_key_of([d]) for d in devices}) == 1
        (shared,) = _initial_cohorts(devices)
        assert shared.positions == [0, 1, 2]

    def test_quantized_token_tracks_geometry(self):
        # One capacity but a different low threshold, and a different
        # capacity: each must split keys.
        device = jittered_spec(count=1).expand()[0]
        keys = {
            _key_of(
                [
                    replace(
                        device,
                        supply=replace(
                            device.supply, capacity=cap, low_threshold=low
                        ),
                    )
                ]
            )
            for cap, low in ((3000, 600), (3000, 900), (6000, 600))
        }
        assert len(keys) == 3

    def test_quantized_token_conservative_fallbacks(self):
        # Wall power never quantizes: one exact-keyed cohort.
        wall = uniform_spec(count=3).expand()
        wall = [replace(d, supply=SupplySpec.continuous()) for d in wall]
        (cohort,) = _initial_cohorts(wall)
        assert cohort.kind == "uni"
        assert cohort.memo_key(TIRE_PROG)[-1] == ("wall",)

    @given(spec=constant_harvest_fleet_specs())
    @settings(max_examples=12, deadline=None)
    def test_quantized_replay_matches_serial_property(self, spec):
        # The acceptance property: byte parity under quantized keys
        # across random apps x configs x jittered fleets in constant
        # environments, where devices at different charge levels share
        # keys.  The reboot-free replay gate must keep every hit
        # bit-identical to real execution.
        devices = spec.expand()
        serial = run_shard(devices)
        vector = VectorFleetExecutor().run(devices)
        assert vector.to_json() == serial.to_json()

    def test_replay_gate_matches_serial_in_a_constant_environment(self):
        # Every channel constant and the NV state untainted make the
        # time token one value, so devices share keys at whatever charge
        # level they reach; only the replay gate keeps a hit from a
        # device below the level its entry ran at.
        spec = FleetSpec(
            classes=(
                DeviceClass(
                    name="tire-constant",
                    app="tire",
                    config="ocelot",
                    count=24,
                    environment=EnvironmentSpec(
                        overrides=(
                            ("accel", "150"),
                            ("pres", "3200"),
                            ("temp", "28"),
                        )
                    ),
                    supply=SupplySpec(
                        harvest_rate=150, boot_fraction=(0.65, 1.0)
                    ),
                ),
            ),
            fleet_seed=7,
            budget_cycles=60_000,
            name="constant",
        )
        devices = spec.expand()
        executor = VectorFleetExecutor()
        vector = executor.run(devices)
        assert vector.to_json() == run_shard(devices).to_json()
        assert executor.memo.stats.hits > 0

    def test_jittered_fleet_scores_nonzero_hits(self):
        spec = jittered_spec(count=12)
        serial = run_fleet(spec, "serial")
        executor = VectorFleetExecutor()
        vector = run_fleet(spec, executor=executor)
        assert aggregate_fingerprint(vector) == aggregate_fingerprint(serial)
        # Exact tokens scored exactly 0 here; quantization must not.
        assert executor.memo.stats.hits > 0

    def test_scheduled_failures_armed_token_quantizes_history(self):
        # Devices that reached the same *armed* schedule state through
        # different firing histories must compare equal: the fired
        # bookkeeping can never influence a future answer.
        a_uid, b_uid = InstrId("main", 1), InstrId("main", 9)
        fired_path = ScheduledFailures(
            [FailurePoint(uid=a_uid), FailurePoint(uid=b_uid, occurrence=2)],
            off_cycles=500,
        )
        assert fired_path.fail_before(a_uid) is True  # fire point A
        fresh_path = ScheduledFailures(
            [FailurePoint(uid=b_uid, occurrence=2)], off_cycles=500
        )
        assert fired_path.memo_token() == fresh_path.memo_token()
        # ... but progress toward an armed point still distinguishes.
        fresh_path.fail_before(b_uid)
        assert fired_path.memo_token() != fresh_path.memo_token()


class TestSupplyPrototypes:
    """One prototype per supply geometry: a jittered device's supply is
    the one its own spec would build and spawn."""

    def test_device_supply_equals_its_own_spec_spawn(self):
        devices = jittered_spec(count=6).expand()
        assert len({d.supply.harvest_rate for d in devices}) == 6
        factory = DeviceFactory()
        for device in devices:
            shape = device.supply
            ours = factory.supply(device)
            own = shape.build(0).spawn(device.seed + shape.seed_offset)
            assert ours.harvester.rate_per_kilocycle == shape.harvest_rate
            assert ours.memo_token() == own.memo_token()
            assert ours.memo_capture() == own.memo_capture()
            for _ in range(5):
                # drain below the trip point, so boot draws are taken
                ours.capacitor.level = own.capacitor.level = 0
                assert ours.off_and_recharge() == own.off_and_recharge()
            assert ours.memo_capture() == own.memo_capture()

    def test_jittered_class_leaves_one_prototype(self):
        devices = jittered_spec(count=100).expand()
        assert len({d.supply for d in devices}) > 1
        factory = DeviceFactory()
        for device in devices:
            factory.supply(device)
        assert len(factory._supply_protos) == 1

    def test_other_geometry_gets_its_own_prototype(self):
        device = jittered_spec(count=1).expand()[0]
        wider = replace(device, supply=replace(device.supply, capacity=6000))
        factory = DeviceFactory()
        assert factory.supply(wider).capacitor.capacity == 6000
        assert factory.supply(device).capacitor.capacity == 3000
        assert len(factory._supply_protos) == 2

    def test_nonpositive_harvest_rate_is_a_spec_error(self):
        with pytest.raises(ValueError, match="harvest_rate must be positive"):
            SupplySpec(name="rf", harvest_rate=0)
        # the rate of a supply that harvests nothing is not read
        SupplySpec(name="wall", kind="continuous", harvest_rate=0)


class TestMemoCapAndEviction:
    def test_lru_eviction_order_and_stats(self):
        memo = ActivationMemo(max_entries=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refresh "a": "b" is now LRU
        memo.put("c", 3)
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3
        assert memo.stats.evictions == 1

    def test_capped_memo_produces_byte_identical_aggregates(self):
        # The satellite bugfix contract: eviction only causes re-misses,
        # never wrong replays -- aggregates must not change by a byte.
        for spec in (uniform_spec(count=20), jittered_spec(count=8)):
            devices = spec.expand()
            unbounded = VectorFleetExecutor().run(devices)
            capped_executor = VectorFleetExecutor(
                memo=ActivationMemo(max_entries=4)
            )
            capped = capped_executor.run(devices)
            assert capped.to_json() == unbounded.to_json()
        assert capped_executor.memo.stats.evictions > 0
        assert len(capped_executor.memo) <= 4


class TestPersistentMemo:
    def test_warm_run_is_byte_identical_and_reports_disk_loads(
        self, tmp_path
    ):
        spec = jittered_spec(count=10)
        serial = run_fleet(spec, "serial")
        cold = run_fleet(spec, "vector", memo_dir=tmp_path)
        warm_executor = VectorFleetExecutor(memo_dir=tmp_path)
        warm = run_fleet(spec, executor=warm_executor)
        assert aggregate_fingerprint(cold) == aggregate_fingerprint(serial)
        assert aggregate_fingerprint(warm) == aggregate_fingerprint(serial)
        assert warm.memo["disk_loads"] > 0
        assert warm.memo["hit_rate"] > cold.memo["hit_rate"]

    def test_corrupt_shard_degrades_to_cold(self, tmp_path):
        spec = uniform_spec(count=6)
        run_fleet(spec, "vector", memo_dir=tmp_path)
        shards = list(tmp_path.glob("memo-*.pkl"))
        assert shards, "cold run should have written a shard"
        for shard in shards:
            shard.write_bytes(b"\x80corrupt garbage")
        warm = run_fleet(spec, "vector", memo_dir=tmp_path)
        assert warm.memo["disk_loads"] == 0  # cold, not crashed
        serial = run_fleet(spec, "serial")
        assert aggregate_fingerprint(warm) == aggregate_fingerprint(serial)

    def test_schema_or_token_mismatch_loads_nothing(self, tmp_path):
        store = MemoStore(tmp_path)
        store.save("token-a", {"k": "v"})
        assert store.load("token-a") == {"k": "v"}
        assert store.load("token-b") == {}
        # A forged payload under the right digest but wrong schema.
        path = store.shard_path("token-a")
        path.write_bytes(
            pickle.dumps(
                {"schema": "other", "shard": "token-a", "entries": {"k": 1}}
            )
        )
        assert store.load("token-a") == {}
        assert MEMO_SCHEMA == "repro-memo-5"

    def test_interleaved_saves_of_one_shard(self, tmp_path, monkeypatch):
        """A second save landing between the first save's write and its
        rename (two runs sharing a memo dir) must not make the first
        rename a vanished temp file; both complete, no temp file stays."""
        import os

        store = MemoStore(tmp_path)
        real_replace = os.replace
        nested = []

        def replace(src, dst):
            if not nested:
                nested.append(True)
                store.save("token-a", {"k": "second"})
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert store.save("token-a", {"k": "first"})
        assert store.stores == 2
        assert store.load("token-a") == {"k": "first"}  # the last rename wins
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            store.shard_path("token-a").name
        ]

    def test_memo_dir_requires_vector_executor(self, tmp_path):
        spec = uniform_spec(count=2)
        with pytest.raises(FleetError, match="vector"):
            run_fleet(spec, "serial", memo_dir=tmp_path)
        # Worker memos are not merged back into the store.
        with pytest.raises(FleetError, match="vector"):
            run_fleet(spec, "vector", processes=2, memo_dir=tmp_path)
        # An instance is already configured; the directory would do
        # nothing.
        with pytest.raises(FleetError, match="vector"):
            run_fleet(spec, VectorFleetExecutor(), memo_dir=tmp_path)
        assert not list(tmp_path.iterdir())


class TestCheckpointFamilyGate:
    def test_cross_family_resume_with_matching_fingerprint(self, tmp_path):
        spec = mixed_spec()
        full = run_fleet(spec, "serial")
        path = tmp_path / "fleet.ckpt.json"
        partial = run_shard(spec.expand()[:3])
        FleetCheckpoint(
            checkpoint_fingerprint(spec),
            3,
            partial.to_dict(),
            executor_family="serial",
        ).save(path)
        resumed = run_fleet(spec, "vector", checkpoint_path=path)
        assert aggregate_fingerprint(resumed) == aggregate_fingerprint(full)
        # Every family that built the aggregate is reported.
        assert resumed.executor_used == "serial+vector"

    def test_legacy_checkpoint_without_parity_scheme_rejected(self, tmp_path):
        spec = mixed_spec()
        path = tmp_path / "fleet.ckpt.json"
        # A pre-parity-scheme checkpoint bound only the spec fingerprint.
        FleetCheckpoint(
            spec.fingerprint(), 3, FleetAggregator().to_dict()
        ).save(path)
        with pytest.raises(FleetError, match="parity scheme|different"):
            run_fleet(spec, "vector", checkpoint_path=path)

    def test_checkpoint_without_family_rejected(self, tmp_path):
        spec = mixed_spec()
        path = tmp_path / "fleet.ckpt.json"
        FleetCheckpoint(
            checkpoint_fingerprint(spec), 3, FleetAggregator().to_dict()
        ).save(path)
        with pytest.raises(FleetError, match="executor family"):
            run_fleet(spec, "serial", checkpoint_path=path)

    def test_vector_checkpoint_records_family(self, tmp_path):
        spec = uniform_spec(count=8)
        path = tmp_path / "fleet.ckpt.json"
        run_fleet(spec, "vector", checkpoint_path=path, checkpoint_every=3)
        checkpoint = FleetCheckpoint.load(path)
        assert checkpoint.executor_family == "vector"
        assert checkpoint.fingerprint == checkpoint_fingerprint(spec)
