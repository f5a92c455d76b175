"""Fleet simulator tests: specs, aggregation, parity, checkpoint/resume."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.eval.campaign import EnvironmentSpec
from repro.fleet import (
    DeviceClass,
    FleetAggregator,
    FleetCheckpoint,
    FleetError,
    FleetSpec,
    SerialFleetExecutor,
    aggregate_fingerprint,
    checkpoint_fingerprint,
    duty_table,
    histogram_table,
    run_fleet,
    run_shard,
)
from repro.fleet.aggregate import ClassAggregate
from repro.runtime.harness import ActivationRecord
from repro.runtime.supply import ContinuousPower
from tests.strategies import fleet_specs


def small_spec(**overrides) -> FleetSpec:
    defaults = dict(
        name="test-fleet",
        fleet_seed=11,
        budget_cycles=15_000,
        classes=(
            DeviceClass(
                name="tire-ocelot",
                app="tire",
                config="ocelot",
                count=4,
                harvest_jitter=0.4,
                phase_jitter=5_000,
            ),
            DeviceClass(
                name="gh-jit",
                app="greenhouse",
                config="jit",
                count=3,
                environment=EnvironmentSpec(env_seed=7),
                env_seed_stride=2,
            ),
        ),
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


class TestFleetSpec:
    def test_json_roundtrip(self):
        spec = small_spec()
        assert FleetSpec.from_json(spec.to_json()) == spec

    def test_unknown_app_rejected(self):
        with pytest.raises(FleetError, match="unknown app"):
            DeviceClass(name="x", app="nope")

    def test_unknown_config_rejected(self):
        with pytest.raises(FleetError, match="unknown build configuration"):
            DeviceClass(name="x", app="tire", config="nope")

    def test_duplicate_class_names_rejected(self):
        cls = DeviceClass(name="a", app="tire")
        with pytest.raises(FleetError, match="duplicate"):
            FleetSpec(classes=(cls, cls))

    def test_bad_jitter_rejected(self):
        with pytest.raises(FleetError, match="harvest_jitter"):
            DeviceClass(name="x", app="tire", harvest_jitter=1.5)

    def test_negative_env_seed_stride_rejected(self):
        with pytest.raises(FleetError, match="env_seed_stride"):
            DeviceClass(name="x", app="tire", env_seed_stride=-1)

    def test_foreign_supply_rejected(self):
        # The vector executor keys its memo on the hooks of supplies a
        # SupplySpec builds; a supply object of any other kind is refused
        # where the class is declared, not deep inside an executor.
        with pytest.raises(FleetError, match="SupplySpec"):
            DeviceClass(name="x", app="tire", supply=ContinuousPower())

    def test_expansion_is_deterministic(self):
        spec = small_spec()
        assert spec.expand() == spec.expand()

    def test_expansion_derives_distinct_device_streams(self):
        devices = small_spec().expand()
        assert len(devices) == 7
        assert len({d.seed for d in devices}) == len(devices)
        # Jittered classes get distinct per-device harvest rates...
        tire_rates = {
            d.supply.harvest_rate for d in devices if d.class_name == "tire-ocelot"
        }
        assert len(tire_rates) > 1
        # ... and distinct environment phases.
        phases = {d.phase for d in devices if d.class_name == "tire-ocelot"}
        assert len(phases) > 1
        # env_seed_stride separates the greenhouse worlds.
        gh_env_seeds = [d.env_seed for d in devices if d.class_name == "gh-jit"]
        assert gh_env_seeds == [7, 9, 11]

    def test_with_total_devices_keeps_mix_and_total(self):
        spec = small_spec()  # counts 4 + 3
        scaled = spec.with_total_devices(70)
        counts = [c.count for c in scaled.classes]
        assert sum(counts) == 70
        assert counts == [40, 30]
        # Non-divisible totals still sum exactly.
        assert sum(c.count for c in spec.with_total_devices(11).classes) == 11

    def test_fingerprint_tracks_content(self):
        spec = small_spec()
        assert spec.fingerprint() == small_spec().fingerprint()
        assert spec.fingerprint() != small_spec(fleet_seed=99).fingerprint()

    def test_malformed_json_reports_fleet_error(self):
        with pytest.raises(FleetError, match="not valid JSON"):
            FleetSpec.from_json("{")
        with pytest.raises(FleetError, match="classes"):
            FleetSpec.from_json("{}")


class TestAggregator:
    def make_record(self, **overrides) -> ActivationRecord:
        defaults = dict(
            index=0,
            completed=True,
            violations=0,
            cycles_on=700,
            cycles_off=300,
            reboots=1,
        )
        defaults.update(overrides)
        return ActivationRecord(**defaults)

    def test_merge_equals_single_fold(self):
        spec = small_spec()
        devices = spec.expand()
        whole = run_shard(devices)
        left = run_shard(devices[::2])
        right = run_shard(devices[1::2])
        merged = FleetAggregator().merge(left).merge(right)
        assert merged.to_json() == whole.to_json()

    def test_histograms_and_duty_bins(self):
        agg = FleetAggregator()

        class Spec:
            class_name = "c"
            app = "tire"
            config = "ocelot"

        agg.add_devices(Spec(), 1)
        agg.observe(Spec(), self.make_record(cycles_on=700, cycles_off=300))
        agg.observe(
            Spec(),
            self.make_record(
                index=1, violations=7, fresh_violations=7, cycles_on=100,
                cycles_off=900,
            ),
        )
        cls = agg["c"]
        assert cls.duty_hist[7] == 1  # 70% duty
        assert cls.duty_hist[1] == 1  # 10% duty
        assert cls.fresh_hist[5] == 1  # 7 violations lands in the 5+ bucket
        assert cls.violating_runs == 1

    def test_incomplete_activation_counts_as_stuck(self):
        agg = FleetAggregator()

        class Spec:
            class_name = "c"
            app = "tire"
            config = "ocelot"

        agg.observe(Spec(), self.make_record(completed=False))
        assert agg["c"].stuck_devices == 1
        assert agg["c"].completed_runs == 0

    def test_roundtrip(self):
        spec = small_spec()
        agg = run_shard(spec.expand())
        again = FleetAggregator.from_dict(
            json.loads(json.dumps(agg.to_dict()))
        )
        assert again.to_json() == agg.to_json()

    def test_class_keys_keep_their_order(self):
        # ``to_json`` and checkpoints sort them, but ``fleet --output``
        # reports write ``to_dict`` as it stands.
        assert list(ClassAggregate().to_dict()) == [
            "app",
            "config",
            "devices",
            "stuck_devices",
            "activations",
            "completed_runs",
            "violating_runs",
            "violations",
            "fresh_violations",
            "consistent_violations",
            "cycles_on",
            "cycles_off",
            "reboots",
            "detector_queries",
            "fresh_hist",
            "consistent_hist",
            "duty_hist",
        ]

    def test_round_trip_after_merge(self):
        left = ClassAggregate(app="tire", config="jit", devices=2)
        right = ClassAggregate(app="tire", config="jit", devices=1)
        left.add(self.make_record(fresh_violations=2, violations=2))
        left.add(self.make_record(completed=False, detector_queries=3), 2)
        right.add(self.make_record(consistent_violations=1, violations=1), 3)
        left.merge(right)
        assert ClassAggregate.from_dict(left.to_dict()) == left
        assert left.to_dict() == {
            "app": "tire",
            "config": "jit",
            "devices": 3,
            "stuck_devices": 2,
            "activations": 6,
            "completed_runs": 4,
            "violating_runs": 4,
            "violations": 5,
            "fresh_violations": 2,
            "consistent_violations": 3,
            "cycles_on": 4200,
            "cycles_off": 1800,
            "reboots": 6,
            "detector_queries": 6,
            "fresh_hist": [3, 0, 1, 0, 0, 0],
            "consistent_hist": [1, 3, 0, 0, 0, 0],
            "duty_hist": [0, 0, 0, 0, 0, 0, 0, 4, 0, 0],
        }

    def test_mismatched_merge_rejected(self):
        a = ClassAggregate(app="tire", config="ocelot")
        b = ClassAggregate(app="tire", config="jit")
        with pytest.raises(ValueError, match="cannot merge"):
            a.merge(b)


class TestExecutorParity:
    def test_serial_and_vector_workers_agree_byte_for_byte(
        self, monkeypatch
    ):
        # One device per worker is enough, so this small fleet really
        # fans out to two processes.
        monkeypatch.setattr("repro.fleet.vector.MIN_DEVICES_PER_WORKER", 1)
        spec = small_spec()
        serial = run_fleet(spec, "serial")
        for processes in (1, 2):
            vector = run_fleet(spec, "vector", processes=processes)
            assert aggregate_fingerprint(serial) == aggregate_fingerprint(
                vector
            )
            assert serial.aggregate.to_json() == vector.aggregate.to_json()

    @pytest.mark.parametrize("name", ["warp-drive", "sharded", "parallel"])
    def test_unknown_executor_rejected(self, name):
        with pytest.raises(FleetError, match="unknown fleet executor"):
            run_fleet(small_spec(), name)

    def test_workers_on_serial_executor_rejected(self):
        # A worker count the executor cannot use is an error, not a
        # silently serial run.
        with pytest.raises(FleetError, match="vector"):
            run_fleet(small_spec(), "serial", processes=2)
        with pytest.raises(FleetError, match="instance carries its own"):
            run_fleet(small_spec(), SerialFleetExecutor(), processes=2)

    def test_engine_on_an_executor_instance_rejected(self):
        # The instance's own engine runs, so an engine argument beside
        # it would be silently ignored.
        with pytest.raises(FleetError, match="instance carries its own"):
            run_fleet(small_spec(), SerialFleetExecutor(), engine="reference")
        result = run_fleet(
            small_spec(), SerialFleetExecutor(engine="reference")
        )
        assert result.engine == "reference"
        assert run_fleet(small_spec(), "serial", engine="reference").engine == (
            "reference"
        )


class TestCheckpointResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        spec = small_spec()
        full = run_fleet(spec, "serial")

        # Simulate an interrupted invocation: fold only the first three
        # devices, checkpoint, then resume from disk.
        path = tmp_path / "fleet.ckpt.json"
        partial = run_shard(spec.expand()[:3])
        FleetCheckpoint(
            checkpoint_fingerprint(spec),
            3,
            partial.to_dict(),
            executor_family="serial",
        ).save(path)
        resumed = run_fleet(spec, "serial", checkpoint_path=path)
        assert resumed.resumed_devices == 3
        assert aggregate_fingerprint(resumed) == aggregate_fingerprint(full)

    def test_chunked_checkpointing_run_matches(self, tmp_path):
        spec = small_spec()
        full = run_fleet(spec, "serial")
        path = tmp_path / "fleet.ckpt.json"
        chunked = run_fleet(
            spec, "serial", checkpoint_path=path, checkpoint_every=2
        )
        assert aggregate_fingerprint(chunked) == aggregate_fingerprint(full)
        # The final checkpoint covers the whole fleet and reloads cleanly.
        checkpoint = FleetCheckpoint.load(path)
        assert checkpoint.devices_done == spec.device_count
        assert (
            FleetAggregator.from_dict(checkpoint.aggregate).to_json()
            == full.aggregate.to_json()
        )

    def test_mismatched_fingerprint_is_an_error(self, tmp_path):
        spec = small_spec()
        other = small_spec(fleet_seed=99)
        path = tmp_path / "fleet.ckpt.json"
        FleetCheckpoint(
            checkpoint_fingerprint(other),
            1,
            FleetAggregator().to_dict(),
            executor_family="serial",
        ).save(path)
        with pytest.raises(FleetError, match="different"):
            run_fleet(spec, "serial", checkpoint_path=path)

    def test_corrupt_checkpoint_is_an_error(self, tmp_path):
        path = tmp_path / "fleet.ckpt.json"
        path.write_text("{not json")
        with pytest.raises(FleetError, match="checkpoint"):
            run_fleet(small_spec(), "serial", checkpoint_path=path)

    def test_interleaved_checkpoint_saves(self, tmp_path, monkeypatch):
        """A second save between the first save's write and its rename must
        not make the first rename a vanished temp file."""
        import os

        path = tmp_path / "fleet.ckpt.json"
        real_replace = os.replace
        nested = []

        def checkpoint(done):
            return FleetCheckpoint(
                "fp", done, FleetAggregator().to_dict(), executor_family="serial"
            )

        def replace(src, dst):
            if not nested:
                nested.append(True)
                checkpoint(2).save(path)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        checkpoint(1).save(path)
        assert FleetCheckpoint.load(path).devices_done == 1
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_checkpoint_every_requires_a_path(self):
        with pytest.raises(FleetError, match="requires a checkpoint path"):
            run_fleet(small_spec(), "serial", checkpoint_every=2)


class TestReport:
    def test_tables_render(self):
        result = run_fleet(small_spec(), "serial")
        text = result.table().render_text()
        assert "tire-ocelot" in text and "gh-jit" in text
        assert "fresh" in histogram_table(result).render_text()
        assert "90-100%" in duty_table(result).render_text()

    def test_result_json_contains_aggregate(self):
        result = run_fleet(small_spec(), "serial")
        payload = json.loads(result.to_json())
        assert payload["devices"] == 7
        assert set(payload["aggregate"]["classes"]) == {"tire-ocelot", "gh-jit"}


class TestFleetProperties:
    @given(spec=fleet_specs())
    @settings(max_examples=20, deadline=None)
    def test_spec_roundtrip_and_deterministic_expansion(self, spec):
        assert FleetSpec.from_json(spec.to_json()) == spec
        devices = spec.expand()
        assert devices == spec.expand()
        assert len(devices) == spec.device_count
        assert len({d.device_id for d in devices}) == len(devices)

    @given(spec=fleet_specs())
    @settings(max_examples=6, deadline=None)
    def test_split_shards_match_whole(self, spec):
        devices = spec.expand()
        whole = run_shard(devices)
        merged = (
            FleetAggregator()
            .merge(run_shard(devices[0::2]))
            .merge(run_shard(devices[1::2]))
        )
        assert merged.to_json() == whole.to_json()
