"""Power supply tests."""

import pytest

from repro.analysis.provenance import Chain
from repro.energy.capacitor import Capacitor
from repro.energy.harvester import ConstantHarvester
from repro.ir.instructions import InstrId
from repro.runtime.supply import (
    ContinuousPower,
    EnergyDrivenSupply,
    FailurePoint,
    ScheduledFailures,
)

UID = InstrId("main", 3)
OTHER = InstrId("main", 9)


class TestContinuousPower:
    def test_never_fails(self):
        supply = ContinuousPower()
        assert not supply.fail_before(UID)
        assert not supply.consume(10**9)
        assert not supply.would_trip(10**9)


class TestScheduledFailures:
    def test_fires_once_at_occurrence(self):
        supply = ScheduledFailures([FailurePoint(UID, occurrence=2)])
        assert not supply.fail_before(UID)  # occurrence 1
        assert supply.fail_before(UID)  # occurrence 2: fire
        assert not supply.fail_before(UID)  # never re-arms

    def test_unrelated_uid_ignored(self):
        supply = ScheduledFailures([FailurePoint(UID)])
        assert not supply.fail_before(OTHER)

    def test_chain_point_matches_exact_context(self):
        site = Chain(ids=(InstrId("main", 1), UID))
        wrong = Chain(ids=(InstrId("main", 2), UID))
        supply = ScheduledFailures([FailurePoint(chain=site)])
        assert not supply.fail_before(UID, wrong)
        assert supply.fail_before(UID, site)
        assert supply.all_fired

    def test_watched_uids(self):
        site = Chain(ids=(UID,))
        supply = ScheduledFailures([FailurePoint(chain=site), FailurePoint(OTHER)])
        assert supply.watched_uids() == frozenset({UID, OTHER})

    def test_point_requires_exactly_one_target(self):
        with pytest.raises(ValueError):
            FailurePoint()
        with pytest.raises(ValueError):
            FailurePoint(uid=UID, chain=Chain(ids=(UID,)))

    def test_off_cycles_configurable(self):
        supply = ScheduledFailures([], off_cycles=123)
        assert supply.off_and_recharge() == 123


class TestEnergyDrivenSupply:
    def make(self, boot=(1.0, 1.0), capacity=1000, low=200, rate=500):
        return EnergyDrivenSupply(
            Capacitor(capacity, low),
            ConstantHarvester(rate),
            boot_fraction=boot,
            seed=11,
        )

    def test_consume_trips_at_threshold(self):
        supply = self.make()
        assert not supply.consume(700)
        assert supply.consume(100)

    def test_would_trip_previews_without_draining(self):
        supply = self.make()
        level = supply.capacitor.level
        assert supply.would_trip(900)
        assert supply.capacitor.level == level

    def test_recharge_refills_fully_without_jitter(self):
        supply = self.make()
        supply.consume(800)
        off = supply.off_and_recharge()
        assert off > 0
        assert supply.capacitor.level == 1000

    def test_boot_jitter_randomizes_levels(self):
        supply = self.make(boot=(0.3, 1.0))
        levels = []
        for _ in range(6):
            supply.consume(supply.capacitor.usable)
            supply.off_and_recharge()
            levels.append(supply.capacitor.level)
        assert len(set(levels)) > 1
        assert all(lvl > 200 for lvl in levels)

    def test_invalid_boot_fraction(self):
        with pytest.raises(ValueError):
            self.make(boot=(0.0, 1.0))
        with pytest.raises(ValueError):
            self.make(boot=(0.9, 0.5))

    def test_checkpoint_energy_uses_reserve(self):
        supply = self.make()
        supply.consume(800)  # at threshold
        supply.checkpoint_energy(150)
        assert supply.capacitor.level == 50


class TestSpawn:
    """Per-device derivation: fleet instances from one prototype."""

    def make_proto(self, rate=400, spread=2.0):
        from repro.energy.harvester import NoisyHarvester

        return EnergyDrivenSupply(
            Capacitor(1000, 200),
            NoisyHarvester(rate, seed=0, spread=spread),
            boot_fraction=(0.5, 1.0),
            seed=1,
        )

    def drain_cycle(self, supply, n=5):
        outs = []
        for _ in range(n):
            supply.consume(supply.capacitor.usable + 1)
            outs.append(supply.off_and_recharge())
        return outs

    def test_spawn_is_deterministic_per_seed(self):
        proto = self.make_proto()
        a = proto.spawn(7)
        b = proto.spawn(7)
        assert self.drain_cycle(a) == self.drain_cycle(b)

    def test_spawn_seeds_are_independent_streams(self):
        proto = self.make_proto()
        a = proto.spawn(7)
        b = proto.spawn(8)
        assert self.drain_cycle(a) != self.drain_cycle(b)

    def test_spawn_copies_physical_configuration(self):
        proto = self.make_proto(rate=123, spread=1.5)
        child = proto.spawn(3)
        assert child.capacitor.capacity == 1000
        assert child.capacitor.low_threshold == 200
        assert child.capacitor.level == 1000  # fully charged, not shared
        assert child.harvester.rate_per_kilocycle == 123
        assert child.harvester.spread == 1.5
        assert child.boot_fraction == (0.5, 1.0)
        proto.consume(500)
        assert child.capacitor.level == 1000  # no shared capacitor state

    def test_scheduled_failures_spawn_rearms(self):
        proto = ScheduledFailures([FailurePoint(UID)], off_cycles=77)
        assert proto.fail_before(UID)
        assert proto.all_fired
        child = proto.spawn(0)
        assert not child.all_fired
        assert child.off_cycles == 77
        assert child.fail_before(UID)
        # Spawning does not disturb the parent.
        assert proto.all_fired

    def test_continuous_spawn_is_continuous(self):
        child = ContinuousPower().spawn(5)
        assert not child.consume(10**9)
