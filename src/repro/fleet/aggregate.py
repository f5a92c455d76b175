"""Streaming fleet aggregation: fixed-size state, any number of devices.

A million-activation fleet run cannot keep per-activation results in
memory; the aggregator consumes the scheduler's event stream one record
at a time and retains only integer counters and fixed-width histograms
per device class.  Every field is an integer and every operation is a
sum, which buys three properties at once:

* **order independence** -- serial tau-order interleaving and per-worker
  vector runs fold the same records in different orders into the same
  state;
* **mergeability** -- worker aggregates combine with ``merge`` (used by
  the vector executor's workers and by checkpoint/resume);
* **byte determinism** -- ``to_json`` over sorted keys is reproducible
  bit-for-bit across executors, process counts, and resumed runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Buckets for per-activation violation counts: 0, 1, 2, 3, 4, >=5.
VIOLATION_BUCKETS = 6
#: Duty-cycle histogram bins over on/(on+off), i.e. 0-10%, ..., 90-100%.
DUTY_BINS = 10


def _bucket(count: int) -> int:
    return min(count, VIOLATION_BUCKETS - 1)


@dataclass
class ClassAggregate:
    """Counters for one device class; all integers, all summable."""

    app: str = ""
    config: str = ""
    devices: int = 0
    stuck_devices: int = 0
    activations: int = 0
    completed_runs: int = 0
    violating_runs: int = 0
    violations: int = 0
    fresh_violations: int = 0
    consistent_violations: int = 0
    cycles_on: int = 0
    cycles_off: int = 0
    reboots: int = 0
    detector_queries: int = 0
    #: histogram of *fresh* (staleness) violations per completed activation
    fresh_hist: list[int] = field(
        default_factory=lambda: [0] * VIOLATION_BUCKETS
    )
    #: histogram of consistency violations per completed activation
    consistent_hist: list[int] = field(
        default_factory=lambda: [0] * VIOLATION_BUCKETS
    )
    #: histogram of per-activation duty cycle (cycles on / total cycles)
    duty_hist: list[int] = field(default_factory=lambda: [0] * DUTY_BINS)

    @property
    def violation_rate(self) -> float:
        if self.completed_runs == 0:
            return 0.0
        return self.violating_runs / self.completed_runs

    @property
    def duty_cycle(self) -> float:
        total = self.cycles_on + self.cycles_off
        if total == 0:
            return 0.0
        return self.cycles_on / total

    def observe(self, record) -> None:
        """Fold one :class:`ActivationRecord` into the counters."""
        self.activations += 1
        self.cycles_on += record.cycles_on
        self.cycles_off += record.cycles_off
        self.reboots += record.reboots
        self.violations += record.violations
        self.fresh_violations += record.fresh_violations
        self.consistent_violations += record.consistent_violations
        self.detector_queries += record.detector_queries
        if not record.completed:
            self.stuck_devices += 1
            return
        self.completed_runs += 1
        if record.violating:
            self.violating_runs += 1
        self.fresh_hist[_bucket(record.fresh_violations)] += 1
        self.consistent_hist[_bucket(record.consistent_violations)] += 1
        total = record.cycles_on + record.cycles_off
        if total > 0:
            # Integer binning keeps the histogram exact across platforms.
            self.duty_hist[
                min(DUTY_BINS - 1, (record.cycles_on * DUTY_BINS) // total)
            ] += 1

    def observe_many(self, record, count: int) -> None:
        """Fold ``count`` identical activation records at once.

        The vectorized executor replays one memoized record for a whole
        group of equivalent devices; since every counter is a sum, the
        multiplied fold equals ``count`` repetitions of :meth:`observe`
        exactly -- no rounding, so byte determinism survives batching.
        """
        if count <= 0:
            return
        self.activations += count
        self.cycles_on += record.cycles_on * count
        self.cycles_off += record.cycles_off * count
        self.reboots += record.reboots * count
        self.violations += record.violations * count
        self.fresh_violations += record.fresh_violations * count
        self.consistent_violations += record.consistent_violations * count
        self.detector_queries += record.detector_queries * count
        if not record.completed:
            self.stuck_devices += count
            return
        self.completed_runs += count
        if record.violating:
            self.violating_runs += count
        self.fresh_hist[_bucket(record.fresh_violations)] += count
        self.consistent_hist[_bucket(record.consistent_violations)] += count
        total = record.cycles_on + record.cycles_off
        if total > 0:
            self.duty_hist[
                min(DUTY_BINS - 1, (record.cycles_on * DUTY_BINS) // total)
            ] += count

    def merge(self, other: "ClassAggregate") -> None:
        if (self.app, self.config) != (other.app, other.config):
            raise ValueError(
                f"cannot merge class aggregates of ({self.app}, {self.config})"
                f" and ({other.app}, {other.config})"
            )
        self.devices += other.devices
        self.stuck_devices += other.stuck_devices
        self.activations += other.activations
        self.completed_runs += other.completed_runs
        self.violating_runs += other.violating_runs
        self.violations += other.violations
        self.fresh_violations += other.fresh_violations
        self.consistent_violations += other.consistent_violations
        self.cycles_on += other.cycles_on
        self.cycles_off += other.cycles_off
        self.reboots += other.reboots
        self.detector_queries += other.detector_queries
        for i, v in enumerate(other.fresh_hist):
            self.fresh_hist[i] += v
        for i, v in enumerate(other.consistent_hist):
            self.consistent_hist[i] += v
        for i, v in enumerate(other.duty_hist):
            self.duty_hist[i] += v

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "config": self.config,
            "devices": self.devices,
            "stuck_devices": self.stuck_devices,
            "activations": self.activations,
            "completed_runs": self.completed_runs,
            "violating_runs": self.violating_runs,
            "violations": self.violations,
            "fresh_violations": self.fresh_violations,
            "consistent_violations": self.consistent_violations,
            "cycles_on": self.cycles_on,
            "cycles_off": self.cycles_off,
            "reboots": self.reboots,
            "detector_queries": self.detector_queries,
            "fresh_hist": list(self.fresh_hist),
            "consistent_hist": list(self.consistent_hist),
            "duty_hist": list(self.duty_hist),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClassAggregate":
        agg = cls(app=data["app"], config=data["config"])
        for key in (
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
        ):
            setattr(agg, key, int(data[key]))
        agg.fresh_hist = [int(v) for v in data["fresh_hist"]]
        agg.consistent_hist = [int(v) for v in data["consistent_hist"]]
        agg.duty_hist = [int(v) for v in data["duty_hist"]]
        return agg


class FleetAggregator:
    """Per-class streaming aggregates over a fleet's event stream."""

    def __init__(self) -> None:
        self._classes: dict[str, ClassAggregate] = {}

    def _class(self, name: str, app: str = "", config: str = "") -> ClassAggregate:
        agg = self._classes.get(name)
        if agg is None:
            agg = ClassAggregate(app=app, config=config)
            self._classes[name] = agg
        return agg

    def add_device(self, spec) -> None:
        """Register a device before it runs (devices with zero completed
        activations still count toward the population)."""
        agg = self._class(spec.class_name, spec.app, spec.config)
        agg.devices += 1

    def add_devices(self, spec, count: int) -> None:
        """Register ``count`` same-class devices at once (batch peer of
        :meth:`add_device`; population counts are plain sums)."""
        agg = self._class(spec.class_name, spec.app, spec.config)
        agg.devices += count

    def observe(self, spec, record) -> None:
        """The scheduler sink: fold one activation of one device."""
        self._class(spec.class_name, spec.app, spec.config).observe(record)

    def observe_many(self, spec, record, count: int) -> None:
        """Batch sink: fold ``count`` devices replaying one record."""
        self._class(spec.class_name, spec.app, spec.config).observe_many(
            record, count
        )

    # -- views ---------------------------------------------------------------

    @property
    def class_names(self) -> list[str]:
        return sorted(self._classes)

    def __getitem__(self, name: str) -> ClassAggregate:
        return self._classes[name]

    @property
    def total_devices(self) -> int:
        return sum(a.devices for a in self._classes.values())

    @property
    def total_activations(self) -> int:
        return sum(a.activations for a in self._classes.values())

    @property
    def total_completed(self) -> int:
        return sum(a.completed_runs for a in self._classes.values())

    # -- merge / serialize ---------------------------------------------------

    def merge(self, other: "FleetAggregator") -> "FleetAggregator":
        for name in other.class_names:
            theirs = other[name]
            mine = self._classes.get(name)
            if mine is None:
                self._classes[name] = ClassAggregate.from_dict(theirs.to_dict())
            else:
                mine.merge(theirs)
        return self

    def to_dict(self) -> dict:
        return {
            "classes": {
                name: self._classes[name].to_dict()
                for name in sorted(self._classes)
            }
        }

    def to_json(self) -> str:
        """Canonical encoding: sorted keys, no whitespace surprises.

        This is the byte-for-byte artifact the parity and resume tests
        compare, so keep it free of floats and unordered containers.
        """
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "FleetAggregator":
        agg = cls()
        for name, payload in data.get("classes", {}).items():
            agg._classes[name] = ClassAggregate.from_dict(payload)
        return agg
