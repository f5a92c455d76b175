"""Streaming fleet aggregation: fixed-size state, any number of devices.

A million-activation fleet run cannot keep per-activation results in
memory; the aggregator consumes the executor's activation stream one
record at a time and retains only integer counters and fixed-width
histograms per device class.  A class is an
:class:`~repro.runtime.harness.ActivationTotals` (the counters and their
fold, shared with the harness and campaigns) plus its device counts and
histograms.  Every field is an integer and every operation is a sum,
which buys three properties at once:

* **order independence** -- serial device-by-device runs and per-worker
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

from repro.runtime.harness import TOTALS, ActivationRecord, ActivationTotals

#: Buckets for per-activation violation counts: 0, 1, 2, 3, 4, >=5.
VIOLATION_BUCKETS = 6
#: Duty-cycle histogram bins over on/(on+off), i.e. 0-10%, ..., 90-100%.
DUTY_BINS = 10


def _bucket(count: int) -> int:
    return min(count, VIOLATION_BUCKETS - 1)


#: A class's counters beyond its tally's, and its histograms, by name.
_DEVICE_COUNTS = ("devices", "stuck_devices")
_HISTOGRAMS = ("fresh_hist", "consistent_hist", "duty_hist")


@dataclass
class ClassAggregate(ActivationTotals):
    """One device class: its activation totals, its device counts and
    three fixed-width histograms of its completed activations; all
    integers, all summable."""

    app: str = ""
    config: str = ""
    devices: int = 0
    stuck_devices: int = 0
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
    def duty_cycle(self) -> float:
        total = self.cycles_on + self.cycles_off
        if total == 0:
            return 0.0
        return self.cycles_on / total

    def add(self, record: ActivationRecord, count: int = 1) -> None:
        """Fold ``count`` activations that each produced ``record``.

        An activation that does not complete is its device's last (its
        stepper stops there), so it counts a stuck device; a completed
        one lands in each histogram.
        """
        super().add(record, count)
        if not record.completed:
            self.stuck_devices += count
            return
        self.fresh_hist[_bucket(record.fresh_violations)] += count
        self.consistent_hist[_bucket(record.consistent_violations)] += count
        total = record.cycles_on + record.cycles_off
        if total > 0:
            # Integer binning keeps the histogram exact across platforms.
            self.duty_hist[
                min(DUTY_BINS - 1, (record.cycles_on * DUTY_BINS) // total)
            ] += count

    def merge(self, other: "ClassAggregate") -> None:
        if (self.app, self.config) != (other.app, other.config):
            raise ValueError(
                f"cannot merge class aggregates of ({self.app}, {self.config})"
                f" and ({other.app}, {other.config})"
            )
        super().merge(other)
        self.devices += other.devices
        self.stuck_devices += other.stuck_devices
        for name in _HISTOGRAMS:
            mine = getattr(self, name)
            for i, v in enumerate(getattr(other, name)):
                mine[i] += v

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "config": self.config,
            **{name: getattr(self, name) for name in _DEVICE_COUNTS + TOTALS},
            **{name: list(getattr(self, name)) for name in _HISTOGRAMS},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClassAggregate":
        return cls(
            app=data["app"],
            config=data["config"],
            **{name: int(data[name]) for name in _DEVICE_COUNTS + TOTALS},
            **{name: [int(v) for v in data[name]] for name in _HISTOGRAMS},
        )


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

    def add_devices(self, spec, count: int) -> None:
        """Register ``count`` same-class devices before they run (devices
        with zero completed activations still count toward the
        population)."""
        agg = self._class(spec.class_name, spec.app, spec.config)
        agg.devices += count

    def observe(self, spec, record) -> None:
        """The serial sink: fold one activation of one device."""
        self._class(spec.class_name, spec.app, spec.config).add(record)

    def observe_many(self, spec, record, count: int) -> None:
        """Batch sink: fold ``count`` devices replaying one record."""
        self._class(spec.class_name, spec.app, spec.config).add(record, count)

    # -- views ---------------------------------------------------------------

    @property
    def class_names(self) -> list[str]:
        return sorted(self._classes)

    def __getitem__(self, name: str) -> ClassAggregate:
        return self._classes[name]

    @property
    def total_activations(self) -> int:
        return sum(a.activations for a in self._classes.values())

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
