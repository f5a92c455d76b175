"""Process-wide metrics registry: counters, gauges, histograms.

One registry (:data:`METRICS`) absorbs the counters that previously
lived in per-module report dicts -- pass timings from ``core/passes``,
``detector_queries`` from the machines, memo hit/miss/entries from
``fleet.vector``, frontier/prune/dedup stats from ``verify.explorer``,
campaign compile-cache hits -- and serializes them behind one JSON
schema (``repro-metrics-1``) shared by the ``--metrics-out`` flag on
the run/fleet/campaign/verify CLIs and by the ``benchmarks/bench_*.py``
scripts.

Design constraints:

* **Zero hot-path cost.**  Nothing in the engines or executors calls
  into the registry per instruction; producers keep their own plain
  ``int`` counters and the CLI/bench layer *absorbs* them after the
  fact via the ``absorb_*`` helpers below.
* **Deterministic serialization.**  ``to_dict`` sorts every name so
  the JSON is byte-stable for identical measurements.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

#: Version tag embedded in every metrics JSON document.
METRICS_SCHEMA = "repro-metrics-1"


@dataclass
class Counter:
    """A monotonically increasing integer."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Streaming summary of observed samples (no buckets kept)."""

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms with create-on-first-use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- access -----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            metric = self._counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            metric = self._gauges[name] = Gauge()
            return metric

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            metric = self._histograms[name] = Histogram()
            return metric

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block into ``histogram(name)`` (seconds)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(name).observe(time.perf_counter() - started)

    def seconds(self, name: str) -> float:
        """Total seconds recorded under histogram ``name`` (0.0 if unset)."""
        hist = self._histograms.get(name)
        return hist.total if hist is not None else 0.0

    # -- lifecycle --------------------------------------------------------

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- serialization ----------------------------------------------------

    def to_dict(self, *, command: str | None = None) -> dict:
        doc: dict = {
            "schema": METRICS_SCHEMA,
            "counters": {
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: metric.to_dict()
                for name, metric in sorted(self._histograms.items())
            },
        }
        if command is not None:
            doc["command"] = command
        return doc

    def to_json(self, *, command: str | None = None) -> str:
        return json.dumps(self.to_dict(command=command), indent=2, sort_keys=True)

    def write(self, path: str | Path, *, command: str | None = None) -> None:
        Path(path).write_text(self.to_json(command=command) + "\n")


#: The process-wide registry used by the CLI and the bench scripts.
METRICS = MetricsRegistry()


# -- absorbers: fold subsystem report dicts into a registry ---------------


def absorb_pass_timings(registry: MetricsRegistry, compiled) -> None:
    """Record per-stage compile timings from a ``CompiledProgram``."""
    for timing in getattr(compiled, "timings", ()) or ():
        registry.counter("compile.passes").inc()
        registry.histogram("compile.pass_seconds").observe(timing.seconds)
        registry.gauge(f"compile.pass.{timing.stage}.seconds").set(timing.seconds)


def absorb_run(registry: MetricsRegistry, result) -> None:
    """Record one ``RunResult`` (single activation) into the registry."""
    stats = result.stats
    registry.counter("run.activations").inc()
    registry.counter("run.instructions").inc(stats.instructions)
    registry.counter("run.cycles_on").inc(stats.cycles_on)
    registry.counter("run.cycles_off").inc(stats.cycles_off)
    registry.counter("run.jit_checkpoints").inc(stats.jit_checkpoints)
    registry.counter("run.region_entries").inc(stats.region_entries)
    registry.counter("run.region_commits").inc(stats.region_commits)
    registry.counter("run.region_restarts").inc(stats.region_restarts)
    registry.counter("run.reboots").inc(stats.reboots)
    registry.counter("run.violations").inc(stats.violations)
    registry.counter("run.detector_queries").inc(result.detector_queries)
    if stats.completed:
        registry.counter("run.completed").inc()


def absorb_replay(registry: MetricsRegistry, result) -> None:
    """Record a schedule ``ReplayResult`` into the registry."""
    registry.counter("run.activations").inc(result.activations)
    registry.counter("run.violations").inc(len(result.violations))
    if result.completed:
        registry.counter("run.completed").inc()


def absorb_fleet(registry: MetricsRegistry, result) -> None:
    """Record a ``FleetResult`` (aggregate + memo + wall time)."""
    from repro.runtime.harness import TOTALS

    classes = result.aggregate.to_dict().get("classes", {})
    for payload in classes.values():
        for key in ("devices", "stuck_devices", *TOTALS):
            registry.counter(f"fleet.{key}").inc(payload[key])
    memo = getattr(result, "memo", None)
    if memo:
        for key in ("hits", "misses", "evictions", "disk_loads", "entries"):
            if key in memo:
                registry.counter(f"fleet.memo.{key}").inc(int(memo[key]))
        if "hit_rate" in memo:
            registry.gauge("fleet.memo.hit_rate").set(memo["hit_rate"])
    registry.histogram("fleet.wall_seconds").observe(result.wall_time)


def absorb_campaign(registry: MetricsRegistry, result) -> None:
    """Record a ``CampaignResult`` (jobs, compile cache, violations)."""
    registry.counter("campaign.jobs").inc(len(result.jobs))
    registry.counter("campaign.compiles").inc(result.compiles)
    registry.counter("campaign.cache_hits").inc(result.cache_hits)
    registry.histogram("campaign.wall_seconds").observe(result.wall_time)
    for job in result.jobs:
        registry.counter("campaign.activations").inc(job.activations)
        registry.counter("campaign.violations").inc(job.violations)
        registry.counter("campaign.detector_queries").inc(job.detector_queries)
        registry.histogram("campaign.job_seconds").observe(job.wall_time)


def absorb_verify(registry: MetricsRegistry, verdict) -> None:
    """Record an explorer ``Verdict``'s search statistics."""
    for key, value in verdict.stats.to_dict().items():
        registry.counter(f"verify.{key}").inc(int(value))
    registry.gauge("verify.exit_code").set(verdict.exit_code)
