"""Span/event tracing on two clocks: sim-time (tau) and wall-clock.

Two timelines, one export format (Chrome trace event JSON, loadable in
``chrome://tracing`` and Perfetto):

* **Sim-time** events are derived *post hoc* from the observation
  :class:`~repro.runtime.observations.Trace` a run already produces --
  the exporter never touches execution, so the timeline is fully
  deterministic and byte-stable across runs (``ts`` is tau; 1 tau
  renders as 1 microsecond).
* **Wall-clock** spans come from the opt-in :class:`WallTracer`.  When
  tracing is disabled (the default) the module-level handle is ``None``
  and every instrumentation site is a single attribute load + ``is
  None`` test per *activation/batch/job* -- never per instruction --
  so the disabled overhead is unmeasurable by design and gated below
  2% by ``benchmarks/bench_telemetry.py``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

from repro.runtime import observations as obs

#: Version tag embedded in the exported trace document.
TRACE_SCHEMA = "repro-trace-1"

#: Synthetic pid for the deterministic sim-time timeline.
SIM_PID = 0
#: Synthetic pid for the wall-clock timeline (kept separate so the two
#: clocks never interleave on one track).
WALL_PID = 1


def _taint_summary(taint) -> list[str]:
    """Stable rendering of a Taint (frozenset of InputEvents)."""
    return sorted(str(event) for event in taint)


def _sim_event(
    name: str, cat: str, tau: int, ph: str = "i", **args
) -> dict:
    event = {
        "name": name,
        "cat": cat,
        "ph": ph,
        "ts": tau,
        "pid": SIM_PID,
        "tid": 0,
    }
    if ph == "i":
        event["s"] = "t"  # instant scope: thread
    if args:
        event["args"] = args
    return event


def simtime_events(
    events: Iterable[obs.Obs], *, activation: int | None = None
) -> list[dict]:
    """Map observation events onto Chrome trace events (ts = tau).

    Regions become ``B``/``E`` duration pairs; everything else is an
    instant.  The mapping is pure: input order fixes output order.
    """
    out: list[dict] = []
    extra = {} if activation is None else {"activation": activation}
    for event in events:
        if isinstance(event, obs.InputObs):
            out.append(
                _sim_event(
                    f"in {event.channel}",
                    "input",
                    event.tau,
                    uid=str(event.uid),
                    channel=event.channel,
                    value=event.value,
                    **extra,
                )
            )
        elif isinstance(event, obs.FreshDeclObs):
            out.append(
                _sim_event(
                    f"fresh {event.pid}",
                    "policy",
                    event.tau,
                    uid=str(event.uid),
                    pid=event.pid,
                    inputs=_taint_summary(event.inputs),
                    **extra,
                )
            )
        elif isinstance(event, obs.ConsistentDeclObs):
            out.append(
                _sim_event(
                    f"consistent {event.pid}",
                    "policy",
                    event.tau,
                    uid=str(event.uid),
                    pid=event.pid,
                    set_id=event.set_id,
                    inputs=_taint_summary(event.inputs),
                    **extra,
                )
            )
        elif isinstance(event, obs.UseObs):
            out.append(
                _sim_event(
                    f"use {event.pid}",
                    "use",
                    event.tau,
                    uid=str(event.uid),
                    pid=event.pid,
                    **extra,
                )
            )
        elif isinstance(event, obs.OutputObs):
            out.append(
                _sim_event(
                    event.op,
                    "output",
                    event.tau,
                    uid=str(event.uid),
                    values=list(event.values),
                    **extra,
                )
            )
        elif isinstance(event, obs.RegionEnterObs):
            out.append(
                _sim_event(
                    f"region {event.region}",
                    "region",
                    event.tau,
                    ph="B",
                    uid=str(event.uid),
                    **extra,
                )
            )
        elif isinstance(event, obs.RegionExitObs):
            out.append(
                _sim_event(f"region {event.region}", "region", event.tau, ph="E")
            )
        elif isinstance(event, obs.PowerFailObs):
            out.append(
                _sim_event(
                    "power-fail", "power", event.tau, mode=event.mode, **extra
                )
            )
        elif isinstance(event, obs.RebootObs):
            out.append(
                _sim_event(
                    "reboot",
                    "power",
                    event.tau,
                    off_cycles=event.off_cycles,
                    mode=event.mode,
                    **extra,
                )
            )
        elif isinstance(event, obs.CheckpointObs):
            out.append(
                _sim_event(
                    "checkpoint",
                    "checkpoint",
                    event.tau,
                    saved_words=event.saved_words,
                    **extra,
                )
            )
        elif isinstance(event, obs.ViolationObs):
            out.append(
                _sim_event(
                    f"VIOLATION {event.kind} {event.pid}",
                    "violation",
                    event.tau,
                    uid=str(event.uid),
                    pid=event.pid,
                    kind=event.kind,
                    missing=[str(uid) for uid in event.missing],
                    **extra,
                )
            )
        else:  # future observation kinds degrade to a generic instant
            out.append(
                _sim_event(type(event).__name__, "other", event.tau, **extra)
            )
    return out


def chrome_trace(
    traces: Iterable[obs.Trace] | obs.Trace,
    *,
    source: str = "run",
    wall: Optional["WallTracer"] = None,
) -> dict:
    """Build a Chrome-trace document from one or more observation traces.

    Multiple traces (one per activation) land on the same sim-time track
    tagged with their activation index.  Pass ``wall`` to append the
    wall-clock timeline under its own pid.
    """
    if isinstance(traces, obs.Trace):
        traces = [traces]
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": SIM_PID,
            "tid": 0,
            "args": {"name": "sim-time (tau)"},
        }
    ]
    trace_list = list(traces)
    for index, trace in enumerate(trace_list):
        activation = index if len(trace_list) > 1 else None
        events.extend(simtime_events(trace.events, activation=activation))
    if wall is not None:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": WALL_PID,
                "tid": 0,
                "args": {"name": "wall-clock"},
            }
        )
        events.extend(wall.events)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": TRACE_SCHEMA, "clock": "tau", "source": source},
    }


def chrome_trace_json(
    traces: Iterable[obs.Trace] | obs.Trace,
    *,
    source: str = "run",
    wall: Optional["WallTracer"] = None,
) -> str:
    """Serialize :func:`chrome_trace` deterministically (sorted keys).

    Without ``wall`` the output is a pure function of the observation
    trace: same seed + spec -> byte-identical JSON.
    """
    return json.dumps(
        chrome_trace(traces, source=source, wall=wall),
        indent=2,
        sort_keys=True,
    )


class WallTracer:
    """Wall-clock span recorder (Chrome trace ``X`` events, us floats)."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._t0 = time.perf_counter_ns()

    def _now_us(self) -> float:
        return (time.perf_counter_ns() - self._t0) / 1_000.0

    @contextmanager
    def span(self, name: str, cat: str = "host", **args) -> Iterator[None]:
        started = self._now_us()
        try:
            yield
        finally:
            event = {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": started,
                "dur": self._now_us() - started,
                "pid": WALL_PID,
                "tid": 0,
            }
            if args:
                event["args"] = args
            self.events.append(event)


#: The active wall tracer, or None (the default: tracing disabled).
_ACTIVE: Optional[WallTracer] = None


def tracer() -> Optional[WallTracer]:
    """The hot-path check: instrumented sites call this once per unit of
    work and skip all bookkeeping when it returns ``None``."""
    return _ACTIVE


def enable() -> WallTracer:
    global _ACTIVE
    _ACTIVE = WallTracer()
    return _ACTIVE


def disable() -> None:
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def span(name: str, cat: str = "host", **args) -> Iterator[None]:
    """Span on the active tracer; a plain no-op when tracing is off."""
    active = _ACTIVE
    if active is None:
        yield
    else:
        with active.span(name, cat, **args):
            yield
