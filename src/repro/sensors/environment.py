"""Simulated sensing environment.

The paper runs on real hardware with real (or simulated) sensors; the
essential property its correctness experiments need is that *a sensor's
value changes while the device is powered off*, so that a stale or
torn reading is observably different from a fresh one.  We model the
environment as a set of named, time-varying integer signals sampled at
logical time ``tau``.

Signals are deterministic functions of time and a seed, so every
experiment is reproducible; the provided generators cover the benchmark
scenarios (weather fronts for Greenhouse, motion episodes for Activity,
pressure drop events for Tire, light levels for Photo).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

Signal = Callable[[int], int]


def _periodic(signal: Signal, period: Optional[int]) -> Signal:
    """Annotate ``signal`` with its exact period (if it has one).

    A period ``P`` promises ``signal(tau) == signal(tau % P)`` for every
    ``tau >= 0`` -- *exactly*, so only signals computed with pure integer
    arithmetic declare one (``sine`` rounds floats, where ``tau`` and
    ``tau % P`` can land on different sides of a rounding boundary, so it
    stays aperiodic).  The fleet memoizer keys activations on
    :meth:`Environment.segment_token`, which collapses logical times that
    provably see the same world; an undeclared period only costs cache
    hits, a wrongly declared one would corrupt results.
    """
    signal.period = period  # type: ignore[attr-defined]
    return signal


def signal_period(signal: Signal) -> Optional[int]:
    """The declared exact period of ``signal``, or None if aperiodic."""
    return getattr(signal, "period", None)


def constant(value: int) -> Signal:
    """A signal that never changes (useful in unit tests)."""
    return _periodic(lambda tau: value, 1)


def ramp(start: int, slope_per_kilocycle: int) -> Signal:
    """Linear drift: ``start + slope * tau / 1000``."""

    def signal(tau: int) -> int:
        return start + (slope_per_kilocycle * tau) // 1000

    return _periodic(signal, 1 if slope_per_kilocycle == 0 else None)


def sine(mean: int, amplitude: int, period: int) -> Signal:
    """Smooth oscillation around ``mean`` -- diurnal temperature, etc."""
    if period <= 0:
        raise ValueError("period must be positive")

    def signal(tau: int) -> int:
        return mean + round(amplitude * math.sin(2.0 * math.pi * tau / period))

    return signal


def steps(levels: list[int], dwell: int) -> Signal:
    """Piecewise-constant signal cycling through ``levels`` every ``dwell``.

    Step changes are what expose freshness violations: a power failure that
    straddles a step boundary makes the pre-failure reading stale.
    """
    if not levels:
        raise ValueError("need at least one level")
    if dwell <= 0:
        raise ValueError("dwell must be positive")
    count = len(levels)
    # Hot path: intermittent runs re-read channels many times per segment
    # (every input op of every activation), so remember the last segment's
    # value instead of re-indexing each time.
    last = (-1, 0)

    def signal(tau: int) -> int:
        nonlocal last
        segment = (tau // dwell) % count
        if segment == last[0]:
            return last[1]
        value = levels[segment]
        last = (segment, value)
        return value

    return _periodic(signal, dwell * count)


def random_walk(start: int, step: int, seed: int, interval: int = 200) -> Signal:
    """A seeded random walk, changing every ``interval`` cycles.

    Values are generated lazily but memoized per segment, so the signal is
    a pure function of ``tau`` -- repeated reads at the same time agree,
    which the temporal-consistency experiments rely on.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    # cache[i] is segment i's value; it always holds segments 0..n.
    cache: list[int] = [start]

    def value_at_segment(segment: int) -> int:
        if segment < len(cache):
            return cache[segment]
        # Fill forward deterministically; each segment's step is a pure
        # function of (seed, segment index).
        value = cache[-1]
        for idx in range(len(cache), segment + 1):
            rng = random.Random(f"{seed}:{idx}")
            value += rng.choice((-step, 0, step))
            cache.append(value)
        return value

    # Same-segment reads dominate (sensing loops sample faster than the
    # walk moves), so keep the last evaluation out of the cache lookup.
    last = (0, start)

    def signal(tau: int) -> int:
        nonlocal last
        segment = max(0, tau) // interval
        if segment == last[0]:
            return last[1]
        value = value_at_segment(segment)
        last = (segment, value)
        return value

    return signal


def burst(base: int, spike: int, period: int, width: int, offset: int = 0) -> Signal:
    """Mostly ``base``, spiking to ``spike`` for ``width`` cycles each period.

    Models episodic events: a tire burst, a motion episode, a hot spell.
    """
    if period <= 0 or width <= 0:
        raise ValueError("period and width must be positive")

    def signal(tau: int) -> int:
        phase = (tau + offset) % period
        return spike if phase < width else base

    return _periodic(signal, period)


def phase_shifted(signal: Signal, offset: int) -> Signal:
    """``signal`` advanced by ``offset`` cycles: reads at ``tau`` see
    ``signal(tau + offset)``.

    Fleet simulations give each device a private phase so a thousand
    devices sampling the same diurnal sine do not all straddle the same
    step boundaries at the same logical times.
    """
    if offset == 0:
        return signal

    def shifted(tau: int) -> int:
        return signal(tau + offset)

    # A shift preserves exact periodicity: sig(tau + off) repeats with
    # the same period.  Shifts are nonnegative, so the tau >= 0 promise
    # of the base signal's period still covers every shifted read.
    return _periodic(shifted, signal_period(signal))


def parse_signal_spec(text: str, default_dwell: int = 2000) -> Signal:
    """Parse a textual signal spec: ``"42"`` or ``"a,b,...[:dwell]"``.

    The grammar backs both the CLI's ``--set ch=...`` flag and the
    declarative environment overrides of campaign specs: a lone integer
    is a constant signal; a comma-separated list (with an optional
    ``:dwell`` suffix) is a stepping signal.  Raises :class:`ValueError`
    with a human-readable message on malformed input.
    """
    text = text.strip()
    if ":" in text or "," in text:
        levels_text, _, dwell_text = text.partition(":")
        try:
            levels = [int(v) for v in levels_text.split(",")]
        except ValueError:
            raise ValueError(
                f"bad signal levels '{levels_text}': expected "
                "comma-separated integers"
            ) from None
        try:
            dwell = int(dwell_text) if dwell_text else default_dwell
        except ValueError:
            raise ValueError(
                f"bad signal dwell '{dwell_text}': expected an integer "
                "cycle count"
            ) from None
        return steps(levels, dwell)
    try:
        return constant(int(text))
    except ValueError:
        raise ValueError(
            f"bad signal value '{text}': expected an integer, "
            "or levels 'a,b,...[:dwell]'"
        ) from None


def bind_signal_specs(
    env: Environment,
    overrides: Mapping[str, str] | Iterable[tuple[str, str]],
) -> Environment:
    """Bind textual signal specs onto ``env``; the one spec-binding path.

    Both the CLI's ``--set CH=VALUE`` flags and the campaign engine's
    declarative environment overrides go through here, so the grammar,
    the defaults, and the error wording stay in one place.  Raises
    :class:`ValueError` naming the offending channel.
    """
    items = overrides.items() if isinstance(overrides, Mapping) else overrides
    for channel, spec in items:
        try:
            env.bind(channel, parse_signal_spec(spec))
        except ValueError as exc:
            raise ValueError(f"channel '{channel}': {exc}") from None
    return env


@dataclass
class Environment:
    """Named signals sampled by ``input(channel)`` operations.

    ``read`` is the single entry point the runtime uses.  Reads are pure:
    the environment holds no mutable state, so continuous and intermittent
    executions observing the same logical times see the same world -- the
    property the paper's correctness definitions quantify over.
    """

    signals: dict[str, Signal] = field(default_factory=dict)

    def bind(self, channel: str, signal: Signal) -> "Environment":
        self.signals[channel] = signal
        return self

    def read(self, channel: str, tau: int) -> int:
        try:
            signal = self.signals[channel]
        except KeyError:
            raise KeyError(
                f"environment has no signal for channel '{channel}'"
            ) from None
        return signal(tau)

    def shifted(self, offset: int) -> "Environment":
        """A view of this environment advanced by ``offset`` cycles."""
        if offset == 0:
            return self
        return Environment(
            {ch: phase_shifted(sig, offset) for ch, sig in self.signals.items()}
        )

    def period(self) -> Optional[int]:
        """The exact period of the whole environment, if every signal has one.

        The least common multiple of the per-signal periods: after
        ``period()`` cycles every channel provably repeats, so two logical
        times congruent modulo it see identical worlds.  ``None`` when any
        signal is aperiodic (a random walk, a nonzero ramp) -- then no two
        distinct times are provably equivalent.
        """
        periods = [signal_period(sig) for sig in self.signals.values()]
        if not periods or any(p is None for p in periods):
            return None
        return math.lcm(*periods)

    def segment_token(self, tau: int) -> int:
        """Quantize ``tau`` to this environment's repeating segment.

        The fleet memoizer's environment-time key: two activations whose
        tokens agree are guaranteed to sample identical values at every
        relative offset.  Aperiodic environments get the identity mapping
        (absolute ``tau``), which never produces a false equivalence.
        """
        period = self.period()
        return tau if period is None else tau % period

    @staticmethod
    def constant_for(channels: list[str], value: int = 0) -> "Environment":
        """An environment answering ``value`` on every listed channel."""
        return Environment({ch: constant(value) for ch in channels})
