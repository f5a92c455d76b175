"""Harvest sources: how fast the capacitor recharges while the node is off.

The paper harvests RF from a PowerCast transmitter 10 inches away; the
off-time between bursts is "dictated by the physical environment"
(Section 7.2).  We model a harvester as a seeded source of charging rates:
given the energy deficit, it answers how many cycles of off-time pass
before the node can boot again.

Determinism: every harvester is a pure function of its seed and call
index, so whole experiments replay bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass
class ConstantHarvester:
    """Fixed charging rate: ``rate`` energy units per kilocycle."""

    rate_per_kilocycle: int

    def off_cycles(self, deficit: int) -> int:
        if self.rate_per_kilocycle <= 0:
            raise ValueError("harvest rate must be positive")
        return max(1, (deficit * 1000) // self.rate_per_kilocycle)

    def spawn(self, seed: int) -> "ConstantHarvester":
        """A fresh harvester with the same rate (deterministic, no RNG)."""
        return ConstantHarvester(self.rate_per_kilocycle)

    def memo_token(self):
        """Hashable identity of future behavior: the rate alone."""
        return ("const", self.rate_per_kilocycle)

    def memo_capture(self):
        """Mutable state snapshot for memo replay; nothing to capture."""
        return None

    def memo_restore(self, state) -> None:
        """Apply a captured snapshot; stateless, so nothing to do."""


@dataclass
class NoisyHarvester:
    """RF-like harvester: base rate with multiplicative seeded jitter.

    Jitter spans ``[1/spread, spread]`` around the base rate, drawn from a
    seeded RNG -- successive power failures see different off-times, which
    is what makes intermittent violation timing vary (Table 2b).
    """

    rate_per_kilocycle: int
    seed: int = 0
    spread: float = 3.0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rate_per_kilocycle <= 0:
            raise ValueError("harvest rate must be positive")
        if self.spread < 1.0:
            raise ValueError("spread must be >= 1")
        self._rng = random.Random(self.seed)

    def off_cycles(self, deficit: int) -> int:
        factor = self._rng.uniform(1.0 / self.spread, self.spread)
        effective = max(1.0, self.rate_per_kilocycle * factor)
        return max(1, int(deficit * 1000 / effective))

    def spawn(self, seed: int) -> "NoisyHarvester":
        """A fresh harvester with the same rate/spread on stream ``seed``.

        Fleet simulations derive one such seed per device from the fleet
        root seed, so every device sees an independent but reproducible
        off-time sequence.
        """
        return NoisyHarvester(
            self.rate_per_kilocycle, seed=seed, spread=self.spread
        )

    def memo_token(self):
        """Hashable identity of future behavior.

        With ``spread == 1.0`` the jitter factor is identically 1.0 --
        the RNG is drawn but its value cannot influence any off-time --
        so the stream position is excluded and devices on different
        per-device seeds still compare equal.  A real spread folds the
        exact RNG state in: only a device at the *same* stream position
        provably repeats.
        """
        if self.spread == 1.0:
            return ("noisy", self.rate_per_kilocycle, 1.0)
        return (
            "noisy",
            self.rate_per_kilocycle,
            self.spread,
            self._rng.getstate(),
        )

    def memo_capture(self):
        """Snapshot the jitter stream position for memo replay."""
        return self._rng.getstate()

    def memo_restore(self, state) -> None:
        """Rewind the jitter stream to a captured position."""
        self._rng.setstate(state)


@dataclass
class TraceHarvester:
    """Replay a fixed sequence of off-times (cycles), wrapping around.

    Useful for regression tests that need exact, hand-picked gaps.
    """

    off_times: list[int]
    _idx: int = 0

    def off_cycles(self, deficit: int) -> int:
        if not self.off_times:
            raise ValueError("empty off-time trace")
        value = self.off_times[self._idx % len(self.off_times)]
        self._idx += 1
        return max(1, value)

    def spawn(self, seed: int) -> "TraceHarvester":
        """A fresh replay of the same trace, rewound to the start."""
        return TraceHarvester(list(self.off_times))

    def memo_token(self):
        """Hashable identity: the trace plus the replay position."""
        return ("trace", tuple(self.off_times), self._idx)

    def memo_capture(self):
        """Snapshot the replay position for memo replay."""
        return self._idx

    def memo_restore(self, state) -> None:
        """Rewind/advance the replay position to a captured snapshot."""
        self._idx = state
