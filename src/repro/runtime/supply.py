"""Power supplies: when does power fail, and for how long.

Three implementations cover the paper's three experimental regimes:

* :class:`ContinuousPower` -- never fails (Figure 7),
* :class:`ScheduledFailures` -- pathological injection at chosen dynamic
  instruction occurrences (Table 2a: "immediately before the use of a
  fresh variable and between input operations in a consistent set"),
* :class:`EnergyDrivenSupply` -- capacitor + harvester + comparator
  (Figure 8 and Table 2b).

The executor consults ``fail_before`` ahead of each instruction (simulated
failure points) and ``consume`` after each instruction (energy-driven low
signal); both deliver the low-power interrupt of Section 6.3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol

from repro.analysis.provenance import Chain
from repro.energy.capacitor import Capacitor
from repro.energy.seeds import derive_seed
from repro.ir.instructions import InstrId


class PowerSupply(Protocol):
    """What the executor needs from a power model."""

    def fail_before(self, uid: InstrId, chain: Chain | None = None) -> bool:
        """Force a power failure just before executing ``uid``?

        ``chain`` is the dynamic provenance of the instruction, supplied
        by the executor when the instruction is one of the supply's
        ``watched_uids`` (scheduled injection); energy-driven supplies
        ignore it.
        """
        ...

    def consume(self, energy: int) -> bool:
        """Account for ``energy``; True when the low-power comparator trips."""
        ...

    def would_trip(self, energy: int) -> bool:
        """Would spending ``energy`` cross the comparator point?

        The hardware comparator is asynchronous: it fires *during* a long
        operation.  The executor asks before each instruction and takes
        the low-power interrupt first, so the reserve band is never
        consumed by regular execution.
        """
        ...

    def checkpoint_energy(self, energy: int) -> None:
        """Spend checkpoint energy from the post-interrupt reserve."""
        ...

    def off_and_recharge(self) -> int:
        """Power off; return the off-time (cycles) until reboot."""
        ...

    # Memoization hooks.  Every supply a ``SupplySpec`` builds must
    # implement them; the fleet memoizer calls them directly.
    # ``memo_token`` is a hashable identity of everything the supply's
    # future answers can depend on, so equal tokens mean equal futures;
    # ``memo_capture``/``memo_restore`` snapshot and reapply the mutable
    # state behind it.
    #
    # def memo_token(self) -> Hashable: ...
    # def memo_capture(self) -> object: ...
    # def memo_restore(self, state: object) -> None: ...


@dataclass
class ContinuousPower:
    """Wall power: never fails."""

    def fail_before(self, uid: InstrId, chain: Chain | None = None) -> bool:
        return False

    def consume(self, energy: int) -> bool:
        return False

    def would_trip(self, energy: int) -> bool:
        return False

    def checkpoint_energy(self, energy: int) -> None:  # pragma: no cover
        raise AssertionError("continuous power never checkpoints")

    def off_and_recharge(self) -> int:  # pragma: no cover
        raise AssertionError("continuous power never reboots")

    def spawn(self, seed: int) -> "ContinuousPower":
        """Wall power has no state; every device gets an equivalent one."""
        return ContinuousPower()

    def memo_token(self):
        """Hashable identity of future behavior; wall power never varies."""
        return ("wall",)

    def memo_capture(self):
        """Mutable-state snapshot for memo replay; wall power has none."""
        return None

    def memo_restore(self, state) -> None:
        """Apply a captured snapshot; stateless, so nothing to do."""


@dataclass(frozen=True)
class FailurePoint:
    """Fail immediately before a chosen dynamic execution point.

    Either an ``occurrence`` of a static instruction ``uid`` (1-based,
    counted across the whole run including post-reboot re-executions), or
    a context-qualified ``chain`` (fails the first time that exact dynamic
    site executes -- the natural unit for detector check sites).  A point
    that has fired is never re-armed; otherwise a JIT resume at the same
    instruction would fail forever.
    """

    uid: InstrId | None = None
    occurrence: int = 1
    chain: Chain | None = None

    def __post_init__(self) -> None:
        if (self.uid is None) == (self.chain is None):
            raise ValueError("exactly one of uid / chain must be given")

    @property
    def trigger_uid(self) -> InstrId:
        return self.uid if self.uid is not None else self.chain.op


@dataclass
class ScheduledFailures:
    """Deterministic failure injection at specific dynamic points."""

    points: list[FailurePoint]
    off_cycles: int = 10_000
    _counts: dict[InstrId, int] = field(default_factory=dict)
    _fired: set[FailurePoint] = field(default_factory=set)

    def watched_uids(self) -> frozenset[InstrId]:
        """Instructions the executor should report chains for."""
        return frozenset(p.trigger_uid for p in self.points)

    def fail_before(self, uid: InstrId, chain: Chain | None = None) -> bool:
        relevant = [
            p
            for p in self.points
            if p.trigger_uid == uid and p not in self._fired
        ]
        if not relevant:
            return False
        count = self._counts.get(uid, 0) + 1
        self._counts[uid] = count
        for point in relevant:
            if point.chain is not None:
                if chain is not None and chain == point.chain:
                    self._fired.add(point)
                    return True
            elif point.occurrence == count:
                self._fired.add(point)
                return True
        return False

    def consume(self, energy: int) -> bool:
        return False

    def would_trip(self, energy: int) -> bool:
        return False

    def checkpoint_energy(self, energy: int) -> None:
        pass  # simulated failures have ideal reserve

    def off_and_recharge(self) -> int:
        return self.off_cycles

    @property
    def all_fired(self) -> bool:
        return len(self._fired) == len(set(self.points))

    def spawn(self, seed: int) -> "ScheduledFailures":
        """A fresh injection schedule: same points, all re-armed.

        Injection is deterministic, so ``seed`` is unused; the parameter
        keeps the spawn signature uniform across supply kinds, letting a
        fleet derive per-device supplies without caring which kind a
        device class uses.
        """
        return ScheduledFailures(list(self.points), off_cycles=self.off_cycles)

    def memo_token(self):
        """Hashable identity of future behavior: the *armed* schedule only.

        Every future answer depends on the points that have not fired
        yet, the occurrence counters of the uids those armed points
        watch, and the off time.  Fired points and counters for uids
        with no armed point can never influence another answer
        (``fail_before`` returns without touching state when nothing
        armed matches the uid), so both are excluded -- the
        schedule-cursor quantization the fleet memoizer relies on:
        devices that reached the same armed state through different
        firing histories compare equal.
        """
        armed = tuple(p for p in self.points if p not in self._fired)
        watched = {p.trigger_uid for p in armed}
        return (
            "sched",
            armed,
            self.off_cycles,
            tuple(
                (uid, count)
                for uid, count in sorted(self._counts.items())
                if uid in watched
            ),
        )

    def memo_capture(self):
        """Snapshot the firing bookkeeping for memo replay."""
        return (dict(self._counts), set(self._fired))

    def memo_restore(self, state) -> None:
        """Apply a captured firing-bookkeeping snapshot."""
        counts, fired = state
        self._counts = dict(counts)
        self._fired = set(fired)


class Harvester(Protocol):
    def off_cycles(self, deficit: int) -> int: ...

    def spawn(self, seed: int) -> "Harvester": ...

    def memo_token(self): ...

    def memo_capture(self): ...

    def memo_restore(self, state) -> None: ...


@dataclass
class EnergyDrivenSupply:
    """Capacitor drained by execution, refilled by a harvester while off.

    ``boot_fraction`` randomizes the storage level at which the node boots
    after an off period: bursty ambient energy means the firmware's boot
    comparator fires anywhere between a floor and a full capacitor.  This
    de-correlates power-failure phase from program phase, which matters
    for the Table 2b violation-rate experiment (a deterministic refill
    makes failures land at a fixed program offset forever).  The floor is
    clamped so the post-boot usable window still fits the largest atomic
    region (the Section 5.3 feasibility requirement).
    """

    capacitor: Capacitor
    harvester: Harvester
    boot_fraction: tuple[float, float] = (1.0, 1.0)
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lo, hi = self.boot_fraction
        if not 0.0 < lo <= hi <= 1.0:
            raise ValueError("boot_fraction must satisfy 0 < lo <= hi <= 1")
        self._rng = random.Random(self.seed)

    def fail_before(self, uid: InstrId, chain: Chain | None = None) -> bool:
        return False

    def consume(self, energy: int) -> bool:
        return self.capacitor.drain(energy)

    def would_trip(self, energy: int) -> bool:
        return self.capacitor.level - energy <= self.capacitor.low_threshold

    def checkpoint_energy(self, energy: int) -> None:
        self.capacitor.drain_reserve(energy)

    def off_and_recharge(self) -> int:
        before = max(0, self.capacitor.level)
        deficit = self.capacitor.refill()
        lo, hi = self.boot_fraction
        if hi > lo:
            fraction = self._rng.uniform(lo, hi)
            usable_span = self.capacitor.capacity - self.capacitor.low_threshold
            target = self.capacitor.low_threshold + int(fraction * usable_span)
            self.capacitor.level = max(target, self.capacitor.low_threshold + 1)
            deficit = max(1, self.capacitor.level - before)
        return self.harvester.off_cycles(deficit)

    def spawn(self, seed: int) -> "EnergyDrivenSupply":
        """A fresh, fully-charged supply on device stream ``seed``.

        The new supply copies this one's physical configuration (capacitor
        geometry, harvester kind and rate, boot comparator band) but draws
        its boot and harvest randomness from streams derived from ``seed``,
        so a fleet can stamp out thousands of statistically independent
        devices from one prototype and one root seed -- cheaper and less
        error-prone than rebuilding each supply from a profile.
        """
        return EnergyDrivenSupply(
            capacitor=Capacitor(
                self.capacitor.capacity, self.capacitor.low_threshold
            ),
            harvester=self.harvester.spawn(derive_seed(seed, "harvest")),
            boot_fraction=self.boot_fraction,
            seed=derive_seed(seed, "boot"),
        )

    def memo_token(self):
        """Hashable identity of future behavior.

        Covers everything the supply's answers depend on: capacitor
        geometry and charge, the boot-comparator band, and -- only where
        randomness can actually influence an outcome -- the exact RNG
        stream positions.  A degenerate boot band (``lo == hi``) never
        draws, so its RNG is excluded and devices on different per-device
        seeds still compare equal; likewise the harvester excludes its
        stream when its jitter is degenerate.
        """
        lo, hi = self.boot_fraction
        boot = self._rng.getstate() if hi > lo else None
        return (
            "energy",
            self.capacitor.capacity,
            self.capacitor.low_threshold,
            self.capacitor.level,
            self.boot_fraction,
            boot,
            self.harvester.memo_token(),
        )

    def memo_capture(self):
        """Snapshot charge and stream positions for memo replay."""
        return (
            self.capacitor.level,
            self._rng.getstate(),
            self.harvester.memo_capture(),
        )

    def memo_restore(self, state) -> None:
        """Apply a captured snapshot (charge + stream positions)."""
        level, rng_state, harvester_state = state
        self.capacitor.level = level
        self._rng.setstate(rng_state)
        self.harvester.memo_restore(harvester_state)
