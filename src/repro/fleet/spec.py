"""Declarative fleet specifications: N devices as data.

A :class:`FleetSpec` describes a heterogeneous population of
intermittently-powered devices the way a
:class:`~repro.eval.campaign.CampaignSpec` describes an evaluation grid:
JSON-loadable, picklable, and expandable into per-device work units.  The
unit of heterogeneity is the :class:`DeviceClass` -- "1000 tire monitors
built with the ocelot config, NoisyHarvester rates drawn from a seeded
±50% band, environments phase-shifted per device" is one class entry --
and :meth:`FleetSpec.expand` stamps it into :class:`DeviceSpec` rows,
one per physical device, every per-device parameter derived
deterministically from the fleet's single root seed.

Reuses the campaign engine's :class:`EnvironmentSpec` and
:class:`SupplySpec` axes so the same environment-override grammar and
supply profiles describe both sweeps and fleets.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace

from repro.apps import BENCHMARKS
from repro.core.passes import BuildConfig, ensure_registered
from repro.energy.seeds import SEED_SCHEME, derive_seed
from repro.eval.campaign import EnvironmentSpec, SupplySpec
from repro.eval.profiles import STANDARD_BUDGET_CYCLES


class FleetError(ValueError):
    """A malformed fleet spec (unknown app, bad count, bad jitter, ...)."""


def _normalize_config(config: str | BuildConfig) -> str:
    try:
        name = ensure_registered(config)
    except ValueError as exc:
        raise FleetError(str(exc)) from None
    return name if isinstance(config, BuildConfig) else config


@dataclass(frozen=True)
class DeviceClass:
    """One homogeneous slice of the fleet, described by data only.

    ``count`` devices share an (app, config, environment, supply) shape;
    the jitter knobs make the population heterogeneous *within* the
    class, each device's draw seeded from the fleet root seed:

    * ``harvest_jitter`` -- each device's harvest rate is drawn uniformly
      from ``rate * [1 - j, 1 + j]`` (RF shadowing: some nodes sit closer
      to the transmitter than others);
    * ``phase_jitter`` -- each device's environment is advanced by a
      per-device offset in ``[0, phase_jitter)`` cycles, de-correlating
      signal epochs across the fleet;
    * ``env_seed_stride`` -- device ``i`` builds its environment from
      ``env_seed + i * stride`` (distinct worlds, not just phases).
    """

    name: str
    app: str
    config: str = "ocelot"
    count: int = 1
    environment: EnvironmentSpec = EnvironmentSpec()
    supply: SupplySpec = SupplySpec()
    harvest_jitter: float = 0.0
    phase_jitter: int = 0
    env_seed_stride: int = 0
    budget_cycles: int | None = None
    max_activations: int | None = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise FleetError(f"class '{self.name}': count must be >= 0")
        if not isinstance(self.supply, SupplySpec):
            # Executors key their memo on the hooks of the supplies a
            # SupplySpec builds; a foreign supply object has no such
            # guarantee.
            raise FleetError(
                f"class '{self.name}': supply must be a SupplySpec, "
                f"not {type(self.supply).__name__}"
            )
        if self.app not in BENCHMARKS:
            known = ", ".join(BENCHMARKS)
            raise FleetError(
                f"class '{self.name}': unknown app '{self.app}'; known: {known}"
            )
        object.__setattr__(self, "config", _normalize_config(self.config))
        if not 0.0 <= self.harvest_jitter < 1.0:
            raise FleetError(
                f"class '{self.name}': harvest_jitter must be in [0, 1)"
            )
        if self.phase_jitter < 0:
            raise FleetError(
                f"class '{self.name}': phase_jitter must be >= 0"
            )
        if self.env_seed_stride < 0:
            # Negative strides drive env seeds negative, which the apps'
            # environment factories reject only deep inside a worker.
            raise FleetError(
                f"class '{self.name}': env_seed_stride must be >= 0"
            )

    def to_dict(self) -> dict:
        data: dict = {
            "name": self.name,
            "app": self.app,
            "config": self.config,
            "count": self.count,
            "environment": self.environment.to_dict(),
            "supply": self.supply.to_dict(),
        }
        if self.harvest_jitter:
            data["harvest_jitter"] = self.harvest_jitter
        if self.phase_jitter:
            data["phase_jitter"] = self.phase_jitter
        if self.env_seed_stride:
            data["env_seed_stride"] = self.env_seed_stride
        if self.budget_cycles is not None:
            data["budget_cycles"] = self.budget_cycles
        if self.max_activations is not None:
            data["max_activations"] = self.max_activations
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DeviceClass":
        try:
            environment = EnvironmentSpec.from_dict(
                data.get("environment", {"name": "default"})
            )
            supply = SupplySpec.from_dict(
                data.get("supply", {"name": "harvest"})
            )
        except (TypeError, ValueError) as exc:
            raise FleetError(
                f"class '{data.get('name', '?')}': {exc}"
            ) from None
        return cls(
            name=data["name"],
            app=data["app"],
            config=data.get("config", "ocelot"),
            count=int(data.get("count", 1)),
            environment=environment,
            supply=supply,
            harvest_jitter=float(data.get("harvest_jitter", 0.0)),
            phase_jitter=int(data.get("phase_jitter", 0)),
            env_seed_stride=int(data.get("env_seed_stride", 0)),
            budget_cycles=(
                int(data["budget_cycles"])
                if data.get("budget_cycles") is not None
                else None
            ),
            max_activations=(
                int(data["max_activations"])
                if data.get("max_activations") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class DeviceSpec:
    """One physical device, fully determined by primitives.

    Everything a worker process needs to materialize and run the device:
    which build to fetch from the compile cache, how to construct its
    environment (seed + overrides + phase), and its supply parameters
    (already jittered -- the per-device harvest-rate draw happens at
    expansion time so a spec pickles as plain data and shards produce
    the same device regardless of which process runs it).
    """

    device_id: str
    class_name: str
    app: str
    config: str
    index: int
    seed: int
    env_seed: int
    env_overrides: tuple[tuple[str, str], ...]
    phase: int
    supply: SupplySpec
    budget_cycles: int
    max_activations: int


@dataclass(frozen=True)
class FleetSpec:
    """A whole fleet: device classes plus fleet-wide defaults."""

    classes: tuple[DeviceClass, ...]
    fleet_seed: int = 0
    budget_cycles: int = STANDARD_BUDGET_CYCLES
    max_activations: int = 100_000
    name: str = "fleet"

    def __post_init__(self) -> None:
        if not self.classes:
            raise FleetError("fleet needs at least one device class")
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise FleetError(f"duplicate device class names: {names}")
        if self.budget_cycles <= 0:
            raise FleetError("budget_cycles must be positive")

    @property
    def device_count(self) -> int:
        return sum(c.count for c in self.classes)

    def with_total_devices(self, total: int) -> "FleetSpec":
        """Rescale class counts so the fleet has exactly ``total`` devices.

        Apportions proportionally to the spec's counts with the
        largest-remainder method (deterministic: remainder ties break by
        class order), so ``--devices N`` scales a population without
        distorting its class mix.
        """
        if total < 0:
            raise FleetError("device total must be >= 0")
        weights = [c.count for c in self.classes]
        weight_sum = sum(weights)
        if weight_sum == 0:
            raise FleetError("cannot rescale a fleet with zero devices")
        quotas = [total * w / weight_sum for w in weights]
        counts = [int(q) for q in quotas]
        remainders = sorted(
            range(len(quotas)),
            key=lambda i: (-(quotas[i] - counts[i]), i),
        )
        for i in remainders[: total - sum(counts)]:
            counts[i] += 1
        return replace(
            self,
            classes=tuple(
                replace(cls, count=n)
                for cls, n in zip(self.classes, counts, strict=True)
            ),
        )

    def expand(self) -> list[DeviceSpec]:
        """Stamp every class into per-device specs, in class order.

        Per-device randomness (rate jitter, phase) comes from streams
        derived from ``(fleet_seed, class, index)``, so the expansion is
        a pure function of the spec: re-running, resuming, and sharding
        all see identical devices.
        """
        devices: list[DeviceSpec] = []
        for cls in self.classes:
            budget = (
                cls.budget_cycles
                if cls.budget_cycles is not None
                else self.budget_cycles
            )
            max_acts = (
                cls.max_activations
                if cls.max_activations is not None
                else self.max_activations
            )
            for index in range(cls.count):
                seed = derive_seed(self.fleet_seed, cls.name, index)
                supply = cls.supply
                if cls.harvest_jitter and supply.kind == "harvest":
                    rng = random.Random(derive_seed(seed, "rate"))
                    factor = rng.uniform(
                        1.0 - cls.harvest_jitter, 1.0 + cls.harvest_jitter
                    )
                    supply = replace(
                        supply,
                        harvest_rate=max(1, round(supply.harvest_rate * factor)),
                    )
                phase = 0
                if cls.phase_jitter:
                    rng = random.Random(derive_seed(seed, "phase"))
                    phase = rng.randrange(cls.phase_jitter)
                devices.append(
                    DeviceSpec(
                        device_id=f"{cls.name}/d{index}",
                        class_name=cls.name,
                        app=cls.app,
                        config=cls.config,
                        index=index,
                        seed=seed,
                        env_seed=cls.environment.env_seed
                        + index * cls.env_seed_stride,
                        env_overrides=cls.environment.overrides,
                        phase=phase,
                        supply=supply,
                        budget_cycles=budget,
                        max_activations=max_acts,
                    )
                )
        return devices

    def fingerprint(self) -> str:
        """Content hash binding checkpoints to the exact fleet they ran.

        The seed-derivation scheme version is folded in: every device
        stream derives from ``derive_seed``, so a checkpoint written
        under an older scheme must be rejected on resume rather than
        silently mixing old-stream and new-stream devices in one
        aggregate.
        """
        payload = json.dumps(
            {"seed_scheme": SEED_SCHEME, "spec": self.to_dict()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "fleet_seed": self.fleet_seed,
            "budget_cycles": self.budget_cycles,
            "max_activations": self.max_activations,
            "classes": [c.to_dict() for c in self.classes],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        raw_classes = data.get("classes")
        if not isinstance(raw_classes, list) or not raw_classes:
            raise FleetError("fleet spec needs a non-empty 'classes' list")
        try:
            classes = tuple(DeviceClass.from_dict(c) for c in raw_classes)
            return cls(
                classes=classes,
                fleet_seed=int(data.get("fleet_seed", 0)),
                budget_cycles=int(
                    data.get("budget_cycles", STANDARD_BUDGET_CYCLES)
                ),
                max_activations=int(data.get("max_activations", 100_000)),
                name=data.get("name", "fleet"),
            )
        except FleetError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FleetError(f"malformed fleet spec: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "FleetSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FleetError(f"fleet spec is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise FleetError("fleet spec must be a JSON object")
        return cls.from_dict(data)
