"""Device materialization: from declarative :class:`DeviceSpec` to a
runnable :class:`~repro.runtime.harness.ActivationStepper`.

Builds are shared: every device of a class resolves its program through
the process-wide compile cache, so a thousand identical tire monitors
cost one compile.  Supplies are shared *structurally*: one prototype
supply is built per supply geometry -- the supply spec less its harvest
rate, which harvest jitter draws per device -- and then :meth:`spawn`-ed
per device, which re-derives only the RNG streams (the cheap per-device
re-seeding path the energy layer provides), and given the device's own
rate.  Both fleet executors build a device's environment and supply
here, so they cannot drift apart.
"""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.eval.campaign import SUPPLY_HARVEST, SupplySpec
from repro.fleet.spec import DeviceSpec
from repro.runtime.engine import ENGINE_FAST
from repro.runtime.harness import ActivationStepper
from repro.runtime.supply import PowerSupply
from repro.sensors.environment import Environment, bind_signal_specs

#: A supply spec's geometry: every field but the harvest rate.
_geometry = attrgetter(
    *(f.name for f in fields(SupplySpec) if f.name != "harvest_rate")
)


class DeviceFactory:
    """Builds devices, reusing compiled programs and supply prototypes.

    One factory lives per worker process (or per serial run); its caches
    are keyed by value (benchmark name, config name, supply geometry),
    so two factories in different processes materialize identical
    devices.
    """

    def __init__(self, engine: str = ENGINE_FAST) -> None:
        self.engine = engine
        self._supply_protos: dict[tuple, PowerSupply] = {}

    def environment(self, spec: DeviceSpec) -> Environment:
        """The device's world: its app's environment, overridden, shifted."""
        env = BENCHMARKS[spec.app].env_factory(spec.env_seed)
        if spec.env_overrides:
            bind_signal_specs(env, spec.env_overrides)
        return env.shifted(spec.phase)

    def supply(self, spec: DeviceSpec) -> PowerSupply:
        """A fresh supply on the device's own stream, at its own rate.

        Spawned from one prototype per supply geometry.  Spawning keeps
        the prototype's configuration and derives every stream from the
        seed alone, so with the device's harvest rate set the supply
        equals ``spec.supply.build(0).spawn(spec.seed +
        spec.supply.seed_offset)``.
        """
        shape = spec.supply
        geometry = _geometry(shape)
        proto = self._supply_protos.get(geometry)
        if proto is None:
            proto = self._supply_protos[geometry] = shape.build(0)
        supply = proto.spawn(spec.seed + shape.seed_offset)
        if shape.kind == SUPPLY_HARVEST:
            supply.harvester.rate_per_kilocycle = shape.harvest_rate
        return supply

    def build(self, spec: DeviceSpec) -> ActivationStepper:
        """The device's activation loop, at its first activation."""
        meta = BENCHMARKS[spec.app]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, spec.config)
        return ActivationStepper(
            compiled,
            self.environment(spec),
            self.supply(spec),
            budget_cycles=spec.budget_cycles,
            costs=meta.cost_model(),
            max_activations=spec.max_activations,
            engine=self.engine,
        )
