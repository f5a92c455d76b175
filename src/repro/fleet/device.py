"""Device materialization: from declarative :class:`DeviceSpec` to a
runnable :class:`~repro.runtime.harness.ActivationStepper`.

Builds are shared: every device of a class resolves its program through
the process-wide compile cache, so a thousand identical tire monitors
cost one compile.  Supplies are shared *structurally*: one prototype
supply is built per distinct supply shape and then :meth:`spawn`-ed per
device, which re-derives only the RNG streams -- the cheap per-device
re-seeding path the energy layer provides.  Both fleet executors build a
device's environment and supply here, so they cannot drift apart.
"""

from __future__ import annotations

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.eval.campaign import SupplySpec
from repro.fleet.spec import DeviceSpec
from repro.runtime.engine import ENGINE_FAST
from repro.runtime.harness import ActivationStepper
from repro.runtime.supply import PowerSupply
from repro.sensors.environment import Environment, bind_signal_specs


class DeviceFactory:
    """Builds devices, reusing compiled programs and supply prototypes.

    One factory lives per worker process (or per serial run); its caches
    are keyed by value (benchmark name, config name, supply spec), so two
    factories in different processes materialize identical devices.
    """

    def __init__(self, engine: str = ENGINE_FAST) -> None:
        self.engine = engine
        self._supply_protos: dict[SupplySpec, PowerSupply] = {}

    def environment(self, spec: DeviceSpec) -> Environment:
        """The device's world: its app's environment, overridden, shifted."""
        env = BENCHMARKS[spec.app].env_factory(spec.env_seed)
        if spec.env_overrides:
            bind_signal_specs(env, spec.env_overrides)
        return env.shifted(spec.phase)

    def supply(self, spec: DeviceSpec) -> PowerSupply:
        """A fresh supply on the device's own stream.

        Spawned from one prototype per distinct supply spec.
        """
        proto = self._supply_protos.get(spec.supply)
        if proto is None:
            proto = spec.supply.build(0)
            self._supply_protos[spec.supply] = proto
        return proto.spawn(spec.seed + spec.supply.seed_offset)

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
