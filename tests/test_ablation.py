"""Ablations of the design choices the cost model and supply rest on.

* **Undo-log cost ablation**: CEM's Atomics-only overhead is driven by the
  per-nonvolatile-word undo-log cost; sweeping it shows the Figure 7
  blowup is a property of backing the big structure, not an artifact.
* **Boot-level jitter ablation**: deterministic refill correlates failure
  phase with program phase; jitter decorrelates, which is what makes the
  Table 2b rates meaningful.
* **Flattening ablation**: nested regions add only counter bookkeeping
  (Appendix H's Atom-Start-Inner), not checkpoint cost.
"""

from dataclasses import replace

from repro.apps import BENCHMARKS
from repro.core.pipeline import compile_source
from repro.eval.profiles import EnergyProfile
from repro.runtime.harness import run_activations, run_continuous
from repro.runtime.supply import ContinuousPower
from repro.sensors.environment import Environment


def cem_atomics_ratio(costs):
    meta = BENCHMARKS["cem"]
    cycles = {}
    for config in ("jit", "atomics"):
        compiled = compile_source(meta.source, config)
        result = run_activations(
            compiled,
            meta.env_factory(0),
            ContinuousPower(),
            budget_cycles=10**12,
            costs=costs,
            max_activations=8,
        )
        cycles[config] = result.cycles_on / len(result.records)
    return cycles["atomics"] / cycles["jit"]


def test_undo_log_cost_drives_cem_blowup():
    base = BENCHMARKS["cem"].cost_model()
    cheap = cem_atomics_ratio(replace(base, region_per_nv_word=0))
    expensive = cem_atomics_ratio(replace(base, region_per_nv_word=6))
    assert cheap < 1.4, f"free undo log still slow: {cheap:.2f}"
    assert expensive > 2.5, f"expensive undo log too cheap: {expensive:.2f}"
    assert expensive > cheap * 1.8


def test_boot_jitter_decorrelates_failures():
    meta = BENCHMARKS["greenhouse"]
    compiled = compile_source(meta.source, "jit")

    def measure(boot):
        profile = EnergyProfile(boot_fraction=boot)
        rates = []
        for seed in (1, 2, 3):
            outcome = run_activations(
                compiled,
                meta.env_factory(0),
                profile.make_supply(seed=seed),
                budget_cycles=100_000,
                costs=meta.cost_model(),
            )
            rates.append(outcome.violation_rate)
        return sum(rates) / len(rates)

    deterministic, jittered = measure((1.0, 1.0)), measure((0.65, 1.0))
    # Jitter must not hide violations; typically it exposes more phases.
    assert jittered >= 0.0
    assert jittered >= deterministic - 0.05


def test_nested_region_flattening_is_cheap():
    nested = "fn main() { atomic { atomic { atomic { work(50); } } } }"
    flat = "fn main() { atomic { work(50); } }"
    cycles = {}
    for tag, src in (("nested", nested), ("flat", flat)):
        compiled = compile_source(src, "ocelot")
        result = run_continuous(compiled, Environment())
        cycles[tag] = result.stats.cycles_on
    # Inner start/end pairs cost only counter bookkeeping.
    assert cycles["nested"] - cycles["flat"] <= 8
