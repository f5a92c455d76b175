"""Tour of the campaign engine: declarative sweeps over the evaluation grid.

A campaign describes apps x configs x environments x supplies x seeds as
data, expands it into a job matrix, executes it through a pluggable
executor, and aggregates per-job results.  Programs compile once per
campaign through the shared compile cache.

Run with::

    PYTHONPATH=src python examples/campaign_tour.py
"""

from repro.core.cache import GLOBAL_CACHE
from repro.eval.campaign import (
    CampaignExecutor,
    CampaignSpec,
    EnvironmentSpec,
    SupplySpec,
    run_campaign,
)


def main() -> None:
    spec = CampaignSpec(
        name="tour",
        apps=("greenhouse", "tire"),
        configs=("ocelot", "jit"),
        environments=(
            EnvironmentSpec("default", env_seed=0),
            # Same world, but with the humidity channel pinned by an
            # override -- the textual signal grammar of `--set`.
            EnvironmentSpec("dry", env_seed=0, overrides=(("hum", "20"),)),
        ),
        supplies=(SupplySpec.from_profile(seed_offset=23),),
        seeds=(0,),
        budget_cycles=60_000,
    )
    print(f"grid: {spec.size} jobs "
          f"({len(spec.apps)} apps x {len(spec.configs)} configs x "
          f"{len(spec.environments)} environments)")

    result = run_campaign(spec, CampaignExecutor(processes=1))
    print(result.table().render_text())
    print()

    # Individual jobs are addressable and JSON-ready.
    job = result.job("greenhouse/jit/default/harvest/s0")
    print(f"greenhouse/jit: {job.completed_runs} runs, "
          f"{job.violating_runs} violating "
          f"({job.fresh_violations} fresh / "
          f"{job.consistent_violations} consistent violations)")

    # The compile cache did the heavy lifting once per (app, config).
    stats = GLOBAL_CACHE.stats
    print(f"compile cache: {stats.compiles} compiles, {stats.hits} hits")

    # A second run reuses every build.
    again = run_campaign(spec)
    assert again.compiles == 0
    assert again.fingerprint() == result.fingerprint()
    print("second run: zero recompiles, identical results")


if __name__ == "__main__":
    main()
