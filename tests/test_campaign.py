"""Campaign-engine tests: matrix expansion, executor parity, JSON I/O.

The acceptance sweep (3 apps x 3 configs x 2 environments) runs through
both the serial and the multiprocessing executor and must aggregate to
identical results, with the second run reusing every build from the
compile cache (zero recompiles).
"""

import json

import pytest

import repro.eval.campaign as campaign
from repro.core.cache import GLOBAL_CACHE, CompileCache
from repro.eval.campaign import (
    MODE_INJECTION,
    CampaignError,
    CampaignExecutor,
    CampaignResult,
    CampaignSpec,
    EnvironmentSpec,
    JobResult,
    SupplySpec,
    cells,
    execute_job,
    run_campaign,
)


def small_spec(**overrides) -> CampaignSpec:
    """The acceptance grid: 3 apps x 3 configs x 2 environments."""
    defaults = dict(
        name="acceptance",
        apps=("greenhouse", "tire", "cem"),
        configs=("ocelot", "jit", "atomics"),
        environments=(
            EnvironmentSpec("default", env_seed=0),
            EnvironmentSpec("shifted", env_seed=7),
        ),
        supplies=(SupplySpec.from_profile(seed_offset=23),),
        seeds=(0,),
        budget_cycles=60_000,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestExpansion:
    def test_matrix_size_is_product_of_axes(self):
        spec = small_spec(seeds=(0, 1))
        jobs = spec.expand()
        assert spec.size == 3 * 3 * 2 * 1 * 2
        assert len(jobs) == spec.size

    def test_job_ids_unique_and_descriptive(self):
        jobs = small_spec().expand()
        ids = [job.job_id for job in jobs]
        assert len(set(ids)) == len(ids)
        assert "greenhouse/ocelot/default/harvest/s0" in ids

    def test_jobs_inherit_campaign_knobs(self):
        spec = small_spec(budget_cycles=12_345, max_activations=7)
        for job in spec.expand():
            assert job.budget_cycles == 12_345
            assert job.max_activations == 7

    def test_unknown_app_rejected(self):
        with pytest.raises(CampaignError, match="unknown app"):
            small_spec(apps=("nonesuch",))

    def test_unknown_config_rejected(self):
        with pytest.raises(CampaignError, match="configuration"):
            small_spec(configs=("debug",))

    def test_unknown_mode_rejected(self):
        with pytest.raises(CampaignError, match="mode"):
            small_spec(mode="fuzz")

    def test_duplicate_environment_names_rejected(self):
        with pytest.raises(CampaignError, match="duplicate"):
            small_spec(
                environments=(
                    EnvironmentSpec("same", 0),
                    EnvironmentSpec("same", 1),
                )
            )


class TestSpecJson:
    def test_spec_round_trips(self):
        spec = small_spec(seeds=(0, 3))
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_apps_all_shorthand(self):
        from repro.apps import BENCHMARKS

        spec = CampaignSpec.from_dict({"apps": "all"})
        assert spec.apps == tuple(BENCHMARKS)

    def test_invalid_json_is_a_campaign_error(self):
        with pytest.raises(CampaignError, match="not valid JSON"):
            CampaignSpec.from_json("{nope")
        with pytest.raises(CampaignError, match="JSON object"):
            CampaignSpec.from_json("[1, 2]")

    def test_environment_overrides_round_trip(self):
        env = EnvironmentSpec("hot", 2, overrides=(("temp", "99"),))
        assert EnvironmentSpec.from_dict(env.to_dict()) == env

    def test_unknown_supply_field_is_a_campaign_error(self):
        spec = json.dumps({"apps": ["cem"], "supplies": [{"nme": "typo"}]})
        with pytest.raises(CampaignError, match="malformed campaign spec"):
            CampaignSpec.from_json(spec)

    def test_non_integer_field_is_a_campaign_error(self):
        spec = json.dumps({"apps": ["cem"], "budget_cycles": "lots"})
        with pytest.raises(CampaignError, match="malformed campaign spec"):
            CampaignSpec.from_json(spec)

    def test_non_list_seeds_is_a_campaign_error(self):
        spec = json.dumps({"apps": ["cem"], "seeds": 5})
        with pytest.raises(CampaignError, match="malformed campaign spec"):
            CampaignSpec.from_json(spec)


class TestExecution:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return run_campaign(small_spec(), CampaignExecutor())

    def test_every_job_reports(self, serial_result):
        assert len(serial_result.jobs) == small_spec().size
        for job in serial_result.jobs:
            assert job.activations > 0
            assert job.completed_runs > 0
            assert job.cycles_on > 0

    def test_ocelot_never_violates_jit_does(self, serial_result):
        by_cell = serial_result.by_cell()
        for (app, config), jobs in by_cell.items():
            if config in ("ocelot", "atomics"):
                assert all(j.violating_runs == 0 for j in jobs), (app, config)
        jit_violations = sum(
            j.violations for j in serial_result.jobs if j.config == "jit"
        )
        assert jit_violations > 0

    def test_violation_kinds_sum_to_total(self, serial_result):
        for job in serial_result.jobs:
            assert (
                job.fresh_violations + job.consistent_violations
                == job.violations
            )

    def test_environments_actually_differ(self, serial_result):
        # Distinct env seeds shift the sensed world, so at least one cell
        # must measure different cycle counts across the two environments.
        differing = 0
        by_cell = serial_result.by_cell()
        for jobs in by_cell.values():
            envs = {j.environment: j.cycles_on for j in jobs}
            if envs["default"] != envs["shifted"]:
                differing += 1
        assert differing > 0

    def test_serial_parallel_parity(self, serial_result):
        parallel = run_campaign(small_spec(), CampaignExecutor(processes=3))
        assert parallel.executor == "multiprocess"
        assert parallel.fingerprint() == serial_result.fingerprint()
        serial_agg = serial_result.aggregate()
        parallel_agg = parallel.aggregate()
        assert serial_agg == parallel_agg

    def test_cold_run_compiles_each_build_once(self, monkeypatch):
        monkeypatch.setattr(campaign, "GLOBAL_CACHE", CompileCache())
        spec = small_spec(environments=(EnvironmentSpec("default", env_seed=0),))
        result = run_campaign(spec, CampaignExecutor())
        assert result.compiles == len(spec.apps) * len(spec.configs)

    def test_cached_second_run_zero_recompiles(self, serial_result):
        before = GLOBAL_CACHE.stats.snapshot()
        again = run_campaign(small_spec(), CampaignExecutor())
        after = GLOBAL_CACHE.stats.snapshot()
        assert after["compiles"] == before["compiles"], "second run recompiled"
        assert again.compiles == 0
        assert all(job.compile_cached for job in again.jobs)
        assert again.fingerprint() == serial_result.fingerprint()

    def test_aggregate_sums_across_environments(self, serial_result):
        rows = {(r.app, r.config): r for r in serial_result.aggregate()}
        for (app, config), jobs in serial_result.by_cell().items():
            row = rows[(app, config)]
            assert row.jobs == len(jobs) == 2
            assert row.completed_runs == sum(j.completed_runs for j in jobs)
            assert row.violations == sum(j.violations for j in jobs)

    def test_result_json_round_trip(self, serial_result):
        restored = CampaignResult.from_json(serial_result.to_json())
        assert restored.fingerprint() == serial_result.fingerprint()
        assert restored.spec == serial_result.spec
        assert restored.executor == serial_result.executor
        # and the encoding is plain JSON all the way down
        json.loads(serial_result.to_json())

    def test_table_renders(self, serial_result):
        text = serial_result.table().render_text()
        assert "greenhouse" in text
        assert "serial executor" in text


class TestInjectionMode:
    def test_extra_supply_or_seed_axes_rejected(self):
        with pytest.raises(CampaignError, match="injection mode ignores"):
            CampaignSpec(apps=("cem",), mode=MODE_INJECTION, seeds=(0, 1))
        with pytest.raises(CampaignError, match="injection mode ignores"):
            CampaignSpec(
                apps=("cem",),
                mode=MODE_INJECTION,
                supplies=(SupplySpec(), SupplySpec.continuous()),
            )

    def test_injection_counts_reboots(self):
        spec = CampaignSpec(
            apps=("greenhouse",),
            configs=("jit",),
            supplies=(SupplySpec.continuous(),),
            mode=MODE_INJECTION,
            off_cycles=20_000,
        )
        job = run_campaign(spec).jobs[0]
        assert job.reboots >= job.injection_points

    def test_injection_reproduces_table2a_contract(self):
        spec = CampaignSpec(
            name="inject",
            apps=("greenhouse",),
            configs=("ocelot", "jit"),
            environments=(EnvironmentSpec(),),
            supplies=(SupplySpec.continuous(),),
            mode=MODE_INJECTION,
            off_cycles=20_000,
        )
        result = run_campaign(spec)
        by_cell = cells(result)
        ocelot = by_cell[("greenhouse", "ocelot")]
        jit = by_cell[("greenhouse", "jit")]
        assert jit.injection_points > 0
        assert jit.injection_violating == jit.injection_points
        assert ocelot.injection_violating == 0
        assert jit.injection_rate == 1.0
        assert ocelot.injection_rate == 0.0


class TestEnvironmentOverrides:
    def test_override_rebinds_channel(self):
        env = EnvironmentSpec(overrides=(("temp", "75"),)).build("greenhouse")
        assert env.read("temp", 0) == 75
        assert env.read("temp", 10_000) == 75

    def test_stepping_override(self):
        env = EnvironmentSpec(overrides=(("hum", "10,90:100"),)).build(
            "greenhouse"
        )
        assert env.read("hum", 0) == 10
        assert env.read("hum", 100) == 90

    def test_bad_override_rejected_at_spec_time(self):
        # A malformed override must fail when the spec is built, not in a
        # worker process mid-campaign.
        with pytest.raises(CampaignError, match="bad signal value"):
            EnvironmentSpec(overrides=(("temp", "hot"),))


class TestExecutors:
    def test_executor_names(self):
        assert CampaignExecutor().name == "serial"
        assert CampaignExecutor(processes=1).name == "serial"
        assert CampaignExecutor(processes=2).name == "multiprocess"

    def test_multiprocess_rejects_bad_process_count(self):
        with pytest.raises(ValueError):
            CampaignExecutor(processes=0)

    def test_single_job_runs_inline(self):
        spec = CampaignSpec(
            apps=("cem",),
            configs=("ocelot",),
            budget_cycles=30_000,
        )
        result = run_campaign(spec, CampaignExecutor(processes=4))
        assert len(result.jobs) == 1

    def test_job_is_pure_function_of_spec(self):
        job = small_spec().expand()[0]
        first = execute_job(job)
        second = execute_job(job)
        assert first.fingerprint() == second.fingerprint()


class TestJobResult:
    def test_round_trip(self):
        job = small_spec().expand()[0]
        result = execute_job(job)
        assert JobResult.from_dict(result.to_dict()) == result

    def test_rates_guard_division_by_zero(self):
        empty = JobResult(
            job_id="x",
            app="cem",
            config="ocelot",
            environment="default",
            supply="harvest",
            seed=0,
            mode="activations",
            region_count=0,
            compile_cached=False,
        )
        assert empty.violation_rate == 0.0
        assert empty.injection_rate == 0.0
