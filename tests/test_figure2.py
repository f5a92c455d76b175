"""The Figure 2 weather program's failure modes, swept over failure points.

Figure 2 is the paper's motivating illustration (freshness: the missed
alarm; consistency: the impossible storm log).  These tests inject one
power failure at every detector check site of the weather program and
count how often each build misbehaves -- plus the refinement oracle
verdict: a torn JIT log matches *no* continuous execution.
"""

from repro.core.pipeline import compile_source
from repro.runtime.executor import Machine
from repro.runtime.refinement import check_refinement
from repro.runtime.supply import FailurePoint, ScheduledFailures
from repro.sensors.environment import Environment, steps

from tests.conftest import WEATHER_SRC


def env_factory():
    return Environment(
        {
            "temp": steps([2, 9], 3000),
            "pres": steps([100, 60], 3000),
            "hum": steps([20, 85], 3000),
        }
    )


def sweep(config: str):
    compiled = compile_source(WEATHER_SRC, config)
    plan = compiled.detector_plan()
    outcomes = {"violating": 0, "unrefined": 0, "points": 0}
    for site in sorted(plan.checks):
        supply = ScheduledFailures([FailurePoint(chain=site)], off_cycles=3000)
        machine = Machine(compiled.module, env_factory(), supply, plan=plan)
        result = machine.run()
        assert result.stats.completed
        if not supply.all_fired:
            continue
        outcomes["points"] += 1
        if result.stats.violations:
            outcomes["violating"] += 1
        verdict = check_refinement(compiled, result.trace, env_factory)
        if not verdict.refined:
            outcomes["unrefined"] += 1
    return outcomes


def test_figure2_jit_misbehaves():
    outcomes = sweep("jit")
    assert outcomes["points"] > 0
    assert outcomes["violating"] == outcomes["points"]
    # At least one violating run is also unrefinable: no continuous execution
    # produces its outputs (the paper's correctness relation, violated).
    assert outcomes["unrefined"] >= 1


def test_figure2_ocelot_always_refines():
    outcomes = sweep("ocelot")
    assert outcomes["violating"] == 0
    assert outcomes["unrefined"] == 0
