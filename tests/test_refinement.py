"""Intermittent-matches-continuous refinement tests.

The paper's correctness criterion: "the continuous execution is the
specification of correct behaviour" -- every committed behaviour of an
Ocelot intermittent execution must be producible by *some* continuous
execution (started at some time).  We check this on the Figure 2 weather
program: each committed log output of an intermittent run must equal the
output of a continuous run launched at some observed region-entry time.
"""

from repro.core.pipeline import compile_source
from repro.runtime import observations as obs
from repro.runtime.executor import Machine
from repro.runtime.supply import ContinuousPower, FailurePoint, ScheduledFailures
from repro.sensors.environment import Environment, steps

from tests.conftest import WEATHER_SRC


def continuous_outputs_at(compiled, env, start_tau):
    machine = Machine(
        compiled.module,
        env,
        ContinuousPower(),
        plan=compiled.detector_plan(),
    )
    machine.begin_activation(tau=start_tau)
    result = machine.run()
    assert result.stats.completed
    return [(o.op, o.values) for o in result.trace.outputs]


class TestWeatherRefinement:
    def make_env(self):
        return Environment(
            {
                "temp": steps([2, 9, 4], 3000),
                "pres": steps([100, 60, 85], 3000),
                "hum": steps([20, 85, 40], 3000),
            }
        )

    def test_committed_log_matches_some_continuous_run(self):
        compiled = compile_source(WEATHER_SRC, "ocelot")
        env = self.make_env()
        plan = compiled.detector_plan()
        # Fail between the two consistent inputs: the worst case.
        hum_chain = next(
            c for c in sorted(plan.checks)
            if any(k.kind == "consistent" for k in plan.checks[c])
        )
        supply = ScheduledFailures([FailurePoint(chain=hum_chain)], off_cycles=4000)
        machine = Machine(compiled.module, env, supply, plan=plan)
        result = machine.run()
        assert result.stats.completed
        assert result.stats.violations == 0

        committed_logs = [
            o.values for o in result.trace.outputs if o.op == "log"
        ]
        assert committed_logs
        final_log = committed_logs[-1]

        # The final log must match a continuous execution started at some
        # observed moment of the trace (we try every region entry and
        # reboot time, plus the start).
        candidate_taus = {0}
        for event in result.trace:
            if isinstance(event, (obs.RegionEnterObs, obs.RebootObs)):
                candidate_taus.add(event.tau)
        matches = []
        for tau in sorted(candidate_taus):
            outputs = continuous_outputs_at(compiled, self.make_env(), tau)
            logs = [values for op, values in outputs if op == "log"]
            if logs and logs[-1] == final_log:
                matches.append(tau)
        assert matches, (final_log, sorted(candidate_taus))

    def test_jit_can_commit_unrefinable_log(self):
        """The Figure 2 storm bug: JIT can log a (pres, hum) pair that no
        continuous execution produces."""
        compiled = compile_source(WEATHER_SRC, "jit")
        env = Environment(
            {
                # pres/hum flip together between (100, 20) and (60, 85);
                # off-time 3000 straddles a flip.
                "temp": steps([2, 2], 6000),
                "pres": steps([100, 60], 3000),
                "hum": steps([20, 85], 3000),
            }
        )
        plan = compiled.detector_plan()
        hum_chain = next(
            c for c in sorted(plan.checks)
            if any(k.kind == "consistent" for k in plan.checks[c])
        )
        supply = ScheduledFailures([FailurePoint(chain=hum_chain)], off_cycles=3000)
        machine = Machine(compiled.module, env, supply, plan=plan)
        result = machine.run()
        assert result.stats.completed
        (log,) = [o.values for o in result.trace.outputs if o.op == "log"]
        # The torn pair mixes the two world states.
        assert log in ((100, 85), (60, 20)), log
        assert result.stats.violations >= 1
