"""The benchmark's workloads: inputs, one timed operation, and its oracle.

Every workload runs in one single-threaded process.  A workload builds
its inputs from the run's seed in :meth:`setup`, which also warms up
(lazy imports, engine decode) so the first timed repetition pays none of
that; the set-up cost is reported as ``setup_s``.  :meth:`op` is one
timed repetition.  It calls ``lap(flow)`` after every *piece* of its
work -- a sub-fleet run, a campaign job, a lint leg, a verify leg -- so
the runner can time each piece on its own (see ``perfbench/run.py``), and
returns one output per *operation*: one fleet run, one eval table, one
lint leg, one verify leg.  :meth:`reference` returns what each output
must equal, computed by an independent oracle (serial fleet executor,
reference engine, golden verdict file, known verdicts).  An operation
that raises yields an ``error:`` string, which never equals its
reference.

Why these workloads:

* ``fleet-jittered`` -- heterogeneous, miss-bound fleet: about 83% of
  activations miss the memo, so the interpreter loop is the product.
  Engine and memo-write changes show here; the compile, analysis and
  verifier layers do no work here.
* ``paper`` -- what a user runs to reproduce and check the paper: the
  ``repro eval`` tables, the 6-app x 3-config staleness lint matrix,
  and bounded model checking of legs with known verdicts, each flow from
  an empty compile cache, because compiling is part of its work.
  Compile, short campaign activations, the staleness analysis and the
  explorer do real work here; the fleet layers do none.

The fleet is timed as several smaller fleets rather than one large one:
a piece of about 0.2 s is short enough that its fastest time over a run
is steady on a shared host, where a one-second fleet run's is not.  Each
sub-fleet is a full ``run_fleet`` (spec expansion, cohorts, memo,
aggregation), and the memo hit rate of 100-device fleets is that of one
500-device fleet (about 17%).

Not covered: a hit-bound homogeneous fleet, where spec expansion, seed
derivation and cohort formation own the time.  A ``fleet-uniform``
workload of 200k identical devices was tried; on a shared 2-core x86_64
VM its figures moved by 30% between a busy and a quiet spell, past the
25% bound.  Also not covered, all off by default: ``--memo-dir``
persistence, checkpoint resume, and the sharded and multiprocess
executors.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_LINT = ROOT / "tests" / "golden" / "lint_verdicts.json"
LINT_CONFIGS = ("ocelot", "jit", "atomics")
EVAL_TABLES = 7

#: (app, config, max_activations, max_failures, prune) -> expected
#: (verdict kind, violation as [policy, kind, "func:label"] or None).
#: The two unpruned legs (the digest-heavy path) repeat bounds that
#: ``benchmarks/bench_verify.py`` proves with pruning; the two JIT legs
#: are the paper's violations-by-construction counterexamples, minimized
#: and replayed with forensics.
VERIFY_LEGS = (
    (("tire", "ocelot", 3, 3, True), ("proof", None)),
    (("tire", "ocelot", 1, 2, False), ("proof", None)),
    (("tire", "atomics", 1, 2, False), ("proof", None)),
    (("greenhouse", "ocelot", 2, 3, True), ("proof", None)),
    (("cem", "atomics", 3, 2, True), ("proof", None)),
    (("tire", "jit", 2, 2, True),
     ("counterexample", ["fresh@main:4", "fresh", "main:5"])),
    (("greenhouse", "jit", 2, 2, True),
     ("counterexample", ["consistent#1", "consistent", "read_hum:3"])),
)
VERIFY_MAX_CYCLES = 200_000


def attempt(fn, *args):
    """Run one operation; an exception becomes a failed output."""
    try:
        return fn(*args)
    except Exception as exc:  # one failed operation must not stop the run
        traceback.print_exc(file=sys.stderr)
        return f"error: {exc!r}"


# ---------------------------------------------------------------------------
# The fleet


class FleetJittered:
    """``examples/fleet_jittered.json`` scaled up: tire/ocelot devices
    with per-device harvest jitter 0.5 sharing one environment, run as
    :attr:`subfleets` fleets of :attr:`devices` devices each."""

    name = "fleet-jittered"
    subfleets = 5
    devices = 100
    warmup_devices = 40

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Sub-fleet i of seed s has fleet seed s * subfleets + i, so runs
        # with different seeds never share a sub-fleet.
        self.fleet_seeds = [seed * self.subfleets + i for i in range(self.subfleets)]
        self.seeds = {"fleet_seeds": self.fleet_seeds}
        self.memo: list[dict] = []

    def spec(self, devices: int, fleet_seed: int):
        from repro.eval.campaign import SupplySpec
        from repro.fleet import DeviceClass, FleetSpec

        return FleetSpec(
            name="perfbench-fleet-jittered",
            fleet_seed=fleet_seed,
            budget_cycles=25_000,
            classes=(
                DeviceClass(
                    name="tire-jittered",
                    app="tire",
                    config="ocelot",
                    count=devices,
                    supply=SupplySpec(harvest_rate=300),
                    harvest_jitter=0.5,
                ),
            ),
        )

    def setup(self) -> None:
        from repro.fleet import precompile_fleet, run_fleet

        self.specs = [self.spec(self.devices, s) for s in self.fleet_seeds]
        precompile_fleet(self.specs[0])
        run_fleet(self.spec(self.warmup_devices, self.seed), "vector")

    def _run(self, spec) -> str:
        from repro.fleet import aggregate_fingerprint, run_fleet

        result = run_fleet(spec, "vector")
        self.memo.append(result.memo)
        return aggregate_fingerprint(result)

    def op(self, lap) -> list:
        self.memo = []
        out = []
        for spec in self.specs:
            out.append(attempt(self._run, spec))
            lap("fleet")
        return out

    def reference(self) -> list:
        from repro.fleet import SerialFleetExecutor, aggregate_fingerprint, run_fleet

        return [
            aggregate_fingerprint(run_fleet(spec, SerialFleetExecutor()))
            for spec in self.specs
        ]

    @property
    def hit_rate(self) -> float:
        """Activations replayed over activations, in the last repetition."""
        hits = sum(m.get("hits", 0) for m in self.memo)
        lookups = hits + sum(m.get("misses", 0) for m in self.memo)
        return hits / lookups if lookups else 0.0

    def describe(self, op_s: float, flows: dict) -> list[str]:
        total = self.subfleets * self.devices
        return [
            f"devices_per_s {total / op_s:.1f} devices/s "
            f"({self.subfleets} fleets x {self.devices} devices)",
            f"memo hit_rate {self.hit_rate:.6f} "
            f"(hits {sum(m.get('hits', 0) for m in self.memo)}, "
            f"misses {sum(m.get('misses', 0) for m in self.memo)})",
        ]


# ---------------------------------------------------------------------------
# The paper flows


def _clear_compile_cache() -> None:
    from repro.core.cache import GLOBAL_CACHE

    GLOBAL_CACHE.clear()


class _LappedSerial:
    """The campaign's serial executor, marking a piece before and after
    every job (so compiles and aggregation between jobs are pieces too)."""

    name = "serial"

    def __init__(self, lap) -> None:
        self.lap = lap

    def run(self, jobs) -> list:
        import repro.eval.campaign as campaign

        results = []
        for job in jobs:
            self.lap("eval")
            # Looked up at call time, so the oracle's and the tracer's
            # replacements of ``execute_job`` apply.
            results.append(campaign.execute_job(job))
            self.lap("eval")
        return results


class Paper:
    """The three flows a user runs on the paper, one after another:

    1. ``repro eval``: every table and figure (``run_all``), measured
       fresh, on the campaign's serial executor;
    2. ``analyze_staleness`` over every bundled app x ocelot/jit/atomics,
       the matrix ``tests/golden/lint_verdicts.json`` pins;
    3. ``verify_program`` over :data:`VERIFY_LEGS`: until every leg has
       its verdict, compiles, minimization and forensics replay included.

    Only the eval tables depend on the seed (the eval seed); the lint and
    verify inputs are fixed.
    """

    name = "paper"
    flows = ("eval", "lint", "verify")

    def __init__(self, seed: int) -> None:
        from repro.apps import BENCHMARKS

        self.seed = seed
        self.seeds = {"eval_seed": seed}
        self.lint_legs = [(app, config) for app in sorted(BENCHMARKS)
                          for config in LINT_CONFIGS]

    def setup(self) -> None:
        """Warm up every flow's lazy imports on a small piece of each:
        one campaign table, one lint leg, one counterexample leg (its
        minimization and forensics)."""
        from repro.eval.table2 import measure_table2a

        measure_table2a(seed=self.seed)
        self._lint_leg(*self.lint_legs[0])
        self._verify_leg(*VERIFY_LEGS[-2][0])
        _clear_compile_cache()

    def _tables(self, lap) -> list:
        from repro.eval.runner import run_all

        tables = run_all(seed=self.seed, executor=_LappedSerial(lap))
        if len(tables) != EVAL_TABLES:
            raise RuntimeError(f"expected {EVAL_TABLES} tables")
        return [table.render_text() for table in tables]

    def _lint_leg(self, app: str, config: str) -> list:
        import repro.analysis.staleness as staleness
        from repro.apps import BENCHMARKS
        from repro.core.cache import GLOBAL_CACHE

        compiled = GLOBAL_CACHE.get_or_compile(BENCHMARKS[app].source, config)
        report = staleness.analyze_staleness(compiled)
        # The golden file's stable projection of each verdict.
        return [
            {
                "pid": v.pid,
                "kind": v.kind,
                "site": str(v.site),
                "verdict": v.verdict,
                "reason": v.reason,
                "threshold": v.threshold,
            }
            for v in sorted(report.verdicts, key=lambda v: (str(v.site), v.pid))
        ]

    def _verify_leg(self, app, config, activations, failures, prune) -> list:
        import repro.verify as verify
        from repro.apps import BENCHMARKS
        from repro.core.cache import GLOBAL_CACHE
        from repro.sensors.environment import Environment

        compiled = GLOBAL_CACHE.get_or_compile(BENCHMARKS[app].source, config)
        env = Environment.constant_for(compiled.module.channels, 0)
        bounds = verify.VerifyBounds(
            max_activations=activations,
            max_failures=failures,
            max_cycles=VERIFY_MAX_CYCLES,
            max_states=500_000,
        )
        verdict = verify.verify_program(compiled, env, bounds, prune=prune)
        violation = verdict.violation
        if violation is not None:
            site = violation[2]
            violation = [violation[0], violation[1], f"{site.func}:{site.label}"]
        return [verdict.kind, violation]

    def _eval(self, lap) -> list:
        tables = attempt(self._tables, lap)
        if isinstance(tables, str):
            return [tables] * EVAL_TABLES
        return tables

    def op(self, lap) -> list:
        _clear_compile_cache()
        out = self._eval(lap)
        lap("eval")
        _clear_compile_cache()
        for app, config in self.lint_legs:
            out.append(attempt(self._lint_leg, app, config))
            lap("lint")
        _clear_compile_cache()
        for leg, _ in VERIFY_LEGS:
            out.append(attempt(self._verify_leg, *leg))
            lap("verify")
        return out

    def reference(self) -> list:
        """The eval tables with every campaign job on the reference engine
        (``repro.runtime.executor.Machine``, the semantics oracle the fast
        engine is parity-tested against), the golden lint verdicts (read
        only), and the known verify verdicts."""
        import repro.eval.campaign as campaign

        fast = campaign.execute_job

        def on_reference(job):
            return fast(dataclasses.replace(job, engine="reference"))

        campaign.execute_job = on_reference
        try:
            _clear_compile_cache()
            tables = self._eval(lambda flow: None)
        finally:
            campaign.execute_job = fast
        golden = json.loads(GOLDEN_LINT.read_text())
        lint = [golden.get(f"{app}/{config}") for app, config in self.lint_legs]
        verdicts = [[kind, violation] for _, (kind, violation) in VERIFY_LEGS]
        return tables + lint + verdicts

    def describe(self, op_s: float, flows: dict) -> list[str]:
        return [f"{flow}_s {flows.get(flow, 0.0):.6f} s" for flow in self.flows]


WORKLOADS = {cls.name: cls for cls in (FleetJittered, Paper)}
