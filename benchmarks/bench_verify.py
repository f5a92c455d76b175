"""Benchmark: bounded model-checker throughput and prune effectiveness.

The verifier's cost scales with explored fork states, so this benchmark
tracks states/second and machine steps/second over a mixed workload of
apps and build configurations, and -- the number the analysis-guided
pruning stands on -- the *prune ratio*: explored states with pruning
over explored states without, at identical verdicts::

    python benchmarks/bench_verify.py          # write BENCH_verify.json
    python benchmarks/bench_verify.py --quick  # CI gate, no record

Every leg runs the same bound pruned and unpruned and asserts verdicts
(and any counterexample violation) agree -- a standing soundness check
next to ``tests/test_verify_crosscheck.py``.  A third *guided* pass
seeds the frontier with the static staleness verdicts
(:mod:`repro.analysis.staleness`) and must reach the same verdict kind
from at most as many explored states; the savings land in the record as
``guided_ratio``.  ``--quick`` *fails* (exit 1) if any leg's verdicts
diverge, guidance explores more states, or pruning does not explore
strictly fewer states on every region-bearing leg.
"""

from __future__ import annotations

import benchkit

from repro.analysis.staleness import analyze_staleness
from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.sensors.environment import Environment
from repro.telemetry import MetricsRegistry, absorb_verify
from repro.verify import VerifyBounds, verify_program

#: (app, config, max_failures): region-heavy proofs, a JIT
#: counterexample, and the DINO-style whole-program transform.
WORKLOAD = (
    ("tire", "ocelot", 2),
    ("tire", "jit", 1),
    ("tire", "atomics", 2),
    ("greenhouse", "ocelot", 1),
    ("cem", "atomics", 1),
)

#: Legs whose config carries atomic regions: pruning must win strictly.
REGION_CONFIGS = ("ocelot", "atomics")


def _bounds(max_failures: int, budget: int) -> VerifyBounds:
    return VerifyBounds(
        max_activations=1,
        max_failures=max_failures,
        max_cycles=budget,
        max_states=500_000,
    )


def _leg(
    app: str,
    config: str,
    max_failures: int,
    budget: int,
    registry: MetricsRegistry,
) -> dict:
    meta = BENCHMARKS[app]
    compiled = GLOBAL_CACHE.get_or_compile(meta.source, config)
    env = Environment.constant_for(compiled.module.channels, 0)
    bounds = _bounds(max_failures, budget)
    # The guided leg steers the same search with the static staleness
    # verdicts (DOOMED sites jump the frontier, bits only SAFE checks
    # read widen the no-op skip); lint time is *excluded* from the leg
    # timer and reported separately -- it is a compile-time cost.
    lint_name = "bench.verify.lint.seconds"
    lint_before = registry.seconds(lint_name)
    with registry.timer(lint_name):
        report = analyze_staleness(compiled, [("bench", env)])
    lint_seconds = registry.seconds(lint_name) - lint_before
    results = {}
    for label, prune, guided in (
        ("pruned", True, False),
        ("unpruned", False, False),
        ("guided", True, True),
    ):
        timer_name = f"bench.verify.{label}.seconds"
        before = registry.seconds(timer_name)
        with registry.timer(timer_name):
            verdict = verify_program(
                compiled,
                env,
                bounds,
                prune=prune,
                seed_uids=report.doomed_uids() if guided else frozenset(),
                relevant_bits=report.relevant_bits() if guided else None,
            )
        seconds = registry.seconds(timer_name) - before
        if prune:
            absorb_verify(registry, verdict)
        results[label] = {
            "verdict": verdict.kind,
            "violation": (
                [verdict.violation[0], verdict.violation[1]]
                if verdict.violation is not None
                else None
            ),
            "explored": verdict.stats.explored,
            "steps": verdict.stats.steps,
            "pruned": verdict.stats.pruned,
            "pruned_noop": verdict.stats.pruned_noop,
            "deduped": verdict.stats.deduped,
            "seconds": round(seconds, 4),
            "states_per_second": round(verdict.stats.explored / seconds),
            "steps_per_second": round(verdict.stats.steps / seconds),
        }
    pruned, full = results["pruned"], results["unpruned"]
    guided = results["guided"]
    return {
        **results,
        "verdicts_agree": pruned["verdict"] == full["verdict"]
        and pruned["violation"] == full["violation"],
        "prune_ratio": round(pruned["explored"] / max(1, full["explored"]), 4),
        # Guidance may legitimately reach a *different* counterexample
        # first (seeded sites fire earlier in queue order), so parity is
        # on the verdict kind, not the violation identity.
        "guided_agrees": guided["verdict"] == pruned["verdict"],
        "guided_ratio": round(
            guided["explored"] / max(1, pruned["explored"]), 4
        ),
        "lint_seconds": round(lint_seconds, 4),
    }


def measure(quick: bool) -> dict:
    """Per-leg verdicts and throughput.

    Each pruned verdict's explorer stats are absorbed into the registry
    and published under ``"metrics"``.
    """
    budget = 60_000 if quick else 200_000
    legs = {}
    registry = MetricsRegistry()
    with registry.timer("bench.verify.total.seconds"):
        for app, config, max_failures in WORKLOAD:
            legs[f"{app}/{config}"] = _leg(
                app, config, max_failures, budget, registry
            )
    total = registry.seconds("bench.verify.total.seconds")
    explored = sum(
        leg[label]["explored"]
        for leg in legs.values()
        for label in ("pruned", "unpruned", "guided")
    )
    return {
        "benchmark": "verify-throughput",
        "workload": [f"{a}/{c} (failures<={f})" for a, c, f in WORKLOAD],
        "budget_cycles": budget,
        **benchkit.host(),
        "total_seconds": round(total, 4),
        "total_states_explored": explored,
        "states_per_second": round(explored / total),
        "mean_prune_ratio": round(
            sum(leg["prune_ratio"] for leg in legs.values()) / len(legs), 4
        ),
        "legs": legs,
        "metrics": registry.to_dict(command="bench_verify"),
    }


def gates(record: dict) -> list[benchkit.Gate]:
    verdicts = []
    for name, leg in record["legs"].items():
        pruned = leg["pruned"]["verdict"]
        verdicts += [
            (leg["verdicts_agree"], f"{name}: pruned verdict {pruned}, "
             f"unpruned {leg['unpruned']['verdict']} (gate: equal)"),
            (leg["guided_agrees"], f"{name}: guided verdict "
             f"{leg['guided']['verdict']}, pruned {pruned} (gate: equal)"),
            (leg["guided_ratio"] <= 1.0,
             f"{name}: guided ratio {leg['guided_ratio']} (gate <= 1.0)"),
        ]
        if name.split("/", 1)[1] in REGION_CONFIGS:
            verdicts.append((leg["prune_ratio"] < 1.0,
                             f"{name}: prune ratio {leg['prune_ratio']} "
                             "(gate < 1.0)"))
    return verdicts


if __name__ == "__main__":
    raise SystemExit(benchkit.main("verify", measure, gates, gate_full=True))
