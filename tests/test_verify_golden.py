"""The explorer's verdicts and search counts on fixed legs, against the golden.

``tests/golden/verify_stats.json`` pins, per leg, the verdict kind, the
first violation and the explorer's ``explored``, ``deduped``, ``pruned``
and ``pruned_noop`` counts.  The legs are the benchmark's seven verify
legs plus every bundled app under ``ocelot``/``jit``/``atomics`` at two
activations and two failures, each in the all-zero constant environment
with a 200,000-cycle bound.  ``tests/test_verify.py`` compares the two
engines with each other; this file holds both to fixed numbers, because
the visited-state key reads taint and a change to what taint holds can
move the dedup counts without changing a verdict.

Regenerate the file on purpose with
``python tests/test_verify_golden.py --update``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden" / "verify_stats.json"
MAX_CYCLES = 200_000

#: (app, config, activations, failures, prune) of the benchmark's legs
_BENCHMARK_LEGS = (
    ("tire", "ocelot", 3, 3, True),
    ("tire", "ocelot", 1, 2, False),
    ("tire", "atomics", 1, 2, False),
    ("greenhouse", "ocelot", 2, 3, True),
    ("cem", "atomics", 3, 2, True),
    ("tire", "jit", 2, 2, True),
    ("greenhouse", "jit", 2, 2, True),
)
_MATRIX = tuple(
    (app, config, 2, 2, True)
    for app in ("activity", "cem", "greenhouse", "photo", "send_photo", "tire")
    for config in ("ocelot", "jit", "atomics")
)
#: two benchmark legs are matrix legs too, so 23 in all
LEGS = tuple(dict.fromkeys(_BENCHMARK_LEGS + _MATRIX))


def leg_name(app, config, activations, failures, prune) -> str:
    mode = "pruned" if prune else "unpruned"
    return f"{app}/{config}/{activations}x{failures}/{mode}"


def leg_stats(app, config, activations, failures, prune) -> dict:
    from repro.apps import BENCHMARKS
    from repro.core.cache import GLOBAL_CACHE
    from repro.sensors.environment import Environment
    from repro.verify import VerifyBounds, verify_program

    compiled = GLOBAL_CACHE.get_or_compile(BENCHMARKS[app].source, config)
    env = Environment.constant_for(compiled.module.channels, 0)
    bounds = VerifyBounds(
        max_activations=activations,
        max_failures=failures,
        max_cycles=MAX_CYCLES,
        max_states=500_000,
    )
    verdict = verify_program(compiled, env, bounds, prune=prune)
    violation = verdict.violation
    if violation is not None:
        pid, kind, site = violation
        violation = [pid, kind, f"{site.func}:{site.label}"]
    stats = verdict.stats
    return {
        "kind": verdict.kind,
        "violation": violation,
        "explored": stats.explored,
        "deduped": stats.deduped,
        "pruned": stats.pruned,
        "pruned_noop": stats.pruned_noop,
    }


def current_stats() -> dict[str, dict]:
    return {leg_name(*leg): leg_stats(*leg) for leg in LEGS}


def _golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_leg():
    from repro.apps import BENCHMARKS

    assert sorted(_golden()) == sorted(leg_name(*leg) for leg in LEGS)
    assert {leg[0] for leg in LEGS} == set(BENCHMARKS)


@pytest.mark.parametrize("leg", LEGS, ids=[leg_name(*leg) for leg in LEGS])
def test_stats_match_golden(leg):
    assert leg_stats(*leg) == _golden()[leg_name(*leg)]


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_verify_golden.py --update")
    GOLDEN_PATH.write_text(json.dumps(current_stats(), indent=2) + "\n")
