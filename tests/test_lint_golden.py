"""The lint verdicts of every bundled app x paper config, against the golden.

``tests/golden/lint_verdicts.json`` pins the stable projection of each
static staleness verdict (policy, kind, site, verdict, reason, flip
threshold); ``python tools/check_lint.py --update`` regenerates it when
a verdict changes on purpose.  ``campaign --lint`` prints the same
verdicts as per-cell counts, so its ocelot/jit/atomics rows must sum the
golden file the same way.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.staleness import (
    VERDICT_DOOMED,
    VERDICT_ENV,
    VERDICT_SAFE,
    analyze_staleness,
)
from repro.apps import BENCHMARKS
from repro.cli import main
from repro.core.cache import GLOBAL_CACHE

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "lint_verdicts.json").read_text())
CONFIGS = ("ocelot", "jit", "atomics")
CAMPAIGN_SMALL = ROOT / "examples" / "campaign_small.json"


def test_golden_covers_every_leg():
    assert sorted(GOLDEN) == sorted(
        f"{app}/{config}" for app in BENCHMARKS for config in CONFIGS
    )


@pytest.mark.parametrize("app", sorted(BENCHMARKS))
@pytest.mark.parametrize("config", CONFIGS)
def test_verdicts_match_golden(app, config):
    compiled = GLOBAL_CACHE.get_or_compile(BENCHMARKS[app].source, config)
    report = analyze_staleness(compiled)
    assert [
        {
            "pid": v.pid,
            "kind": v.kind,
            "site": str(v.site),
            "verdict": v.verdict,
            "reason": v.reason,
            "threshold": v.threshold,
        }
        for v in sorted(report.verdicts, key=lambda v: (str(v.site), v.pid))
    ] == GOLDEN[f"{app}/{config}"]


def test_campaign_lint_counts_match_golden(capsys):
    assert main(["campaign", str(CAMPAIGN_SMALL), "--lint"]) == 0
    # The lint table comes first on stdout, then the JSON report.
    table = capsys.readouterr().out.split("\n{", 1)[0]
    rows = {}
    for line in table.splitlines():
        cols = line.split()
        if len(cols) == 5 and cols[1] in CONFIGS:
            rows[(cols[0], cols[1])] = [int(count) for count in cols[2:]]
    expected = {}
    for app in json.loads(CAMPAIGN_SMALL.read_text())["apps"]:
        for config in CONFIGS:
            verdicts = [v["verdict"] for v in GOLDEN[f"{app}/{config}"]]
            expected[(app, config)] = [
                verdicts.count(kind)
                for kind in (VERDICT_SAFE, VERDICT_DOOMED, VERDICT_ENV)
            ]
    assert rows == expected
