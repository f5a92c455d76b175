"""``tools/perf_ab.py``: its verdicts on fixed numbers, and its worktree mode."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "perf_ab.py"
_spec = importlib.util.spec_from_file_location("perf_ab", TOOL)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)

METRICS = [
    {"name": "op_s", "better": "lower", "bound": 0.25},
    {"name": "rate", "better": "higher", "bound": 0.1},
]


def _run(op_s: float, rate: float = 1.0, failed: int = 0) -> dict:
    return {
        "host": {"cores": 2},
        "attempted": 10,
        "failed": failed,
        "metrics": {"op_s": op_s, "rate": rate},
    }


def _pairs(base: list[float], change: list[float]) -> list[tuple[dict, dict]]:
    return [(_run(b), _run(c)) for b, c in zip(base, change)]


BASE = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


def test_clear_gain_wins_nine_in_ten_beyond_the_spread():
    change = [b - 0.8 for b in BASE]
    change[3] = 1.3  # a tie counts for neither side
    summary = perf_ab.summarize(_pairs(BASE, change), METRICS)
    op = summary["metrics"]["op_s"]
    assert op["wins"] == 9
    assert op["base_median"] == pytest.approx(1.45)
    # statistics.quantiles(n=4), exclusive method
    assert op["base_quartiles"] == pytest.approx((1.175, 1.725))
    assert op["base_iqr"] == pytest.approx(0.55)
    assert op["change_median"] == pytest.approx(0.75)
    assert op["worse_by"] == pytest.approx(-0.7 / 1.45)
    assert op["gain"] and not op["over_bound"]
    assert summary["ok"]


def test_gain_needs_nine_wins_and_a_median_gap_beyond_the_iqr():
    eight = [b - 0.8 for b in BASE]
    eight[0] = eight[1] = 2.0
    op = perf_ab.summarize(_pairs(BASE, eight), METRICS)["metrics"]["op_s"]
    assert op["wins"] == 8 and not op["gain"]
    small = [b - 0.05 for b in BASE]  # wins all ten, inside the spread
    op = perf_ab.summarize(_pairs(BASE, small), METRICS)["metrics"]["op_s"]
    assert op["wins"] == 10 and not op["gain"]


def test_bound_breaks_on_the_worse_median_in_either_direction():
    slower = [b * 1.3 for b in BASE]
    summary = perf_ab.summarize(_pairs(BASE, slower), METRICS)
    assert summary["metrics"]["op_s"]["over_bound"]
    assert summary["metrics"]["op_s"]["wins"] == 0
    assert not summary["ok"]
    within = [b * 1.2 for b in BASE]
    assert perf_ab.summarize(_pairs(BASE, within), METRICS)["ok"]
    # higher-is-better: a 15% drop breaks a 0.1 bound
    pairs = [(_run(1.0, rate=100.0), _run(1.0, rate=85.0)) for _ in range(4)]
    rate = perf_ab.summarize(pairs, METRICS)["metrics"]["rate"]
    assert rate["over_bound"] and rate["worse_by"] == pytest.approx(0.15)


def test_more_failures_breaks_the_run():
    pairs = [(_run(1.0), _run(0.5, failed=1 if i == 2 else 0)) for i in range(4)]
    summary = perf_ab.summarize(pairs, METRICS)
    assert summary["change_error_rate"] == pytest.approx(1 / 40)
    assert summary["base_error_rate"] == 0
    assert summary["more_errors"] and not summary["ok"]
    assert any("MORE FAILURES" in line for line in perf_ab.render("w", summary))


@pytest.mark.parametrize(
    "metric, base, change, words",
    [
        ("op_s", 0.2564, 0.2694, "(5.1% worse)"),
        ("op_s", 0.2694, 0.2564, "(4.8% better)"),
        ("rate", 100.0, 85.0, "(15.0% worse)"),
        ("rate", 85.0, 100.0, "(17.6% better)"),
    ],
)
def test_median_gap_reads_better_or_worse_by_sign(metric, base, change, words):
    def run(value):
        values = {"op_s": 1.0, "rate": 1.0, metric: value}
        return {"host": {}, "attempted": 1, "failed": 0, "metrics": values}

    summary = perf_ab.summarize([(run(base), run(change))] * 4, METRICS)
    (line,) = [
        line
        for line in perf_ab.render("w", summary)
        if line.startswith("    change wins") and f"median {base:.4f}" in line
    ]
    assert f"median {base:.4f} -> {change:.4f} {words};" in line


def test_refuses_a_different_benchmark(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    for root in (base, change):
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("x = 1\n")
        (root / "BENCHMARK.json").write_text("{}\n")
    perf_ab.check_same_benchmark(base, change)
    (change / "BENCHMARK.json").write_text('{"bound": 1}\n')
    with pytest.raises(perf_ab.Refused, match="BENCHMARK.json"):
        perf_ab.check_same_benchmark(base, change)


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository whose committed benchmark has no workloads."""
    root = tmp_path / "repo"
    root.mkdir()
    (root / "BENCHMARK.json").write_text('{"workloads": []}\n')
    _git(root, "init", "-q")
    _git(root, "add", "BENCHMARK.json")
    _git(root, "-c", "user.name=perf-ab", "-c", "user.email=perf-ab@example.com",
         "commit", "-q", "-m", "benchmark")
    monkeypatch.setattr(perf_ab, "ROOT", root)
    return root


def test_a_git_revision_runs_in_a_worktree_that_is_removed(repo):
    assert perf_ab.main(["HEAD"]) == 0
    assert len(_git(repo, "worktree", "list").splitlines()) == 1


def test_a_revision_with_another_benchmark_is_refused(repo):
    (repo / "BENCHMARK.json").write_text('{"workloads": [], "bound": 1}\n')
    assert perf_ab.main(["HEAD"]) == 2
    assert len(_git(repo, "worktree", "list").splitlines()) == 1


def test_an_unknown_revision_is_refused(repo):
    assert perf_ab.main(["no-such-rev"]) == 2
