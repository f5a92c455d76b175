"""A/B the repository benchmark: a base revision against the working tree.

Runs ``perfbench/run.py --trace 0`` on both sides in interleaved pairs,
for every workload in ``BENCHMARK.json``, and judges the pairs the way
a performance claim is judged::

    python3 tools/perf_ab.py HEAD~1                       # 10 pairs, 40 s runs
    python3 tools/perf_ab.py HEAD~1 --pairs 2 --seed 1    # held-out seed

``BASE`` is a git revision, checked out into a temporary ``git
worktree`` that is removed on exit, or the path of an existing checkout.
Within each pair the side that runs first alternates (the base first in
even pairs), so a slow stretch of host load does not always land on the
same side.

For each workload the report gives every pair's end-to-end metrics and
error rates and the change's wins per metric (a tie counts for neither
side), each side's median and quartiles, and two verdicts per metric:

* **gain** -- the change is better in at least 9 of every 10 pairs, and
  its median is better than the base's by more than the distance
  between the base's quartiles;
* **bound** -- the change's median is worse than the base's by more than
  the metric's ``bound`` in ``BENCHMARK.json`` (a share of the base
  median), or a larger share of its operations failed.

Metric names, directions and bounds come from ``BENCHMARK.json``.  The
run is refused when the two sides' host facts differ, or when
``perfbench/`` or ``BENCHMARK.json`` differ between the base and the
working tree (the benchmark itself must be the same on both sides).
Exit status: 0 when no bound is broken, 1 when one is, 2 when refused.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: what must be identical on both sides for their numbers to compare
BENCH_FILES = ("perfbench", "BENCHMARK.json")


class Refused(Exception):
    """The two sides cannot be compared."""


def _bench_bytes(root: Path) -> dict[str, bytes]:
    files: dict[str, bytes] = {}
    for name in BENCH_FILES:
        path = root / name
        paths = [path] if path.is_file() else sorted(path.rglob("*"))
        for item in paths:
            if item.is_file() and "__pycache__" not in item.parts:
                files[item.relative_to(root).as_posix()] = item.read_bytes()
    return files


def check_same_benchmark(base: Path, change: Path) -> None:
    """Refuse unless ``perfbench/`` and ``BENCHMARK.json`` match."""
    a, b = _bench_bytes(base), _bench_bytes(change)
    differ = sorted(
        name for name in set(a) | set(b) if a.get(name) != b.get(name)
    )
    if differ:
        raise Refused(
            "the benchmark differs between the two sides: " + ", ".join(differ)
        )


def run_side(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One ``--trace 0`` run: its host facts, metrics and error counts."""
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=max(600.0, 10 * seconds),
        cwd=checkout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{checkout}: {workload} exited {proc.returncode}\n{proc.stderr}"
        )
    lines = proc.stdout.splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "host": record["host"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Judge ``(base, change)`` run pairs of one workload.

    Each run is a :func:`run_side` dict; ``metrics`` are the
    ``end_to_end`` entries of ``BENCHMARK.json``.  Medians are
    ``statistics.median``; quartiles are ``statistics.quantiles(n=4)``.
    """
    out: dict = {"pairs": len(pairs), "metrics": {}}
    for meta in metrics:
        name, lower = meta["name"], meta["better"] == "lower"
        base = [b["metrics"][name] for b, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        wins = sum(
            1 for b, c in zip(base, change) if (c < b if lower else c > b)
        )
        b_med, c_med = statistics.median(base), statistics.median(change)
        b_q1, _, b_q3 = _quartiles(base)
        c_q1, _, c_q3 = _quartiles(change)
        gain = b_med - c_med if lower else c_med - b_med
        out["metrics"][name] = {
            "base": base,
            "change": change,
            "wins": wins,
            "base_median": b_med,
            "base_quartiles": (b_q1, b_q3),
            "change_median": c_med,
            "change_quartiles": (c_q1, c_q3),
            "base_iqr": b_q3 - b_q1,
            # positive when the change is worse, as a share of the base
            "worse_by": -gain / b_med if b_med else 0.0,
            "bound": meta["bound"],
            "gain": wins * 10 >= 9 * len(pairs) and gain > b_q3 - b_q1,
            "over_bound": -gain > meta["bound"] * b_med,
        }
    shares = []
    for side in (0, 1):
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        failed = sum(pair[side]["failed"] for pair in pairs)
        shares.append(failed / attempted if attempted else 0.0)
    out["base_error_rate"], out["change_error_rate"] = shares
    out["more_errors"] = shares[1] > shares[0]
    out["ok"] = not out["more_errors"] and not any(
        m["over_bound"] for m in out["metrics"].values()
    )
    return out


def _gap(worse_by: float) -> str:
    """A median gap in words: ``5.1% better`` or ``5.1% worse``."""
    return f"{abs(worse_by):.1%} {'worse' if worse_by > 0 else 'better'}"


def render(workload: str, summary: dict) -> list[str]:
    """The report of one workload's :func:`summarize` result."""
    n = summary["pairs"]
    lines = [f"{workload}: {n} pairs (base, change)"]
    for name, m in summary["metrics"].items():
        values = "  ".join(
            f"{b:.4f}/{c:.4f}" for b, c in zip(m["base"], m["change"])
        )
        lines += [
            f"  {name}: {values}",
            f"    change wins {m['wins']}/{n}; median {m['base_median']:.4f}"
            f" -> {m['change_median']:.4f} ({_gap(m['worse_by'])});"
            f" quartiles base {m['base_quartiles'][0]:.4f}-"
            f"{m['base_quartiles'][1]:.4f}, change "
            f"{m['change_quartiles'][0]:.4f}-{m['change_quartiles'][1]:.4f};"
            f" base IQR {m['base_iqr']:.4f}",
            f"    gain (>= 9 in 10 and beyond the base IQR): "
            f"{'yes' if m['gain'] else 'no'}; bound {m['bound']}: "
            f"{'BROKEN' if m['over_bound'] else 'kept'}",
        ]
    lines.append(
        f"  error_rate: base {summary['base_error_rate']:g}, change "
        f"{summary['change_error_rate']:g}"
        + ("  MORE FAILURES" if summary["more_errors"] else "")
    )
    return lines


def _worktree(base: str, tmp: Path) -> Path:
    """Check ``base`` out, detached, into a git worktree under ``tmp``."""
    tree = tmp / "base"
    proc = subprocess.run(
        ["git", "worktree", "add", "--detach", str(tree), base],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise Refused(f"cannot check out '{base}': {proc.stderr.strip()}")
    return tree


def _remove_worktree(tmp: Path) -> None:
    subprocess.run(
        ["git", "worktree", "remove", "--force", str(tmp / "base")],
        cwd=ROOT, capture_output=True,
    )
    shutil.rmtree(tmp, ignore_errors=True)
    subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision or checkout to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    tmp = None
    try:
        base = Path(args.base)
        if not base.is_dir():
            tmp = Path(tempfile.mkdtemp(prefix="perf-ab-"))
            base = _worktree(args.base, tmp)
        base = base.resolve()
        check_same_benchmark(base, ROOT)
        ok = True
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                order = [(0, base), (1, ROOT)]
                if i % 2:
                    order.reverse()
                runs: list = [None, None]
                for side, root in order:
                    runs[side] = run_side(root, benchmark["command"], workload,
                                          args.seed, args.seconds)
                if runs[0]["host"] != runs[1]["host"]:
                    raise Refused(f"host facts differ: {runs[0]['host']} "
                                  f"against {runs[1]['host']}")
                pairs.append((runs[0], runs[1]))
                print(f"{workload} pair {i + 1} (base/change): " + "  ".join(
                    f"{m['name']} {runs[0]['metrics'][m['name']]:.4f}/"
                    f"{runs[1]['metrics'][m['name']]:.4f}"
                    for m in benchmark["end_to_end"]
                ) + "  error_rate " + "/".join(
                    f"{run['failed'] / run['attempted']:g}" for run in runs
                ), flush=True)
            summary = summarize(pairs, benchmark["end_to_end"])
            print("\n".join(render(workload, summary)), flush=True)
            ok &= summary["ok"]
        print("ok: no bound broken" if ok else "FAIL: a bound was broken")
        return 0 if ok else 1
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    finally:
        if tmp is not None:
            _remove_worktree(tmp)


if __name__ == "__main__":
    raise SystemExit(main())
