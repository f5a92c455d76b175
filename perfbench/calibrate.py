"""Repeat the benchmark across seeds and judge its spread against the bounds.

Runs ``perfbench/run.py`` ``--runs`` times per workload, each with its
own ``--seed``, one after another, and writes every run's figures plus a
per-metric summary to ``--out``::

    python3 perfbench/calibrate.py --runs 10 --out perfbench/results/set-a.json
    python3 perfbench/calibrate.py --runs 10 --out perfbench/results/set-b.json \\
        --seed-base 100 --against perfbench/results/set-a.json

For every end-to-end metric the summary gives the median and the spread:
the distance between the first and third quartile of the runs
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
spread must stay within the metric's ``bound`` in ``BENCHMARK.json``
(``setup_s`` is exempt), and with ``--against`` each median must not be
worse than the earlier set's by more than the bound.  Sets recorded on
different hosts (cores, Python, numpy) are not compared: the comparison
is refused.  ``--traced`` adds one ``--trace 1`` run per workload and
checks its metric names against ``per_layer``.  Exit status 1 means a
run failed, printed a malformed result, or broke a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(record line, result line) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    if set(result) != RESULT_KEYS or sorted(result["metrics"]) != sorted(names):
        raise RuntimeError(f"{workload} seed {seed}: malformed result line")
    return record, result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--against", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    earlier = json.loads(args.against.read_text()) if args.against else None
    out: dict = {"runs": {}, "summary": {}, "traced": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            record, result = run_once(workload, seed, args.seconds, trace=0)
            out["host"] = record["host"]
            if earlier is not None and earlier["host"] != record["host"]:
                print(f"refused: host {record['host']} differs from the "
                      f"earlier set's {earlier['host']}; nothing compared")
                return 1
            ok &= result["correct"]
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                **{k: v["value"] for k, v in result["metrics"].items()},
                "rep_s_samples": record["rep_s_samples"],
                "setup_s_samples": record["setup_s_samples"],
                "flow_s": record["flow_s"],
            })
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()},
                  flush=True)
        out["runs"][workload] = runs
        summary = out["summary"][workload] = {}
        for name, meta in bounds.items():
            median, share = spread([run[name] for run in runs])
            row = summary[name] = {
                "median": median,
                "spread": share,
                "bound": meta["bound"],
                "spread_ok": name == "setup_s" or share <= meta["bound"],
            }
            if earlier is not None:
                before = earlier["summary"][workload][name]["median"]
                worse = (median - before) / before
                if meta["better"] == "higher":
                    worse = -worse
                row["vs_earlier"] = worse
                row["median_ok"] = worse <= meta["bound"]
            ok &= row["spread_ok"] and row.get("median_ok", True)
            print(f"  {workload} {name}: median {median:.4f} spread "
                  f"{share:.3f} (bound {meta['bound']})"
                  + (f" vs earlier {row['vs_earlier']:+.3f}"
                     if "vs_earlier" in row else ""), flush=True)
        if args.traced:
            _, result = run_once(workload, args.seed_base, args.seconds, trace=1)
            ok &= result["correct"]
            out["traced"][workload] = {
                k: v["value"] for k, v in result["metrics"].items()
            }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("ok" if ok else "FAIL: a run failed or a bound was broken")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
