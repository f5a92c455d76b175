"""The repository benchmark: one workload per run, checked, with metrics.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-jittered --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload paper --seed 0 --seconds 40 --trace 1

Workloads are defined (and their choice explained) in
``perfbench/workloads.py``; the per-layer wrap points and which
end-to-end metric each layer should move are in ``perfbench/probes.py``.

Each repetition of a workload's operation is cut into *pieces* -- a
sub-fleet run, a campaign job or the compiles between jobs, a lint leg, a
verify leg -- that each take at most about 0.5 s and together cover the whole
repetition.  The operation is repeated for ``--seconds`` and every piece
keeps its fastest time over the repetitions (every repetition does
identical work piece for piece).  On a shared host other tenants' load
slows the program in bursts.  On a 2-core x86_64 VM, a fixed
pure-Python loop timed in 5 ms pieces read 10-40% above its fastest
time at the median.  Yet its fastest time in each 10-s window of a
minute moved by under 2%, against 10-20% for the fastest 0.5-2 s
stretch.  So short pieces' fastest times add up to a steady figure for
the repetition.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s`` -- process start to the start of the timed body (imports,
  input build, ``precompile_fleet`` for the fleets, warm-up); the
  fastest of :data:`SETUPS` set-ups: this process's own and set-up-only
  child processes started one at a time between timed repetitions,
  spread over the run (the median is printed too).  The fastest, because
  set-up is one 0.3-0.8 s stretch (mostly imports) that cannot be cut
  into pieces, and the set-ups within one run vary by up to 1.9x;
* ``op_s`` -- one repetition of the workload's operation: the sum, over
  its pieces, of each piece's fastest time (the median repetition's
  total is printed too);
* ``peak_rss_mb`` -- peak resident memory of this process, read right
  after the timed body (before the oracles run).

The human-readable lines also give ``devices_per_s`` for the fleets,
``eval_s``/``lint_s``/``verify_s`` (each flow's pieces) for ``paper``,
and ``error_rate``: operations that raised or whose output differs from
the oracle, over operations attempted.  The final JSON line carries the
same as ``attempted``/``failed``.

``--trace 1`` alternates untraced repetitions with repetitions that run
with every wrap point installed, for ``--seconds`` in all, and prints the
per-layer table (self time per repetition, calls, share) whose rows add
up to the traced wall time, plus ``trace.overhead`` (traced over
untraced ``op_s``).

Every run prints, before the last line, one ``record`` JSON line with the
host facts (cores, Python, numpy) and the workload seeds, so a comparison
across different hosts can be refused (``perfbench/calibrate.py``).
All times are host wall-clock time on one core.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORD_SCHEMA = "perfbench-2"
#: set-up samples per run: this process's own plus ``SETUPS - 1`` children
SETUPS = 9
MIN_REPS = 3


def host_facts() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


class Laps:
    """The pieces of one repetition.

    The workload calls the instance with the flow a piece belongs to as
    soon as the piece ends; every interval between two calls (the first
    from the start of the repetition) is one piece.
    """

    def __init__(self) -> None:
        self.flows: list[str] = []
        self.seconds: list[float] = []
        self._last = time.perf_counter()

    def __call__(self, flow: str) -> None:
        now = time.perf_counter()
        self.seconds.append(now - self._last)
        self.flows.append(flow)
        self._last = now


def repeat(workload, seconds: float = 0.0, reps: int = 0, between=None):
    """Run ``workload.op``: exactly ``reps`` times, or until the timed
    repetitions add up to ``seconds`` (at least :data:`MIN_REPS`).
    ``between(timed_so_far)`` runs after every repetition, untimed.
    Returns the :class:`Laps` and the outputs of every repetition."""
    laps_list: list[Laps] = []
    outputs: list[list] = []
    timed = 0.0

    def more() -> bool:
        if reps:
            return len(laps_list) < reps
        return len(laps_list) < MIN_REPS or timed < seconds

    while more():
        gc.collect()  # no garbage from the previous repetition
        laps = Laps()
        outputs.append(workload.op(laps))
        laps_list.append(laps)
        timed += sum(laps.seconds)
        if between is not None:
            between(timed)
    return laps_list, outputs


def fastest(laps_list: list[Laps]) -> tuple[float, dict]:
    """(sum over pieces of each piece's fastest time, the same per flow).

    Only repetitions cut into the same pieces as the first are compared;
    one whose operation raised part-way may not be (it counts as failed).
    """
    shape = laps_list[0].flows
    columns = zip(*(laps.seconds for laps in laps_list if laps.flows == shape))
    flows: dict[str, float] = {}
    for flow, best in zip(shape, map(min, columns)):
        flows[flow] = flows.get(flow, 0.0) + best
    return sum(flows.values()), flows


def child_setup(args) -> float:
    """Set-up seconds of one fresh set-up-only process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def count_failures(outputs: list[list], reference: list) -> tuple[int, int]:
    attempted = failed = 0
    for rep in outputs:
        attempted += len(reference)
        if len(rep) != len(reference):
            failed += len(reference)
            continue
        failed += sum(1 for got, want in zip(rep, reference) if got != want)
    return attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed: the fleet seed and the eval seed (default 0)",
    )
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload '{args.workload}'; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {
        "record": RECORD_SCHEMA,
        "workload": args.workload,
        "seed": args.seed,
        "seeds": workload.seeds,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_facts(),
    }
    head = (f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
            + " ".join(f"{k}={v}" for k, v in record["host"].items()))
    print(head)

    if args.trace:
        return traced_run(args, workload, record)

    setups = [setup_s]

    def spread_setups(timed: float) -> None:
        # Child k starts once k/SETUPS of the timed seconds have passed.
        while len(setups) < SETUPS and timed >= len(setups) * args.seconds / SETUPS:
            setups.append(child_setup(args))

    laps_list, outputs = repeat(workload, seconds=args.seconds,
                                between=spread_setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUPS:
        setups.append(child_setup(args))
    attempted, failed = count_failures(outputs, workload.reference())

    op_s, flows = fastest(laps_list)
    totals = [sum(laps.seconds) for laps in laps_list]
    metrics = {
        "setup_s": (min(setups), "s"),
        "op_s": (op_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"  setup_s      {min(setups):.6f} s  fastest of {len(setups)} "
          f"set-ups (median {statistics.median(setups):.4f}): "
          f"{', '.join(f'{s:.4f}' for s in setups)}")
    print(f"  op_s         {op_s:.6f} s  fastest pieces of {len(totals)} "
          f"repetitions, {len(laps_list[0].seconds)} pieces each; repetition "
          f"median {statistics.median(totals):.4f} min {min(totals):.4f} "
          f"max {max(totals):.4f}")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  error_rate   {failed / attempted:g}  "
          f"({failed} of {attempted} operations failed)")
    for line in workload.describe(op_s, flows):
        print(f"  {line}")
    record.update(reps=len(totals), pieces=len(laps_list[0].seconds),
                  flow_s=flows, rep_s_samples=totals, setup_s_samples=setups)
    return finish(record, attempted, failed, metrics)


def traced_run(args, workload, record: dict) -> int:
    from perfbench.probes import LAYERS, Tracer

    tracer = Tracer()
    untraced: list[Laps] = []
    traced: list[Laps] = []
    outputs: list[list] = []
    # Untraced and traced repetitions alternate, so both see the same
    # host load and their ratio is the tracing overhead alone.
    while len(traced) < MIN_REPS or sum(
        sum(laps.seconds) for laps in untraced + traced
    ) < args.seconds:
        laps_list, outs = repeat(workload, reps=1)
        untraced += laps_list
        outputs += outs
        tracer.install()
        try:
            laps_list, outs = repeat(workload, reps=1)
        finally:
            tracer.restore()
        traced += laps_list
        outputs += outs
    attempted, failed = count_failures(outputs, workload.reference())

    overhead = fastest(traced)[0] / fastest(untraced)[0]
    totals = [sum(laps.seconds) for laps in traced]
    wall = sum(totals)
    reps = len(traced)
    print(f"  traced wall {wall:.4f} s over {reps} repetitions; "
          f"trace.overhead {overhead:.3f} (op_s traced / untraced)")
    print(f"  {'layer':<26}{'calls/rep':>12}{'self_s/rep':>12}{'share':>8}"
          "  should move")
    rows = tracer.table(wall, reps)
    for row in rows:
        print(f"  {row['layer']:<26}{row['calls']:>12.1f}"
              f"{row['self_s']:>12.6f}{row['share']:>8.1%}"
              f"  {LAYERS.get(row['layer'], '')}")
    print(f"  {'total':<26}{'':>12}{sum(r['self_s'] for r in rows):>12.6f}"
          f"{sum(r['share'] for r in rows):>8.1%}  = traced wall per "
          f"repetition {wall / reps:.6f} s")
    for name, value in sorted(tracer.counts.items()):
        print(f"  count {name} = {value / reps:g} per repetition")
    record.update(reps=reps, rep_s_samples=[sum(la.seconds) for la in untraced],
                  traced_rep_s_samples=totals)
    metrics = tracer.metrics(
        wall, reps, overhead, getattr(workload, "hit_rate", 0.0)
    )
    return finish(record, attempted, failed, metrics)


def finish(record: dict, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
