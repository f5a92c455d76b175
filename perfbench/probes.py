"""Per-layer attribution for the traced run: span wrappers and the layer map.

The traced run wraps the layers' public functions from the benchmark's
side -- nothing under ``src/`` changes -- in two ways:

* class attributes (``FastMachine.run``, ``ActivationMemo.get``, ...);
* names the consumer modules import (``repro.fleet.spec.derive_seed``,
  ``repro.verify.explorer.state_digest``, ...), so the wrapper sits
  exactly where the layer is called.

Each wrapper records a span: count, total time, and *self* time (the
span's duration minus the time covered by wrapped children).  Compile
passes are not wrapped one by one: ``PassManager`` already times every
pass into ``CompiledProgram.timings``, so the ``compile_program`` wrapper
books those seconds as virtual children.  Spans are aggregated by name in
memory and the originals are restored when the run ends.  Because self
times partition the covered time, the self times of all spans plus the
``unattributed`` remainder add up to the traced wall time exactly.
"""

from __future__ import annotations

import time
from collections import Counter

#: Which end-to-end metric each layer should move, on which workload --
#: written down before measuring, so a later change that claims a gain on
#: one layer can be held to it.  ``op_s`` is the time of one repetition
#: of the workload's operation (see ``perfbench/run.py``); on ``paper``
#: it is the sum of the printed ``eval_s``, ``lint_s`` and ``verify_s``.
#: Counts and ratios carry their layer's prefix and move with it
#: (``runtime.instructions`` with ``runtime.run``, ``verify.explored``
#: with ``verify.explore``, ``fleet.memo.hit_rate`` with the memo).
LAYERS: dict[str, str] = {
    "runtime.run": "op_s on fleet-jittered, paper (eval_s)",
    "runtime.machine_init": "op_s on fleet-jittered, paper (eval_s)",
    "runtime.step": "op_s on paper (verify_s)",
    "runtime.snapshot.capture": "op_s on paper (verify_s)",
    "runtime.snapshot.restore": "op_s on paper (verify_s)",
    "fleet.expand": "op_s, peak_rss_mb on fleet-jittered (small share)",
    "energy.derive_seed": "op_s on fleet-jittered (small share)",
    "fleet.vector": "op_s, peak_rss_mb on fleet-jittered (cohorts, waves)",
    "fleet.fold": "op_s on fleet-jittered (small share)",
    "fleet.memo.get": "op_s on fleet-jittered (lookups)",
    "fleet.memo.put": "op_s on fleet-jittered (memo writes)",
    "fleet.nv_encode": "op_s on fleet-jittered (miss post-state keys)",
    "core.cache": "op_s on paper (build keys: source hash, pipeline)",
    "lang.parse": "op_s on paper (lint_s most; verify_s, eval_s less)",
    "core.compile": "op_s on paper (lint_s most); setup_s on fleet-jittered",
    "lang.validate": "op_s on paper (lint_s most; verify_s, eval_s less)",
    "ir.lower": "op_s on paper (lint_s most; verify_s, eval_s less)",
    "ir.verify": "op_s on paper (lint_s most; verify_s, eval_s less)",
    "analysis.taint": "op_s on paper (lint_s most; runs twice per build)",
    "analysis.policies": "op_s on paper (lint_s most; verify_s, eval_s less)",
    "core.shape_atomics": "op_s on paper (lint_s: atomics builds)",
    "core.infer_regions": "op_s on paper (lint_s most; verify_s, eval_s less)",
    "core.war_omegas": "op_s on paper (lint_s most; verify_s, eval_s less)",
    "core.check": "op_s on paper (lint_s most; verify_s, eval_s less)",
    "ir.opt.checks": "op_s of any flow building an -opt config (none today)",
    "analysis.staleness": "op_s on paper (lint_s)",
    "eval.campaign": "op_s on paper (eval_s: job set-up outside the engine)",
    "verify.program": "op_s on paper (verify_s: minimization, forensics)",
    "verify.explore": "op_s on paper (verify_s: frontier, forks, pruning)",
    "verify.digest": "op_s on paper (verify_s)",
    "unattributed": "benchmark glue and unwrapped code inside the flows",
}

#: ``PassManager`` stage names -> layer names above.  A pass missing
#: here is still attributed, as ``pass.<stage>``.
PASS_LAYERS: dict[str, str] = {
    "validate": "lang.validate",
    "lower": "ir.lower",
    "verify-ir": "ir.verify",
    "taint": "analysis.taint",
    "policies": "analysis.policies",
    "shape-atomics": "core.shape_atomics",
    "infer-regions": "core.infer_regions",
    "war-omegas": "core.war_omegas",
    "check": "core.check",
    "opt-checks": "ir.opt.checks",
}

#: Span-call counts published per operation: metric name -> span name.
CALL_COUNTS: dict[str, str] = {
    "runtime.activations": "runtime.run",
    "runtime.machine_inits": "runtime.machine_init",
    "runtime.steps": "runtime.step",
    "runtime.snapshot.captures": "runtime.snapshot.capture",
    "runtime.snapshot.restores": "runtime.snapshot.restore",
    "energy.derive_seeds": "energy.derive_seed",
    "fleet.folds": "fleet.fold",
    "fleet.memo.gets": "fleet.memo.get",
    "fleet.memo.puts": "fleet.memo.put",
    "fleet.nv_encodes": "fleet.nv_encode",
    "core.cache.lookups": "core.cache",
    "lang.parses": "lang.parse",
    "core.compiles": "core.compile",
    "analysis.staleness.runs": "analysis.staleness",
    "eval.campaign.jobs": "eval.campaign",
    "verify.digests": "verify.digest",
}

#: Counts the hooks read off results, published per operation.
RESULT_COUNTS = (
    "runtime.instructions",
    "runtime.observations",
    "runtime.detector_queries",
    "analysis.taint.runs",
    "verify.explored",
    "verify.steps",
    "verify.pruned",
    "verify.deduped",
)


class Tracer:
    """In-memory span aggregation over wrapped functions.

    Create one per traced run, :meth:`install` the wrap points, run the
    traced body, then :meth:`restore` (always, in a ``finally``).
    """

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        # Child-time accumulators, one per open span; index 0 is the root.
        self._stack: list[float] = [0.0]
        self._originals: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _book(self, name: str, total: float, own: float) -> None:
        record = self.spans.get(name)
        if record is None:
            record = self.spans[name] = [0, 0.0, 0.0]
        record[0] += 1
        record[1] += total
        record[2] += own

    def _close(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        child = self._stack.pop()
        self._stack[-1] += elapsed
        self._book(name, elapsed, elapsed - child)

    def virtual_child(self, name: str, seconds: float) -> None:
        """Book ``seconds`` measured elsewhere as a child of the open span."""
        self._stack[-1] += seconds
        self._book(name, seconds, seconds)

    def wrap(self, owner, attr: str, span: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs outside the span and returns a token;
        ``after(args, result, token)`` runs inside it, so hooks may book
        virtual children or counts against the span they belong to.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, result, token)
                return result
            finally:
                close(span, start)

        wrapper.__wrapped__ = original
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- the wrap points -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the benchmark attributes time to."""
        import repro.analysis.staleness as staleness
        import repro.core.pipeline as pipeline
        import repro.eval.campaign as campaign
        import repro.fleet.spec as fleet_spec
        import repro.verify as verify
        import repro.verify.explorer as explorer
        from repro.core.cache import CompileCache
        from repro.fleet.aggregate import FleetAggregator
        from repro.fleet.spec import FleetSpec
        from repro.fleet.vector import ActivationMemo, NVCodec, VectorFleetExecutor
        from repro.runtime.engine import FastMachine

        counts = self.counts

        def machine_before(args):
            machine = args[0]
            return (
                machine.stats.instructions,
                len(machine.trace.events),
                machine.detector_queries,
            )

        def machine_after(args, result, token):
            instructions, events, queries = token
            counts["runtime.instructions"] += result.stats.instructions - instructions
            counts["runtime.observations"] += len(result.trace.events) - events
            counts["runtime.detector_queries"] += result.detector_queries - queries

        def cache_after(args, result, token):
            if result[1]:
                counts["core.cache.hits"] += 1

        def compile_after(args, result, token):
            for timing in result.timings:
                if timing.stage == "taint":
                    counts["analysis.taint.runs"] += 1
                self.virtual_child(
                    PASS_LAYERS.get(timing.stage, f"pass.{timing.stage}"),
                    timing.seconds,
                )

        def explore_after(args, result, token):
            stats = result.stats
            counts["verify.explored"] += stats.explored
            counts["verify.steps"] += stats.steps
            counts["verify.pruned"] += stats.pruned + stats.pruned_noop
            counts["verify.deduped"] += stats.deduped

        wrap = self.wrap
        wrap(FastMachine, "run", "runtime.run", machine_before, machine_after)
        wrap(FastMachine, "step", "runtime.step")
        wrap(FastMachine, "__init__", "runtime.machine_init")
        wrap(ActivationMemo, "get", "fleet.memo.get")
        wrap(ActivationMemo, "put", "fleet.memo.put")
        wrap(NVCodec, "encode", "fleet.nv_encode")
        wrap(FleetAggregator, "observe", "fleet.fold")
        wrap(FleetAggregator, "observe_many", "fleet.fold")
        wrap(FleetSpec, "expand", "fleet.expand")
        wrap(CompileCache, "get_or_compile_with_info", "core.cache",
             after=cache_after)
        wrap(VectorFleetExecutor, "run", "fleet.vector")
        wrap(explorer.Explorer, "run", "verify.explore", after=explore_after)
        wrap(fleet_spec, "derive_seed", "energy.derive_seed")
        wrap(explorer, "state_digest", "verify.digest")
        wrap(explorer, "capture_machine", "runtime.snapshot.capture")
        wrap(explorer, "restore_machine", "runtime.snapshot.restore")
        wrap(pipeline, "parse_program", "lang.parse")
        wrap(pipeline, "compile_program", "core.compile", after=compile_after)
        wrap(campaign, "execute_job", "eval.campaign")
        # Called by the benchmark itself (the lint and verify flows look
        # these up on their modules at call time).
        wrap(staleness, "analyze_staleness", "analysis.staleness")
        wrap(verify, "verify_program", "verify.program")

    # -- the report ----------------------------------------------------------

    def table(self, wall: float, ops: int) -> list[dict]:
        """Per-layer rows, self time descending, plus ``unattributed``.

        ``wall`` is the traced wall time of ``ops`` operations; the rows'
        ``self_s`` values sum to ``wall / ops``.
        """
        rows = [
            {
                "layer": name,
                "calls": calls / ops,
                "total_s": total / ops,
                "self_s": own / ops,
                "share": own / wall,
            }
            for name, (calls, total, own) in self.spans.items()
        ]
        attributed = sum(own for _, _, own in self.spans.values())
        rows.append(
            {
                "layer": "unattributed",
                "calls": 0,
                "total_s": (wall - attributed) / ops,
                "self_s": (wall - attributed) / ops,
                "share": (wall - attributed) / wall,
            }
        )
        rows.sort(key=lambda row: -row["self_s"])
        return rows

    def metrics(self, wall: float, ops: int, overhead: float,
                memo_hit_rate: float) -> dict:
        """The ``per_layer`` metrics of ``BENCHMARK.json``, every one present.

        Self times are published as shares of the traced wall time: a
        layer a workload never enters reads exactly 0 there, which is a
        true share but would be a constant *time*.  Counts are per
        operation; every operation of a workload does identical work.
        ``memo_hit_rate`` is the fleet run's own memo accounting
        (activations replayed over activations), 0 outside the fleets.
        """
        shares = {row["layer"]: row["share"] for row in self.table(wall, ops)}
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_share"] = (shares.get(layer, 0.0), "fraction")
        calls = {name: record[0] for name, record in self.spans.items()}
        for metric, span in CALL_COUNTS.items():
            out[metric] = (_per_op(calls.get(span, 0), ops), "count")
        for metric in RESULT_COUNTS:
            out[metric] = (_per_op(self.counts[metric], ops), "count")
        run_self = self.spans.get("runtime.run", [0, 0.0, 0.0])[2]
        out["runtime.instructions_per_s"] = (
            self.counts["runtime.instructions"] / run_self if run_self else 0.0,
            "1/s",
        )
        out["fleet.memo.hit_rate"] = (memo_hit_rate, "fraction")
        lookups = calls.get("core.cache", 0)
        out["core.cache.hit_rate"] = (
            self.counts["core.cache.hits"] / lookups if lookups else 0.0,
            "fraction",
        )
        explored = self.counts["verify.explored"]
        out["verify.dedup_ratio"] = (
            self.counts["verify.deduped"] / explored if explored else 0.0,
            "fraction",
        )
        out["trace.op_s"] = (wall / ops, "s")
        out["trace.overhead"] = (overhead, "x")
        return out


def _per_op(total: int, ops: int):
    value = total / ops
    return int(value) if value == int(value) else value
