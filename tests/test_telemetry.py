"""Telemetry: determinism, non-perturbation, metrics, forensics.

The contract the telemetry layer stands on:

* the sim-time Chrome-trace export is a pure function of the
  observation trace -- same seed + spec gives byte-identical JSON;
* enabling the wall-clock tracer never changes execution -- stats,
  observation events, NV state, and detector query counts are
  bit-identical tracing-on vs tracing-off, on both engines
  (hypothesis-tested over generated programs);
* the metrics registry serializes deterministically behind the
  ``repro-metrics-1`` schema;
* violation forensics names the causing observation chain (sensor
  read, tau, staleness, provenance path, policy window).
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import BENCHMARKS
from repro.core.cache import GLOBAL_CACHE
from repro.eval.profiles import STANDARD_PROFILE
from repro.runtime.engine import ENGINE_FAST, ENGINE_REFERENCE, create_machine
from repro.runtime.supply import ContinuousPower
from repro.sensors.environment import Environment, random_walk, steps
from repro import telemetry
from repro.telemetry.metrics import MetricsRegistry
from tests.strategies import program_sources
from repro.core.pipeline import compile_source


def _gen_env(seed: int) -> Environment:
    return Environment(
        {
            "alpha": steps([3, 11, 7], 900),
            "beta": random_walk(20, 5, seed=seed, interval=300),
            "gamma": steps([-4, 18], 1500),
        }
    )


def _run(compiled, engine, env=None, seed=7):
    machine = create_machine(
        engine,
        compiled,
        env if env is not None else _gen_env(3),
        STANDARD_PROFILE.make_supply(seed=seed),
    )
    result = machine.run()
    return machine, result


class TestSimTimeTraceDeterminism:
    def test_same_seed_same_bytes(self):
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "jit")
        docs = []
        for _ in range(2):
            machine = create_machine(
                ENGINE_FAST,
                compiled,
                meta.env_factory(5),
                STANDARD_PROFILE.make_supply(seed=3),
            )
            result = machine.run()
            docs.append(telemetry.chrome_trace_json(result.trace))
        assert docs[0] == docs[1]

    def test_chrome_trace_shape(self):
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        machine = create_machine(
            ENGINE_FAST, compiled, meta.env_factory(5), ContinuousPower()
        )
        result = machine.run()
        doc = telemetry.chrome_trace(result.trace)
        assert doc["traceEvents"]
        for event in doc["traceEvents"]:
            assert event["ph"] in ("i", "B", "E", "X", "M")
            assert "pid" in event and "tid" in event and "name" in event
            if event["ph"] != "M":
                assert isinstance(event["ts"], (int, float))
        # the document round-trips through JSON (Perfetto-loadable)
        assert json.loads(json.dumps(doc))["otherData"]["schema"] == (
            telemetry.TRACE_SCHEMA
        )
        # regions open and close in pairs
        opens = sum(1 for e in doc["traceEvents"] if e["ph"] == "B")
        closes = sum(1 for e in doc["traceEvents"] if e["ph"] == "E")
        assert opens == closes

    def test_multi_activation_traces_tag_activation(self):
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        traces = []
        for _ in range(2):
            machine = create_machine(
                ENGINE_FAST, compiled, meta.env_factory(5), ContinuousPower()
            )
            traces.append(machine.run().trace)
        doc = telemetry.chrome_trace(traces)
        tagged = {
            e["args"]["activation"]
            for e in doc["traceEvents"]
            if "args" in e and "activation" in e["args"]
        }
        assert tagged == {0, 1}


class TestTracingNeverPerturbs:
    """Wall-clock tracing on vs off: bit-parity on both engines."""

    def _parity(self, compiled, engine, env_factory=None):
        baseline_machine, baseline = _run(
            compiled, engine, env_factory() if env_factory else None
        )
        telemetry.enable_tracing()
        try:
            traced_machine, traced = _run(
                compiled, engine, env_factory() if env_factory else None
            )
        finally:
            telemetry.disable_tracing()
        assert baseline.stats == traced.stats
        assert baseline.trace.events == traced.trace.events
        assert baseline.ret == traced.ret
        assert baseline.detector_queries == traced.detector_queries
        assert baseline_machine.tau == traced_machine.tau
        assert (
            baseline_machine.nv.snapshot_values()
            == traced_machine.nv.snapshot_values()
        )

    def test_benchmarks_both_engines(self):
        for app in ("tire", "greenhouse"):
            meta = BENCHMARKS[app]
            for config in ("ocelot", "jit"):
                compiled = GLOBAL_CACHE.get_or_compile(meta.source, config)
                for engine in (ENGINE_REFERENCE, ENGINE_FAST):
                    self._parity(
                        compiled, engine, lambda m=meta: m.env_factory(5)
                    )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        source=program_sources(min_annotations=1),
        config=st.sampled_from(["ocelot", "jit"]),
        engine=st.sampled_from([ENGINE_REFERENCE, ENGINE_FAST]),
    )
    def test_generated_programs(self, source, config, engine):
        compiled = compile_source(source, config)
        self._parity(compiled, engine)

    def test_wall_tracer_records_activation_spans(self):
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "jit")
        wall = telemetry.enable_tracing()
        try:
            _run(compiled, ENGINE_FAST, meta.env_factory(5))
        finally:
            telemetry.disable_tracing()
        spans = [e for e in wall.events if e["ph"] == "X"]
        assert spans and spans[0]["name"] == "activation"
        assert spans[0]["dur"] >= 0
        # disabled again: nothing records
        assert telemetry.tracer() is None


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(4)
        registry.gauge("g").set(2.5)
        for v in (1.0, 3.0):
            registry.histogram("h").observe(v)
        doc = registry.to_dict(command="test")
        assert doc["schema"] == telemetry.METRICS_SCHEMA
        assert doc["counters"] == {"a": 5}
        assert doc["gauges"] == {"g": 2.5}
        assert doc["histograms"]["h"] == {
            "count": 2,
            "total": 4.0,
            "min": 1.0,
            "max": 3.0,
            "mean": 2.0,
        }
        assert doc["command"] == "test"

    def test_timer_and_seconds(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            pass
        assert registry.histogram("t").count == 1
        assert registry.seconds("t") >= 0.0
        assert registry.seconds("missing") == 0.0

    def test_json_is_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("z").inc(2)
            registry.counter("a").inc(1)
            registry.gauge("m").set(1)
            return registry.to_json(command="x")

        assert build() == build()

    def test_absorb_run_counts_detector_queries(self):
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        machine = create_machine(
            ENGINE_FAST, compiled, meta.env_factory(5), ContinuousPower()
        )
        result = machine.run()
        registry = MetricsRegistry()
        telemetry.absorb_run(registry, result)
        doc = registry.to_dict()
        assert doc["counters"]["run.detector_queries"] == (
            machine.detector_queries
        )
        assert doc["counters"]["run.instructions"] == result.stats.instructions


class TestDetectorQueriesPlumbing:
    """Satellite: machine counter -> record -> aggregate -> campaign."""

    def test_run_result_carries_queries(self):
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        machine = create_machine(
            ENGINE_FAST, compiled, meta.env_factory(5), ContinuousPower()
        )
        result = machine.run()
        assert result.detector_queries == machine.detector_queries > 0

    def test_activation_record_and_summary(self):
        from repro.runtime.harness import run_activations

        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        outcome = run_activations(
            compiled,
            meta.env_factory(5),
            STANDARD_PROFILE.make_supply(seed=2),
            budget_cycles=40_000,
        )
        assert outcome.records
        total = sum(r.detector_queries for r in outcome.records)
        assert total > 0
        assert outcome.detector_queries == total

    def test_class_aggregate_sums_and_roundtrips(self):
        from repro.fleet.aggregate import ClassAggregate
        from repro.runtime.harness import ActivationRecord

        agg = ClassAggregate(app="tire", config="ocelot")
        record = ActivationRecord(
            index=0,
            completed=True,
            violations=0,
            cycles_on=10,
            cycles_off=0,
            reboots=0,
            detector_queries=7,
        )
        agg.add(record)
        agg.add(record, 3)
        assert agg.detector_queries == 28
        clone = ClassAggregate.from_dict(agg.to_dict())
        assert clone.detector_queries == 28
        clone.merge(agg)
        assert clone.detector_queries == 56


class TestForensics:
    def _violating_traces(self):
        from repro.verify import VerifyBounds, verify_program

        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "jit")
        env = Environment.constant_for(compiled.module.channels, 0)
        verdict = verify_program(
            compiled,
            env,
            VerifyBounds(max_activations=1, max_failures=1),
        )
        assert verdict.kind == "counterexample"
        return compiled, verdict

    def test_counterexample_carries_forensics(self):
        compiled, verdict = self._violating_traces()
        assert verdict.forensics
        report = verdict.forensics[0]
        assert report.kind == "fresh"
        # the causing observation chain is named end to end
        [missing] = report.missing
        assert missing.channel == "accel"
        assert missing.read_tau is not None
        assert missing.staleness > 0
        assert missing.reboots_between == 1
        assert missing.chains and "read_accel" in missing.chains[0]
        text = verdict.certificate()
        assert "forensics" in text and "stale by" in text

    def test_report_dict_roundtrips_json(self):
        _, verdict = self._violating_traces()
        payload = [r.to_dict() for r in verdict.forensics]
        assert json.loads(json.dumps(payload)) == payload

    def test_no_violations_no_reports(self):
        meta = BENCHMARKS["tire"]
        compiled = GLOBAL_CACHE.get_or_compile(meta.source, "ocelot")
        machine = create_machine(
            ENGINE_FAST, compiled, meta.env_factory(5), ContinuousPower()
        )
        result = machine.run()
        reports = telemetry.explain_traces([result.trace], compiled.policies)
        assert reports == []
        assert "nothing to explain" in telemetry.render_reports(reports)


class TestCliTelemetry:
    def test_trace_command_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert (
                main(
                    [
                        "trace",
                        "tire",
                        "--config",
                        "jit",
                        "--intermittent",
                        "--seed",
                        "3",
                        "--out",
                        str(path),
                    ]
                )
                == 0
            )
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()
        doc = json.loads(paths[0].read_text())
        assert doc["otherData"]["schema"] == telemetry.TRACE_SCHEMA

    def test_explain_command_names_chain(self, tmp_path, capsys):
        from repro.cli import main

        schedule = tmp_path / "cex.json"
        code = main(
            [
                "verify",
                "tire",
                "--config",
                "jit",
                "--max-failures",
                "1",
                "--schedule-out",
                str(schedule),
            ]
        )
        assert code == 1
        capsys.readouterr()
        assert (
            main(
                [
                    "explain",
                    "tire",
                    "--config",
                    "jit",
                    "--schedule",
                    str(schedule),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "violation [tau=" in out
        assert "via chain" in out
        assert "stale by" in out

    def test_metrics_out_flag(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        assert (
            main(["run", "tire", "--metrics-out", str(metrics)]) == 0
        )
        capsys.readouterr()
        doc = json.loads(metrics.read_text())
        assert doc["schema"] == telemetry.METRICS_SCHEMA
        assert doc["command"] == "run"
        assert doc["counters"]["run.detector_queries"] > 0

    def test_fleet_metrics_export_memo_counters(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "fleet.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "metrics-fleet",
                    "fleet_seed": 3,
                    "budget_cycles": 15000,
                    "classes": [
                        {
                            "name": "tire",
                            "app": "tire",
                            "config": "ocelot",
                            "count": 6,
                            "supply": {
                                "name": "rf",
                                "kind": "harvest",
                                "harvest_rate": 300,
                            },
                            "harvest_jitter": 0.5,
                        }
                    ],
                }
            )
        )
        metrics = tmp_path / "metrics.json"
        memo_dir = tmp_path / "memo"
        args = [
            "fleet",
            str(spec),
            "--executor",
            "vector",
            "--memo-dir",
            str(memo_dir),
            "--metrics-out",
            str(metrics),
        ]
        assert main(args) == 0  # cold: populates the on-disk store
        assert main(args) == 0  # warm: loads it back
        capsys.readouterr()
        counters = json.loads(metrics.read_text())["counters"]
        for key in (
            "fleet.memo.hits",
            "fleet.memo.misses",
            "fleet.memo.evictions",
            "fleet.memo.disk_loads",
        ):
            assert key in counters
        assert counters["fleet.memo.disk_loads"] > 0
        assert counters["fleet.memo.misses"] > 0

    def test_rejected_memo_shard_warns_and_counts(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "fleet.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "rejected-shard",
                    "fleet_seed": 3,
                    "budget_cycles": 15000,
                    "classes": [
                        {"name": "tire", "app": "tire", "config": "ocelot",
                         "count": 6, "harvest_jitter": 0.5}
                    ],
                }
            )
        )
        memo_dir = tmp_path / "memo"
        metrics = tmp_path / "metrics.json"

        def run(name):
            out = tmp_path / f"{name}.json"
            assert main(["fleet", str(spec), "--executor", "vector",
                         "--memo-dir", str(memo_dir), "--output", str(out),
                         "--metrics-out", str(metrics)]) == 0
            warnings = [
                line for line in capsys.readouterr().err.splitlines()
                if "memo shard" in line
            ]
            counters = json.loads(metrics.read_text())["counters"]
            return json.loads(out.read_text()), warnings, counters

        cold, warnings, counters = run("cold")
        assert warnings == []  # a missing shard is a cold start
        assert "fleet.memo.rejected_shards" not in counters
        (shard,) = memo_dir.glob("memo-*.pkl")
        shard.write_bytes(b"\x80corrupt garbage")
        rerun, warnings, counters = run("rerun")
        assert len(warnings) == 1 and str(shard) in warnings[0]
        assert counters["fleet.memo.rejected_shards"] == 1
        assert counters["fleet.memo.disk_loads"] == 0
        assert rerun["aggregate"] == cold["aggregate"]

    def test_quiet_silences_status(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        assert (
            main(["run", "tire", "--quiet", "--metrics-out", str(metrics)])
            == 0
        )
        captured = capsys.readouterr()
        assert "metrics written" not in captured.err
        assert metrics.exists()
