"""Command-line interface for the Ocelot toolchain.

Subcommands::

    python -m repro compile FILE      # compile; show regions / IR / policies
    python -m repro build TARGET      # compile; dump any stage artifact
    python -m repro check FILE        # checker mode on manual regions
    python -m repro run TARGET        # simulate an execution
    python -m repro trace TARGET      # run + export a Chrome-trace timeline
    python -m repro explain TARGET    # run + violation forensics report
    python -m repro verify TARGET     # bounded power-failure model checking
    python -m repro feasibility FILE  # Section 5.3 energy-feasibility report
    python -m repro eval              # regenerate the paper's tables/figures
    python -m repro campaign SPEC     # run a declarative evaluation campaign
    python -m repro fleet SPEC        # simulate a multi-device fleet

Every subcommand takes ``--verbose/--quiet`` (status output goes through
``repro.telemetry.logging``); ``run``/``trace``/``explain``/``verify``/
``campaign``/``fleet`` take ``--metrics-out PATH`` to dump the shared
metrics-registry JSON (schema ``repro-metrics-1``).

Programs are modeling-language source files (see ``examples/`` and
``src/repro/apps/`` for reference programs); ``build``, ``run``, and
``verify`` also accept a registered benchmark name.  ``--config`` accepts any registered build
configuration and ``--emit`` any registered stage artifact -- both lists
are derived from their registries (:mod:`repro.core.passes`), including
the check-optimizer artifacts ``dataflow`` and ``opt`` of the ``*-opt``
configurations.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.analysis.policies import build_policies
from repro.analysis.taint import analyze_module
from repro.core.cache import compile_cached
from repro.core.checker import check_atomic_regions
from repro.core.feasibility import check_feasibility, profile_usable_energy
from repro.core.passes import (
    BuildConfig,
    UnknownConfigError,
    artifact_names,
    config_names,
    emit_artifact,
    get_config,
)
from repro.core.pipeline import PipelineOptions
from repro.eval.profiles import STANDARD_PROFILE
from repro.ir.lowering import lower_program
from repro.ir.printer import print_module
from repro.lang.errors import LangError, SourceSpan
from repro.lang.parser import parse_program
from repro.runtime.engine import ENGINE_FAST, ENGINES
from repro.runtime.harness import run_once
from repro.runtime.supply import ContinuousPower
from repro.sensors.environment import Environment, bind_signal_specs, constant
from repro import telemetry

_log = telemetry.get_logger("cli")


def _at_least(least: int):
    """An argparse ``type`` for integers no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: '{text}'"
            ) from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return parse


def _read_source(path: str) -> str:
    return Path(path).read_text()


def _read_program(path: str) -> str:
    """Program text of ``path``, or a one-line SystemExit naming it."""
    try:
        return _read_source(path)
    except OSError as exc:
        raise SystemExit(f"cannot read '{path}': {exc}") from None


def _front_end_error(path: str, exc: LangError) -> SystemExit:
    """A one-line exit for a lex, parse or semantic error in ``path``,
    naming the file and, when the error has one, its ``line:col``."""
    if exc.span == SourceSpan.synthetic():
        return SystemExit(f"{path}: {exc.message}")
    return SystemExit(f"{path}:{exc.span}: {exc.message}")


def _write_metrics(args: argparse.Namespace, command: str) -> None:
    """Dump the process-wide registry if ``--metrics-out`` was given."""
    path = getattr(args, "metrics_out", None)
    if path:
        telemetry.METRICS.write(path, command=command)
        _log.info(f"metrics written to {path}")


def _resolve_config(name: str) -> BuildConfig:
    """A registered config, or a one-line SystemExit listing all names."""
    try:
        return get_config(name)
    except UnknownConfigError as exc:
        raise SystemExit(str(exc)) from None


def _compile_text(path: str, source: str, config: str):
    """Compile ``source`` (read from ``path``) through the process-wide
    compile cache."""
    resolved = _resolve_config(config)
    try:
        return compile_cached(
            source, config=resolved, options=PipelineOptions(strict=False)
        )
    except LangError as exc:
        raise _front_end_error(path, exc) from None


def _compile(path: str, config: str):
    """Compile a file through the process-wide compile cache."""
    return _compile_text(path, _read_program(path), config)


def _parse_env(module_channels: list[str], specs: list[str]) -> Environment:
    """Build an environment from ``--set ch=value`` / ``ch=a,b:dwell`` specs.

    Spec binding shares :func:`repro.sensors.environment.bind_signal_specs`
    with the campaign engine's environment overrides.
    """
    env = Environment()
    bound: set[str] = set()
    for spec in specs:
        if "=" not in spec:
            raise SystemExit(
                f"bad --set '{spec}': expected CHANNEL=VALUE or "
                "CHANNEL=L1,L2,...:DWELL"
            )
        channel, _, value = spec.partition("=")
        try:
            bind_signal_specs(env, [(channel, value)])
        except ValueError as exc:
            raise SystemExit(f"bad --set '{spec}': {exc}") from None
        bound.add(channel)
    for channel in module_channels:
        if channel not in bound:
            env.bind(channel, constant(0))
    return env


def _resolve_target_source(target: str) -> str:
    """Program text for ``target``: a source file path, or a registered
    benchmark name when no such file exists."""
    from repro.apps import BENCHMARKS

    if target in BENCHMARKS and not Path(target).exists():
        return BENCHMARKS[target].source
    try:
        return _read_source(target)
    except OSError as exc:
        known = ", ".join(BENCHMARKS)
        raise SystemExit(
            f"cannot read '{target}' (not a file; known benchmark "
            f"names: {known}): {exc}"
        ) from None


def _compile_target(target: str, config: str):
    """Compile a file-or-benchmark target through the compile cache."""
    return _compile_text(target, _resolve_target_source(target), config)


def cmd_compile(args: argparse.Namespace) -> int:
    compiled = _compile(args.file, args.config)
    print(f"config      : {compiled.config}")
    print(f"functions   : {len(compiled.module.functions)}")
    print(f"policies    : {len(compiled.policies)}")
    print(f"checker     : {'PASS' if compiled.check.ok else 'FAIL'}")
    for failure in compiled.check.failures:
        print(f"  ! {failure}")
    if args.regions or not (args.ir or args.policies):
        for region in compiled.regions:
            print(
                f"region {region.region} [{region.pid}] in {region.func}: "
                f"{region.start_block}[{region.start_index}] .. "
                f"{region.end_block}[{region.end_index}]"
            )
        for info in compiled.region_infos:
            print(
                f"  {info.region}: omega={sorted(info.omega)} "
                f"war={sorted(info.war)} emw={sorted(info.emw)}"
            )
    if args.policies:
        for policy in compiled.policies.all_policies():
            print(f"policy {policy.pid} [{policy.kind}]")
            for chain in sorted(policy.inputs):
                print(f"  input: {chain}")
    if args.ir:
        print(print_module(compiled.module))
    enforcing = _resolve_config(args.config).enforces
    return 0 if compiled.check.ok or not enforcing else 1


def cmd_build(args: argparse.Namespace) -> int:
    """Compile and dump stage artifacts (``--emit ir|taint|timings|...``)."""
    compiled = _compile_target(args.target, args.config)
    kinds: list[str] = []
    for entry in args.emit or ["summary"]:
        kinds.extend(k.strip() for k in entry.split(",") if k.strip())
    for kind in kinds:
        try:
            text = emit_artifact(compiled, kind)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        if len(kinds) > 1:
            print(f"== {kind} ==")
        print(text)
    enforcing = _resolve_config(args.config).enforces
    return 0 if compiled.check.ok or not enforcing else 1


def cmd_check(args: argparse.Namespace) -> int:
    """Checker mode (Section 8): validate manual regions, insert nothing."""
    source = _read_program(args.file)
    try:
        module = lower_program(parse_program(source))
    except LangError as exc:
        raise _front_end_error(args.file, exc) from None
    taint = analyze_module(module)
    policies = build_policies(taint)
    report = check_atomic_regions(module, policies)
    if report.ok:
        print("PASS: every policy is enforced by an existing atomic region")
        for pid, extent in sorted(report.policy_extents.items()):
            print(f"  {pid}: region opened at {extent[1]}")
        return 0
    print("FAIL:")
    for failure in report.failures:
        print(f"  {failure}")
    return 1


def _load_schedule(path: str):
    from repro.verify import Schedule, ScheduleError

    try:
        return Schedule.from_json(Path(path).read_text())
    except OSError as exc:
        raise SystemExit(f"cannot read schedule '{path}': {exc}") from None
    except ScheduleError as exc:
        raise SystemExit(f"bad schedule '{path}': {exc}") from None


def cmd_run(args: argparse.Namespace) -> int:
    compiled = _compile_target(args.file, args.config)
    telemetry.absorb_pass_timings(telemetry.METRICS, compiled)
    env = _parse_env(compiled.module.channels, args.set or [])
    if args.schedule:
        from repro.verify import replay_schedule

        schedule = _load_schedule(args.schedule)
        result = replay_schedule(
            compiled, env, schedule, engine=args.engine,
            stop_at_violation=False,
        )
        telemetry.absorb_replay(telemetry.METRICS, result)
        _write_metrics(args, "run")
        print(
            f"schedule    : {len(schedule.points)} failure point(s), "
            f"{schedule.activations} activation(s)"
        )
        print(f"activations : {result.activations}")
        print(f"completed   : {result.completed}")
        print(f"all fired   : {result.all_fired}")
        print(f"violations  : {len(result.violations)}")
        for violation in result.violations:
            missing = ", ".join(str(c) for c in violation.missing)
            print(
                f"  [tau={violation.tau}] {violation.kind} {violation.pid} "
                f"at {violation.uid.func}:{violation.uid.label} "
                f"missing {{{missing}}}"
            )
        print(f"final tau   : {result.final_tau}")
        return 0 if result.completed else 1
    supply = (
        STANDARD_PROFILE.make_supply(seed=args.seed)
        if args.intermittent
        else ContinuousPower()
    )
    result = run_once(compiled, env, supply, engine=args.engine)
    telemetry.absorb_run(telemetry.METRICS, result)
    _write_metrics(args, "run")
    print(f"completed   : {result.stats.completed}")
    print(f"cycles on   : {result.stats.cycles_on}")
    print(f"cycles off  : {result.stats.cycles_off}")
    print(f"reboots     : {result.stats.reboots}")
    print(f"violations  : {result.stats.violations}")
    for output in result.trace.outputs:
        values = ", ".join(str(v) for v in output.values)
        print(f"  [tau={output.tau}] {output.op}({values})")
    if args.trace:
        for event in result.trace:
            print(f"  {event}")
    return 0 if result.stats.completed else 1


def _traces_for(args: argparse.Namespace, compiled, env):
    """Execute with run-style flags; (per-activation traces, completed)."""
    if getattr(args, "schedule", None):
        from repro.verify import replay_schedule

        schedule = _load_schedule(args.schedule)
        result = replay_schedule(
            compiled, env, schedule, engine=args.engine,
            stop_at_violation=False,
        )
        telemetry.absorb_replay(telemetry.METRICS, result)
        return list(result.traces), result.completed
    supply = (
        STANDARD_PROFILE.make_supply(seed=args.seed)
        if args.intermittent
        else ContinuousPower()
    )
    result = run_once(compiled, env, supply, engine=args.engine)
    telemetry.absorb_run(telemetry.METRICS, result)
    return [result.trace], result.stats.completed


def cmd_trace(args: argparse.Namespace) -> int:
    """Run and export the timeline as Chrome-trace/Perfetto JSON.

    The sim-time timeline (``ts`` = tau) is derived from the observation
    trace after the run, so the default output is fully deterministic:
    same target + seed -> byte-identical JSON.  ``--wall`` adds the
    wall-clock spans recorded by the live tracer as a second process.
    """
    compiled = _compile_target(args.file, args.config)
    telemetry.absorb_pass_timings(telemetry.METRICS, compiled)
    env = _parse_env(compiled.module.channels, args.set or [])
    wall = telemetry.enable_tracing() if args.wall else None
    try:
        traces, completed = _traces_for(args, compiled, env)
    finally:
        telemetry.disable_tracing()
    document = telemetry.chrome_trace_json(
        traces, source=f"{args.file}/{args.config}", wall=wall
    )
    _write_metrics(args, "trace")
    if args.out:
        Path(args.out).write_text(document + "\n")
        events = sum(len(t.events) for t in traces)
        _log.info(
            f"trace written to {args.out} "
            f"({len(traces)} activation(s), {events} events)"
        )
    else:
        print(document)
    return 0 if completed else 1


def cmd_explain(args: argparse.Namespace) -> int:
    """Run and explain every detector firing causally.

    For each violation: the policy window it broke, the concrete sensor
    reads (channel, tau) that fed the declaration, which of them went
    missing across reboots (with staleness), and the provenance chains
    those inputs took to reach the policy.
    """
    compiled = _compile_target(args.file, args.config)
    telemetry.absorb_pass_timings(telemetry.METRICS, compiled)
    env = _parse_env(compiled.module.channels, args.set or [])
    traces, _completed = _traces_for(args, compiled, env)
    reports = telemetry.explain_traces(traces, compiled.policies)
    telemetry.METRICS.counter("run.violations_explained").inc(len(reports))
    _write_metrics(args, "explain")
    print(telemetry.render_reports(reports))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Bounded model checking: prove the bound or emit a counterexample."""
    import json

    from repro.verify import VerifyBounds, verify_program

    compiled = _compile_target(args.target, args.config)
    env = _parse_env(compiled.module.channels, args.set or [])
    bounds = VerifyBounds(
        max_activations=args.max_activations,
        max_failures=args.max_failures,
        max_cycles=args.max_cycles,
        max_states=args.max_states,
        off_cycles=args.off_cycles,
    )
    seed_uids: frozenset = frozenset()
    relevant_bits = None
    if args.guided:
        # Static verdicts steer the search: DOOMED sites jump the
        # frontier queue, bits only SAFE checks read widen the no-op
        # skip.  Off by default -- the lint analysis is not free.
        from repro.analysis.staleness import analyze_staleness

        report = analyze_staleness(compiled, [("cli", env)])
        seed_uids = report.doomed_uids()
        relevant_bits = report.relevant_bits()
    verdict = verify_program(
        compiled,
        env,
        bounds=bounds,
        engine=args.engine,
        prune=not args.no_prune,
        record_graph=args.emit_graph is not None,
        target=args.target,
        config=args.config,
        seed_uids=seed_uids,
        relevant_bits=relevant_bits,
    )
    telemetry.absorb_pass_timings(telemetry.METRICS, compiled)
    telemetry.absorb_verify(telemetry.METRICS, verdict)
    _write_metrics(args, "verify")
    print(verdict.certificate())
    if verdict.counterexample is not None and args.schedule_out:
        Path(args.schedule_out).write_text(
            verdict.counterexample.to_json() + "\n"
        )
        _log.info(f"schedule written to {args.schedule_out}")
    if args.emit_graph is not None and verdict.graph is not None:
        graph = dict(verdict.graph)
        graph["stats"] = verdict.stats.to_dict()
        if verdict.forensics:
            graph["forensics"] = [r.to_dict() for r in verdict.forensics]
        Path(args.emit_graph).write_text(json.dumps(graph, indent=2) + "\n")
        _log.info(f"graph written to {args.emit_graph}")
    return verdict.exit_code


def cmd_lint(args: argparse.Namespace) -> int:
    """Static staleness linting (no execution beyond one probe run).

    Classifies every baseline detector check as SAFE (can never fire),
    DOOMED (fires whenever its site executes; verifier-confirmable
    witness attached), or ENV-DEPENDENT (cycle windows and the supply
    threshold that flips the verdict).  Exit code gates on ``--fail-on``.
    """
    import json

    from repro.analysis.staleness import analyze_staleness

    compiled = _compile_target(args.target, args.config)
    env = _parse_env(compiled.module.channels, args.set or [])
    report = analyze_staleness(
        compiled,
        [("cli", env)],
        window=args.window,
    )
    telemetry.absorb_pass_timings(telemetry.METRICS, compiled)
    counts = report.counts()
    for verdict, count in counts.items():
        telemetry.METRICS.counter(f"lint.{verdict}").inc(count)
    _write_metrics(args, "lint")
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return report.exit_code(args.fail_on)


def cmd_feasibility(args: argparse.Namespace) -> int:
    compiled = _compile(args.file, args.config)
    usable = args.usable or profile_usable_energy(STANDARD_PROFILE)
    report = check_feasibility(compiled.module, usable)
    print(f"usable energy window: {usable}")
    for bound in report.bounds:
        if bound.bounded:
            verdict = "ok" if bound not in report.infeasible else "INFEASIBLE"
            print(
                f"  {bound.region}: worst-case {bound.cycles} cycles "
                f"(entry {bound.entry_cycles}, omega {bound.omega_words} "
                f"words) -> {verdict}"
            )
        else:
            print(f"  {bound.region}: UNKNOWN ({bound.reason})")
    print("verdict:", "PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.eval.campaign import (
        CampaignError,
        CampaignExecutor,
        CampaignSpec,
        lint_table,
        run_campaign,
    )
    from repro.parallel import WorkerError

    try:
        text = _read_source(args.spec)
    except OSError as exc:
        raise SystemExit(f"cannot read campaign spec: {exc}") from None
    try:
        spec = CampaignSpec.from_json(text)
        if args.engine is not None and args.engine != spec.engine:
            import dataclasses

            spec = dataclasses.replace(spec, engine=args.engine)
    except CampaignError as exc:
        raise SystemExit(f"bad campaign spec '{args.spec}': {exc}") from None
    if args.lint:
        print(lint_table(spec).render_text())
    try:
        result = run_campaign(spec, CampaignExecutor(args.jobs))
    except WorkerError as exc:
        raise SystemExit(str(exc)) from None
    telemetry.absorb_campaign(telemetry.METRICS, result)
    _write_metrics(args, "campaign")
    report = result.to_json()
    if args.output:
        Path(args.output).write_text(report + "\n")
        print(result.table().render_text())
        _log.info(f"report written to {args.output}")
    else:
        _log.info(result.table().render_text())
        print(report)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import (
        FleetError,
        FleetSpec,
        duty_table,
        histogram_table,
        run_fleet,
    )
    from repro.parallel import WorkerError

    try:
        text = _read_source(args.spec)
    except OSError as exc:
        raise SystemExit(f"cannot read fleet spec: {exc}") from None
    try:
        spec = FleetSpec.from_json(text)
        if args.devices is not None:
            spec = spec.with_total_devices(args.devices)
    except FleetError as exc:
        raise SystemExit(f"bad fleet spec '{args.spec}': {exc}") from None
    try:
        result = run_fleet(
            spec,
            args.executor,
            processes=args.jobs,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            engine=args.engine,
            memo_dir=args.memo_dir,
        )
    except (FleetError, WorkerError) as exc:
        raise SystemExit(str(exc)) from None
    tables = [result.table()]
    if args.histograms:
        tables += [histogram_table(result), duty_table(result)]
    telemetry.absorb_fleet(telemetry.METRICS, result)
    _write_metrics(args, "fleet")
    rendered = "\n\n".join(t.render_text() for t in tables)
    report = result.to_json()
    if args.output:
        Path(args.output).write_text(report + "\n")
        print(rendered)
        _log.info(f"report written to {args.output}")
    else:
        _log.info(rendered)
        print(report)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from repro.eval.campaign import CampaignExecutor
    from repro.eval.runner import run_all
    from repro.parallel import WorkerError

    started = time.time()
    try:
        tables = run_all(seed=args.seed, executor=CampaignExecutor(args.jobs))
    except WorkerError as exc:
        raise SystemExit(str(exc)) from None
    for table in tables:
        if args.markdown:
            print(table.render_markdown())
        else:
            print(table.render_text())
        print()
    _log.info(f"(evaluation completed in {time.time() - started:.1f}s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flag(p: argparse.ArgumentParser) -> None:
        # Not argparse choices: the registry can grow at import time, and
        # unknown values get a one-line error listing registered names.
        p.add_argument(
            "--config",
            default="ocelot",
            metavar="NAME",
            help=f"build configuration ({', '.join(config_names())})",
        )

    def add_metrics_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--metrics-out",
            metavar="PATH",
            default=None,
            help="write the telemetry metrics registry "
            f"({telemetry.METRICS_SCHEMA} JSON) here",
        )

    def add_run_style_flags(p: argparse.ArgumentParser) -> None:
        """The execution flags `run`, `trace`, and `explain` share."""
        add_config_flag(p)
        p.add_argument(
            "--set",
            action="append",
            metavar="CH=VALUE | CH=L1,L2,...:DWELL",
            help="bind a sensor channel (constant or stepping signal)",
        )
        p.add_argument("--intermittent", action="store_true")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--schedule",
            metavar="PATH",
            default=None,
            help="replay a failure-schedule JSON (e.g. a verify "
            "counterexample) instead of simulating a supply",
        )

    def add_engine_flag(
        p: argparse.ArgumentParser,
        default: str | None = ENGINE_FAST,
        overrides_spec: bool = False,
    ) -> None:
        extra = " (overrides the spec's engine)" if overrides_spec else ""
        p.add_argument(
            "--engine",
            choices=ENGINES,
            default=default,
            help=(
                "execution engine: 'fast' is the pre-decoded core, "
                f"'reference' the Appendix H semantics oracle{extra}"
            ),
        )

    def add_jobs_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=_at_least(1),
            default=1,
            metavar="N",
            help="worker processes (default: 1, in-process)",
        )

    p_compile = sub.add_parser("compile", help="compile a program")
    p_compile.add_argument("file")
    add_config_flag(p_compile)
    p_compile.add_argument("--ir", action="store_true", help="print the IR")
    p_compile.add_argument("--regions", action="store_true")
    p_compile.add_argument("--policies", action="store_true")
    p_compile.set_defaults(func=cmd_compile)

    p_build = sub.add_parser(
        "build", help="compile and dump intermediate stage artifacts"
    )
    p_build.add_argument(
        "target", help="source file path or registered benchmark name"
    )
    add_config_flag(p_build)
    p_build.add_argument(
        "--emit",
        action="append",
        metavar="KIND[,KIND...]",
        # Derived from the artifact registry: a new stage artifact shows
        # up here (and in the unknown-artifact error) automatically.
        help=f"stage artifact(s) to dump: {', '.join(artifact_names())} "
        "(default: summary; repeatable)",
    )
    p_build.set_defaults(func=cmd_build)

    p_check = sub.add_parser("check", help="checker mode for manual regions")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="simulate one activation")
    p_run.add_argument(
        "file", help="source file path or registered benchmark name"
    )
    add_run_style_flags(p_run)
    p_run.add_argument("--trace", action="store_true", help="dump all events")
    add_engine_flag(p_run)
    add_metrics_flag(p_run)
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="run and export a Chrome-trace/Perfetto timeline (ts = tau)",
    )
    p_trace.add_argument(
        "file", help="source file path or registered benchmark name"
    )
    add_run_style_flags(p_trace)
    p_trace.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the trace JSON here (default: stdout)",
    )
    p_trace.add_argument(
        "--wall",
        action="store_true",
        help="also record wall-clock engine spans as a second process "
        "(output is no longer byte-deterministic)",
    )
    add_engine_flag(p_trace)
    add_metrics_flag(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_explain = sub.add_parser(
        "explain",
        help="run and report why each freshness/consistency check fired",
    )
    p_explain.add_argument(
        "file", help="source file path or registered benchmark name"
    )
    add_run_style_flags(p_explain)
    add_engine_flag(p_explain)
    add_metrics_flag(p_explain)
    p_explain.set_defaults(func=cmd_explain)

    p_verify = sub.add_parser(
        "verify",
        help="exhaustively model-check power-failure schedules in a bound",
    )
    p_verify.add_argument(
        "target", help="source file path or registered benchmark name"
    )
    add_config_flag(p_verify)
    p_verify.add_argument(
        "--set",
        action="append",
        metavar="CH=VALUE | CH=L1,L2,...:DWELL",
        help="bind a sensor channel (constant or stepping signal)",
    )
    p_verify.add_argument(
        "--max-activations", type=_at_least(1), default=1, metavar="N",
        help="activations in the verified prefix (default: 1)",
    )
    p_verify.add_argument(
        "--max-failures", type=_at_least(0), default=2, metavar="N",
        help="failures per explored schedule (default: 2)",
    )
    p_verify.add_argument(
        "--max-cycles", type=_at_least(1), default=200_000, metavar="N",
        help="per-activation cycle budget of the bound (default: 200000)",
    )
    p_verify.add_argument(
        "--max-states", type=_at_least(1), default=100_000, metavar="N",
        help="fork-state cap; hitting it degrades a proof to "
        "bound-exhausted (default: 100000)",
    )
    p_verify.add_argument(
        "--off-cycles", type=_at_least(0), default=10_000, metavar="N",
        help="recharge time charged per injected failure (default: 10000)",
    )
    p_verify.add_argument(
        "--no-prune",
        action="store_true",
        help="disable analysis-guided pruning (explore every fork)",
    )
    p_verify.add_argument(
        "--schedule-out",
        metavar="PATH",
        default=None,
        help="write a counterexample schedule JSON here (replayable via "
        "'run --schedule')",
    )
    p_verify.add_argument(
        "--emit-graph",
        metavar="PATH",
        default=None,
        help="write the exploration graph (nodes, fork edges, stats) as JSON",
    )
    p_verify.add_argument(
        "--guided",
        action="store_true",
        help="seed and prune the search with the static staleness "
        "verdicts (see 'repro lint')",
    )
    add_engine_flag(p_verify)
    add_metrics_flag(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_lint = sub.add_parser(
        "lint",
        help="statically classify every check as safe, doomed, or "
        "environment-dependent",
    )
    p_lint.add_argument(
        "target", help="source file path or registered benchmark name"
    )
    add_config_flag(p_lint)
    p_lint.add_argument(
        "--set",
        action="append",
        metavar="CH=VALUE | CH=L1,L2,...:DWELL",
        help="bind a sensor channel (constant or stepping signal)",
    )
    p_lint.add_argument(
        "--window",
        type=_at_least(1),
        default=None,
        metavar="CYCLES",
        help="usable-energy window in cycles (default: the standard "
        "profile's guaranteed post-boot budget)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic output format (default: text)",
    )
    p_lint.add_argument(
        "--fail-on",
        choices=("error", "warning", "never"),
        default="error",
        help="lowest severity that fails the gate (default: error, "
        "i.e. any DOOMED check)",
    )
    add_metrics_flag(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_feas = sub.add_parser("feasibility", help="region energy bounds")
    p_feas.add_argument("file")
    add_config_flag(p_feas)
    p_feas.add_argument("--usable", type=int, default=None)
    p_feas.set_defaults(func=cmd_feasibility)

    p_eval = sub.add_parser("eval", help="regenerate the paper's evaluation")
    p_eval.add_argument(
        "--markdown", action="store_true", help="emit Markdown instead of text"
    )
    p_eval.add_argument("--seed", type=int, default=0)
    add_jobs_flag(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_campaign = sub.add_parser(
        "campaign", help="run a declarative evaluation campaign"
    )
    p_campaign.add_argument("spec", help="JSON campaign spec file")
    add_jobs_flag(p_campaign)
    p_campaign.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the JSON report here (default: stdout)",
    )
    p_campaign.add_argument(
        "--lint",
        action="store_true",
        help="print static staleness verdict counts per (app, config) "
        "cell before running",
    )
    add_engine_flag(p_campaign, default=None, overrides_spec=True)
    add_metrics_flag(p_campaign)
    p_campaign.set_defaults(func=cmd_campaign)

    p_fleet = sub.add_parser(
        "fleet", help="simulate a multi-device intermittent fleet"
    )
    p_fleet.add_argument("spec", help="JSON fleet spec file")
    p_fleet.add_argument(
        "--devices",
        type=int,
        default=None,
        metavar="N",
        help="rescale the fleet to exactly N devices (keeps the class mix)",
    )
    p_fleet.add_argument(
        "--executor",
        choices=("serial", "vector"),
        default="serial",
        help="fleet executor (vector = memoized batch execution, on --jobs "
        "workers; both produce bit-identical aggregates; default: serial)",
    )
    add_jobs_flag(p_fleet)
    p_fleet.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="checkpoint file: resumed if present, updated as devices finish",
    )
    p_fleet.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="K",
        help="devices per checkpoint chunk (default: 256 with --checkpoint)",
    )
    p_fleet.add_argument(
        "--memo-dir",
        metavar="DIR",
        default=None,
        help="persist the vector executor's activation memo here "
        "(requires --executor vector on one worker); re-runs start warm",
    )
    p_fleet.add_argument(
        "--histograms",
        action="store_true",
        help="also print violation and duty-cycle histograms",
    )
    p_fleet.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the JSON report here (default: stdout)",
    )
    add_engine_flag(p_fleet)
    add_metrics_flag(p_fleet)
    p_fleet.set_defaults(func=cmd_fleet)

    # Every subcommand controls status-output verbosity the same way.
    for p_sub in set(sub.choices.values()):
        group = p_sub.add_argument_group("output")
        group.add_argument(
            "-v",
            "--verbose",
            action="store_true",
            help="debug-level status output on stderr",
        )
        group.add_argument(
            "-q",
            "--quiet",
            action="store_true",
            help="suppress status output (warnings and errors only)",
        )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    verbosity = 0
    if getattr(args, "verbose", False):
        verbosity = 1
    if getattr(args, "quiet", False):
        verbosity = -1
    telemetry.configure_logging(verbosity)
    telemetry.METRICS.clear()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
