"""Hypothesis strategies generating valid annotated programs.

Programs are built as ASTs (valid by construction) and printed to source,
so every generated program parses, validates, and compiles.  The generator
covers the constructs the analyses care about: input operations behind
call chains, fresh/consistent annotations, branches on annotated data
(whose bodies may sense and annotate too), nonvolatile writes, bounded
loops, and by-reference parameters.

Annotated variables never read nonvolatile globals: values surviving a
reboot in memory legitimately carry old input events, which the *dynamic*
trace predicates would (correctly, but unhelpfully for these tests) flag.
The static system handles such programs; the property tests target the
paper's setting where annotated data derives from current-activation
sensing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import strategies as st

from repro.lang import ast

CHANNELS = ["alpha", "beta", "gamma"]


@dataclass
class _GenState:
    """Bookkeeping while assembling one random program."""

    counter: int = 0
    consistent_sets: int = 0
    globals: list[str] = field(default_factory=list)

    def fresh_name(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"


def _int_expr(draw, vars_in_scope: list[str]) -> ast.Expr:
    """A small pure expression over in-scope locals and literals."""
    choices = ["lit"]
    if vars_in_scope:
        choices += ["var", "binop"]
    kind = draw(st.sampled_from(choices))
    if kind == "lit":
        return ast.IntLit(value=draw(st.integers(-20, 20)))
    if kind == "var":
        return ast.Var(name=draw(st.sampled_from(vars_in_scope)))
    lhs = ast.Var(name=draw(st.sampled_from(vars_in_scope)))
    rhs = ast.IntLit(value=draw(st.integers(1, 9)))
    op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
    return ast.Binary(op=op, lhs=lhs, rhs=rhs)


def _nested_sense(draw, state: _GenState, channels: list[str], wrappers: list[str]):
    """Statements sensing, annotating and using a value inside a branch
    body: region inference may then place markers under the branch.

    Only ``Fresh`` annotations: a consistent-set member under a branch
    makes the JIT detector and the trace predicates disagree, and can
    leave an Ocelot build violating with no failure at all (ROADMAP).
    """
    name = state.fresh_name("n")
    if wrappers and draw(st.booleans()):
        expr: ast.Expr = ast.Call(func=draw(st.sampled_from(wrappers)), args=[])
    else:
        expr = ast.Input(channel=draw(st.sampled_from(channels)))
    body: list[ast.Stmt] = [ast.Let(name=name, expr=expr)]
    if draw(st.integers(0, 3)) > 0:
        body.append(ast.AnnotStmt(kind=ast.AnnotKind.FRESH, var=name))
    body.append(ast.ExprStmt(expr=ast.Call(func="log", args=[ast.Var(name=name)])))
    return body


@st.composite
def programs(draw, min_annotations: int = 0) -> ast.Program:
    """A random valid annotated program.

    ``min_annotations`` guarantees at least that many annotated (check
    seeding) sites: when the drawn body falls short, fresh-annotated
    sense/use patterns are appended, so strategies like
    ``program_sources(min_annotations=1)`` always produce detector
    check sites (the optimizer parity suite relies on this).
    """
    state = _GenState()
    channels = CHANNELS[: draw(st.integers(1, 3))]

    # Optional nonvolatile globals (written, never feeding annotations).
    globals_: dict[str, ast.GlobalDecl] = {}
    for _ in range(draw(st.integers(0, 2))):
        name = state.fresh_name("g")
        globals_[name] = ast.GlobalDecl(name=name, init=draw(st.integers(0, 5)))
        state.globals.append(name)

    functions: dict[str, ast.FuncDecl] = {}

    # Input wrapper functions (exercise provenance through call chains).
    wrappers: list[str] = []
    for _ in range(draw(st.integers(0, 2))):
        name = state.fresh_name("get")
        channel = draw(st.sampled_from(channels))
        body: list[ast.Stmt] = [
            ast.Let(name="raw", expr=ast.Input(channel=channel)),
        ]
        if draw(st.booleans()):
            body.append(
                ast.Let(
                    name="cooked",
                    expr=ast.Binary(
                        op=draw(st.sampled_from(["+", "*"])),
                        lhs=ast.Var(name="raw"),
                        rhs=ast.IntLit(value=draw(st.integers(1, 4))),
                    ),
                )
            )
            body.append(ast.Return(expr=ast.Var(name="cooked")))
        else:
            body.append(ast.Return(expr=ast.Var(name="raw")))
        functions[name] = ast.FuncDecl(name=name, params=[], body=body)
        wrappers.append(name)

    # Main body: a sequence of sensing, annotation, branching, and output.
    main_body: list[ast.Stmt] = []
    scope: list[str] = []
    annotated: list[str] = []
    statements = draw(st.integers(2, 8))
    for _ in range(statements):
        kind = draw(
            st.sampled_from(
                ["sense", "sense", "derive", "branch", "nvwrite", "work", "output"]
            )
        )
        if kind == "sense":
            name = state.fresh_name("v")
            if wrappers and draw(st.booleans()):
                expr: ast.Expr = ast.Call(
                    func=draw(st.sampled_from(wrappers)), args=[]
                )
            else:
                expr = ast.Input(channel=draw(st.sampled_from(channels)))
            annot = draw(
                st.sampled_from(
                    [None, "fresh", "fresh", "consistent", "consistent", "plain"]
                )
            )
            if annot == "fresh":
                main_body.append(ast.Let(name=name, expr=expr))
                main_body.append(ast.AnnotStmt(kind=ast.AnnotKind.FRESH, var=name))
                annotated.append(name)
                # Guarantee at least one use so the policy is non-trivial.
                if draw(st.booleans()):
                    then_body: list[ast.Stmt] = [
                        ast.ExprStmt(expr=ast.Call(func="alarm", args=[]))
                    ]
                    if draw(st.integers(0, 3)) == 0:
                        then_body += _nested_sense(draw, state, channels, wrappers)
                    main_body.append(
                        ast.If(
                            cond=ast.Binary(
                                op=">",
                                lhs=ast.Var(name=name),
                                rhs=ast.IntLit(value=draw(st.integers(0, 10))),
                            ),
                            then_body=then_body,
                            else_body=[],
                        )
                    )
                else:
                    main_body.append(
                        ast.ExprStmt(
                            expr=ast.Call(func="log", args=[ast.Var(name=name)])
                        )
                    )
            elif annot == "consistent":
                # Bias toward set 1 so sets usually reach two members.
                set_id = draw(st.sampled_from([1, 1, 1, 2]))
                state.consistent_sets = max(state.consistent_sets, set_id)
                main_body.append(
                    ast.Let(
                        name=name,
                        expr=expr,
                        annot=ast.AnnotKind.CONSISTENT,
                        set_id=set_id,
                    )
                )
                annotated.append(name)
            else:
                main_body.append(ast.Let(name=name, expr=expr))
            scope.append(name)
        elif kind == "derive" and scope:
            name = state.fresh_name("d")
            main_body.append(ast.Let(name=name, expr=_int_expr(draw, scope)))
            # A derived value may be annotated too, possibly reading no
            # input at all (a trivial policy whose branch still carries
            # its tag over the sensing in its body).
            # Not counted in `annotated`: it may seed no detector check.
            if draw(st.integers(0, 3)) == 0:
                main_body.append(ast.AnnotStmt(kind=ast.AnnotKind.FRESH, var=name))
                main_body.append(
                    ast.If(
                        cond=ast.Binary(
                            op=">",
                            lhs=ast.Var(name=name),
                            rhs=ast.IntLit(value=draw(st.integers(0, 10))),
                        ),
                        then_body=_nested_sense(draw, state, channels, wrappers),
                        else_body=[],
                    )
                )
            scope.append(name)
        elif kind == "branch" and scope:
            cond_var = draw(st.sampled_from(scope))
            threshold = draw(st.integers(-5, 15))
            then_body = [ast.ExprStmt(expr=ast.Call(func="alarm", args=[]))]
            if draw(st.integers(0, 2)) == 0:
                then_body += _nested_sense(draw, state, channels, wrappers)
            if state.globals and draw(st.booleans()):
                g = draw(st.sampled_from(state.globals))
                then_body.append(
                    ast.Assign(
                        name=g,
                        expr=ast.Binary(
                            op="+", lhs=ast.Var(name=g), rhs=ast.IntLit(value=1)
                        ),
                    )
                )
            main_body.append(
                ast.If(
                    cond=ast.Binary(
                        op=">",
                        lhs=ast.Var(name=cond_var),
                        rhs=ast.IntLit(value=threshold),
                    ),
                    then_body=then_body,
                    else_body=[],
                )
            )
        elif kind == "nvwrite" and state.globals and scope:
            g = draw(st.sampled_from(state.globals))
            main_body.append(
                ast.Assign(
                    name=g,
                    expr=ast.Binary(
                        op="+",
                        lhs=ast.Var(name=g),
                        rhs=ast.Var(name=draw(st.sampled_from(scope))),
                    ),
                )
            )
        elif kind == "work":
            main_body.append(
                ast.ExprStmt(
                    expr=ast.Call(
                        func="work",
                        args=[ast.IntLit(value=draw(st.integers(5, 60)))],
                    )
                )
            )
        elif kind == "output" and scope:
            main_body.append(
                ast.ExprStmt(
                    expr=ast.Call(
                        func="log",
                        args=[ast.Var(name=draw(st.sampled_from(scope)))],
                    )
                )
            )
    if not main_body:
        main_body.append(ast.Skip())

    while len(annotated) < min_annotations:
        name = state.fresh_name("seed")
        main_body.append(
            ast.Let(name=name, expr=ast.Input(channel=draw(st.sampled_from(channels))))
        )
        main_body.append(ast.AnnotStmt(kind=ast.AnnotKind.FRESH, var=name))
        main_body.append(
            ast.ExprStmt(expr=ast.Call(func="log", args=[ast.Var(name=name)]))
        )
        annotated.append(name)

    functions["main"] = ast.FuncDecl(name="main", params=[], body=main_body)
    program = ast.Program(
        functions=functions, globals=globals_, arrays={}, channels=channels
    )
    ast.assign_labels(program)
    return program


@st.composite
def program_sources(draw, min_annotations: int = 0) -> str:
    """Source text of a random valid program."""
    from repro.lang.printer import print_program

    return print_program(draw(programs(min_annotations=min_annotations)))


# ---------------------------------------------------------------------------
# Fleet specs

#: Small apps keep generated fleets cheap enough for property tests.
FLEET_APPS = ["tire", "greenhouse", "cem"]
FLEET_CONFIGS = ["ocelot", "jit", "atomics"]


@st.composite
def device_classes(draw, name: str):
    """One random device class (valid by construction).

    Supplies cover every cohort the vector executor forms: stochastic
    harvest (quantized keys), and three exact-keyed kinds -- wall power,
    a deterministic harvest (no jitter, degenerate boot band), and a
    failure schedule like a verifier counterexample.  Schedule labels
    are small; one the program lacks never fires, which is valid.

    Some classes bind every channel of their app to a constant: the
    environment is then periodic, so untainted devices share quantized
    keys at different times and charge levels, and only the replay gate
    keeps such a hit exact.
    """
    from repro.apps import BENCHMARKS
    from repro.eval.campaign import EnvironmentSpec, SupplySpec
    from repro.fleet.spec import DeviceClass

    # Stochastic harvest keeps two thirds of the draws: it is the only
    # kind that forms quantized cohorts, the replay gate's test subject.
    kind = draw(
        st.sampled_from(["harvest"] * 6 + ["continuous", "steady", "schedule"])
    )
    if kind in ("harvest", "steady"):
        steady = kind == "steady"
        supply = SupplySpec(
            harvest_rate=draw(st.integers(150, 600)),
            harvest_spread=1.0 if steady else 3.0,
            boot_fraction=(1.0, 1.0) if steady else (0.65, 1.0),
            seed_offset=draw(st.integers(0, 50)),
        )
    elif kind == "schedule":
        point = st.tuples(
            st.just("main"), st.integers(0, 12), st.integers(1, 3)
        )
        supply = SupplySpec(
            name="schedule",
            kind="schedule",
            points=draw(
                st.lists(point, min_size=1, max_size=3, unique=True).map(tuple)
            ),
            off_cycles=draw(st.sampled_from([300, 2_000])),
        )
    else:
        supply = SupplySpec.continuous()
    app = draw(st.sampled_from(FLEET_APPS))
    overrides: tuple = ()
    if draw(st.booleans()):
        channels = sorted(BENCHMARKS[app].env_factory(0).signals)
        overrides = tuple(
            (channel, str(draw(st.integers(0, 4000)))) for channel in channels
        )
    return DeviceClass(
        name=name,
        app=app,
        config=draw(st.sampled_from(FLEET_CONFIGS)),
        count=draw(st.integers(1, 4)),
        environment=EnvironmentSpec(
            env_seed=draw(st.integers(0, 20)), overrides=overrides
        ),
        supply=supply,
        harvest_jitter=draw(st.sampled_from([0.0, 0.25, 0.5])),
        phase_jitter=draw(st.sampled_from([0, 0, 4000])),
        env_seed_stride=draw(st.sampled_from([0, 0, 1])),
    )


@st.composite
def fleet_specs(draw):
    """A small random valid :class:`FleetSpec`.

    Budgets stay tiny (a handful of activations per device) so property
    tests can afford to *run* the generated fleets, not just parse them.
    """
    from repro.fleet.spec import FleetSpec

    classes = tuple(
        draw(device_classes(name=f"cls{idx}"))
        for idx in range(draw(st.integers(1, 3)))
    )
    return FleetSpec(
        classes=classes,
        fleet_seed=draw(st.integers(0, 2**32)),
        budget_cycles=draw(st.integers(4_000, 12_000)),
        max_activations=draw(st.sampled_from([100_000, 5])),
        name="prop-fleet",
    )


@st.composite
def constant_harvest_fleet_specs(draw):
    """A :class:`FleetSpec` whose devices share keys across charge levels.

    One or two stochastic-harvest classes of 8-24 devices, every channel
    of each class's app bound to a constant, and budgets long enough for
    devices to drift apart in charge before they stop.  Untainted
    devices then share quantized keys at whatever charge level they
    reach, so hits from below an entry's execution level are common and
    only the replay gate keeps them exact; :func:`fleet_specs` reaches
    such keys too rarely to catch a missing gate.
    """
    from repro.apps import BENCHMARKS
    from repro.eval.campaign import EnvironmentSpec, SupplySpec
    from repro.fleet.spec import DeviceClass, FleetSpec

    classes = []
    for idx in range(draw(st.integers(1, 2))):
        app = draw(st.sampled_from(FLEET_APPS))
        channels = sorted(BENCHMARKS[app].env_factory(0).signals)
        overrides = tuple(
            (channel, str(draw(st.integers(0, 4000)))) for channel in channels
        )
        classes.append(
            DeviceClass(
                name=f"cls{idx}",
                app=app,
                config=draw(st.sampled_from(FLEET_CONFIGS)),
                count=draw(st.integers(8, 24)),
                environment=EnvironmentSpec(overrides=overrides),
                supply=SupplySpec(
                    harvest_rate=draw(st.integers(150, 600)),
                    seed_offset=draw(st.integers(0, 50)),
                ),
                harvest_jitter=draw(st.sampled_from([0.0, 0.25, 0.5])),
            )
        )
    return FleetSpec(
        classes=tuple(classes),
        fleet_seed=draw(st.integers(0, 2**32)),
        budget_cycles=draw(st.integers(30_000, 60_000)),
        name="prop-constant-fleet",
    )
