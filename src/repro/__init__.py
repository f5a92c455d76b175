"""Reproduction of *Automatically Enforcing Fresh and Consistent Inputs in
Intermittent Systems* (Surbatovich, Jia, Lucia -- PLDI 2021).

The package implements the paper's full system stack in Python:

* :mod:`repro.lang` -- the modeling language (Appendix A) with ``Fresh`` /
  ``Consistent`` / ``FreshConsistent`` annotations,
* :mod:`repro.ir` -- a CFG-based IR with dominator/post-dominator analysis
  and a call graph (the LLVM stand-in),
* :mod:`repro.analysis` -- the interprocedural taint / input-dependence
  analysis, provenance chains, function summaries, and policies,
* :mod:`repro.core` -- Ocelot: atomic region inference (Algorithm 1),
  WAR/EMW undo-log analysis, the Section 5.2 checker, and the pass-based
  compilation toolchain (:mod:`repro.core.passes`: ``Pass`` /
  ``PassManager`` / registered ``BuildConfig`` pipelines),
* :mod:`repro.runtime` -- the JIT + atomics intermittent machine
  (Appendix H), power supplies, the bit-vector violation detector, and the
  formal trace predicates (Definitions 2/3),
* :mod:`repro.energy` / :mod:`repro.sensors` -- the simulated testbed,
* :mod:`repro.apps` -- the six benchmark applications (Table 1),
* :mod:`repro.eval` -- the evaluation harness regenerating every table and
  figure of Section 7 (run ``python -m repro eval``; ``--jobs N`` spreads
  its job matrices over N worker processes).

Quickstart::

    from repro import compile_source, run_continuous
    from repro.sensors import Environment, steps

    compiled = compile_source('''
        inputs temp;
        fn main() {
          let t = input(temp);
          Fresh(t);
          if t > 30 { alarm(); }
        }
    ''')
    env = Environment({"temp": steps([20, 35], 5000)})
    result = run_continuous(compiled, env)
"""

from repro.core.passes import (
    BuildConfig,
    PassManager,
    config_names,
    emit_artifact,
    get_config,
    register_config,
)
from repro.core.pipeline import (
    CONFIG_ATOMICS,
    CONFIG_JIT,
    CONFIG_OCELOT,
    CONFIGS,
    CompiledProgram,
    PipelineOptions,
    compile_all_configs,
    compile_program,
    compile_source,
)
from repro.lang import parse_program, print_program, validate_program
from repro.runtime import (
    ContinuousPower,
    EnergyDrivenSupply,
    FailurePoint,
    Machine,
    ScheduledFailures,
    check_all_properties,
    check_consistency,
    check_freshness,
    run_activations,
    run_continuous,
    run_once,
)
from repro.sensors import Environment

__version__ = "1.0.0"

__all__ = [
    "BuildConfig",
    "PassManager",
    "config_names",
    "emit_artifact",
    "get_config",
    "register_config",
    "CONFIG_ATOMICS",
    "CONFIG_JIT",
    "CONFIG_OCELOT",
    "CONFIGS",
    "CompiledProgram",
    "PipelineOptions",
    "compile_all_configs",
    "compile_program",
    "compile_source",
    "parse_program",
    "print_program",
    "validate_program",
    "ContinuousPower",
    "EnergyDrivenSupply",
    "FailurePoint",
    "Machine",
    "ScheduledFailures",
    "check_all_properties",
    "check_consistency",
    "check_freshness",
    "run_activations",
    "run_continuous",
    "run_once",
    "Environment",
    "__version__",
]
