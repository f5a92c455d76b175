"""Refinement oracle: does an intermittent run match *some* continuous run?

The paper's correctness criterion is relational: "Ocelot enforces
freshness and temporal consistency by ensuring that an intermittent
execution does what some continuous execution would do; the continuous
execution is the specification of correct behaviour" (Section 1).  The
trace predicates of :mod:`repro.runtime.properties` check the two timing
properties directly; this module checks the *relation itself* by search:

given an intermittent run, re-execute the program continuously from a set
of candidate start times (every moment the intermittent run was live:
start, region entries, reboots) and ask whether any continuous run
produces the same committed output suffix.

This is a semi-decision procedure -- the candidate set is finite and
environment-driven, so a miss does not *prove* unrefinability -- but for
deterministic programs over deterministic environments it is exact in
practice: a correct (Ocelot) run matches the continuous run launched at
its final post-reboot live period, while a JIT run that tore a consistent
pair matches nothing (the Figure 2 storm log exists in no continuous
world).

The oracle powers differential tests (``tests/test_refinement.py``) and is
exposed for downstream users who want end-to-end checking rather than
property-level checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.pipeline import CompiledProgram
from repro.energy.costs import DEFAULT_COSTS, CostModel
from repro.runtime import observations as obs
from repro.runtime.executor import Machine
from repro.runtime.supply import ContinuousPower
from repro.sensors.environment import Environment

#: Builds a fresh, identically-seeded environment per candidate run.  The
#: environment must be a pure function of tau (all provided signal
#: generators are), so one factory serves every candidate.
EnvFactory = Callable[[], Environment]


@dataclass(frozen=True)
class CommittedOutput:
    """One externally visible effect: operation name and values."""

    op: str
    values: tuple[int, ...]


@dataclass
class RefinementResult:
    """Outcome of the oracle."""

    refined: bool
    #: start time of a continuous witness run, when one was found
    witness_tau: Optional[int] = None
    #: the committed outputs the oracle tried to match
    target: list[CommittedOutput] = field(default_factory=list)
    candidates_tried: list[int] = field(default_factory=list)


def committed_outputs(trace: obs.Trace) -> list[CommittedOutput]:
    """The output events of a trace, as comparable records.

    Output operations sit inside UART guard regions, so a re-executed
    region may emit an output twice (the real hardware would re-send the
    UART message too); commitment de-duplicates *consecutive identical*
    outputs, which is exactly what an idempotent message sink sees.
    """
    outputs: list[CommittedOutput] = []
    for event in trace.of_type(obs.OutputObs):
        record = CommittedOutput(op=event.op, values=event.values)
        if outputs and outputs[-1] == record:
            continue
        outputs.append(record)
    return outputs


def candidate_start_times(trace: obs.Trace) -> list[int]:
    """Moments a continuous specification run could plausibly start.

    Every time the intermittent execution (re-)gained agency: the start of
    the trace, each reboot, and each region entry.  For the final
    committed behaviour, the witness is usually the last reboot before the
    final commit.
    """
    taus = {0}
    for event in trace:
        if isinstance(event, (obs.RebootObs, obs.RegionEnterObs, obs.InputObs)):
            taus.add(event.tau)
    return sorted(taus)


def run_continuous_from(
    compiled: CompiledProgram,
    env_factory: EnvFactory,
    start_tau: int,
    costs: CostModel = DEFAULT_COSTS,
) -> obs.Trace:
    """Execute the program continuously with the clock preset to ``start_tau``."""
    machine = Machine(
        compiled.module,
        env_factory(),
        ContinuousPower(),
        costs=costs,
        plan=compiled.detector_plan(),
    )
    machine.begin_activation(tau=start_tau)
    result = machine.run()
    if not result.stats.completed:
        raise RuntimeError("continuous reference run did not complete")
    return result.trace


def _suffix_match(
    target: list[CommittedOutput], candidate: list[CommittedOutput]
) -> bool:
    """Does ``candidate`` end with the same outputs as ``target``?

    Matching the *suffix* handles partial re-execution: outputs committed
    before the last failure already matched an earlier continuous window;
    the final window's outputs are the ones that must find a witness.
    """
    if not target:
        return True
    if len(candidate) < len(target):
        return False
    return candidate[-len(target):] == target


def check_refinement(
    compiled: CompiledProgram,
    intermittent_trace: obs.Trace,
    env_factory: EnvFactory,
    costs: CostModel = DEFAULT_COSTS,
    match_suffix_len: Optional[int] = None,
) -> RefinementResult:
    """Search for a continuous witness of an intermittent run's outputs.

    ``match_suffix_len`` restricts matching to the last N committed
    outputs (default: all of them); use 1 to ask only about the final
    visible effect.
    """
    target = committed_outputs(intermittent_trace)
    if match_suffix_len is not None:
        target = target[-match_suffix_len:]
    result = RefinementResult(refined=False, target=target)

    for tau in candidate_start_times(intermittent_trace):
        result.candidates_tried.append(tau)
        reference = run_continuous_from(compiled, env_factory, tau, costs)
        if _suffix_match(target, committed_outputs(reference)):
            result.refined = True
            result.witness_tau = tau
            return result
    return result
