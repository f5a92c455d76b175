"""Bounded model checking of power-failure schedules (``repro.verify``).

The detector (:mod:`repro.runtime.detector`) answers "did this run
violate freshness/consistency?"; this package answers the universally
quantified question "does *any* failure schedule within a bound?" --
either with a proof certificate or with a minimized counterexample
schedule that replays bit-exactly on the production engines.  See
:mod:`repro.verify.explorer` for the search, :mod:`repro.verify.digest`
for the exact state keys that deduplicate it, and
:mod:`repro.verify.schedule` for the replayable counterexample format.
"""

from repro.verify.digest import StateKeys, fast_block_namer, state_digest
from repro.verify.explorer import (
    VERDICT_BOUND,
    VERDICT_COUNTEREXAMPLE,
    VERDICT_PROOF,
    Explorer,
    ExploreStats,
    FixedOffSupply,
    Verdict,
    VerifyBounds,
    verify_program,
)
from repro.verify.schedule import (
    SCHEDULE_FORMAT,
    ReplayResult,
    Schedule,
    ScheduleError,
    minimize_schedule,
    replay_schedule,
)

__all__ = [
    "VERDICT_BOUND",
    "VERDICT_COUNTEREXAMPLE",
    "VERDICT_PROOF",
    "Explorer",
    "ExploreStats",
    "FixedOffSupply",
    "Verdict",
    "VerifyBounds",
    "verify_program",
    "SCHEDULE_FORMAT",
    "ReplayResult",
    "Schedule",
    "ScheduleError",
    "minimize_schedule",
    "replay_schedule",
    "StateKeys",
    "state_digest",
    "fast_block_namer",
]
