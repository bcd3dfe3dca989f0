"""Typed trace events (the `repro.trace` schema).

Every significant lifecycle transition in a protected run is emitted as one
:class:`TraceEvent` carrying the virtual timestamp, the process it concerns
(pid/role/core), the segment it belongs to, and a small free-form payload.
The schema is deliberately flat so events serialize directly into Chrome
``trace_event`` JSON (see :mod:`repro.trace.buffer`) and remain greppable in
the text timeline.

Event kinds
-----------

Segment lifecycle (emitted by the coordinator):

* ``segment_start``      — boundary *k*: recording of segment *k* begins
* ``segment_ready``      — end point recorded; the segment can be checked
* ``segment_release``    — the checker's replay is armed and submitted
* ``segment_checked``    — comparison succeeded (terminal)
* ``segment_failed``     — an error was pinned on the segment (terminal)
* ``segment_rolled_back``— discarded by recovery (terminal)
* ``segment_retire``     — resources reaped, scheduler notified

Processes (emitted by the kernel):

* ``process_fork`` / ``process_exit`` / ``process_reap``

Scheduling (executor + checker scheduler):

* ``core_assign`` / ``core_unassign`` — a core gains/loses its occupant
* ``checker_place``   — a released checker lands on a core
* ``checker_migrate`` — the scheduler moved a checker between cores
* ``checker_stall``   — a concurrent checker caught up with the record
* ``checker_wake``    — a stalled checker resumed (new record appended)
* ``checker_retry``   — a failed check re-runs with a fresh checker

Main-process pacing (the two invariants this layer exists to protect):

* ``main_stall`` — payload ``reason``: ``"cap"`` (live-segment bound,
  paper §3.4) or ``"containment"`` (held GLOBAL syscall, Table 2)
* ``main_wake``  — payload ``reason`` as above; a containment wake is only
  legal once no earlier segment is live
* ``syscall_held`` — the GLOBAL syscall the containment stall is holding

Record/replay and checking:

* ``syscall_record`` — the main's syscall was appended to the R/R log
  (payload ``sysno``, ``classification``)
* ``syscall_replay`` — a checker consumed a syscall record
* ``comparison``     — segment-end state comparison (payload ``match``)
* ``error``          — a divergence was reported (payload ``error``: the
  detected kind, plus ``detail``)

Output commit and recovery:

* ``console_write``    — bytes reached a console (payload ``stream``,
  ``start``/``end`` buffer marks)
* ``console_truncate`` — rollback discarded output past a mark
* ``rollback``         — the main was rolled back to a verified checkpoint
* ``app_terminate``    — stop-on-error tore the application down

TMR majority voting (``repro.modes.tmr``):

* ``vote``             — a 3-way boundary vote ran (payload ``quorum``:
  3 unanimous, 2 majority, 1 all-disagree → fail-stop; plus
  ``main_outvoted``)
* ``outvoted``         — one voter lost a majority vote, or a replica's
  mid-replay divergence was absorbed (payload ``loser``:
  ``"main"`` | ``"checker"``, ``cause``)
* ``forward_recovery`` — the main was outvoted: the majority state was
  adopted and execution continued *forward* (never a ``rollback``: the
  no-ROLLBACK-after-FORWARD_RECOVERY invariant)

Integrity hardening (config knobs ``log_checksums`` /
``checkpoint_digests`` / ``clean_page_audit`` / ``redundant_compare``):

* ``integrity_check`` — a hardening check ran (payload ``check``:
  ``"log"`` | ``"checkpoint"`` | ``"clean_page_audit"`` | ``"digest"``,
  plus ``ok``)
* ``integrity_fail``  — an integrity check failed: saved state or the
  comparator itself is untrusted.  From this point on the run must never
  roll back (the no-ROLLBACK-after-INTEGRITY_FAIL invariant) — a
  rollback would promote evidence the run just proved rotten.

Memory pressure (finite frame-pool budget; ``repro.core.pressure``):

* ``pressure_stall``     — stage 1: the controller engaged backpressure on
  the main (payload ``stage``, ``resident``, ``budget``)
* ``pressure_shed``      — stage 2: a young in-flight checker was torn
  down and its segment re-queued (payload ``stage``, ``freed``)
* ``evict``              — stage 3: a retained recovery checkpoint was
  evicted, oldest-first, never the rollback anchor (payload ``stage``,
  ``freed``)
* ``pressure_adapt``     — stage 4: the slicing period was shortened from
  the observed dirty-page rate (payload ``stage``, ``period``)
* ``pressure_exhausted`` — the whole ladder ran dry and an allocation
  still could not be satisfied; always emitted before ``oom``
* ``oom``                — the kernel OOM-killed the allocating process
  (exit 137, a distinct exit class from fault detections)

The stage numbers form the degradation-ladder invariant: a stage-N action
never precedes the first stage-N−1 action of the run.  ``main_stall`` /
``main_wake`` gain ``reason="pressure"`` for the stage-1 backpressure.

Metrics (``repro.metrics``):

* ``phase_totals`` — emitted once at run finalisation with the phase
  profiler's cycle ledger (payload ``total``: the executor's
  independently-accumulated charged-cycle count, ``phases``: cycles per
  phase).  The cycle-conservation invariant (j) asserts the two agree:
  every simulated cycle is charged to exactly one phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

# Segment lifecycle.
SEGMENT_START = "segment_start"
SEGMENT_READY = "segment_ready"
SEGMENT_RELEASE = "segment_release"
SEGMENT_CHECKED = "segment_checked"
SEGMENT_FAILED = "segment_failed"
SEGMENT_ROLLED_BACK = "segment_rolled_back"
SEGMENT_RETIRE = "segment_retire"

# Process lifecycle.
PROCESS_FORK = "process_fork"
PROCESS_EXIT = "process_exit"
PROCESS_REAP = "process_reap"

# Scheduling.
CORE_ASSIGN = "core_assign"
CORE_UNASSIGN = "core_unassign"
CHECKER_PLACE = "checker_place"
CHECKER_MIGRATE = "checker_migrate"
CHECKER_STALL = "checker_stall"
CHECKER_WAKE = "checker_wake"
CHECKER_RETRY = "checker_retry"

# Main-process pacing.
MAIN_STALL = "main_stall"
MAIN_WAKE = "main_wake"
SYSCALL_HELD = "syscall_held"

# Stall causes: the ``reason`` of main_stall/main_wake (the first three)
# and of checker_stall (the last two).
STALL_CAP = "cap"
STALL_CONTAINMENT = "containment"
STALL_PRESSURE = "pressure"
STALL_RECORD_STARVATION = "record_starvation"
STALL_MEMORY = "memory"

# Record/replay and checking.
SYSCALL_RECORD = "syscall_record"
SYSCALL_REPLAY = "syscall_replay"
COMPARISON = "comparison"
ERROR = "error"

# TMR majority voting (repro.modes.tmr).
VOTE = "vote"
OUTVOTED = "outvoted"
FORWARD_RECOVERY = "forward_recovery"

# Output commit and recovery.
CONSOLE_WRITE = "console_write"
CONSOLE_TRUNCATE = "console_truncate"
ROLLBACK = "rollback"
APP_TERMINATE = "app_terminate"

# Integrity hardening.
INTEGRITY_CHECK = "integrity_check"
INTEGRITY_FAIL = "integrity_fail"

# Metrics: end-of-run phase-attribution totals (cycle conservation).
PHASE_TOTALS = "phase_totals"

# Memory pressure (degradation ladder stages 1-4, then exhaustion/OOM).
PRESSURE_STALL = "pressure_stall"
PRESSURE_SHED = "pressure_shed"
EVICT = "evict"
PRESSURE_ADAPT = "pressure_adapt"
PRESSURE_EXHAUSTED = "pressure_exhausted"
OOM = "oom"

#: Degradation-ladder stage of each pressure action kind.
PRESSURE_STAGES = {
    PRESSURE_STALL: 1,
    PRESSURE_SHED: 2,
    EVICT: 3,
    PRESSURE_ADAPT: 4,
}

#: Kinds that end a segment's live interval (RECORDING/READY/CHECKING).
SEGMENT_TERMINAL = (SEGMENT_CHECKED, SEGMENT_FAILED, SEGMENT_ROLLED_BACK)


@dataclass
class TraceEvent:
    """One structured event on the run's virtual timeline."""

    ts: float                        # virtual seconds
    kind: str                        # one of the constants above
    pid: Optional[int] = None
    role: Optional[str] = None       # 'main' | 'checker' | 'checkpoint' | None
    core: Optional[str] = None       # e.g. 'big0', 'little2'
    segment: Optional[int] = None
    payload: Dict[str, object] = field(default_factory=dict)

    def describe(self) -> str:
        parts = [f"[{self.ts * 1e3:12.6f}ms] {self.kind:<18}"]
        if self.pid is not None:
            parts.append(f"pid={self.pid}")
        if self.role:
            parts.append(self.role)
        if self.core:
            parts.append(f"core={self.core}")
        if self.segment is not None:
            parts.append(f"seg={self.segment}")
        parts.extend(f"{k}={v}" for k, v in self.payload.items())
        return " ".join(parts)
