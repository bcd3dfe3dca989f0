"""Phase taxonomy and the phase-attribution profiler.

Every simulated cycle the executor charges is attributed to exactly one
*cycle phase*, and every stall the runtime imposes is bracketed by a
*stall span* measured in virtual seconds.  The taxonomy mirrors the
paper's Fig. 6 overhead decomposition:

Cycle phases
    ``main_exec``
        The protected application making forward progress on the big
        core (plus kernel time charged to the main outside any runtime
        machinery).  Everything else is overhead.
    ``checkpoint_fork``
        COW fork cost of segment-boundary, recovery and respawn
        checkpoints ("Fork and COW overhead" in Fig. 6).
    ``dirty_scan``
        Dirty-page tracker resets and scans on both the main and the
        checker sides.
    ``hashing``
        Integrity hashing outside the comparison itself: checkpoint
        digests and clean-page audits.
    ``comparison``
        Segment-end dirty-page hashing that produces the verdict.
    ``replay``
        Checker cores re-executing a segment (the deliberate redundant
        work the little cores absorb).
    ``runtime``
        Miscellaneous runtime machinery: perf-counter setup, breakpoint
        arming, record-log byte costs, checker migration.
    ``recovery_rollback``
        Restoring a verified checkpoint into a fresh main after a
        confirmed error.
    ``vote``
        TMR majority voting at segment boundaries: the extra hashing
        the comparator performs to compare every replica against the
        end checkpoint (and replicas against each other when the main
        disagrees with all of them), plus forward-recovery state
        patching.  Single-replica modes never charge this phase.

Stall phases (virtual seconds, not cycles)
    ``containment_stall``  — main held at an effectful syscall until all
    prior segments verify; ``pressure_stall`` — main back-pressured by
    the frame-pool ladder; ``cap_stall`` — main held at the live-segment
    cap; ``checker_stall`` — a checker parked for memory or scheduling.
    The pressure ladder and error containment are *distinct* phases:
    conflating them (the pre-metrics behaviour, where both vanished into
    wall-time deltas) makes Fig. 8-style pressure analysis impossible.

Conservation: the executor independently accumulates every charged
cycle in ``Executor.charged_cycles`` while the profiler accumulates the
same cycles per phase.  The two totals are compared by trace invariant
(j) (``cycle_conservation``) on every traced run, so a forgotten
attribution site is a test failure, not silent misaccounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "MAIN_EXEC", "CHECKPOINT_FORK", "DIRTY_SCAN", "HASHING", "COMPARISON",
    "REPLAY", "RUNTIME", "RECOVERY_ROLLBACK", "VOTE",
    "CONTAINMENT_STALL", "PRESSURE_STALL", "CAP_STALL", "CHECKER_STALL",
    "CYCLE_PHASES", "STALL_PHASES", "ALL_PHASES",
    "PhaseProfile", "PhaseProfiler", "NULL_PROFILER",
]

MAIN_EXEC = "main_exec"
CHECKPOINT_FORK = "checkpoint_fork"
DIRTY_SCAN = "dirty_scan"
HASHING = "hashing"
COMPARISON = "comparison"
REPLAY = "replay"
RUNTIME = "runtime"
RECOVERY_ROLLBACK = "recovery_rollback"
VOTE = "vote"

CONTAINMENT_STALL = "containment_stall"
PRESSURE_STALL = "pressure_stall"
CAP_STALL = "cap_stall"
CHECKER_STALL = "checker_stall"

CYCLE_PHASES: Tuple[str, ...] = (
    MAIN_EXEC, CHECKPOINT_FORK, DIRTY_SCAN, HASHING, COMPARISON,
    REPLAY, RUNTIME, RECOVERY_ROLLBACK, VOTE,
)
STALL_PHASES: Tuple[str, ...] = (
    CONTAINMENT_STALL, PRESSURE_STALL, CAP_STALL, CHECKER_STALL,
)
ALL_PHASES: Tuple[str, ...] = CYCLE_PHASES + STALL_PHASES

#: Phases that only exist in full Parallaft mode; a RAFT run never
#: executes them, so reports render them as "—" rather than 0.0.
PARALLAFT_ONLY_PHASES: Tuple[str, ...] = (
    DIRTY_SCAN, COMPARISON, RECOVERY_ROLLBACK,
    CONTAINMENT_STALL, PRESSURE_STALL, CAP_STALL,
)


@dataclass
class PhaseProfile:
    """Immutable end-of-run snapshot of a :class:`PhaseProfiler`."""

    #: Cycles charged per cycle phase.
    cycles: Dict[str, float] = field(default_factory=dict)
    #: Virtual seconds spent per stall phase.
    stall_seconds: Dict[str, float] = field(default_factory=dict)
    #: Per-segment cycle ledger: ``{segment_index: {phase: cycles}}``.
    segment_cycles: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: Sum of every charged cycle (all phases), for conservation checks.
    total_cycles: float = 0.0

    @property
    def overhead_cycles(self) -> float:
        """Everything that is not the application itself."""
        return self.total_cycles - self.cycles.get(MAIN_EXEC, 0.0)

    def overhead_components(self) -> Dict[str, float]:
        """Fig. 6-style decomposition: the non-``main_exec`` cycle
        phases, in taxonomy order.  Sums exactly (same floats, same
        order) to :attr:`overhead_cycles` minus nothing — components
        and total come from the one ledger."""
        return {p: self.cycles.get(p, 0.0)
                for p in CYCLE_PHASES if p != MAIN_EXEC}

    def merge(self, other: "PhaseProfile") -> "PhaseProfile":
        """Combine two profiles (e.g. the inputs of one benchmark)."""
        merged = PhaseProfile(
            cycles=dict(self.cycles),
            stall_seconds=dict(self.stall_seconds),
            segment_cycles={k: dict(v)
                            for k, v in self.segment_cycles.items()},
            total_cycles=self.total_cycles + other.total_cycles,
        )
        for phase, cyc in other.cycles.items():
            merged.cycles[phase] = merged.cycles.get(phase, 0.0) + cyc
        for phase, sec in other.stall_seconds.items():
            merged.stall_seconds[phase] = \
                merged.stall_seconds.get(phase, 0.0) + sec
        offset = (max(merged.segment_cycles) + 1
                  if merged.segment_cycles else 0)
        for seg, phases in other.segment_cycles.items():
            merged.segment_cycles[offset + seg] = dict(phases)
        return merged

    def to_dict(self) -> Dict[str, object]:
        return {
            "cycles": dict(self.cycles),
            "stall_seconds": dict(self.stall_seconds),
            "segment_cycles": {str(k): dict(v)
                               for k, v in self.segment_cycles.items()},
            "total_cycles": self.total_cycles,
        }


class PhaseProfiler:
    """Charges cycles and stall time to phases as the run executes.

    The profiler is wired into the executor (cycle charges) and the
    kernel (span closure on process exit).  ``attribute`` maps a process
    to the default phase of its un-annotated charges and the segment
    index its work belongs to, feeding the per-segment ledger: the
    runtime answers ``replay`` for a checker's execution and
    ``main_exec`` for everything else.  Without it every charge is
    ``main_exec`` and belongs to no segment.  A disabled profiler
    (``NULL_PROFILER``) accepts every call and records nothing, so
    instrumentation sites need no guards.
    """

    def __init__(self,
                 clock: Optional[Callable[[], float]] = None,
                 attribute: Optional[
                     Callable[[object], Tuple[str, Optional[int]]]] = None,
                 enabled: bool = True) -> None:
        self.enabled = enabled
        self.clock = clock or (lambda: 0.0)
        self.attribute = attribute or (lambda proc: (MAIN_EXEC, None))
        self.cycles: Dict[str, float] = {}
        self.stall_seconds: Dict[str, float] = {}
        self.segment_cycles: Dict[int, Dict[str, float]] = {}
        self.total_cycles = 0.0
        #: Open stall spans: ``pid -> (phase, start_time)``.
        self._open: Dict[int, Tuple[str, float]] = {}

    # -- cycle attribution -------------------------------------------------

    def charge(self, phase: str, hw_cycles: float,
               segment: Optional[int] = None) -> None:
        """Charge ``hw_cycles`` to ``phase`` (and a segment's ledger)."""
        if not self.enabled or hw_cycles == 0:
            return
        cycles = self.cycles
        cycles[phase] = cycles.get(phase, 0.0) + hw_cycles
        self.total_cycles += hw_cycles
        if segment is not None:
            ledger = self.segment_cycles.get(segment)
            if ledger is None:
                ledger = self.segment_cycles[segment] = {}
            ledger[phase] = ledger.get(phase, 0.0) + hw_cycles

    def charge_for(self, proc, hw_cycles: float,
                   phase: Optional[str] = None) -> None:
        """Charge cycles on behalf of a process, resolving the default
        phase and the segment through ``attribute``."""
        if not self.enabled or hw_cycles == 0:
            return
        default, segment = self.attribute(proc)
        self.charge(default if phase is None else phase, hw_cycles, segment)

    # -- stall spans -------------------------------------------------------

    def open_span(self, pid: int, phase: str) -> None:
        """Open a stall span for ``pid``.  An already-open span for the
        same pid is closed first (defensive: re-stalling without a wake
        must not lose the earlier interval)."""
        if not self.enabled:
            return
        if pid in self._open:
            self.close_span(pid)
        self._open[pid] = (phase, self.clock())

    def close_span(self, pid: int) -> None:
        """Close ``pid``'s open stall span, if any.  Safe to call on
        every exit/wake path — kill paths (OOM, rollback, shed) route
        through here via ``Kernel.exit_process`` so a dead process never
        leaks an open span."""
        if not self.enabled:
            return
        span = self._open.pop(pid, None)
        if span is None:
            return
        phase, start = span
        elapsed = self.clock() - start
        if elapsed > 0:
            self.stall_seconds[phase] = \
                self.stall_seconds.get(phase, 0.0) + elapsed

    def close_all(self) -> None:
        for pid in list(self._open):
            self.close_span(pid)

    @property
    def open_spans(self) -> Dict[int, str]:
        """``pid -> phase`` for every currently open span (for tests)."""
        return {pid: phase for pid, (phase, _) in self._open.items()}

    # -- finalisation ------------------------------------------------------

    def finish(self) -> PhaseProfile:
        """Close leftover spans and snapshot the ledgers."""
        self.close_all()
        return PhaseProfile(
            cycles=dict(self.cycles),
            stall_seconds=dict(self.stall_seconds),
            segment_cycles={k: dict(v)
                            for k, v in self.segment_cycles.items()},
            total_cycles=self.total_cycles,
        )


#: Shared no-op profiler: every hook may call it unconditionally.
NULL_PROFILER = PhaseProfiler(enabled=False)
