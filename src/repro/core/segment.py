"""Segment lifecycle (paper §3.1, figure 1(b)).

The main execution is sliced into segments.  For segment *k*:

1. At boundary *k* (segment start) the coordinator forks a paused *checker*
   process from the main — the duplicated start state.
2. While the main executes segment *k*, its OS interactions are recorded
   into the segment's R/R log.
3. At boundary *k+1* the coordinator forks the *end checkpoint*, records the
   end execution point, and the segment becomes READY: its checker is
   released onto a little core.
4. The checker replays to the end point and its state is compared against
   the end checkpoint; the segment becomes CHECKED (or the error is
   reported).

Correctness of the whole run follows by induction over checked segments
(paper §3.1).
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.core.exec_point import ExecPoint, ExecPointReplayer, ReplayStop
from repro.core.rr_log import RrLog
from repro.kernel.process import Process


class SegmentStatus(enum.Enum):
    RECORDING = "recording"    # main is executing this segment
    READY = "ready"            # end point known; checker can run
    CHECKING = "checking"      # checker running (or queued for a core)
    CHECKED = "checked"        # comparison succeeded
    FAILED = "failed"          # divergence detected
    ROLLED_BACK = "rolled_back"  # discarded by recovery; main re-executes


class Replica:
    """One checker replica of a segment: a paused fork of the main at
    segment start plus its private replay state.  Parallaft and RAFT run
    one replica per segment; TMR runs two (the main is the third voter).
    Each replica consumes the shared segment log through its *own*
    cursor and replays to the end point through its own replayer, so
    replicas progress independently on their cores."""

    __slots__ = ("process", "cursor", "replayer", "reached_end",
                 "early_result", "early_vpns")

    def __init__(self, process: Process, cursor):
        self.process = process
        self.cursor = cursor
        self.replayer: Optional[ExecPointReplayer] = None
        #: True once this replica reached the segment end point (a vote
        #: waits for every live replica to arrive).
        self.reached_end = False
        #: MEEK early-check verdict (a ``ComparisonResult``) taken on
        #: arrival when ``meek_split > 0``; None when no early check ran.
        self.early_result = None
        #: The dirty vpns the early check already covered — the boundary
        #: compare hashes only the remainder (work divided, not
        #: duplicated).
        self.early_vpns = ()

    def __repr__(self) -> str:
        return (f"Replica(pid={self.process.pid}, "
                f"reached_end={self.reached_end})")


class Segment:
    def __init__(self, index: int,
                 start_branches: int, start_instructions: int,
                 start_cycles: float, start_time: float):
        self.index = index
        #: Pristine fork of the main at segment end (comparison target).
        self.end_checkpoint: Optional[Process] = None
        #: True when end_checkpoint is the main process itself (final
        #: segment compares against the exited main, which is not reaped).
        self.end_is_main = False
        self.log = RrLog()
        #: Checker replicas (paused forks of the segment-start state),
        #: forked and dropped by the runtime.  ``checker``/``cursor``
        #: below view replica 0, the only one in single-replica modes.
        self.replicas: List[Replica] = []
        self.status = SegmentStatus.RECORDING

        # Counter bases at segment start (from the main's CPU).
        self.start_branches = start_branches
        self.start_instructions = start_instructions
        self.start_cycles = start_cycles
        self.start_time = start_time

        # Filled at finalize.
        self.end_point: Optional[ExecPoint] = None
        self.main_instructions = 0          # relative, for the 1.1x timeout
        self.main_dirty_vpns: List[int] = []
        self.ready_time: Optional[float] = None

        # Signal replay stops accumulated during recording.
        self.signal_stops: List[ReplayStop] = []

        # Recovery support (retry_failed_checkers / enable_recovery): a
        # pristine fork of the segment-start state, retained so a failed
        # check can be retried — or, with recovery, promoted to become the
        # new main after a rollback.
        self.recovery_checkpoint: Optional[Process] = None
        #: Integrity digest of the recovery checkpoint taken at fork time
        #: (``checkpoint_digests``); re-verified before the checkpoint is
        #: trusted for a retry or promoted by a rollback.
        self.checkpoint_digest: Optional[int] = None
        self.retries = 0
        #: Set when the pressure controller evicted recovery_checkpoint
        #: (stage 3): any later retry/rollback wanting it must refuse with
        #: a typed ``checkpoint_evicted`` error instead of promoting freed
        #: state.
        self.checkpoint_evicted = False
        #: Times this segment's in-flight checker was shed by the pressure
        #: controller (stage 2) and the segment re-queued.
        self.sheds = 0
        #: Console/stderr buffer lengths at segment start, so a rollback
        #: can truncate output the discarded execution produced.
        self.console_mark = 0
        self.stderr_mark = 0

        # Filled while checking.
        self.check_started_time: Optional[float] = None
        self.check_finished_time: Optional[float] = None
        self.checker_was_migrated = False
        self.checker_user_cycles_at_start = 0.0
        #: Guard against re-entrant retirement: retiring kills the checker,
        #: whose exit hook would otherwise retire the segment again
        #: (double-counting checker time and pacer updates).
        self.retired = False

    def __repr__(self) -> str:
        return f"Segment({self.index}, {self.status.value})"

    # -- replica views -----------------------------------------------------
    # Single-replica code paths (the vast majority) address "the checker";
    # these properties keep them working unchanged over the replica list.

    @property
    def checker(self) -> Optional[Process]:
        """Replica 0's process; the only checker in non-TMR modes."""
        return self.replicas[0].process if self.replicas else None

    @property
    def cursor(self):
        return self.replicas[0].cursor if self.replicas else None

    def add_replica(self, process: Process) -> Replica:
        """Attach a checker replica with its own log cursor."""
        replica = Replica(process, self.log.cursor())
        self.replicas.append(replica)
        return replica

    def replica_of(self, pid: int) -> Optional[Replica]:
        """The replica owning process ``pid``, if any."""
        for replica in self.replicas:
            if replica.process.pid == pid:
                return replica
        return None

    def live_replicas(self) -> List[Replica]:
        return [r for r in self.replicas if r.process.alive]

    def all_replicas_arrived(self) -> bool:
        return bool(self.replicas) and all(r.reached_end
                                           for r in self.replicas)

    @property
    def live(self) -> bool:
        return self.status in (SegmentStatus.RECORDING, SegmentStatus.READY,
                               SegmentStatus.CHECKING)
