"""Checkpoint-rollback error recovery (extension beyond the paper).

Parallaft's prototype *detects* faults and stops; its Table 2 lists error
recovery as future work.  This subsystem makes the runtime *survive* faults
in the main process, using machinery the substrate already pays for:

* Every segment start retains a pristine COW fork of the main — the
  ``recovery_checkpoint`` introduced for checker retries.  Once every
  earlier segment has been verified, that fork *is* the state of the main
  at the last verified boundary.
* When a segment check fails, the runtime first re-checks with a second
  checker forked from that retained checkpoint (diagnosis: a transient
  fault in the *checker* disappears on the re-check; a fault in the *main*
  persists, because the main's recorded log and end state are corrupted).
* If the re-check fails too, the main is implicated.  The corrupted main
  and every segment at or after the failure are discarded, the retained
  checkpoint is promoted to be the new main (rr-style user-space restore:
  the fork already holds the state, restoring is unpausing it), console
  output produced by the discarded execution is truncated — the console
  models a commit-on-verify buffer at the sphere-of-replication boundary —
  and execution resumes from the verified state.

Which failures may roll back at all is the runtime's call: its error
ladder (``Parallaft.fail``) offers a failure to
:meth:`RecoveryManager.on_check_failed` only when its kind may roll
back (``ROLLBACK_ERRORS``) and no integrity check has failed.  The
manager owns its budget and the rollback itself.

Escalation keeps recovery bounded:

* a per-run rollback budget (``max_rollbacks``),
* a cap on consecutive re-executions of the same region
  (``max_segment_reexecutions``),
* an exponential shrink of the slicing period while rollbacks repeat
  (``slicing_period / 2**streak``), halving the window a recurring fault
  can corrupt before the next verified boundary,
* a watchdog instruction budget on the re-executed segment
  (``recovery_watchdog_scale`` × the original segment's instructions), so
  a fault that corrupts recovery itself cannot hang the run.

Soundness: a fault in the main during segment *k* corrupts *k*'s log and
end checkpoint together, so checkers of later segments replay
corrupted-start → corrupted-end and pass — the divergence is detected
exactly at *k*'s check, and *k*'s start state is still clean.  Re-executed
output is only observable after truncation to the segment-start mark, so
an end-of-run stdout equal to the fault-free reference certifies the
recovery (asserted by the recovery campaign mode in ``repro.faults``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.segment import Segment, SegmentStatus
from repro.kernel.process import Process, ProcessState
from repro.metrics import phases as mph
from repro.trace import events as tev

if TYPE_CHECKING:
    from repro.core.runtime import Parallaft


class RecoveryManager:
    """Owns rollback policy and bookkeeping for one Parallaft run."""

    def __init__(self, rt: "Parallaft"):
        self.rt = rt
        self.config = rt.config
        self.stats = rt.stats
        #: Rollbacks performed so far (bounded by ``max_rollbacks``).
        self.rollbacks = 0
        #: Consecutive rollbacks without a verified segment in between.
        self.rollback_streak = 0
        #: Highest segment index discarded by the last rollback; verifying
        #: any *newer* segment proves forward progress and resets the streak.
        self._last_rollback_index = -1
        self._watchdog_base = 0
        self._watchdog_budget: Optional[int] = None

    # ------------------------------------------------------- escalation state

    def effective_slicing_period(self) -> float:
        """Slicing period with the exponential post-rollback shrink."""
        shrink = min(self.rollback_streak, self.config.recovery_shrink_limit)
        return self.config.slicing_period / (2 ** shrink)

    def on_segment_verified(self, segment: Segment) -> None:
        """A segment checked out.  If it is newer than everything the last
        rollback discarded, the re-execution made verified progress."""
        if segment.index > self._last_rollback_index:
            self.rollback_streak = 0

    def note_boundary(self) -> None:
        """The main reached a slicing boundary: the re-executed region is
        fully recorded again, so the watchdog disarms."""
        self._watchdog_budget = None

    def check_watchdog(self, main: Process) -> None:
        """Abort recovery if the re-executed main overran its budget."""
        if self._watchdog_budget is None:
            return
        progress = self.rt.instr_reading(main) - self._watchdog_base
        if progress <= self._watchdog_budget:
            return
        budget = self._watchdog_budget
        self._watchdog_budget = None
        self.rt.fail(
            "recovery_watchdog", self.rt.current,
            f"re-executed main overran its {budget}-instruction watchdog")

    # ------------------------------------------------------------ the rollback

    def on_check_failed(self, segment: Segment) -> bool:
        """A segment check failed *persistently* (the diagnostic re-check
        already ran) with an error the runtime's ladder lets roll back.
        Roll back if the budget allows and the checkpoint is still there;
        returns True when the error was absorbed."""
        checkpoint = segment.recovery_checkpoint
        if (checkpoint is None
                # Evicted under memory pressure (stage 3): the saved state
                # is gone; the error path reports ``checkpoint_evicted``.
                or segment.checkpoint_evicted
                or checkpoint.state == ProcessState.DEAD
                or self.rollbacks >= self.config.max_rollbacks
                or self.rollback_streak
                >= self.config.max_segment_reexecutions):
            return False
        if not self.rt.checkpoint_intact(segment):
            # Defense in depth: the ladder verifies the digest before
            # dispatching here, but promotion is the single action that
            # must never consume a rotten checkpoint — re-check at the
            # last gate before _rollback trusts it.
            return False
        self._rollback(segment)
        return True

    def _rollback(self, segment: Segment) -> None:
        """Discard the timeline from ``segment``'s start onward and resume
        the main from the retained segment-start checkpoint."""
        rt = self.rt
        kernel = rt.kernel
        old_main = rt.main
        self.rollbacks += 1
        self.rollback_streak += 1
        self.stats.recovery_rollbacks += 1
        rt.emit(tev.ROLLBACK, proc=old_main, segment=segment.index,
                rollbacks=self.rollbacks, streak=self.rollback_streak)

        # Everything the main executed past the verified boundary is lost,
        # and so is every discarded checker's replay.  The segment's
        # recovery checkpoint is taken out first: it becomes the new main
        # instead of being released with the rest.
        wasted = max(0.0, old_main.user_cycles - segment.start_cycles)
        new_main = segment.recovery_checkpoint
        segment.recovery_checkpoint = None
        for other in rt.segments[segment.index:]:
            if other.status == SegmentStatus.ROLLED_BACK:
                continue
            if other.checker is not None:
                wasted += other.checker.user_cycles
            rt.discard_segment(other)
        self._last_rollback_index = len(rt.segments) - 1
        self.stats.recovery_wasted_cycles += wasted

        # Roll output back: nothing the discarded execution printed may
        # escape the sphere of replication.
        rt.truncate_consoles(segment, emit_empty=True)

        # Replace the corrupted main with the verified checkpoint.
        # Restoring costs what materializing the checkpoint's COW fork
        # costs (rr-style restore is an unpause plus page-table work),
        # charged once the restored main lands on a core.
        rt.executor.charge_deferred(
            new_main, kernel.costs.fork_cycles(new_main.mem.mapped_pages),
            phase=mph.RECOVERY_ROLLBACK)
        rt.adopt_main(new_main, kernel.rollback_to_checkpoint)
        rt.sched.main_done = False

        # Arm the watchdog: the re-execution must reach the next boundary
        # within a multiple of the work the original recording needed.
        self._watchdog_base = rt.instr_reading(new_main)
        self._watchdog_budget = (
            int(max(segment.main_instructions, 1024)
                * self.config.recovery_watchdog_scale) + 1024)

        # Freed cores may unblock queued checkers of earlier segments.
        rt.sched.place_pending()

        rt.start_segment()
