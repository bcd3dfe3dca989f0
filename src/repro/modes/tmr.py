"""TMR with forward recovery (Elzar-style triple modular redundancy).

Each segment forks *two* checker replicas instead of one, so a boundary
has three independent copies of the segment's end state: the main's end
checkpoint plus both replicas.  Instead of the pairwise compare, the
boundary runs a majority vote:

* all three agree — unanimous, the segment verifies as usual;
* one replica disagrees — it is outvoted (``outvoted`` event,
  ``counter.tmr.outvoted``) and the segment still verifies;
* *both* replicas disagree with the main but agree with each other —
  the main itself carried the fault.  Forward recovery adopts the
  majority state: the winning replica is promoted to be the new main
  and execution continues *forward* from the boundary.  No rollback
  ever runs (the no-ROLLBACK-after-FORWARD_RECOVERY trace invariant);
* all three disagree — no majority exists, adopting any state would be
  a guess: fail-stop with a typed ``vote_inconclusive`` error (the
  vote-quorum invariant: a quorum-1 vote must be followed by an error).

A replica that fails *mid-replay* with a kind the runtime's error
ladder lets a mode absorb (``ABSORBABLE_ERRORS``: divergence,
exception, timeout, overrun) is outvoted immediately rather than
failing the segment: the remaining voters still form a majority.
Integrity faults are never absorbed — they implicate the comparator or
saved state, not one replica, and outvoting a replica on rotten
evidence would launder the corruption.

The vote and forward recovery are TMR policy and live here.  The
mechanisms are the runtime's: ``compare_replicas`` compares every
replica, ``verify`` and ``fail`` deliver the verdict, ``adopt_main``
swaps the winner in as the main (as rollback recovery does), and the
replica lifecycle methods (``remove_replica``, ``drop_replica``,
``drop_replicas``, ``discard_segment``, ``truncate_consoles``) detach,
kill and discard.
"""

from __future__ import annotations

from repro.common.errors import RuntimeConfigError
from repro.metrics import phases as mph
from repro.modes.base import DetectionMode, register_mode
from repro.trace import events as tev


@register_mode
class TmrMode(DetectionMode):
    name = "tmr"
    summary = ("three-way majority vote per segment boundary with "
               "forward recovery (no rollback) when the main is outvoted")
    replica_count = 2
    concurrent_checking = False
    slices = True

    def validate_config(self, config) -> None:
        super().validate_config(config)
        if not config.compare_state:
            raise RuntimeConfigError(
                "TMR votes over boundary state; compare_state must stay "
                "enabled")
        if config.enable_recovery:
            raise RuntimeConfigError(
                "TMR recovers forward (majority adoption); rollback "
                "recovery (enable_recovery) is incompatible")
        if config.retry_failed_checkers:
            raise RuntimeConfigError(
                "TMR absorbs single-replica faults by outvoting them; "
                "retry_failed_checkers is incompatible")
        if config.clean_page_audit:
            raise RuntimeConfigError(
                "TMR votes over the dirty union only and never runs the "
                "clean-page audit; clean_page_audit is incompatible")

    def boundary_check(self, rt, segment) -> None:
        """All replicas arrived: run the three-way vote."""
        config = rt.config
        compared = rt.compare_replicas(segment, mph.VOTE)
        if compared is None:
            return
        results, union = compared
        processes = [r.process for r in segment.replicas]
        vote = rt.comparator.vote(processes, segment.end_checkpoint,
                                  dirty_vpns=union, results=results)
        if vote.cross_result is not None:
            # The replica-vs-replica tie-break compare ran; charge its
            # hashing to the vote phase like the per-replica compares.
            rt.executor.charge(
                processes[-1],
                rt.kernel.costs.hash_cycles(vote.cross_result.bytes_hashed),
                phase=mph.VOTE)
        rt.stats.tmr_votes += 1
        rt.emit(tev.VOTE, segment=segment.index, quorum=vote.quorum,
                main_outvoted=vote.main_outvoted)
        if vote.quorum >= 2 and not vote.main_outvoted:
            for index in vote.loser_replicas:
                loser = segment.replicas[index]
                rt.stats.tmr_outvoted += 1
                rt.emit(tev.OUTVOTED, proc=loser.process,
                        segment=segment.index, loser="checker",
                        cause=results[index].reason or "mismatch")
            rt.verify(segment)
            return
        if vote.main_outvoted:
            if rt.stats.tmr_forward_recoveries \
                    >= config.max_forward_recoveries:
                rt.fail("vote_inconclusive", segment,
                        f"main outvoted but the forward-recovery budget "
                        f"({config.max_forward_recoveries}) is spent")
                return
            self._forward_recover(rt, segment, vote)
            return
        rt.fail("vote_inconclusive", segment,
                "all three states disagree at the segment boundary — no "
                "majority exists to adopt")

    def absorb_replica_error(self, rt, segment, replica, kind: str,
                             detail: str) -> bool:
        """Outvote a single mid-replay failure while a majority remains."""
        if not [r for r in segment.live_replicas() if r is not replica]:
            # Last live replica: two voters left, no majority possible —
            # let the error report proceed.
            return False
        # The segment lives on with the surviving voters.
        rt.remove_replica(segment, replica)
        rt.drop_replica(segment, replica, 1)
        rt.stats.tmr_outvoted += 1
        rt.emit(tev.OUTVOTED, segment=segment.index, loser="checker",
                cause=kind, detail=detail)
        if segment.all_replicas_arrived():
            # The survivors already reached the end point; run the
            # (degraded) vote now — nothing else will trigger it.
            self.boundary_check(rt, segment)
        return True

    # ------------------------------------------------------ forward recovery

    def _forward_recover(self, rt, segment, vote) -> None:
        """The main was outvoted: adopt the majority state and continue
        *forward* from the boundary (never a rollback).

        The winning replica replayed the segment from the verified start
        state, so its state at the end point *is* the majority state —
        promotion needs no patching: the winner simply becomes the new
        main.  Execution the old main performed past this boundary was
        built on the faulted state and is discarded (segments after this
        one roll up as ``segment_rolled_back`` with
        ``cause="forward_recovery"``); the boundary itself — and every
        byte of output committed before it — survives, which is what
        distinguishes forward recovery from a rollback.
        """
        main_was_alive = rt.main.alive
        # From here on the winner's cycles are the main's.
        new_main = rt.remove_replica(segment,
                                     segment.replicas[vote.winner_index])
        new_main.cpu.disarm_branch_overflow()
        new_main.cpu.disarm_instr_overflow()
        # -- discard everything recorded after the boundary ------------
        later = [s for s in rt.segments
                 if s.index > segment.index and s.live]
        if later:
            rt.truncate_consoles(later[0])
        for stale in later:
            # De-queue first: a discard frees cores, and the scheduler
            # would otherwise place a sibling we are about to tear down.
            rt.sched.dequeue(stale)
        for stale in later:
            # Its start state descends from the outvoted main.
            rt.drop_replicas(stale, exit_code=1)
            rt.discard_segment(stale, cause="forward_recovery")
        # -- retire the old main (no rollback is counted) --------------
        rt.adopt_main(new_main, rt.kernel.promote_process)
        rt.stats.tmr_forward_recoveries += 1
        rt.emit(tev.FORWARD_RECOVERY, proc=new_main,
                segment=segment.index, winner_pid=new_main.pid,
                discarded=[s.index for s in later])
        # The boundary itself is majority-verified.
        rt.verify(segment)
        if main_was_alive:
            # The old main was mid-recording: open a fresh segment from
            # the adopted state.
            rt.sched.main_done = False
            rt.start_segment()
        # Otherwise this was the final segment: the promoted winner sits
        # on the exit syscall's execution point and exits natively with
        # the majority state.
