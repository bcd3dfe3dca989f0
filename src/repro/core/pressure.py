"""Memory-pressure controller: graceful degradation under a finite frame
pool (extension beyond the paper; cf. Döbel's resource-aware replication).

Parallaft's checkpoints are COW forks whose footprint grows with the
dirty-page rate and the number of live segments (paper §4.3, Fig. 8).  With
a finite :class:`~repro.mem.frames.FramePool` budget, a production runtime
must *degrade* rather than die.  This controller watches pool utilisation
against two watermarks and escalates through an ordered ladder — each stage
trades a little protection quality or throughput for memory, and a stage-N
action never precedes stage N−1 (a checked trace invariant):

1. **stall** (``pressure_stall``) — backpressure the main, exactly like the
   ``max_live_segments`` cap: recording is what dirties pages, so pausing
   the producer lets the checkers drain.  Engaged at the low watermark,
   released below it.
2. **shed** (``pressure_shed``) — tear down the *youngest* in-flight
   segment's checkers (it has the most replay left to redo, so the least
   sunk work) and re-queue it; fresh checkers are re-forked from the
   retained segment-start checkpoint once pressure eases.
3. **evict** (``evict``) — reap retained recovery checkpoints oldest-first,
   but never the rollback anchor (the oldest live segment's checkpoint is
   the last verified state — recovery would be lost with it).  An evicted
   segment that later fails its check surfaces a typed
   ``checkpoint_evicted`` error instead of rolling back onto freed state.
4. **adapt** (``pressure_adapt``) — shorten the slicing period from the
   observed dirty-page rate so future segments fit in roughly
   ``SEGMENT_BUDGET_FRACTION`` of the budget.  Sticky for the
   rest of the run (it only ever shrinks).

Escalation actions (2-4) run one per poll above the high watermark; the
same ladder runs synchronously as the pool's *emergency reclaim hook* when
an allocation would overrun the budget mid-quantum.  If the ladder runs
dry, the allocation fails, the kernel emits ``pressure_exhausted`` + ``oom``
and OOM-kills the allocator — the runtime sacrifices checkers (re-queuing
their segments) but lets a main OOM stand as the run's distinct exit class.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro import abi
from repro.core.segment import Segment, SegmentStatus
from repro.trace import events as tev

if TYPE_CHECKING:
    from repro.kernel.process import Process
    from repro.core.runtime import Parallaft

#: Pool utilisation at which stage 1 (main backpressure) engages; the
#: stall releases once utilisation falls back below this mark.
LOW_WATERMARK = 0.80
#: Utilisation at which the controller escalates (shed checkers, evict
#: checkpoints, adapt the slicing period), one action per poll.
HIGH_WATERMARK = 0.95
#: Adaptive slicing targets one segment's dirty footprint at about this
#: fraction of the budget.
SEGMENT_BUDGET_FRACTION = 0.10
#: Floor on the adapted period, as a fraction of ``slicing_period``.
MIN_PERIOD_SCALE = 1.0 / 16.0
#: Times a single segment's checker may be shed and re-queued before the
#: ladder refuses to sacrifice it again.
MAX_SEGMENT_SHEDS = 3

#: EWMA smoothing for the observed dirty-byte rate.
_RATE_ALPHA = 0.2
#: A re-adaptation must shrink the period by at least this factor to be
#: worth another stage-4 action (prevents event spam at steady pressure).
_ADAPT_HYSTERESIS = 0.99


class PressureController:
    """Watermark-driven degradation ladder for one Parallaft run."""

    def __init__(self, rt: "Parallaft"):
        #: The runtime, through the weak proxy it hands the parts it
        #: owns.  The pool's reclaim hook holds this controller, so the
        #: controller reaches the pool through the runtime too: holding
        #: either strongly would make a cycle.
        self.rt = rt
        self.config = rt.config
        #: emergency reclaim: runs inside a failing allocation.
        self.pool.reclaim_hook = self._emergency_reclaim
        #: stage-1 state: engaged = episode active; the main is only
        #: *applied* (parked) when that cannot deadlock the sim.
        self.stall_engaged = False
        #: segments whose checkers were shed, awaiting a respawn.
        self._parked: List[Segment] = []
        #: True while the ladder runs inside a failing allocation; the
        #: stage-1 stall must not park the allocator mid-quantum (it is
        #: applied at the next poll instead).
        self._in_emergency = False
        #: Highest ladder stage reached so far (real action or recorded
        #: dry pass) — the trace invariant "no stage-N action before
        #: stage N−1" is kept true by construction via ``_mark_dry``.
        self._stage_reached = 0
        #: sticky stage-4 period (same units as ``slicing_period``).
        self._adapted_period: Optional[float] = None
        #: EWMA of dirty bytes per unit of main progress.
        self._dirty_rate = 0.0
        self._last_alloc = self.pool.frames_allocated
        self._last_progress = 0.0

    @property
    def pool(self):
        return self.rt.kernel.pool

    # ------------------------------------------------------------- polling

    def _util(self) -> float:
        budget = self.pool.budget_bytes
        if not budget:
            return 0.0
        return self.pool.resident_bytes / budget

    def poll(self, proc: "Process", role: Optional[str]) -> None:
        """Per-quantum watermark check (called from ``on_quantum`` for
        every traced process, so pressure is re-evaluated while the main
        is stalled and only checkers make progress)."""
        if self.pool.budget_bytes is None:
            return
        if role == "main":
            self._update_rate(proc)
        util = self._util()
        if util < LOW_WATERMARK:
            if self.stall_engaged:
                self._release_stall()
            self._wake_blocked()
            self.respawn_parked()
            return
        if not self.stall_engaged:
            self._engage_stall()
        else:
            self._apply_stall()
        if util >= HIGH_WATERMARK:
            self._escalate_once()
            # The throttle inside only readmits a checker when none is
            # runnable (the stall needs one to drain into).
            self.respawn_parked()
        else:
            self._wake_blocked()
            self.respawn_parked()

    def _update_rate(self, main: "Process") -> None:
        progress = self.rt.main_progress_units(main)
        allocated = self.pool.frames_allocated
        delta_progress = progress - self._last_progress
        if delta_progress <= 0:
            return
        delta_bytes = (allocated - self._last_alloc) * self.pool.page_size
        self._last_progress = progress
        self._last_alloc = allocated
        instant = delta_bytes / delta_progress
        self._dirty_rate = (instant if self._dirty_rate == 0.0
                            else _RATE_ALPHA * instant
                            + (1 - _RATE_ALPHA) * self._dirty_rate)

    def effective_period(self) -> Optional[float]:
        """Stage-4 adapted slicing period, or None before any adaptation."""
        return self._adapted_period

    # ------------------------------------------------------ stage 1: stall

    def note_stage(self, stage: int) -> None:
        """Record that a ladder stage was exercised."""
        self._stage_reached = max(self._stage_reached, stage)

    def _mark_dry(self, kind: str, stage: int) -> None:
        """Record a dry ladder rung: the controller visited stage
        ``stage`` but found no candidate, before moving on to the next
        stage.  Emitted (once) so the strict stage ordering remains
        checkable from the trace alone; bumps no counters."""
        if self._stage_reached >= stage:
            return
        self._stage_reached = stage
        self.rt.emit(kind, stage=stage, skipped=True)

    def _engage_stall(self) -> None:
        self.stall_engaged = True
        self.note_stage(1)
        self.rt.stats.pressure_stalls += 1
        self.rt.emit(tev.PRESSURE_STALL, proc=self.rt.main, stage=1,
                     resident=self.pool.resident_bytes,
                     budget=self.pool.budget_bytes)
        self._apply_stall()

    def _apply_stall(self) -> None:
        """Actually park the main, if that cannot deadlock the machine:
        some *other* runnable placed process must exist to keep virtual
        time advancing (and eventually release us).  Pressure is a stall
        cause of its own, distinct from the containment stall —
        conflating them hides which subsystem is holding the main back."""
        rt = self.rt
        main = rt.main
        if (self._in_emergency or main is None or not main.runnable
                or not rt.any_runnable(besides=main)):
            return
        rt.stall(main, tev.STALL_PRESSURE)

    def _release_stall(self) -> None:
        self.stall_engaged = False
        self.rt.wake_main()

    def force_release_stall(self) -> None:
        """Liveness override (from the OOM path): give up the stage-1
        stall so the main can run — over budget beats wedged."""
        self._release_stall()

    # -------------------------------------------------- stages 2-4, escalation

    def _escalate_once(self) -> None:
        if self._shed_one():
            return
        self._mark_dry(tev.PRESSURE_SHED, 2)
        if self._evict_one():
            return
        self._mark_dry(tev.EVICT, 3)
        self._adapt()

    def can_shed(self, segment: Segment) -> bool:
        """A segment is sheddable while its retained checkpoint can
        re-fork the replicas and its shed budget is not spent."""
        return (segment.recovery_checkpoint is not None
                and not segment.checkpoint_evicted
                and segment.sheds < MAX_SEGMENT_SHEDS)

    def shed(self, segment: Segment, **payload) -> None:
        """Stage 2: kill every replica of ``segment`` and park it for a
        respawn from its retained checkpoint.

        The whole replica set goes: a respawn re-forks every replica, so
        keeping a subset would only hold memory without ever producing a
        vote.  The ``pressure_shed`` event reports the bytes the shed
        freed unless ``payload`` says otherwise (the OOM path reports
        ``cause="oom", freed=0``).
        """
        before = self.pool.resident_bytes
        self.rt.drop_replicas(segment, exit_code=128 + abi.SIGKILL)
        segment.sheds += 1
        segment.status = SegmentStatus.READY
        self._parked.append(segment)
        self.note_stage(2)
        self.rt.stats.pressure_sheds += 1
        payload.setdefault("freed", before - self.pool.resident_bytes)
        self.rt.emit(tev.PRESSURE_SHED, segment=segment.index, stage=2,
                     **payload)

    def _shed_one(self) -> bool:
        """Stage 2 on the ladder: shed the youngest running segment."""
        current = self.rt.executor.current_proc
        candidates = [
            s for s in self.rt.sched.running
            if s.live_replicas()
            and all(r.process is not current for r in s.replicas)
            and self.can_shed(s)]
        if not candidates:
            return False
        self.shed(max(candidates, key=lambda s: s.index))
        return True

    def _evict_one(self) -> bool:
        """Stage 3: reap a retained recovery checkpoint, oldest-first.

        Never the oldest live segment's (the rollback anchor — the last
        verified state) and never a parked segment's (its checkpoint is
        the only source its replacement checker can be forked from)."""
        rt = self.rt
        retaining = sorted(
            (s for s in rt.segments
             if s.live and s.recovery_checkpoint is not None
             and s not in self._parked),
            key=lambda s: s.index)
        if len(retaining) < 2:
            return False
        victim = retaining[1]  # oldest-first, skipping the anchor
        before = self.pool.resident_bytes
        rt.evict_checkpoint(victim)
        self.note_stage(3)
        rt.stats.pressure_evictions += 1
        rt.emit(tev.EVICT, segment=victim.index, stage=3,
                freed=before - self.pool.resident_bytes)
        return True

    def _adapt(self) -> bool:
        """Stage 4: shrink the slicing period so one segment dirties about
        ``SEGMENT_BUDGET_FRACTION`` of the budget."""
        if self._dirty_rate <= 0.0:
            return False
        base = self.config.slicing_period
        if base == float("inf"):
            return False
        target_bytes = self.pool.budget_bytes * SEGMENT_BUDGET_FRACTION
        period = target_bytes / self._dirty_rate
        floor = base * MIN_PERIOD_SCALE
        period = max(floor, min(period, base))
        current = (self._adapted_period if self._adapted_period is not None
                   else base)
        if period >= current * _ADAPT_HYSTERESIS:
            return False
        self._adapted_period = period
        self.note_stage(4)
        self.rt.stats.pressure_adaptations += 1
        self.rt.emit(tev.PRESSURE_ADAPT, stage=4, period=period,
                     dirty_rate=self._dirty_rate)
        return True

    # ------------------------------------------------------ respawn / liveness

    def _wake_blocked(self, force: bool = False) -> None:
        """Resume the checkers the runtime parked on a failed allocation
        (``memory`` stalls), in the order they blocked, once utilisation
        leaves the escalation band (their retried stores re-enter reclaim
        if it returns)."""
        blocked = self.rt.stalled(tev.STALL_MEMORY)
        if not blocked:
            return
        if not force:
            if self._util() >= HIGH_WATERMARK:
                return
            # A blocked checker needs at least one whole page: waking it
            # into fractional headroom just re-faults the same store at
            # zero virtual cost and livelocks the wake/block pair.
            if (self.pool.budget_bytes is not None
                    and (self.pool.budget_bytes - self.pool.resident_bytes)
                    < self.pool.page_size):
                return
        for proc in blocked:
            self.rt.wake(proc)

    def respawn_parked(self, force: bool = False) -> None:
        """Re-fork one parked segment's checker (all of them when forced).

        Respawns are throttled to one per call below the high watermark;
        when nothing else in the machine is runnable the throttle is
        overridden — a parked segment must never be the reason the run
        deadlocks short of completion."""
        rt = self.rt
        while self._parked:
            segment = self._parked[0]
            if (not segment.live or segment.retired
                    or segment.recovery_checkpoint is None):
                self._parked.pop(0)  # rolled back / discarded meanwhile
                continue
            allowed = (force
                       or self._util() < HIGH_WATERMARK
                       or not rt.any_runnable(role="checker"))
            if not allowed:
                break
            self._parked.pop(0)
            rt.respawn_replicas(
                segment,
                f"checker-{segment.index}-shed{segment.sheds}",
                cause="pressure_requeue")
            if not force:
                break
        self._ensure_liveness()

    def _ensure_liveness(self) -> None:
        """Nothing runnable must never be a terminal state while work
        remains: force-wake blocked checkers (they retry, and the OOM
        path decides again), and release a pressure stall so the main can
        run over budget (allocations then fail into the OOM path, which
        is the designed outcome — never a hang)."""
        rt = self.rt
        if rt.any_runnable():
            return
        self._wake_blocked(force=True)
        if rt.any_runnable():
            return
        if (self.stall_engaged and rt.main is not None
                and rt.stall_cause(rt.main) is not None):
            self._release_stall()

    def on_checker_exit(self) -> None:
        """A checker died (possibly OOM-killed mid-escalation): if it was
        the last runnable process, force-wake any blocked peers — each
        retries its allocation and the OOM path decides its fate again,
        so the run always drains instead of hanging with parked work."""
        self._ensure_liveness()

    def on_retire(self) -> None:
        """A segment retired (memory was freed): re-evaluate the stall and
        give parked segments a chance to respawn."""
        if self.pool.budget_bytes is None:
            return
        if (self.stall_engaged
                and self._util() < LOW_WATERMARK):
            self._release_stall()
        self._wake_blocked()
        self.respawn_parked()

    def on_main_exit(self) -> None:
        """The main exited: every parked segment must still be verified,
        so respawn them all (and resume blocked checkers) for the tail
        phase."""
        self._wake_blocked(force=True)
        self.respawn_parked(force=True)

    # ------------------------------------------------------ emergency reclaim

    def _emergency_reclaim(self, needed: int) -> None:
        """The pool cannot satisfy an allocation: run the ladder
        synchronously, stage by stage, until there is headroom or the
        ladder is dry (the pool then raises and the kernel OOM-kills)."""
        pool = self.pool
        budget = pool.budget_bytes
        if budget is None:
            return
        self._in_emergency = True
        try:
            if not self.stall_engaged:
                # Engaged but NOT applied (the allocator may be the main,
                # mid-quantum); the next poll parks it.
                self._engage_stall()
            while pool.resident_bytes + needed > budget:
                if not self._shed_one():
                    break
            if pool.resident_bytes + needed > budget:
                self._mark_dry(tev.PRESSURE_SHED, 2)
            while pool.resident_bytes + needed > budget:
                if not self._evict_one():
                    break
            if pool.resident_bytes + needed > budget:
                # Cannot help *this* allocation, but future segments can
                # be sliced to fit.
                self._mark_dry(tev.EVICT, 3)
                self._adapt()
        finally:
            self._in_emergency = False
