"""Checker scheduling and pacing (paper §4.5, figure 4).

Placement: each released checker gets its own core in the checker cluster
(little cores for Parallaft, big cores for the RAFT model).  When the little
cores run out, the *oldest* running checker is migrated to a free big core —
briefly energy-inefficient, but it frees a little core so the newest checker
can start instead of queueing work for later.  After the main exits, the
remaining checkers are migrated to big cores to finish quickly.

Pacing: standard DVFS governors would run the compute-bound checkers at
maximum clock unnecessarily (paper footnote 10).  The pacer instead sets the
little cluster's frequency so its total throughput just covers the measured
checker demand: f = headroom * work_per_segment / (n_little *
segment_interval).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import ParallaftConfig
from repro.core.segment import Segment, SegmentStatus
from repro.core.stats import RunStats
from repro.kernel.process import Process, ProcessState
from repro.metrics import phases as mph
from repro.sim.cores import Core
from repro.sim.executor import Executor
from repro.trace import events as tev

#: Cycles charged for migrating a checker between cores (context + cache
#: warmup is modelled separately by the LLC contention term).
MIGRATION_COST_CYCLES = 25_000.0
#: Pacer safety margin over the estimated required little frequency.
PACER_HEADROOM = 1.2


class CheckerScheduler:
    def __init__(self, executor: Executor, config: ParallaftConfig,
                 stats: RunStats):
        self.executor = executor
        self.config = config
        self.stats = stats
        self.pending: List[Segment] = []
        self.running: List[Segment] = []
        self.main_done = False
        # Pacer state: EWMA of per-segment checker work and interval.
        self._work_ewma: Optional[float] = None
        self._interval_ewma: Optional[float] = None

    # -- placement --------------------------------------------------------

    def submit(self, segment: Segment) -> None:
        """A segment became READY: run its checkers as soon as possible."""
        segment.status = SegmentStatus.CHECKING
        if not self._try_place(segment):
            self.pending.append(segment)

    def _free_cores(self, cluster: str) -> List[Core]:
        """Free cores in ``cluster``, most-behind first."""
        free = [c for c in self.executor.cores
                if c.cluster == cluster and c.occupant is None]
        free.sort(key=lambda c: c.local_time)
        return free

    def _try_place(self, segment: Segment) -> bool:
        """Place every replica of ``segment`` at once, or not at all.

        Multi-replica segments (TMR) need one core per replica; placing
        a subset would let one replica race ahead only to park at the
        end point holding its core while its sibling still queues.
        """
        need = max(1, len(segment.replicas))
        cluster = self.config.checker_cluster
        free = self._free_cores(cluster)
        while (len(free) < need and cluster == "little"
               and self.config.enable_migration
               and self._migrate_oldest_to_big()):
            free = self._free_cores(cluster)
        if len(free) < need and self.main_done and self.config.enable_migration:
            # Tail phase: any core will do (big preferred: finish quickly).
            free = self._free_cores("big") + self._free_cores("little")
        if len(free) < need:
            return False
        self._start_on(segment, free[:need])
        return True

    def _start_on(self, segment: Segment, cores: List[Core]) -> None:
        segment.checker_user_cycles_at_start = 0.0
        trace = self.executor.trace
        for replica, core in zip(segment.replicas, cores):
            checker = replica.process
            self.executor.assign(checker, core)
            checker.state = ProcessState.RUNNING
            checker.ready_time = max(checker.ready_time,
                                     self.executor.current_time)
            segment.checker_user_cycles_at_start += checker.user_cycles
            if trace.enabled:
                trace.emit(tev.CHECKER_PLACE, pid=checker.pid,
                           role="checker", core=core.label,
                           segment=segment.index)
        segment.check_started_time = self.executor.current_time
        self.running.append(segment)

    def _migrate_oldest_to_big(self) -> bool:
        """Free a little core by moving the oldest checker to a big core
        (paper figure 4)."""
        big = self.executor.free_core("big")
        if big is None:
            return False
        on_little = [(s, r.process) for s in self.running
                     for r in s.replicas
                     if r.process.core is not None
                     and not r.process.core.is_big]
        if not on_little:
            return False
        oldest, proc = min(on_little, key=lambda sr: sr[0].index)
        self.migrate(oldest, big, proc)
        return True

    def migrate(self, segment: Segment, core: Core,
                proc: Optional[Process] = None) -> None:
        checker = proc if proc is not None else segment.checker
        self.executor.assign(checker, core)
        self.executor.charge(checker, MIGRATION_COST_CYCLES,
                             phase=mph.RUNTIME)
        segment.checker_was_migrated = True
        self.stats.checker_migrations += 1
        trace = self.executor.trace
        if trace.enabled:
            trace.emit(tev.CHECKER_MIGRATE, pid=checker.pid, role="checker",
                       core=core.label, segment=segment.index)

    # -- completion ----------------------------------------------------------------

    def on_checker_done(self, segment: Segment) -> None:
        if segment in self.running:
            self.running.remove(segment)
        for replica in segment.replicas:
            checker = replica.process
            if checker.core is not None and checker.core.is_big:
                self.stats.checkers_finished_on_big += 1
            self.executor.unassign(checker)
        self._update_pacer(segment)
        self.place_pending()

    def place_pending(self) -> None:
        """Place queued segments, oldest first, while cores allow."""
        while self.pending and self._try_place(self.pending[0]):
            self.pending.pop(0)

    def dequeue(self, segment: Segment) -> None:
        """Drop ``segment`` from the placement queue, if it waits there."""
        if segment in self.pending:
            self.pending.remove(segment)

    def withdraw(self, segment: Segment) -> None:
        """Forget ``segment`` without completing its check: unlike
        :meth:`on_checker_done`, no pacer update, no finished-on-big
        count, no core release and no placement of pending work."""
        self.dequeue(segment)
        if segment in self.running:
            self.running.remove(segment)

    def on_main_exit(self) -> None:
        """Migrate stragglers to big cores and run flat out (paper §4.5)."""
        self.main_done = True
        for core in self.executor.little_cores:
            core.set_frequency(core.freq_max_hz)
        if self.config.enable_migration:
            for segment in sorted(self.running, key=lambda s: s.index):
                for replica in segment.replicas:
                    checker = replica.process
                    if checker.core is None or checker.core.is_big:
                        continue
                    big = self.executor.free_core("big")
                    if big is None:
                        break
                    self.migrate(segment, big, checker)
        self.place_pending()

    # -- pacing ------------------------------------------------------------------------

    def _update_pacer(self, segment: Segment) -> None:
        if (not self.config.enable_dvfs_pacer or self.main_done
                or not segment.replicas):
            return
        work_cycles = (sum(r.process.user_cycles for r in segment.replicas)
                       - segment.checker_user_cycles_at_start)
        interval = None
        if segment.ready_time is not None:
            interval = max(1e-9, segment.ready_time - segment.start_time)
        if interval is None or work_cycles <= 0:
            return
        alpha = 0.4
        self._work_ewma = (work_cycles if self._work_ewma is None
                           else alpha * work_cycles + (1 - alpha) * self._work_ewma)
        self._interval_ewma = (interval if self._interval_ewma is None
                               else alpha * interval + (1 - alpha) * self._interval_ewma)
        littles = self.executor.little_cores
        if not littles:
            return
        required = (PACER_HEADROOM * self._work_ewma
                    / (len(littles) * self._interval_ewma))
        for core in littles:
            core.set_frequency(required)
        self.stats.pacer_freq_history.append(littles[0].freq_hz)
