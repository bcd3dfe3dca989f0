"""The Parallaft runtime: coordinator + tracer (paper §3, figure 2).

``Parallaft`` is the user-facing entry point: give it a program (and
optionally a platform/config), call :meth:`run`, get :class:`RunStats`.

Internally it is the *coordinator* of figure 2: a ptrace-style tracer that
slices the main execution into segments, forks checkpoint/checker processes
at boundaries, records syscalls/signals/nondeterministic instructions into
per-segment R/R logs, replays checkers to recorded execution points on
little cores, compares program state at segment ends, and schedules/paces
checkers for energy efficiency.

Detection policy comes from the config's registered mode
(:mod:`repro.modes`): the same class runs the paper's RAFT model (§5.1)
under ``get_mode("raft").make_config()`` — a single segment whose
checker runs concurrently on a big core with no state comparison — and
TMR's majority vote with forward recovery.
"""

from __future__ import annotations

import dataclasses
import math
import weakref

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import abi
from repro.common.errors import (
    FramePoolExhausted,
    ReproError,
    SimulationError,
)
from repro.core import syscall_model
from repro.core.checker_sched import CheckerScheduler
from repro.core.comparator import (
    ComparisonResult,
    StateComparator,
    state_digest,
)
from repro.core.config import (
    DirtyPageBackend,
    ExecPointCounter,
    ParallaftConfig,
)
from repro.core.dirty_tracker import DirtyPageTracker
from repro.core.pressure import PressureController
from repro.core.exec_point import (
    ExecPoint,
    ExecPointReplayer,
    ReplayOutcome,
    ReplayStop,
    ReplayStopKind,
)
from repro.core.rr_log import (
    NondetRecord,
    SignalRecord,
    SyscallRecord,
    verify_record,
)
from repro.core.segment import Segment, SegmentStatus
from repro.core.stats import DetectedError, RunStats
from repro.cpu.exceptions import Stop, StopReason
from repro.isa import instructions as I
from repro.isa.program import Program
from repro.kernel import Kernel, SyscallAction, Tracer
from repro.kernel.process import Process, ProcessState
from repro.mem.frames import budget_from_env
from repro.metrics import MetricRegistry, PhaseProfiler
from repro.metrics import phases as mph
from repro.recovery.manager import RecoveryManager
from repro.sim.executor import Executor
from repro.sim.platform import PlatformConfig, apple_m2
from repro.trace import TraceBuffer
from repro.trace import events as tev

#: Fresh-checker re-checks of one failed segment (``retry_failed_checkers``
#: / recovery) before the failure implicates the main.
MAX_CHECKER_RETRIES = 1

#: A checker is killed after its segment's main instruction count times
#: this scale (paper §4.2.2): above 1 to absorb counter overcount.
CHECKER_TIMEOUT_SCALE = 1.1


class StallCause(NamedTuple):
    """What one reason to park a process decides."""

    #: Profiler phase the waiting time is charged to.
    phase: str
    #: For a main cause, the predicate (over the runtime) that holds the
    #: main back: :meth:`Parallaft.wake_main` wakes it once this clears.
    #: None for a checker cause, which the event that ends it wakes (a
    #: record append or segment release, freed frames).
    holds: Optional[Callable[["Parallaft"], bool]] = None


#: Every reason a process is parked, keyed by the ``reason`` its events
#: carry.  Main causes emit ``main_stall``/``main_wake``, checker causes
#: ``checker_stall``/``checker_wake``.
STALL_CAUSES: Dict[str, StallCause] = {
    tev.STALL_CONTAINMENT: StallCause(
        mph.CONTAINMENT_STALL, lambda rt: rt._containment_blocked()),
    tev.STALL_CAP: StallCause(
        mph.CAP_STALL,
        lambda rt: rt._live_segments() >= rt.config.max_live_segments),
    tev.STALL_PRESSURE: StallCause(
        mph.PRESSURE_STALL, lambda rt: rt.pressure.stall_engaged),
    tev.STALL_RECORD_STARVATION: StallCause(mph.CHECKER_STALL),
    tev.STALL_MEMORY: StallCause(mph.CHECKER_STALL),
}


#: The error ladder's policy (:meth:`Parallaft.fail`): which kinds each
#: rung may take.  A detection mode may absorb one replica failing
#: mid-replay with one of these (TMR outvotes it while a majority remains).
ABSORBABLE_ERRORS = frozenset({"syscall_divergence", "exec_point_overrun",
                               "exception", "timeout"})
#: A fresh checker re-checks the segment from its retained checkpoint,
#: whose digest is verified first; with that checkpoint evicted, the
#: error becomes ``checkpoint_evicted``.
RETRIED_ERRORS = ABSORBABLE_ERRORS | {"state_mismatch", "vote_inconclusive",
                                      "log_integrity"}
#: Recovery may roll the main back.  A record that failed its checksum
#: impugns only the log *copy* (a checker-side transient): it is
#: re-checked, never rolled back.
ROLLBACK_ERRORS = RETRIED_ERRORS - {"log_integrity"}
#: The run fail-stops even with ``stop_on_error`` off: saved state or the
#: comparator proved untrusted, or the saved state is gone, so the run
#: cannot vouch for anything it would produce next.
FAIL_STOP_ERRORS = frozenset({"infra_integrity", "checkpoint_evicted"})
#: Every ``DetectedError.kind``.  A recovery-watchdog trip means recovery
#: itself failed: no rung but the fail-stop takes it.
ERROR_KINDS = RETRIED_ERRORS | FAIL_STOP_ERRORS | {"recovery_watchdog"}


class Parallaft(Tracer):
    """Protect one program run with heterogeneous parallel error detection."""

    def __init__(self, program: Program,
                 config: Optional[ParallaftConfig] = None,
                 platform: Optional[PlatformConfig] = None,
                 kernel: Optional[Kernel] = None,
                 executor: Optional[Executor] = None,
                 files: Optional[Dict[str, bytes]] = None,
                 quantum: int = 2000,
                 seed: int = 0):
        self.program = program
        self.platform = platform or apple_m2()
        self.config = config or ParallaftConfig()
        if self.config.mem_budget_bytes is None:
            # REPRO_MEM_BUDGET is resolved here, not at config
            # construction, so a bare ParallaftConfig stays
            # environment-independent (retains_recovery_checkpoint and
            # friends only see an explicit budget).
            env_budget = budget_from_env()
            if env_budget is not None:
                self.config = dataclasses.replace(
                    self.config, mem_budget_bytes=env_budget)
        self.config.validate()
        #: The detection-mode policy object (repro.modes): replica count,
        #: submit timing, boundary compare/vote and error absorption all
        #: dispatch through it instead of string-comparing mode names.
        self.mode = self.config.detection_mode()
        self.kernel = kernel or Kernel(page_size=self.platform.page_size,
                                       seed=seed)
        self.kernel.counters.instr_overcount_max = \
            self.platform.instr_overcount_max
        self.kernel.counters.skid_max = self.platform.skid_max
        self.kernel.counters.skid_probability = self.platform.skid_probability
        self.executor = executor or Executor(self.kernel, self.platform,
                                             quantum=quantum)
        # The callbacks handed to the parts this runtime owns (the trace,
        # the profiler, the main as its tracer) reach it through a proxy:
        # a strong reference back would make a cycle, and a finished run
        # would wait for the cyclic garbage collector to be freed.
        me = weakref.proxy(self)
        #: Structured event trace; shared with the kernel and executor so
        #: every layer emits into one timeline.
        self.trace = TraceBuffer(capacity=self.config.trace_capacity,
                                 enabled=self.config.enable_trace,
                                 clock=lambda: me.executor.current_time)
        self.executor.trace = self.trace
        self.kernel.trace = self.trace
        for path, data in (files or {}).items():
            self.kernel.vfs.register(path, data)

        self.stats = RunStats()
        #: Metric registry + phase-attribution profiler (repro.metrics).
        #: The profiler is shared with the executor (cycle charges) and
        #: the kernel (span closure on every process-exit path).
        self.metrics = MetricRegistry()
        self.profiler = PhaseProfiler(
            clock=lambda: me.executor.current_time,
            attribute=lambda proc: me._attribution(proc),
            enabled=self.config.enable_metrics)
        self.executor.profiler = self.profiler
        self.kernel.profiler = self.profiler
        self.stats.bind_registry(self.metrics)
        backend = self.config.dirty_page_backend
        if backend is None:
            backend = (DirtyPageBackend.SOFT_DIRTY
                       if self.platform.arch == "x86_64"
                       else DirtyPageBackend.MAP_COUNT)
        self.dirty_tracker = DirtyPageTracker(backend,
                                              self.platform.page_size)
        self.comparator = StateComparator(
            self.config.comparison, self.platform.page_size,
            redundant=self.config.redundant_compare)
        self.comparator.metrics = (self.metrics
                                   if self.config.enable_metrics else None)
        self.sched = CheckerScheduler(self.executor, self.config, self.stats)
        self.slicing_unit = (self.config.slicing_unit
                             or self.platform.slicing_unit)
        # The recovery manager and the pressure controller get the proxy
        # too: the runtime holds them.
        self.recovery: Optional[RecoveryManager] = (
            RecoveryManager(me) if self.config.enable_recovery else None)
        if self.config.mem_budget_bytes is not None:
            self.kernel.pool.set_budget(self.config.mem_budget_bytes)
        #: Memory-pressure degradation ladder; present iff the pool has a
        #: finite budget (from config or a caller-provided kernel).
        self.pressure: Optional[PressureController] = (
            PressureController(me)
            if self.kernel.pool.budget_bytes is not None else None)

        self.main: Optional[Process] = None
        self.segments: List[Segment] = []
        self.current: Optional[Segment] = None
        self.roles: Dict[int, str] = {}
        self.segment_of_checker: Dict[int, Segment] = {}
        self.patch_table: Dict[int, I.Instr] = {}
        self._pending_syscall: Optional[SyscallRecord] = None
        self._pending_mmap_split = False
        #: pid -> original argument registers to restore after a rewritten
        #: (MAP_FIXED) replay call completes, so checker registers stay
        #: bit-identical to the main's.
        self._checker_restore_regs: Dict[int, Tuple[int, ...]] = {}
        #: pid -> stall cause (a STALL_CAUSES key) of every parked live
        #: process, in the order they were parked.
        self._stalls: Dict[int, str] = {}
        self._terminated = False
        #: Latched at the first INTEGRITY_FAIL emission: saved state (or
        #: the comparator) proved untrusted, so no rollback may ever run
        #: after this point — promoting evidence the run just proved
        #: rotten is how an infra fault becomes a corrupt timeline.
        self._integrity_failed = False
        #: Per-quantum hooks (fault injection attaches here).
        self.quantum_hooks: List[Callable[[Process, str], None]] = []
        #: Pre-comparison hooks, called with the segment about to be
        #: compared (the infra campaign's digest-fault model arms the
        #: comparator here).
        self.compare_hooks: List[Callable[[Segment], None]] = []
        if self.config.metrics_sample_interval is not None \
                and self.config.enable_metrics:
            self.enable_metrics_sampling(self.config.metrics_sample_interval)

    def _attribution(self, proc: Process) -> Tuple[str, Optional[int]]:
        """The profiler's default phase for a process's charges and the
        segment its work belongs to: a checker replays its own segment,
        the main executes the segment it is currently recording."""
        role = self.roles.get(proc.pid)
        if role == "checker":
            segment = self.segment_of_checker.get(proc.pid)
            return mph.REPLAY, (segment.index if segment is not None
                                else None)
        if role == "main" and self.current is not None:
            return mph.MAIN_EXEC, self.current.index
        return mph.MAIN_EXEC, None

    # ------------------------------------------------------------------ setup

    def _setup(self) -> None:
        self.main = self.kernel.spawn(self.program)
        self.kernel.attach_tracer(self.main, weakref.proxy(self))
        self.roles[self.main.pid] = "main"
        if self.platform.arch == "x86_64":
            # rdtsc/cpuid disabled in hardware: they fault and we emulate
            # (paper §4.3.4).  Our mrs traps the same way.
            self.main.cpu.trap_nondet = True
        else:
            # AArch64: binary-patch nondeterministic reads to brk
            # (paper §4.3.4 and footnote 9).
            self._patch_nondet_instructions(self.main)
        core = self.executor.big_cores[0]
        self.executor.assign(self.main, core)
        self.start_segment()

    def _patch_nondet_instructions(self, proc: Process) -> None:
        for address, instr in list(proc.mem.scan_code()):
            if instr.op in I.NONDET_OPCODES:
                original = proc.mem.patch_code(address, I.make_brk())
                self.patch_table[address] = original

    # -------------------------------------------------------------- public API

    def run(self) -> RunStats:
        """Run the program under protection; returns the collected stats."""
        try:
            self._setup()
        except FramePoolExhausted as exc:
            # The program image itself does not fit the frame-pool budget:
            # the run is over before it began — an OOM exit, not a crash.
            self.kernel.stats["oom_kills"] += 1
            if self.trace.enabled:
                self.trace.emit(tev.PRESSURE_EXHAUSTED, stage=3,
                                needed=exc.needed, resident=exc.resident,
                                budget=exc.budget)
                self.trace.emit(tev.OOM, needed=exc.needed,
                                resident=exc.resident, budget=exc.budget)
            self.stats.oom_killed = True
            self.stats.oom_kills = self.kernel.stats["oom_kills"]
            self.stats.exit_code = 128 + abi.SIGKILL
            self.stats.peak_resident_bytes = float(
                self.kernel.pool.peak_resident_bytes)
            self._finalize_metrics()
            return self.stats
        self.executor.run()
        self._finalize_stats()
        return self.stats

    # ----------------------------------------------------------------- tracing

    def emit(self, kind: str, proc: Optional[Process] = None,
             segment: Optional[int] = None, **payload) -> None:
        """Emit one trace event, resolving pid/role/core from ``proc``."""
        if not self.trace.enabled:
            return
        pid = role = core = None
        if proc is not None:
            pid = proc.pid
            role = self.roles.get(proc.pid)
            if proc.core is not None:
                core = proc.core.label
        self.trace.emit(kind, pid=pid, role=role, core=core,
                        segment=segment, **payload)

    # --------------------------------------------------------- segment machinery

    def instr_reading(self, proc: Process) -> int:
        """``proc``'s retired-instruction counter, as the slicer and the
        execution points read it."""
        return proc.cpu.read_counter("instructions")

    def _live_segments(self) -> int:
        return sum(1 for s in self.segments if s.live)

    def start_segment(self) -> None:
        """Open the next segment at the main's current point: fork its
        checker replicas and checkpoints and let the mode submit it."""
        main = self.main
        segment = Segment(
            index=len(self.segments),
            start_branches=main.cpu.branches_retired,
            start_instructions=self.instr_reading(main),
            start_cycles=main.user_cycles,
            start_time=self.executor.current_time,
        )
        checker, fork_cost = self.fork_replica(
            segment, main, f"checker-{segment.index}")
        self.executor.charge(main, fork_cost, phase=mph.CHECKPOINT_FORK)
        self.segments.append(segment)
        self.current = segment
        segment.log.integrity = self.config.log_checksums
        self.stats.checkpoint_count += 1
        self.emit(tev.SEGMENT_START, proc=main, segment=segment.index,
                  checker_pid=checker.pid)
        # Output the segment produces is only committed once it verifies;
        # a rollback truncates the consoles back to these marks.
        segment.console_mark = self.kernel.console.mark()
        segment.stderr_mark = self.kernel.stderr_console.mark()
        if self.config.retains_recovery_checkpoint:
            # Error recovery (Table 2 future work): retain a pristine copy
            # of the segment-start state to re-fork checkers from — and,
            # with enable_recovery, to roll the main back to.
            recovery, cost = self.kernel.fork(
                main, name=f"recovery-{segment.index}", paused=True)
            self.executor.charge(main, cost, phase=mph.CHECKPOINT_FORK)
            self.roles[recovery.pid] = "checkpoint"
            segment.recovery_checkpoint = recovery
            if self.config.checkpoint_digests:
                # Digest the checkpoint while it is known-good (it *is*
                # the main, fork-instant); re-verified before any error
                # path trusts it.  Hashing is on the main's critical path,
                # like the fork itself.
                digest, nbytes = state_digest(recovery)
                segment.checkpoint_digest = digest
                self.executor.charge(main,
                                     self.kernel.costs.hash_cycles(nbytes),
                                     phase=mph.HASHING)
        if self.config.compare_state:
            pages = self.dirty_tracker.begin_segment(main)
            self.executor.charge(main,
                                 self.kernel.costs.dirty_clear_cycles(pages),
                                 phase=mph.DIRTY_SCAN)
        # Program the branch counter for execution-point recording (§4.2.1).
        self.executor.charge(main, self.kernel.costs.perf_setup_cycles,
                             phase=mph.RUNTIME)
        for n in range(1, self.mode.replica_count):
            # Extra checker replicas (TMR): independent paused forks of
            # the same segment-start state, each a voter at the boundary.
            _, extra_cost = self.fork_replica(
                segment, main, f"checker-{segment.index}r{n}")
            self.executor.charge(main, extra_cost,
                                 phase=mph.CHECKPOINT_FORK)
        # RAFT submits here so its checker runs concurrently from the
        # very start, consuming the log as it is recorded.
        self.mode.on_segment_start(self, segment)

    def _finalize_segment(self, end_is_main_exit: bool = False) -> None:
        """Close the recording segment at the main's current stop point."""
        segment = self.current
        if segment is None:
            return
        main = self.main
        point = ExecPoint(
            main.cpu.pc,
            main.cpu.branches_retired - segment.start_branches,
            self.instr_reading(main) - segment.start_instructions,
        )
        segment.end_point = point
        segment.main_instructions = point.instructions
        if self.config.compare_state:
            segment.main_dirty_vpns = self.dirty_tracker.dirty_vpns(main)
            self.executor.charge(main, self.kernel.costs.dirty_scan_cycles(
                main.mem.mapped_pages), phase=mph.DIRTY_SCAN)
        if end_is_main_exit:
            # The final segment compares against the exited (unreaped) main.
            segment.end_checkpoint = main
            segment.end_is_main = True
        else:
            checkpoint, cost = self.kernel.fork(
                main, name=f"checkpoint-{segment.index + 1}", paused=True)
            self.executor.charge(main, cost, phase=mph.CHECKPOINT_FORK)
            self.roles[checkpoint.pid] = "checkpoint"
            segment.end_checkpoint = checkpoint
        segment.ready_time = self.executor.current_time
        segment.status = SegmentStatus.READY
        self.emit(tev.SEGMENT_READY, proc=main, segment=segment.index,
                  instructions=segment.main_instructions,
                  main_exit=end_is_main_exit)
        self.current = None
        self._release_segment(segment)
        if self.recovery is not None:
            # A re-executed region is fully re-recorded: watchdog off.
            self.recovery.note_boundary()

    def _release_segment(self, segment: Segment) -> None:
        """Arm every replica's replay to the recorded end point."""
        for replica in segment.replicas:
            checker = replica.process
            # Each replica consumes the shared stop list through its own
            # replayer (private copy: arming is stateful per replica).
            stops = list(segment.signal_stops)
            stops.append(ReplayStop(segment.end_point,
                                    ReplayStopKind.SEGMENT_END))
            replica.replayer = ExecPointReplayer(
                checker, stops, self.config.skid_buffer_branches,
                self.config.exec_point_counter,
                branch_base=segment.start_branches,
                instr_base=segment.start_instructions)
            # Instruction timeout: kills checkers whose control flow was
            # corrupted into never reaching the end point.
            if self.config.exec_point_counter == ExecPointCounter.BRANCHES:
                timeout = (segment.start_instructions
                           + int(segment.main_instructions
                                 * CHECKER_TIMEOUT_SCALE) + 64)
                checker.cpu.arm_instr_overflow(timeout)
            self.emit(tev.SEGMENT_RELEASE, proc=checker,
                      segment=segment.index)
            if self.config.log_checksums and len(segment.log):
                # Marker: this replay verifies N checksummed records;
                # failures surface as INTEGRITY_FAIL at the consuming site.
                self.emit(tev.INTEGRITY_CHECK, proc=checker,
                          segment=segment.index, check="log",
                          records=len(segment.log))
            replica.replayer.arm_next()
            # The checker may still be queued for a core: park the setup
            # cost until the scheduler places it.
            self.executor.charge_deferred(
                checker, self.kernel.costs.perf_setup_cycles
                + self.kernel.costs.breakpoint_setup_cycles,
                phase=mph.RUNTIME)
        # Non-concurrent modes submit to the checker scheduler here.
        self.mode.on_segment_release(self, segment)
        # The end point is known now: a replica parked on the record log
        # (RAFT) or on memory resumes.
        for replica in segment.replicas:
            self.wake(replica.process)

    def _boundary(self) -> None:
        """A slicing boundary: finalize the recording segment, start the
        next one (figure 1(b) steps 1-2)."""
        self._finalize_segment()
        self.start_segment()
        self.stats.nr_slices += 1

    # ------------------------------------------------------------ record helpers

    def _charge_record_bytes(self, proc: Process, nbytes: int) -> None:
        if nbytes:
            self.stats.bytes_recorded += nbytes
            self.executor.charge(
                proc, nbytes * self.kernel.costs.record_per_byte_cycles,
                phase=mph.RUNTIME)

    def _record_appended(self, segment: Segment) -> None:
        if not self._stalls:
            return
        for replica in segment.replicas:
            if self._stalls.get(replica.process.pid) \
                    == tev.STALL_RECORD_STARVATION:
                self.wake(replica.process)

    def _drain_signal_records(self, checker: Process) -> None:
        """Inject record-stream signals the main raised against itself.

        The main's ``kill`` syscall queues a real signal; the checker's
        ``kill`` is emulated, so the kernel never queues the checker's copy
        — it is delivered here from the record instead, right after the
        replayed syscall completes.  Only *handled* signals are drained:
        unhandled fatal records correspond to genuine faults, which the
        checker reproduces (and matches) by faulting itself.
        """
        segment = self.segment_of_checker.get(checker.pid)
        if segment is None or not checker.alive:
            return
        replica = segment.replica_of(checker.pid)
        if replica is None:
            return
        while True:
            record = replica.cursor.peek()
            if (record is None or record.kind != "signal" or record.external
                    or record.signo not in checker.signal_handlers):
                return
            if self._record_corrupt(segment, replica):
                return
            replica.cursor.next()
            self.kernel.deliver_signal_now(checker, record.signo)

    # --------------------------------------------------------- integrity checks

    def checkpoint_intact(self, segment: Segment) -> bool:
        """Re-verify the retained recovery checkpoint's fork-time digest.

        Called before any error path trusts the checkpoint (retry forks
        from it; rollback promotes it to be the new main).  A mismatch
        means bits rotted while the checkpoint sat paused — promotion
        would "recover" into a corrupt timeline — so it latches the
        no-rollback flag like a ``fail(check=...)``.
        """
        if not self.config.checkpoint_digests:
            return True
        checkpoint = segment.recovery_checkpoint
        if checkpoint is None or segment.checkpoint_digest is None:
            return True
        digest, nbytes = state_digest(checkpoint)
        self.stats.integrity_checks += 1
        if self.main is not None and self.main.alive:
            self.executor.charge(self.main,
                                 self.kernel.costs.hash_cycles(nbytes),
                                 phase=mph.HASHING)
        ok = digest == segment.checkpoint_digest
        self.emit(tev.INTEGRITY_CHECK, segment=segment.index,
                  check="checkpoint", ok=ok)
        if not ok:
            self._integrity_failed = True
            self.stats.integrity_failures += 1
            self.emit(tev.INTEGRITY_FAIL, segment=segment.index,
                      check="checkpoint",
                      detail=f"recovery checkpoint of segment "
                             f"{segment.index} failed its fork-time "
                             f"integrity digest")
        return ok

    def _record_corrupt(self, segment: Segment, replica) -> bool:
        """Verify the record the replica's cursor is about to consume.  A
        record that fails its checksum fails the segment with
        ``log_integrity`` (the log *copy* is suspect) and returns True."""
        if not self.config.log_checksums:
            return False
        record = replica.cursor.peek()
        if record is None:
            return False
        self.stats.integrity_checks += 1
        problem = verify_record(record, replica.cursor.position)
        if problem is None:
            return False
        self.fail("log_integrity", segment, problem, check="log")
        return True

    # ------------------------------------------------------------- verdicts
    # The runtime alone decides a segment's fate.  Detection modes and
    # recovery compare through ``compare_replicas`` and report through
    # ``verify`` and ``fail``; which kinds each rung of the ladder may
    # take is the ``*_ERRORS`` sets.

    def verify(self, segment: Segment, proc: Optional[Process] = None,
               retire: bool = True, **payload) -> None:
        """The segment checked out: mark it CHECKED and, with ``retire``,
        retire its resources.  ``proc`` (default: the segment's checker)
        and ``payload`` go on the ``segment_checked`` event."""
        segment.check_finished_time = self.executor.current_time
        segment.status = SegmentStatus.CHECKED
        self.stats.segments_checked += 1
        self.emit(tev.SEGMENT_CHECKED,
                  proc=segment.checker if proc is None else proc,
                  segment=segment.index, **payload)
        if self.recovery is not None:
            self.recovery.on_segment_verified(segment)
        if retire:
            self._retire_segment(segment)

    def fail(self, kind: str, segment: Segment, detail: str = "",
             proc: Optional[Process] = None,
             check: Optional[str] = None) -> None:
        """A check of ``segment`` failed with ``kind`` (one of
        ``ERROR_KINDS``): climb the error ladder.

        ``proc`` names the one replica that failed mid-replay.  With
        ``check``, an integrity check failed: the no-rollback flag latches
        and ``integrity_fail`` is emitted first (the invariant checker
        asserts no ROLLBACK ever follows one).  The rungs, in order: the
        mode absorbs the replica's failure; the retained checkpoint's
        digest is re-checked (a rotten one turns the error into
        ``infra_integrity``); a fresh checker re-checks the segment;
        recovery rolls the main back; an evicted checkpoint turns the
        error into ``checkpoint_evicted``.  An error no rung absorbs is
        reported, the segment fails, and the run fail-stops when
        ``stop_on_error`` is on or the kind demands it.
        """
        if check is not None:
            self._integrity_failed = True
            self.stats.integrity_failures += 1
            self.emit(tev.INTEGRITY_FAIL, segment=segment.index,
                      check=check, detail=detail)
        if proc is not None and kind in ABSORBABLE_ERRORS:
            replica = segment.replica_of(proc.pid)
            if replica is not None and self.mode.absorb_replica_error(
                    self, segment, replica, kind, detail):
                return
        if (kind in RETRIED_ERRORS
                and self.config.retains_recovery_checkpoint
                and segment.recovery_checkpoint is not None
                and not self.checkpoint_intact(segment)):
            # Every recovery rung below would trust this checkpoint.
            detail = (f"recovery checkpoint of segment {segment.index} "
                      f"failed integrity verification while handling "
                      f"{kind}: {detail}")
            kind = "infra_integrity"
        # Checkpoints retained only for the pressure controller do not
        # enable retries: the explicit knobs gate them.
        retrying = (self.config.retry_failed_checkers
                    or self.config.enable_recovery)
        if (kind in RETRIED_ERRORS and retrying
                and segment.retries < MAX_CHECKER_RETRIES
                and segment.recovery_checkpoint is not None
                and segment.end_point is not None):
            # The diagnosis step: a transient checker fault vanishes on
            # the re-check; a main-side fault fails it again.
            self._retry_segment_check(segment, kind)
            return
        if (kind in ROLLBACK_ERRORS and not self._integrity_failed
                and not self._terminated and self.recovery is not None
                and self.recovery.on_check_failed(segment)):
            return
        if kind in RETRIED_ERRORS and retrying and segment.checkpoint_evicted:
            # The pressure controller evicted the checkpoint a retry or
            # rollback would have used (stage 3).
            detail = (f"recovery checkpoint of segment {segment.index} was "
                      f"evicted under memory pressure; refusing to absorb "
                      f"{kind}: {detail}")
            kind = "checkpoint_evicted"
        self.stats.errors.append(DetectedError(
            kind, segment.index, detail, self.executor.current_time))
        self.emit(tev.ERROR, segment=segment.index, error=kind,
                  detail=detail)
        segment.status = SegmentStatus.FAILED
        self.emit(tev.SEGMENT_FAILED, segment=segment.index, error=kind)
        for replica in segment.live_replicas():
            self.kernel.exit_process(replica.process, 1)
        self.sched.on_checker_done(segment)
        # The FAILED segment left the live set without ever retiring, so
        # this is a wake point for a stalled main (cap or containment),
        # else it sleeps forever when stop_on_error is off.
        self.wake_main()
        if self.config.stop_on_error or kind in FAIL_STOP_ERRORS:
            self._terminate_application()

    def _retry_segment_check(self, segment: Segment, kind: str) -> None:
        """Re-run a failed segment check with a fresh checker forked from
        the retained segment-start state (error recovery, Table 2).

        If the original failure was a transient fault in the *checker*, the
        retry succeeds and the application continues unharmed; a repeat
        mismatch implicates the main copy and is reported for real.
        """
        segment.retries += 1
        self.stats.checker_retries += 1
        if self.config.enable_recovery:
            self.stats.recovery_retries += 1
        self.drop_replicas(segment, exit_code=1)
        self.respawn_replicas(
            segment, f"checker-{segment.index}-retry{segment.retries}",
            cause=kind)

    def respawn_replicas(self, segment: Segment, name: str,
                         cause: str) -> None:
        """Fork a fresh replica set for ``segment`` from its retained
        segment-start checkpoint and re-release it (shared by the retry
        path and the pressure controller's shed/re-queue path, both of
        which dropped the old replicas first)."""
        for n in range(self.mode.replica_count):
            # This work happens off the main's critical path; charge each
            # new checker once it lands on a core.
            fresh, cost = self.fork_replica(
                segment, segment.recovery_checkpoint,
                f"{name}r{n}" if n else name)
            self.executor.charge_deferred(fresh, cost,
                                          phase=mph.CHECKPOINT_FORK)
        segment.status = SegmentStatus.READY
        self.emit(tev.CHECKER_RETRY, proc=segment.checker,
                  segment=segment.index, retry=segment.retries, cause=cause)
        self._release_segment(segment)

    # ------------------------------------------------------ replica lifecycle
    # The runtime alone forks, drops and discards checker replicas and
    # segment checkpoints.  Detection modes, recovery and the pressure
    # controller compose these methods; each passes what differs between
    # its paths (exit code, what to book, event payload) as an argument or
    # does it as a step of its own.

    def fork_replica(self, segment: Segment, source: Process,
                     name: str) -> Tuple[Process, float]:
        """Fork a paused checker replica of ``segment`` from ``source``
        and register it; returns ``(process, fork cost)`` for the caller
        to charge."""
        proc, cost = self.kernel.fork(source, name=name, paused=True)
        self.roles[proc.pid] = "checker"
        self.segment_of_checker[proc.pid] = segment
        segment.add_replica(proc)
        return proc, cost

    def _book_checker_time(self, proc: Process) -> None:
        self.stats.checker_user_time += proc.user_time
        self.stats.checker_sys_time += proc.sys_time
        self.stats.checker_cycles_big += proc.cycles_big
        self.stats.checker_cycles_little += proc.cycles_little

    def remove_replica(self, segment: Segment, replica) -> Process:
        """Take ``replica`` out of ``segment``'s voters, detach it and book
        its work so far as checker time; returns its process, still
        alive (TMR promotes it or drops it)."""
        proc = replica.process
        segment.replicas.remove(replica)
        # Detached: its exit no longer reaches the error path.
        self.segment_of_checker.pop(proc.pid, None)
        self._book_checker_time(proc)
        return proc

    def drop_replica(self, segment: Segment, replica,
                     exit_code: int) -> None:
        """Detach ``replica``, kill it with ``exit_code`` and reap it.

        Detaching comes first so the exit hook does not re-enter the
        error path for a checker discarded on purpose.  The scheduler's
        ``on_checker_done`` releases the cores of the replicas of a
        segment it still runs; any other replica (removed from the
        voters, or of a withdrawn segment) gives its core back here,
        between the kill and the reap.
        """
        proc = replica.process
        self.segment_of_checker.pop(proc.pid, None)
        if proc.alive:
            self.kernel.exit_process(proc, exit_code)
        if replica not in segment.replicas \
                or segment not in self.sched.running:
            self.executor.unassign(proc)
        self.kernel.reap(proc)

    def drop_replicas(self, segment: Segment, exit_code: int) -> None:
        """Drop every replica of ``segment``, let the scheduler complete
        the segment (core release, pacer, placement of pending work),
        then forget the replicas."""
        for replica in segment.replicas:
            self.drop_replica(segment, replica, exit_code)
        self.sched.on_checker_done(segment)
        segment.replicas = []

    def _reap_checkpoint(self, checkpoint: Optional[Process]) -> None:
        if checkpoint is not None:
            self.roles.pop(checkpoint.pid, None)
            self.kernel.reap(checkpoint)

    def release_checkpoints(self, segment: Segment) -> None:
        """Reap ``segment``'s end checkpoint (unless that is the main
        itself) and its retained recovery checkpoint."""
        if not segment.end_is_main:
            self._reap_checkpoint(segment.end_checkpoint)
        self._reap_checkpoint(segment.recovery_checkpoint)
        segment.end_checkpoint = segment.recovery_checkpoint = None

    def evict_checkpoint(self, segment: Segment) -> None:
        """Reap ``segment``'s retained recovery checkpoint only; a later
        retry or rollback that wanted it refuses with
        ``checkpoint_evicted``."""
        self._reap_checkpoint(segment.recovery_checkpoint)
        segment.recovery_checkpoint = None
        segment.checkpoint_evicted = True

    def discard_segment(self, segment: Segment, **payload) -> None:
        """Throw ``segment`` away as ``ROLLED_BACK``.

        The scheduler forgets it without completing its check, replicas
        still attached leave the runtime (roles included) with exit code
        1, and its checkpoints are released.  Safe on a retired segment:
        only its status flips.  ``payload`` extends the
        ``segment_rolled_back`` event.
        """
        self.sched.withdraw(segment)
        for replica in segment.replicas:
            self.roles.pop(replica.process.pid, None)
            self.drop_replica(segment, replica, 1)
        segment.replicas = []
        self.release_checkpoints(segment)
        segment.status = SegmentStatus.ROLLED_BACK
        self.emit(tev.SEGMENT_ROLLED_BACK, segment=segment.index, **payload)

    def truncate_consoles(self, segment: Segment,
                          emit_empty: bool = False) -> None:
        """Throw away console output produced since ``segment`` started:
        the consoles model a commit-on-verify buffer.  A stream that did
        not grow emits ``console_truncate`` only with ``emit_empty``."""
        for console, stream, mark in (
                (self.kernel.console, "stdout", segment.console_mark),
                (self.kernel.stderr_console, "stderr", segment.stderr_mark)):
            if emit_empty or console.mark() > mark:
                console.truncate(mark)
                self.emit(tev.CONSOLE_TRUNCATE, segment=segment.index,
                          stream=stream, length=mark)

    def _terminate_application(self) -> None:
        """An error was detected: terminate the application (paper §4.4)."""
        if self._terminated:
            return
        self._terminated = True
        self.emit(tev.APP_TERMINATE)
        for proc in list(self.kernel.processes.values()):
            if proc.alive and self.roles.get(proc.pid) in ("main", "checker"):
                if proc is self.main and proc.exit_code is not None:
                    continue
                self.kernel.exit_process(proc, 128 + abi.SIGKILL)

    # --------------------------------------------------------------- Tracer hooks

    # .. syscalls ..

    def on_syscall_entry(self, proc: Process, sysno: int,
                         args: Sequence[int]) -> Optional[SyscallAction]:
        role = self.roles.get(proc.pid)
        if role == "main":
            return self._main_syscall_entry(proc, sysno, tuple(args))
        if role == "checker":
            return self._checker_syscall_entry(proc, sysno, tuple(args))
        return None

    def _main_syscall_entry(self, proc: Process, sysno: int,
                            args: Tuple[int, ...]) -> Optional[SyscallAction]:
        if sysno == abi.SYS_EXIT:
            # Finalize the last segment at the exit syscall's execution
            # point; the checker will stop exactly here via its breakpoint.
            self._finalize_segment(end_is_main_exit=True)
            return None
        if sysno == abi.SYS_MMAP:
            if syscall_model.is_shared_mmap(sysno, args):
                raise ReproError(
                    "shared memory mappings are outside Parallaft's "
                    "supported scope (paper §4.3.2)")
            if syscall_model.is_file_backed_mmap(sysno, args):
                # Split segments around the call so it stays outside the
                # protection zone (paper §4.3.2): the checker forked
                # *after* the call inherits the mapping instead of
                # replaying it.  This applies in RAFT mode too — the
                # paper's RAFT model takes two extra checkpoints around
                # file-backed mmaps (§5.1).
                self._finalize_segment()
                self._pending_mmap_split = True
                self.stats.mmap_splits += 1
                return None
        classification = syscall_model.classify(sysno)
        if (self.config.error_containment
                and classification == syscall_model.GLOBAL
                and self._containment_blocked()):
            # Error containment in the SoR (Table 2 future work): nothing
            # escapes until every earlier segment is verified.  The main
            # stalls here and re-issues the syscall once they retire.
            self.emit(tev.SYSCALL_HELD, proc=proc,
                      segment=self.current.index, sysno=sysno)
            self.stall(proc, tev.STALL_CONTAINMENT,
                       waiting_on=[s.index for s in self.segments
                                   if s.live
                                   and s.index < self.current.index])
            return SyscallAction.emulate(0)
        record = SyscallRecord(sysno, args, classification,
                               replay_passthrough=(classification
                                                   == syscall_model.LOCAL))
        region = syscall_model.input_region(sysno, args)
        if region is not None:
            address, length = region
            try:
                record.input_data = proc.mem.read_bytes(address, length)
            except Exception:
                record.input_data = b""
            self._charge_record_bytes(proc, len(record.input_data))
        self._pending_syscall = record
        return None

    def on_syscall_exit(self, proc: Process, sysno: int,
                        args: Sequence[int], result: int) -> None:
        role = self.roles.get(proc.pid)
        if role == "checker":
            original = self._checker_restore_regs.pop(proc.pid, None)
            if original is not None:
                # Undo the MAP_FIXED argument rewrite so checker registers
                # stay bit-identical to the main's.
                for i, value in enumerate(original):
                    proc.cpu.regs.gprs[i + 1] = value
            self._drain_signal_records(proc)
            return
        if role != "main":
            return
        if self._pending_mmap_split:
            # The file-backed mmap completed: open the next segment, whose
            # start checkpoint duplicates the new mapping into the checker.
            self._pending_mmap_split = False
            if proc.alive:
                self.start_segment()
            return
        record = self._pending_syscall
        self._pending_syscall = None
        if record is None or self.current is None:
            return
        record.result = result
        region = syscall_model.output_region(sysno, record.args, result)
        if region is not None:
            # The kernel's own buffer, shared: it is immutable bytes, and
            # a loop of equal /dev/zero reads records one object.
            record.output_addr, length = region
            record.output_data = self.kernel.syscall_output
            assert len(record.output_data) == length, (sysno, length)
            self._charge_record_bytes(proc, length)
        if sysno == abi.SYS_MMAP and result > 0 \
                and syscall_model.needs_aslr_fixup(sysno, record.args):
            # Replay will pin the checker's mapping to the address ASLR
            # gave the main (paper §4.3.2).
            fixed = list(record.args)
            fixed[0] = result
            fixed[3] = record.args[3] | abi.MAP_FIXED
            record.fixed_args = tuple(fixed)
        self.current.log.append(record)
        self.stats.syscalls_recorded += 1
        if self.trace.enabled:
            self.emit(tev.SYSCALL_RECORD, proc=proc,
                      segment=self.current.index, sysno=sysno,
                      classification=record.classification)
            if (sysno == abi.SYS_WRITE and result > 0
                    and record.args[0] in (abi.STDOUT, abi.STDERR)):
                stream = ("stdout" if record.args[0] == abi.STDOUT
                          else "stderr")
                console = (self.kernel.console if record.args[0] == abi.STDOUT
                           else self.kernel.stderr_console)
                end = console.mark()
                self.emit(tev.CONSOLE_WRITE, proc=proc,
                          segment=self.current.index, stream=stream,
                          start=end - result, end=end)
        self._record_appended(self.current)

    def _checker_syscall_entry(self, proc: Process, sysno: int,
                               args: Tuple[int, ...]
                               ) -> Optional[SyscallAction]:
        segment = self.segment_of_checker.get(proc.pid)
        replica = segment.replica_of(proc.pid) if segment is not None else None
        if segment is None or replica is None:
            return None
        record = replica.cursor.peek()
        if record is None:
            if segment.end_point is None:
                # RAFT-style concurrency: the checker caught up with the
                # main; block until the record exists.
                self.stall(proc, tev.STALL_RECORD_STARVATION)
                return SyscallAction.emulate(0)
            self.fail("syscall_divergence", segment,
                      f"checker issued extra syscall {sysno}", proc=proc)
            return SyscallAction.emulate(-abi.ENOSYS)
        if self._record_corrupt(segment, replica):
            # Verified *before* the kind/args checks: a corrupted record
            # must surface as a log fault, not as a bogus app divergence.
            return SyscallAction.emulate(-abi.ENOSYS)
        if record.kind != "syscall":
            self.fail("syscall_divergence", segment,
                      f"expected {record.kind} record, checker "
                      f"issued syscall {sysno}", proc=proc)
            return SyscallAction.emulate(-abi.ENOSYS)
        if record.sysno != sysno or record.args != args:
            self.fail(
                "syscall_divergence", segment,
                f"main {record.sysno}{record.args} vs checker {sysno}{args}",
                proc=proc)
            return SyscallAction.emulate(-abi.ENOSYS)
        region = syscall_model.input_region(sysno, args)
        if region is not None:
            address, length = region
            try:
                checker_data = proc.mem.read_bytes(address, length)
            except Exception:
                checker_data = None
            self._charge_record_bytes(proc, length)
            if checker_data != record.input_data:
                self.fail("syscall_divergence", segment,
                          f"syscall {sysno} data mismatch", proc=proc)
                return SyscallAction.emulate(-abi.ENOSYS)
        replica.cursor.next()
        self.stats.syscalls_replayed += 1
        self.emit(tev.SYSCALL_REPLAY, proc=proc, segment=segment.index,
                  sysno=sysno)
        if record.replay_passthrough:
            if record.fixed_args is not None:
                self._checker_restore_regs[proc.pid] = args
                for i, value in enumerate(record.fixed_args):
                    proc.cpu.regs.gprs[i + 1] = value
            return None
        if record.output_data:
            try:
                proc.mem.write_bytes(record.output_addr, record.output_data,
                                     force=True)
            except Exception:
                self.fail("syscall_divergence", segment,
                          "replay target memory unmapped", proc=proc)
                return SyscallAction.emulate(-abi.ENOSYS)
        return SyscallAction.emulate(record.result)

    # .. non-syscall stops ..

    def on_stop(self, proc: Process, stop: Stop) -> None:
        role = self.roles.get(proc.pid)
        reason = stop.reason
        if reason in (StopReason.BRK, StopReason.NONDET):
            self._handle_nondet(proc, role)
            return
        if role != "checker":
            # The slicer is quantum-driven; stray main-side overflows are
            # disarmed and ignored.
            proc.cpu.disarm_branch_overflow()
            return
        segment = self.segment_of_checker.get(proc.pid)
        replica = segment.replica_of(proc.pid) if segment is not None else None
        if segment is None or replica is None or replica.replayer is None:
            proc.cpu.disarm_branch_overflow()
            proc.cpu.disarm_instr_overflow()
            return
        replayer = replica.replayer
        if reason == StopReason.INSTR_OVERFLOW:
            if self.config.exec_point_counter == ExecPointCounter.BRANCHES:
                # 1.1x budget exceeded: control-flow corruption (paper
                # §4.2.2 "Handling Timeout").
                self.fail("timeout", segment,
                          "checker exceeded instruction budget", proc=proc)
                return
            outcome = replayer.on_overflow()
        elif reason == StopReason.COUNTER_OVERFLOW:
            outcome = replayer.on_overflow()
            self.executor.charge(proc,
                                 self.kernel.costs.breakpoint_setup_cycles,
                                 phase=mph.RUNTIME)
        elif reason == StopReason.BREAKPOINT:
            outcome = replayer.on_breakpoint()
        else:
            return
        if outcome == ReplayOutcome.OVERRUN:
            self.fail("exec_point_overrun", segment,
                      "checker ran past the recorded branch count", proc=proc)
            return
        if outcome == ReplayOutcome.REACHED:
            finished_index = replayer.index - 1
            reached = replayer.stops[finished_index]
            if reached.kind == ReplayStopKind.SIGNAL:
                # External-signal replay at the identical execution point
                # (paper §4.3.3).
                self.kernel.deliver_signal_now(proc, reached.signo)
                replayer.arm_next()
            else:
                self._replica_reached_end(segment, replica)

    def _handle_nondet(self, proc: Process, role: Optional[str]) -> None:
        pc = proc.cpu.pc
        instr = proc.mem.fetch(pc)
        if instr.op == I.BRK:
            instr = self.patch_table.get(pc)
            if instr is None:
                # A brk that is not one of our patch sites: a real trap.
                self.kernel.send_signal(proc, abi.SIGTRAP, external=False)
                self.kernel.deliver_pending_signal(proc)
                return
        if role == "main":
            value = self._native_nondet_value(proc, instr)
            if self.current is not None:
                self.current.log.append(NondetRecord(pc, instr.op, value))
                self.stats.nondet_recorded += 1
                self._record_appended(self.current)
            self._apply_nondet(proc, instr, value)
            return
        if role == "checker":
            segment = self.segment_of_checker.get(proc.pid)
            replica = (segment.replica_of(proc.pid)
                       if segment is not None else None)
            if segment is None or replica is None:
                return
            record = replica.cursor.peek()
            if record is None and segment.end_point is None:
                self.stall(proc, tev.STALL_RECORD_STARVATION)
                return
            if self._record_corrupt(segment, replica):
                return
            if (record is None or record.kind != "nondet"
                    or record.pc != pc):
                self.fail("syscall_divergence", segment,
                          f"nondet replay mismatch at pc={pc:#x}", proc=proc)
                return
            replica.cursor.next()
            self._apply_nondet(proc, instr, record.value)

    def _native_nondet_value(self, proc: Process, instr: I.Instr) -> int:
        if instr.op == I.RDTSC:
            return proc.nondet.read_tsc()
        if instr.op == I.MRS:
            return proc.nondet.read_sysreg(instr.imm)
        return proc.nondet.cpuid()

    def _apply_nondet(self, proc: Process, instr: I.Instr,
                      value: int) -> None:
        """Emulate the trapped instruction: set the destination register,
        retire it, advance the PC."""
        proc.cpu.regs.gprs[instr.a] = value
        proc.cpu.pc += 4
        proc.cpu.instr_retired += 1
        self.kernel._inject_overcount(proc)

    # .. signals ..

    def on_signal(self, proc: Process, signo: int, external: bool) -> bool:
        role = self.roles.get(proc.pid)
        if role == "main":
            if external:
                # Deliver now (we are at a precise stop) and arrange the
                # checker to receive it at the identical execution point
                # (paper §4.3.3).
                if self.current is not None:
                    segment = self.current
                    point = ExecPoint(
                        proc.cpu.pc,
                        proc.cpu.branches_retired - segment.start_branches,
                        self.instr_reading(proc)
                        - segment.start_instructions)
                    segment.signal_stops.append(
                        ReplayStop(point, ReplayStopKind.SIGNAL, signo))
                    self.stats.signals_recorded += 1
                return True
            # Internal signal (e.g. SIGSEGV from the app itself): record it;
            # the checker's own execution reproduces it (paper §4.3.3).
            if self.current is not None:
                self.current.log.append(SignalRecord(signo, external=False))
                self.stats.signals_recorded += 1
                self._record_appended(self.current)
            return True
        if role == "checker":
            segment = self.segment_of_checker.get(proc.pid)
            replica = (segment.replica_of(proc.pid)
                       if segment is not None else None)
            if segment is None or replica is None:
                return True
            if self._record_corrupt(segment, replica):
                return False
            record = replica.cursor.peek()
            if (record is not None and record.kind == "signal"
                    and record.signo == signo):
                # The checker reproduced the main's own (internal) signal.
                replica.cursor.next()
                if (signo in abi.FATAL_SIGNALS
                        and signo not in proc.signal_handlers):
                    # Both copies die here deterministically: the crash is
                    # faithfully reproduced, not a divergence.  With
                    # several replicas, the first reproduction verifies
                    # the segment; its siblings must not re-count it.
                    replica.reached_end = True
                    if segment.status != SegmentStatus.CHECKED:
                        # Retired once the replica's exit is reaped.
                        self.verify(segment, proc=proc, retire=False,
                                    reproduced_signal=signo)
                return True
            # No matching record: the checker faulted where the main did
            # not -> a detected error (the "Exception" class of §5.6).
            self.fail("exception", segment,
                      f"checker raised unmatched signal {signo}", proc=proc)
            return False
        return True

    # .. lifecycle ..

    def on_process_exit(self, proc: Process) -> None:
        # The kernel closed its stall span; a dead process is no longer
        # parked.
        self._stalls.pop(proc.pid, None)
        role = self.roles.get(proc.pid)
        if role == "main":
            if getattr(proc, "oom_killed", False):
                # Memory exhaustion killed the main: live checkers cannot
                # complete either (the pool is full) — tear the whole
                # application down deliberately rather than letting
                # blocked checkers drain one OOM kill at a time.
                self._terminate_application()
                return
            if self.current is not None and not self._terminated:
                # Crash exit (fatal signal): close the last segment at the
                # death point so trailing checkers still verify it.
                self._finalize_segment(end_is_main_exit=True)
            self.sched.on_main_exit()
            if self.pressure is not None:
                # The main can no longer allocate: drain every parked
                # segment so trailing checks still complete.
                self.pressure.on_main_exit()
            return
        if role == "checker":
            segment = self.segment_of_checker.get(proc.pid)
            if segment is None:
                return
            if segment.status == SegmentStatus.CHECKED \
                    and segment.replica_of(proc.pid) is not None \
                    and segment in self.sched.running:
                # Crash faithfully reproduced (see on_signal): retire now.
                self._retire_segment(segment)
                return
            if segment.live and not self._terminated \
                    and not self.stats.errors \
                    and not getattr(proc, "oom_killed", False):
                # An OOM-killed checker is not an application error: the
                # kernel already recorded the exhaustion and the run will
                # classify as OOM, so don't double-report it as a fault.
                self.fail("exception", segment,
                          "checker died before its end point", proc=proc)
            if self.pressure is not None and not self._terminated:
                # If this was the last runnable process, blocked peers
                # must be force-woken or their stalls never resolve.
                self.pressure.on_checker_exit()

    def on_oom(self, proc: Process, can_block: bool = False) -> bool:
        """Kernel OOM hook: a traced process hit the frame-pool budget and
        the emergency reclaim could not free enough.

        A *checker* is expendable: tear it down and re-queue its segment
        from the retained recovery checkpoint (shed), or — when that
        checkpoint is gone or the shed budget is spent — park it on the
        faulting store until other segments retire and free frames
        (block).  Either way a checker-side overrun costs latency, never
        correctness.  The *main* is not salvageable (the stage-1 stall is
        its backpressure; exhaustion despite it means the job exceeds its
        allowance): return False and let the kernel OOM-kill it.
        """
        role = self.roles.get(proc.pid)
        if role != "checker" or self.pressure is None:
            return False
        self.stats.checker_ooms += 1
        segment = self.segment_of_checker.get(proc.pid)
        if segment is None:
            return False
        main = self.main
        others = self.any_runnable(besides=proc)
        if not others and main is not None \
                and self.stall_cause(main) == tev.STALL_PRESSURE:
            # Sacrificing or parking this checker would leave nothing
            # runnable; un-stall the main instead (running over budget
            # beats wedging — its allocations re-enter reclaim).
            self.pressure.force_release_stall()
            others = main.runnable and main.core is not None
        if not others:
            # Nothing left that could ever free a frame: the job exceeds
            # its memory allowance — end the run as an OOM, not a hang.
            if main is not None and main.alive and main is not proc:
                self.kernel.oom_kill(main)
            return False
        if self.pressure.can_shed(segment):
            # Legal at stage 2: the emergency reclaim engaged the stage-1
            # stall before the allocation was allowed to fail.  This
            # path records no measured bytes: cause="oom", freed=0.
            self.pressure.shed(segment, cause="oom", freed=0)
            self.pressure.respawn_parked()
            return True
        if can_block:
            # No checkpoint to respawn from: hold the checker on the
            # faulting store; retirement of other segments frees frames
            # and the pressure controller wakes it to retry.
            self.stall(proc, tev.STALL_MEMORY)
            return True
        # Mid-side-effect (not resumable) and not sheddable: this segment
        # can never be verified within the allowance, so the run ends as
        # an OOM — kill the main too (the kernel then kills the checker;
        # its death is not reported as an application error because the
        # OOM exit class already accounts for it).
        if main is not None and main.alive and main is not proc:
            self.kernel.oom_kill(main)
        return False

    def main_progress_units(self, proc: Process) -> float:
        """The main's absolute progress in slicing units (cycles), used by
        the pressure controller's dirty-rate estimator."""
        if self.slicing_unit == "cycles":
            return proc.user_cycles
        return self.instr_reading(proc) * self.platform.cycle_scale

    def on_quantum(self, proc: Process, executed: int) -> None:
        role = self.roles.get(proc.pid)
        for hook in self.quantum_hooks:
            hook(proc, role or "?")
        if self.pressure is not None:
            self.pressure.poll(proc, role or "?")
            if not proc.alive or self._terminated:
                return
        if role != "main" or self.current is None:
            return
        if self.recovery is not None:
            self.recovery.check_watchdog(proc)
            if not proc.alive or self._terminated:
                return
        if not self.mode.slices:
            return
        if self.stall_cause(proc) == tev.STALL_PRESSURE:
            # Stage-1 backpressure put the main to sleep this quantum; the
            # boundary decision waits until the stall releases.
            return
        if proc.pending_signals and any(
                not external and signo in proc.signal_handlers
                for signo, external in proc.pending_signals):
            # The main's own signal is in flight (its ``kill`` is recorded
            # here, its delivery would be in the next segment, whose
            # checker is forked with nothing pending): cut after delivery.
            return
        segment = self.current
        if self.slicing_unit == "cycles":
            progress = proc.user_cycles - segment.start_cycles
        else:
            progress = ((self.instr_reading(proc)
                         - segment.start_instructions)
                        * self.platform.cycle_scale)
        period = (self.recovery.effective_slicing_period()
                  if self.recovery is not None
                  else self.config.slicing_period)
        if self.pressure is not None:
            adapted = self.pressure.effective_period()
            if adapted is not None:
                period = min(period, adapted)
        if progress < period:
            return
        if self._live_segments() >= self.config.max_live_segments:
            # Detection-latency bound (§3.4): stall the main until a
            # segment retires rather than growing the live set.
            self.stall(proc, tev.STALL_CAP)
            return
        self._boundary()

    # ------------------------------------------------------------ segment check

    def _replica_reached_end(self, segment: Segment, replica) -> None:
        """One replica reached the segment end point.

        With a MEEK split configured, the replica takes its early check
        immediately (detection as soon as *this* replica arrives, not at
        the full boundary).  The mode's boundary check runs once every
        replica has arrived; earlier arrivals park on their cores.
        """
        replica.reached_end = True
        if (self.config.compare_state and self.config.meek_split > 0
                and segment.end_checkpoint is not None):
            self._meek_early_check(segment, replica)
        if segment.all_replicas_arrived():
            self.mode.boundary_check(self, segment)
            return
        # Park until the sibling replicas arrive.  Deliberately not a
        # CHECKER_STALL: no record append can wake this replica — the
        # boundary check is what consumes it.
        replica.process.state = ProcessState.WAITING

    def _meek_early_check(self, segment: Segment, replica) -> None:
        """MEEK split stage 1: on arrival, compare PC/registers plus the
        first ``ceil(meek_split * n)`` pages of the sorted dirty union.
        The boundary stage covers the remainder — work is divided between
        the two stages, never duplicated."""
        checker = replica.process
        union = set(segment.main_dirty_vpns)
        union.update(self.dirty_tracker.dirty_vpns(checker))
        self.executor.charge(checker, self.kernel.costs.dirty_scan_cycles(
            checker.mem.mapped_pages), phase=mph.DIRTY_SCAN)
        ordered = sorted(union)
        take = math.ceil(self.config.meek_split * len(ordered))
        early_vpns = ordered[:take]
        result = self.comparator.compare(checker, segment.end_checkpoint,
                                         set(early_vpns))
        self.executor.charge(
            checker, self.kernel.costs.hash_cycles(result.bytes_hashed),
            phase=mph.COMPARISON)
        replica.early_result = result
        replica.early_vpns = tuple(early_vpns)
        self.stats.meek_early_checks += 1
        if not result.match:
            self.stats.meek_early_detections += 1
        self.emit(tev.COMPARISON, proc=checker, segment=segment.index,
                  match=result.match, bytes_hashed=result.bytes_hashed,
                  stage="early")

    def compare_replicas(self, segment: Segment, phase: str
                         ) -> Optional[Tuple[List[ComparisonResult], set]]:
        """Run the ``compare_hooks``, then compare every replica of
        ``segment`` against its end checkpoint, charging the hashing to
        ``phase``; returns the per-replica results and the union of the
        dirty sets compared.

        Honors a MEEK early verdict: the boundary stage hashes only the
        pages the early check did not cover, and an early mismatch
        carries through to the combined verdict.  When the comparator's
        two hash paths disagree, the comparator itself is faulty and no
        verdict it produced can be trusted, including the ones that
        admitted earlier segments: the segment fails with
        ``infra_integrity`` and None is returned.
        """
        for hook in self.compare_hooks:
            hook(segment)
        results, union = [], set()
        for replica in segment.replicas:
            checker = replica.process
            dirty = set(segment.main_dirty_vpns)
            dirty.update(self.dirty_tracker.dirty_vpns(checker))
            union |= dirty
            if replica.early_result is None:
                # The MEEK path already scanned on arrival (the replica
                # has been parked since, so its dirty set is unchanged).
                self.executor.charge(
                    checker,
                    self.kernel.costs.dirty_scan_cycles(
                        checker.mem.mapped_pages),
                    phase=mph.DIRTY_SCAN)
            result = self.comparator.compare(
                checker, segment.end_checkpoint,
                dirty - set(replica.early_vpns))
            self.executor.charge(
                checker, self.kernel.costs.hash_cycles(result.bytes_hashed),
                phase=phase)
            early = replica.early_result
            if early is not None and not early.match and result.match:
                # The divergence lives in the early slice: the combined
                # verdict is the AND of the two stages.
                result = early
            self.emit(tev.COMPARISON, proc=checker, segment=segment.index,
                      match=result.match, bytes_hashed=result.bytes_hashed)
            results.append(result)
        for result in results:
            if result.reason == "integrity":
                self.fail("infra_integrity", segment, result.describe(),
                          check="digest")
                return None
        return results, union

    def adopt_main(self, new_main: Process,
                    swap: Callable[[Process, Process], Process]) -> None:
        """Make ``new_main`` the main in place of the current one.

        The one main-swap mechanism, shared by rollback recovery (``swap``
        is ``Kernel.rollback_to_checkpoint``: a retained checkpoint
        resumes) and TMR forward recovery (``Kernel.promote_process``: the
        winning replica runs on).  ``swap`` kills and reaps the old main;
        the new one takes over its role, its spawn time and a core (the
        old main's when free), and the recording state that belonged to
        the discarded execution is reset.  The caller opens the next
        segment.
        """
        old_main = self.main
        old_core = old_main.core
        swap(old_main, new_main)
        self.roles.pop(old_main.pid, None)
        # The swap detached the old main before killing it: no exit hook
        # forgot its stall.
        self._stalls.pop(old_main.pid, None)
        self.executor.unassign(old_main)
        self.executor.unassign(new_main)
        self.roles[new_main.pid] = "main"
        # Wall-clock stats measure the protected job, which started when
        # the original main spawned.
        new_main.spawn_time = old_main.spawn_time
        self.main = new_main
        core = old_core
        if core is None or core.occupant is not None:
            core = (self.executor.free_core("big")
                    or self.executor.free_core("little"))
        # Set before assign: assign runs the charges deferred to
        # ``new_main`` (a rollback's restore cost), which start no
        # earlier than now.
        new_main.ready_time = max(new_main.ready_time,
                                  self.executor.current_time)
        self.executor.assign(new_main, core)
        self.current = None
        self._pending_syscall = None
        self._pending_mmap_split = False

    def _retire_segment(self, segment: Segment) -> None:
        if segment.retired:
            return
        segment.retired = True
        for replica in segment.replicas:
            checker = replica.process
            self._book_checker_time(checker)
            # Not drop_replica: a verified replica stays mapped to its
            # segment, so the cost of the stop that completed the check,
            # which the step loop charges after this returns, still lands
            # in the segment's phase ledger.
            if checker.alive:
                self.kernel.exit_process(checker, 0)
            self.kernel.reap(checker)
        self.release_checkpoints(segment)
        if segment.status == SegmentStatus.CHECKED:
            # A verified segment is never replayed again: its syscall
            # output bytes need not outlive it.
            segment.log.discard()
        self.sched.on_checker_done(segment)
        self.emit(tev.SEGMENT_RETIRE, segment=segment.index)
        self.wake_main()
        if self.pressure is not None:
            # Retirement frees frames: re-evaluate the stall and give one
            # parked segment a chance to respawn.
            self.pressure.on_retire()

    def _containment_blocked(self) -> bool:
        """True while the containment predicate still holds: some segment
        earlier than the current one is live (unverified)."""
        current = self.current
        if current is None:
            return False
        return any(s.live for s in self.segments if s.index < current.index)

    # ---------------------------------------------------------------- stalls
    # The runtime alone parks and wakes processes; the pressure controller
    # decides when the main is backpressured and when memory-blocked
    # checkers retry, and calls these.  A replica parked at its end point
    # is not a stall (see ``_replica_reached_end``).

    def stall(self, proc: Process, cause: str, **payload) -> None:
        """Park ``proc`` on ``cause`` (a ``STALL_CAUSES`` key): it stops
        being runnable, its waiting time is charged to the cause's phase
        and a stall event carrying ``payload`` is emitted.

        A process waits on one cause at a time: parking a parked process
        again is refused, and it keeps its first cause.  The pair that
        meets is a main holding a syscall for containment whose quantum
        ends at a boundary with the cap full; containment clears last
        (no earlier segment live leaves one live segment), so it is the
        cause that decides the wake.
        """
        if proc.pid in self._stalls:
            return
        entry = STALL_CAUSES[cause]
        self._stalls[proc.pid] = cause
        proc.state = ProcessState.WAITING
        self.profiler.open_span(proc.pid, entry.phase)
        kind = (tev.MAIN_STALL if entry.holds is not None
                else tev.CHECKER_STALL)
        self.emit(kind, proc=proc, segment=self._attribution(proc)[1],
                  reason=cause, **payload)

    def wake(self, proc: Process) -> None:
        """Make a parked ``proc`` runnable again and emit its wake event;
        a process that is not parked is left alone."""
        cause = self._stalls.pop(proc.pid, None)
        if cause is None:
            return
        proc.state = ProcessState.RUNNING
        proc.ready_time = max(proc.ready_time, self.executor.current_time)
        self.profiler.close_span(proc.pid)
        segment = self._attribution(proc)[1]
        if STALL_CAUSES[cause].holds is not None:
            self.emit(tev.MAIN_WAKE, proc=proc, segment=segment,
                      reason=cause)
        else:
            self.emit(tev.CHECKER_WAKE, proc=proc, segment=segment)

    def stall_cause(self, proc: Process) -> Optional[str]:
        """Why ``proc`` is parked, or None if it is not."""
        return self._stalls.get(proc.pid)

    def stalled(self, cause: str) -> List[Process]:
        """The processes parked on ``cause``, in the order they parked."""
        return [self.kernel.processes[pid]
                for pid, parked_on in self._stalls.items()
                if parked_on == cause]

    def wake_main(self) -> None:
        """Wake a stalled main iff its stall predicate no longer holds.

        Called whenever a segment leaves the live set (retirement or
        failure) and when the pressure stall releases.  The wake predicate
        must be re-checked here rather than waking unconditionally: with
        ``max_live_segments > 2`` a *later* segment can retire while an
        earlier one is still unverified, and a containment-stalled main
        woken then would violate the containment invariant it stalled to
        preserve.  The held syscall is re-issued, never skipped — the
        stall left the PC on the syscall instruction, so resuming
        re-enters ``_main_syscall_entry`` with the (now satisfied)
        predicate and the syscall executes for real.  A deferred boundary
        likewise re-fires on the main's next quantum.
        """
        main = self.main
        cause = self.stall_cause(main) if main is not None else None
        if cause is not None and not STALL_CAUSES[cause].holds(self):
            self.wake(main)

    def any_runnable(self, besides: Optional[Process] = None,
                     role: Optional[str] = None) -> bool:
        """Is a process other than ``besides`` (with ``role``, if given)
        runnable on a core?  Parking or sacrificing a process is only
        safe while one is: something must keep virtual time advancing."""
        return any(p.runnable and p.core is not None and p is not besides
                   and (role is None or self.roles.get(p.pid) == role)
                   for p in self.kernel.unreaped.values())

    # ---------------------------------------------------------------- stats

    def _finalize_stats(self) -> None:
        main = self.main
        stats = self.stats
        stats.exit_code = main.exit_code
        stats.stdout = self.kernel.console.text()
        stats.stderr = self.kernel.stderr_console.text()
        end = main.exit_time if main.exit_time is not None \
            else self.executor.current_time
        stats.main_wall_time = end - main.spawn_time
        stats.main_user_time = main.user_time
        stats.main_sys_time = main.sys_time
        finish_times = [end]
        finish_times.extend(s.check_finished_time for s in self.segments
                            if s.check_finished_time is not None)
        stats.all_wall_time = max(finish_times) - main.spawn_time
        stats.energy_joules = self.executor.total_energy_joules(
            wall=stats.all_wall_time)
        stats.peak_resident_bytes = float(self.kernel.pool.peak_resident_bytes)
        stats.oom_kills = self.kernel.stats.get("oom_kills", 0)
        stats.oom_killed = bool(getattr(main, "oom_killed", False))
        self._finalize_metrics()

    def _finalize_metrics(self) -> None:
        """Snapshot the phase profiler, refresh the pull-hooked gauges
        (the run stats), mirror kernel counters into the registry, and
        emit the ``phase_totals`` conservation event."""
        self.metrics.refresh()
        for key, value in self.kernel.stats.items():
            self.metrics.counter(f"kernel.{key}").set(float(value))
        profile = self.profiler.finish()
        self.stats.phase_profile = profile
        if not self.profiler.enabled:
            return
        for phase, cyc in profile.cycles.items():
            self.metrics.counter("phase.cycles", phase=phase).set(cyc)
        for phase, sec in profile.stall_seconds.items():
            self.metrics.gauge("phase.stall_seconds", phase=phase).set(sec)
        if self.trace.enabled:
            self.trace.emit(tev.PHASE_TOTALS,
                            total=self.executor.charged_cycles,
                            phases=dict(profile.cycles))

    # ------------------------------------------------------------- memory sampling

    def enable_memory_sampling(self, interval: float = 0.5) -> None:
        """Sample the summed PSS of main + checker processes (paper §5.1:
        checkpoints' private memory is excluded, as it can be swapped out).

        Sharing is apportioned within the sampled set: a frame mapped by
        several live processes counts once, and references held only by
        retained recovery checkpoints do not dilute the total — their
        copies are swappable and already excluded from this figure.
        """

        def sample(_when: float) -> None:
            frames: Dict[int, int] = {}
            for pid, role in self.roles.items():
                if role not in ("main", "checker"):
                    continue
                proc = self.kernel.processes.get(pid)
                if proc is None or not proc.alive:
                    continue
                for pte in proc.mem.pages.values():
                    frames[id(pte.frame)] = proc.mem.page_size
            self.stats.pss_samples.append(float(sum(frames.values())))

        self.executor.add_sampler(interval, sample)

    def enable_metrics_sampling(self, interval: float = 0.5,
                                callback=None) -> None:
        """Snapshot live-run gauges (live/queued checkers, frame-pool
        occupancy, retained checkpoints, dirty-page rate, pacer
        frequency) into the registry's time series every ``interval``
        virtual seconds.  ``callback(when, registry)`` — if given — runs
        after each sample; the TTY dashboard hooks in here."""
        registry = self.metrics
        pool = self.kernel.pool
        page = self.platform.page_size
        state = {"pages": 0, "when": 0.0}

        def sample(when: float) -> None:
            registry.gauge("parallaft.live_checkers").set(
                len(self.sched.running))
            registry.gauge("parallaft.queued_checkers").set(
                len(self.sched.pending))
            registry.gauge("parallaft.live_segments").set(
                self._live_segments())
            registry.gauge("parallaft.retained_checkpoints").set(sum(
                1 for s in self.segments
                if s.recovery_checkpoint is not None and not s.retired
                and not s.checkpoint_evicted))
            registry.gauge("pool.resident_bytes").set(pool.resident_bytes)
            if pool.budget_bytes:
                registry.gauge("pool.utilization").set(
                    pool.resident_bytes / pool.budget_bytes)
            pages = pool.frames_allocated + pool.frames_copied
            dt = when - state["when"]
            if dt > 0:
                registry.gauge("parallaft.dirty_page_bytes_per_s").set(
                    (pages - state["pages"]) * page / dt)
            state["pages"], state["when"] = pages, when
            if self.executor.little_cores:
                registry.gauge("sched.little_freq_hz").set(
                    self.executor.little_cores[0].freq_hz)
            registry.sample(when)
            if callback is not None:
                callback(when, registry)

        self.executor.add_sampler(interval, sample)


def protect(program: Program, **kwargs) -> RunStats:
    """One-call convenience: run ``program`` under Parallaft."""
    return Parallaft(program, **kwargs).run()
