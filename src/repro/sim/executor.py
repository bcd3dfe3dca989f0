"""The co-simulation executor.

Interleaves all runnable processes across the platform's cores in virtual
time.  Each core runs at most one process; the executor always advances the
most-behind runnable process by one quantum, so cores stay synchronized to
within a quantum.  All kernel/tracer activity is charged in hardware cycles
and converted to time at the executing core's current frequency; energy is
accumulated per core from the platform's power model.

This is the component that turns the kernel + CPU substrate into the
*machine* of the paper's Table 3: heterogeneous clusters, DVFS, cache/DRAM
contention, and per-core energy.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Optional, Tuple

from repro import abi
from repro.common.errors import FramePoolExhausted, SimulationError
from repro.cpu import interpreter
from repro.cpu.exceptions import FaultKind, StopReason
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.metrics import NULL_PROFILER
from repro.sim.cores import Core, make_cores
from repro.sim.platform import PlatformConfig
from repro.trace import NULL_TRACE
from repro.trace import events as tev


_BUDGET = StopReason.BUDGET
_SYSCALL = StopReason.SYSCALL
_FAULT = StopReason.FAULT
_OOM = StopReason.OOM
_HALTED = StopReason.HALTED
#: Stops a tracer handles (untraced, the executor's own defaults apply).
_TRACER_STOPS = frozenset((
    StopReason.BREAKPOINT, StopReason.COUNTER_OVERFLOW,
    StopReason.INSTR_OVERFLOW, StopReason.BRK, StopReason.NONDET))

_FAULT_SIGNALS = {
    FaultKind.PAGE_FAULT: abi.SIGSEGV,
    FaultKind.DIVIDE_BY_ZERO: abi.SIGFPE,
    FaultKind.ILLEGAL_INSTRUCTION: abi.SIGILL,
}


class Sampler:
    """Periodic virtual-time callback (power sensor, PSS sampling)."""

    def __init__(self, interval: float, callback: Callable[[float], None],
                 start: float = 0.0):
        self.interval = interval
        self.callback = callback
        self.next_time = start + interval


class Executor:
    def __init__(self, kernel: Kernel, platform: PlatformConfig,
                 quantum: int = 2000):
        if kernel.page_size != platform.page_size:
            raise SimulationError(
                f"kernel page size {kernel.page_size} != platform "
                f"{platform.page_size}")
        if quantum < 1:
            # A zero-instruction quantum never advances virtual time.
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        self.kernel = kernel
        self.platform = platform
        self.quantum = quantum
        self.cores: List[Core] = make_cores(
            platform.n_big, platform.n_little, platform.big_freq_hz,
            platform.little_freq_max_hz, platform.little_freq_min_hz)
        self.current_time = 0.0
        self.dram_op_energy_j = 0.0
        self.total_mem_ops = 0
        self.samplers: List[Sampler] = []
        self.steps = 0
        #: the process currently inside its quantum; emergency frame
        #: reclaim (pressure controller) must not tear this one down
        self.current_proc: Optional[Process] = None
        # Through a weak reference: this executor holds the kernel.
        executor = weakref.ref(self)
        kernel.time_fn = lambda: executor().current_time
        #: Core power (W) per (cluster, DVFS point), computed on first use.
        self._power_w = {}
        self._shutdown = False
        #: Event sink; the Parallaft runtime installs its own buffer.
        self.trace = NULL_TRACE
        #: Phase-attribution profiler; the runtime installs a live one.
        self.profiler = NULL_PROFILER
        #: Every hardware cycle ever charged through this executor,
        #: accumulated independently of the profiler's per-phase ledger
        #: so the cycle-conservation invariant compares two bookkeepers.
        self.charged_cycles = 0.0

    # -- core management ----------------------------------------------------

    @property
    def big_cores(self) -> List[Core]:
        return [c for c in self.cores if c.is_big]

    @property
    def little_cores(self) -> List[Core]:
        return [c for c in self.cores if not c.is_big]

    def assign(self, proc: Process, core: Core) -> None:
        """Pin ``proc`` to ``core`` (displacing nothing: core must be free)."""
        if core.occupant is not None and core.occupant is not proc:
            raise SimulationError(
                f"core {core.cluster}{core.index} already occupied by "
                f"pid {core.occupant.pid}")
        if proc.core is not None and proc.core is not core:
            proc.core.occupant = None
            if self.trace.enabled:
                self.trace.emit(tev.CORE_UNASSIGN, pid=proc.pid,
                                core=proc.core.label)
        proc.core = core
        core.occupant = proc
        if self.trace.enabled:
            self.trace.emit(tev.CORE_ASSIGN, pid=proc.pid,
                            core=core.label)
        self._flush_pending_charges(proc)

    def unassign(self, proc: Process) -> None:
        if proc.core is not None:
            if self.trace.enabled:
                self.trace.emit(tev.CORE_UNASSIGN, pid=proc.pid,
                                core=proc.core.label)
            proc.core.occupant = None
            proc.core = None

    def free_core(self, cluster: str) -> Optional[Core]:
        """A free core in the cluster with the smallest local time."""
        free = [c for c in self.cores
                if c.cluster == cluster and c.occupant is None]
        return min(free, key=lambda c: c.local_time) if free else None

    def schedule_default(self, proc: Process) -> Core:
        """Default placement (untraced processes): a free big core."""
        core = self.free_core("big") or self.free_core("little")
        if core is None:
            raise SimulationError("no free core")
        self.assign(proc, core)
        return core

    # -- charging -------------------------------------------------------------

    def charge(self, proc: Process, hw_cycles: float,
               kind: str = "sys", phase: Optional[str] = None) -> float:
        """Charge kernel/runtime work to a process's core; returns seconds.

        Used by the kernel (via the step loop) and by the Parallaft
        coordinator for runtime work on the critical path (fork, dirty-page
        clearing, perf setup, hashing...).  The process must be placed on a
        core — cycles only turn into time and energy somewhere; use
        :meth:`charge_deferred` for work done on behalf of a process that
        may still be queued.  ``phase`` names the profiler phase the
        cycles belong to; None lets the profiler resolve it from the
        process's runtime role.
        """
        core = proc.core
        if core is None:
            raise SimulationError(
                f"charge({hw_cycles:g} cycles) to pid {proc.pid} with no "
                f"core: use charge_deferred for not-yet-placed processes")
        seconds = hw_cycles / core.freq_hz
        if kind == "sys":
            proc.sys_time += seconds
        else:
            proc.user_time += seconds
        core.local_time = max(core.local_time, proc.ready_time) + seconds
        self._account_core_energy(core, seconds)
        proc.ready_time = core.local_time
        self.charged_cycles += hw_cycles
        self.profiler.charge_for(proc, hw_cycles, phase)
        return seconds

    def charge_deferred(self, proc: Process, hw_cycles: float,
                        kind: str = "sys",
                        phase: Optional[str] = None) -> None:
        """Charge work to a process that may not be placed yet.

        If the process is on a core, this is an immediate :meth:`charge`;
        otherwise the cycles (with their phase annotation) are parked on
        the process and charged (at the real core's frequency, with
        energy accounting) the moment :meth:`assign` places it.
        """
        if proc.core is not None:
            self.charge(proc, hw_cycles, kind, phase=phase)
        else:
            proc.pending_charges.append((hw_cycles, kind, phase))

    def _flush_pending_charges(self, proc: Process) -> None:
        if proc.pending_charges:
            pending, proc.pending_charges = proc.pending_charges, []
            for hw_cycles, kind, phase in pending:
                self.charge(proc, hw_cycles, kind, phase=phase)

    def _account_core_energy(self, core: Core, seconds: float) -> None:
        key = (core.cluster, core.freq_hz)
        power = self._power_w.get(key)
        if power is None:
            power = self._power_w[key] = (
                self.platform.core_static_power_w(core.cluster)
                + self.platform.core_dyn_power_w(core.cluster, core.freq_hz))
        core.energy_joules += power * seconds
        core.busy_seconds += seconds

    # -- contention inputs ---------------------------------------------------------

    def _contention(self, proc: Process, cluster: str) -> Tuple[int, float]:
        """What ``proc``'s co-runners cost it, in one pass over the cores.

        Returns the number of runnable processes on the cores of
        ``cluster``, proc's cluster (proc counts itself; at least 1):
        they share its cache capacity.  And the DRAM pressure: the DRAM
        intensity of every other runnable occupant, weighted by its
        core's clock relative to the big cores (slow little checkers
        generate less traffic), summed in core order.
        """
        n_active = 0
        pressure = 0.0
        big_freq_hz = self.platform.big_freq_hz
        for core in self.cores:
            other = core.occupant
            if other is not None and other.runnable:
                if core.cluster == cluster:
                    n_active += 1
                if other is not proc:
                    pressure += other.dram_intensity * (core.freq_hz
                                                        / big_freq_hz)
        return max(1, n_active), pressure

    # -- the step loop -----------------------------------------------------------------

    def step(self) -> bool:
        """Advance the most-behind runnable process by one quantum.

        Returns False when nothing is runnable.
        """
        if self._shutdown:
            return False
        # The runnable, placed process that can start earliest; on a tie
        # the first in ``unreaped`` (creation) order.
        proc = None
        start = 0.0
        for other in self.kernel.unreaped.values():
            if other.runnable:
                core = other.core
                if core is not None:
                    ready = core.local_time
                    if other.ready_time > ready:
                        ready = other.ready_time
                    if proc is None or ready < start:
                        proc = other
                        start = ready
        if proc is None:
            return False
        core = proc.core
        kernel = self.kernel
        platform = self.platform
        self.current_time = start
        self.current_proc = proc
        self.steps += 1

        sys_cycles = (kernel.deliver_pending_signal(proc)
                      if proc.pending_signals else 0.0)

        user_seconds = 0.0
        executed = 0
        if proc.runnable:
            cpu = proc.cpu
            mem = proc.mem
            instr_before = cpu.instr_retired
            mem_before = cpu.mem_ops_retired
            cow_before = mem.cow_faults
            try:
                stop = interpreter.run(proc, self.quantum)
            except FramePoolExhausted as exc:
                # Escaped the interpreter's own OOM stop (e.g. raised by
                # non-store machinery): the cpu write-back was skipped, so
                # the process is NOT resumable — never block here.
                stop = None
                kernel.oom_kill(proc, exc.needed)
            executed = stop.executed if stop is not None else 0
            instr_delta = cpu.instr_retired - instr_before

            if instr_delta > 0:
                mem_delta = cpu.mem_ops_retired - mem_before
                cluster = core.cluster
                n_active, pressure = self._contention(proc, cluster)
                miss_ratio = (mem_delta / instr_delta) * platform.miss_factor(
                    cluster, len(mem.pages) * mem.page_size, n_active)
                proc.dram_intensity = miss_ratio
                dram = 1.0 + (platform.dram_coeff * miss_ratio * pressure)
                virtual_cycles = (instr_delta
                                  * platform.miss_cpi(cluster, miss_ratio,
                                                      n_active)
                                  * dram)
                hw_cycles = virtual_cycles * platform.cycle_scale
                user_seconds = hw_cycles / core.freq_hz
                proc.user_cycles += hw_cycles
                self.charged_cycles += hw_cycles
                self.profiler.charge_for(proc, hw_cycles)
                if cluster == "big":
                    proc.cycles_big += hw_cycles
                else:
                    proc.cycles_little += hw_cycles
                self.total_mem_ops += mem_delta
                self.dram_op_energy_j += (mem_delta
                                          * platform.mem_op_energy_j)

            cow_delta = mem.cow_faults - cow_before
            if cow_delta:
                sys_cycles += kernel.costs.cow_cycles(platform.page_size,
                                                      cow_delta)

            self.current_time = start + user_seconds
            if stop is not None and stop.reason is not _BUDGET:
                try:
                    sys_cycles += self._handle_stop(proc, stop)
                except FramePoolExhausted as exc:
                    # Syscall/replay machinery (e.g. a tracer replaying a
                    # recorded read into a checker) ran out of frames
                    # mid-side-effect: partially-applied state is not
                    # resumable, so blocking is not offered.
                    kernel.oom_kill(proc, exc.needed)

        sys_seconds = sys_cycles / core.freq_hz
        if sys_cycles:
            self.charged_cycles += sys_cycles
            self.profiler.charge_for(proc, sys_cycles)
        total = user_seconds + sys_seconds
        proc.user_time += user_seconds
        proc.sys_time += sys_seconds
        core.local_time = start + total
        proc.ready_time = core.local_time
        self._account_core_energy(core, total)
        self.current_time = core.local_time

        if proc.tracer is not None and proc.alive:
            proc.tracer.on_quantum(proc, executed)

        if not proc.alive and proc.core is not None:
            self.unassign(proc)

        if self.samplers:
            self._fire_samplers()
        return True

    def _handle_stop(self, proc: Process, stop) -> float:
        """Dispatch a stop other than BUDGET; returns extra hw-cycle cost."""
        reason = stop.reason
        kernel = self.kernel
        if reason is _SYSCALL:
            return kernel.handle_syscall(proc)
        if reason is _FAULT:
            if kernel.is_sigreturn_fault(stop.fault):
                kernel.sigreturn(proc)
                # sigreturn is itself a kernel entry (context restore).
                return kernel.costs.signal_delivery_cycles
            signo = _FAULT_SIGNALS.get(stop.fault.kind, abi.SIGILL)
            kernel.send_signal(proc, signo, external=False)
            return kernel.deliver_pending_signal(proc)
        if reason is _OOM:
            # The interpreter stopped cleanly on the faulting store (pc
            # un-advanced), so the tracer may park the process and retry
            # the allocation later: blocking is safe here.
            kernel.oom_kill(proc, stop.needed, can_block=True)
            return 0.0
        if reason is _HALTED:
            kernel.exit_process(proc, 0)
            return 0.0
        if reason in _TRACER_STOPS:
            if proc.tracer is not None:
                cost = kernel._charge_trace_stop()
                proc.tracer.on_stop(proc, stop)
                return cost
            # Untraced: a brk instruction is a SIGTRAP; stray overflows and
            # breakpoints are disarmed and ignored.
            if reason is StopReason.BRK:
                kernel.send_signal(proc, abi.SIGTRAP, external=False)
                return kernel.deliver_pending_signal(proc)
            if reason is StopReason.NONDET:
                # trap_nondet without a tracer is a misconfiguration.
                raise SimulationError(
                    f"pid {proc.pid}: nondet trap with no tracer")
            proc.cpu.disarm_branch_overflow()
            proc.cpu.disarm_instr_overflow()
            return 0.0
        raise SimulationError(f"unhandled stop {stop}")

    # -- samplers / run -----------------------------------------------------------

    def add_sampler(self, interval: float,
                    callback: Callable[[float], None]) -> None:
        if not interval > 0:
            # _fire_samplers steps next_time by interval until it passes
            # the wall clock: a non-positive step never gets there.
            raise ValueError(f"sampler interval must be > 0, got {interval}")
        self.samplers.append(Sampler(interval, callback))

    def _fire_samplers(self) -> None:
        if not self.samplers:
            return
        now = self.wall_time()
        for sampler in self.samplers:
            while sampler.next_time <= now:
                sampler.callback(sampler.next_time)
                sampler.next_time += sampler.interval

    def wall_time(self) -> float:
        return max(core.local_time for core in self.cores)

    def shutdown(self) -> None:
        """Stop the run loop (used on detected errors)."""
        self._shutdown = True

    def run(self, max_steps: int = 50_000_000) -> None:
        """Run until nothing is runnable."""
        for _ in range(max_steps):
            if not self.step():
                self._release_exited()
                return
        raise SimulationError("executor exceeded max_steps (livelock?)")

    def _release_exited(self) -> None:
        """Take processes that exited off their cores.

        A process killed while another one stepped (an application
        torn down on a detected error) never steps again, so it keeps
        its core, and the core and the process refer to each other: only
        the cyclic garbage collector would free the finished run.  This
        is teardown, not simulated work, so it emits no trace event.
        """
        for core in self.cores:
            proc = core.occupant
            if proc is not None and not proc.alive:
                proc.core = None
                core.occupant = None

    # -- energy summary --------------------------------------------------------------

    def total_energy_joules(self, wall: Optional[float] = None) -> float:
        """Total SoC+DRAM energy over the run (paper §5.1 methodology)."""
        wall = self.wall_time() if wall is None else wall
        energy = self.dram_op_energy_j + self.platform.dram_background_w * wall
        for core in self.cores:
            energy += core.energy_joules
            idle = max(0.0, wall - core.busy_seconds)
            energy += self.platform.core_static_power_w(core.cluster) * idle
        return energy
