"""The kernel model: processes, fork, syscalls, signals, tracing glue.

The kernel performs *state changes* and returns their *prices* in hardware
cycles; the sim executor converts prices into virtual time on whichever core
the process occupies.  It deliberately mirrors the Linux facilities the real
Parallaft uses: COW ``fork``, ptrace stops at syscall entry/exit and signal
delivery, soft-dirty clearing, ``PAGEMAP_SCAN``-style map counting, ASLR'd
``mmap``, and nondeterministic counters with overcount and skid.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import abi
from repro.common.errors import FramePoolExhausted, KernelError
from repro.common.rng import RngPool
from repro.cpu.nondet import NondetSource
from repro.cpu.state import CpuContext
from repro.isa.program import Program, STACK_TOP
from repro.kernel.costs import KernelCostModel
from repro.kernel.process import Process, ProcessState, SIGRETURN_ADDR, SignalContext
from repro.kernel.ptrace import SyscallAction, Tracer
from repro.kernel.vfs import Console, Vfs
from repro.mem.address_space import (
    AddressSpace,
    MAP_ANONYMOUS,
    MAP_FIXED,
    MAP_SHARED,
    PROT_READ,
    PROT_WRITE,
    PageFault,
)
from repro.mem.frames import FramePool, budget_from_env
from repro.metrics import NULL_PROFILER
from repro.trace import NULL_TRACE
from repro.trace import events as tev


@dataclass
class CounterModel:
    """Hardware performance-counter imperfections (paper §4.2).

    The instruction counter overcounts nondeterministically on every trap
    (interrupt/exception return); the branch counter is deterministic but
    overflow delivery skids by a few instructions.
    """

    instr_overcount_max: int = 3     # extra phantom counts per trap
    skid_max: int = 6                # max instructions of overflow skid
    skid_probability: float = 0.5    # chance a given overflow skids at all


#: Bytes ``random_bytes`` draws at once: a draw holds four times as many
#: bytes of int and of its byte string while it is split.
_RANDOM_CHUNK = 4096


def random_bytes(rng: random.Random, length: int) -> bytes:
    """``length`` bytes from ``rng``, drawn in chunks.

    The same bytes, leaving ``rng`` in the same state, as
    ``bytes(rng.getrandbits(8) for _ in range(length))``: each per-byte
    draw takes one 32-bit output and keeps its top byte, and one
    ``getrandbits(32 * n)`` packs the next ``n`` outputs little-endian.
    """
    chunks = []
    for start in range(0, length, _RANDOM_CHUNK):
        n = min(_RANDOM_CHUNK, length - start)
        chunks.append(rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4])
    return b"".join(chunks)


class Kernel:
    """Owns the machine's software state.  One kernel per simulation."""

    def __init__(self, page_size: int = 16384, seed: int = 0,
                 aslr: bool = True,
                 costs: Optional[KernelCostModel] = None,
                 counters: Optional[CounterModel] = None,
                 mem_budget_bytes: Optional[int] = None):
        self.page_size = page_size
        self.rng = RngPool(seed)
        self.aslr = aslr
        self.costs = costs or KernelCostModel()
        self.counters = counters or CounterModel()
        if mem_budget_bytes is None:
            mem_budget_bytes = budget_from_env()
        self.pool = FramePool(page_size, budget_bytes=mem_budget_bytes)
        self.vfs = Vfs(self.rng.stream("urandom"))
        self.console = Console()
        self.stderr_console = Console("stderr")
        #: Every process ever created: reaped ones stay for their exit
        #: codes.
        self.processes: Dict[int, Process] = {}
        #: The processes not yet reaped, in creation order: the only ones
        #: that can run, so the scheduler scans this view.
        self.unreaped: Dict[int, Process] = {}
        self._next_pid = 1000
        #: Virtual-time source; the executor installs the real one.
        self.time_fn: Callable[[], float] = lambda: 0.0
        #: Event sink; the Parallaft runtime installs its own buffer.
        self.trace = NULL_TRACE
        #: Phase-attribution profiler; the runtime installs a live one.
        #: The kernel only needs it to close stall spans on exit paths.
        self.profiler = NULL_PROFILER
        #: ``randint(0, n - 1)`` on the overcount stream, without the
        #: argument handling ``randint`` repeats on every trap.
        self._overcount_below = self.rng.stream("overcount")._randbelow
        #: The buffer the current syscall wrote into its caller's pages
        #: (``read``, ``getrandom``): the tracer records it as is.
        self.syscall_output = b""
        #: Per-run statistics.
        self.stats: Dict[str, int] = {
            "forks": 0, "syscalls": 0, "signals_delivered": 0,
            "trace_stops": 0, "rollbacks": 0, "oom_kills": 0,
        }

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        return self.time_fn()

    # -- process lifecycle ------------------------------------------------------

    def spawn(self, program: Program, name: Optional[str] = None) -> Process:
        """Create a process running ``program`` (exec)."""
        pid = self._next_pid
        self._next_pid += 1
        space = AddressSpace(self.pool, aslr=self.aslr,
                             rng=self.rng.stream(f"aslr-{pid}"))
        space.load_program(program)
        cpu = CpuContext()
        cpu.pc = program.entry
        cpu.regs.gprs[13] = STACK_TOP - 64  # sp
        proc = Process(pid, name or program.name, space, cpu,
                       self._make_nondet())
        proc.spawn_time = self.now()
        proc._skid_fn = self._make_skid_fn()
        proc.install_fd(self.console, abi.STDIN)
        proc.install_fd(self.console, abi.STDOUT)
        proc.install_fd(self.stderr_console, abi.STDERR)
        self.bind_nondet(proc)
        self.processes[pid] = self.unreaped[pid] = proc
        return proc

    def fork(self, proc: Process, name: Optional[str] = None,
             paused: bool = False) -> Tuple[Process, float]:
        """Fork ``proc`` copy-on-write; returns (child, cost in hw cycles).

        The child resumes at the same PC with the same registers (we do not
        model the child-sees-0 return value: Parallaft forks from *outside*
        via ptrace, where parent and child must be bit-identical).
        """
        pid = self._next_pid
        self._next_pid += 1
        child_mem = proc.mem.fork()
        child_cpu = proc.cpu.clone()
        child = Process(pid, name or f"{proc.name}-fork", child_mem,
                        child_cpu, self._make_nondet())
        child.spawn_time = self.now()
        child._skid_fn = self._make_skid_fn()
        child.fds = {fd: f.clone() for fd, f in proc.fds.items()}
        child.signal_handlers = dict(proc.signal_handlers)
        child.tracer = proc.tracer
        if paused:
            child.state = ProcessState.PAUSED
        self.bind_nondet(child)
        self.processes[pid] = self.unreaped[pid] = child
        self.stats["forks"] += 1
        cost = self.costs.fork_cycles(proc.mem.mapped_pages)
        if self.trace.enabled:
            self.trace.emit(tev.PROCESS_FORK, pid=pid, parent=proc.pid,
                            name=child.name)
        return child, cost

    def exit_process(self, proc: Process, code: int) -> None:
        if not proc.alive:
            return
        proc.state = ProcessState.ZOMBIE
        proc.exit_code = code
        proc.exit_time = self.now()
        # Every kill path (OOM, rollback teardown, checker shed, fatal
        # signal) funnels through here, so a dying process can never
        # leave a stall span open in the profiler.
        self.profiler.close_span(proc.pid)
        if self.trace.enabled:
            self.trace.emit(tev.PROCESS_EXIT, pid=proc.pid, code=code)
        if proc.tracer is not None:
            proc.tracer.on_process_exit(proc)

    def kill_process(self, proc: Process, signo: int) -> None:
        """Terminate with a fatal signal (exit code 128+signo)."""
        self.exit_process(proc, 128 + signo)

    def oom_kill(self, proc: Process, needed: int = 0,
                 can_block: bool = False) -> None:
        """Out-of-memory kill: the frame-pool budget could not satisfy an
        allocation by ``proc`` even after reclaim.

        A distinct exit class from fault detections: the process dies with
        SIGKILL (exit 137) and ``proc.oom_killed`` is set so outcome
        classification can tell "the machine ran out of RAM" apart from
        "an error was detected".  The tracer may intercept via ``on_oom``
        (Parallaft sacrifices checkers and re-queues their segments).
        The stage-3 exhaustion event is always emitted before ``OOM`` so
        the trace invariant (every OOM follows an exhaustion) holds by
        construction.
        """
        if not proc.alive:
            return
        if self.trace.enabled:
            self.trace.emit(tev.PRESSURE_EXHAUSTED, pid=proc.pid, stage=3,
                            needed=needed,
                            resident=self.pool.resident_bytes,
                            budget=self.pool.budget_bytes)
        handled = False
        if proc.tracer is not None:
            handled = proc.tracer.on_oom(proc, can_block)
        if handled:
            # The tracer absorbed the overrun (e.g. shed the checker); the
            # victim was not OOM-killed.
            return
        proc.oom_killed = True
        self.stats["oom_kills"] += 1
        if self.trace.enabled:
            self.trace.emit(tev.OOM, pid=proc.pid, needed=needed,
                            resident=self.pool.resident_bytes,
                            budget=self.pool.budget_bytes)
        if proc.alive:
            self.kill_process(proc, abi.SIGKILL)

    def reap(self, proc: Process) -> None:
        """Release a zombie's (or a paused checkpoint's) resources."""
        if proc.state == ProcessState.DEAD:
            return
        proc.mem.destroy()
        proc.state = ProcessState.DEAD
        del self.unreaped[proc.pid]
        if self.trace.enabled:
            self.trace.emit(tev.PROCESS_REAP, pid=proc.pid)

    def live_processes(self) -> List[Process]:
        return [p for p in self.unreaped.values() if p.alive]

    def rollback_to_checkpoint(self, old_main: Process,
                               checkpoint: Process) -> Process:
        """Checkpoint-restore: replace ``old_main`` with ``checkpoint``.

        The checkpoint is a paused COW fork taken at a verified boundary;
        restoring it is just unpausing that fork while the corrupted
        process is killed and reaped (rr-style user-space restore — no
        state copying happens here, the fork already holds it).  The
        caller re-wires roles, cores and tracer bookkeeping.
        """
        old_main.tracer = None          # no exit/ptrace hooks for the corpse
        if old_main.alive:
            self.exit_process(old_main, 128 + abi.SIGKILL)
        self.reap(old_main)
        checkpoint.state = ProcessState.RUNNING
        self.stats["rollbacks"] += 1
        return checkpoint

    def promote_process(self, old_main: Process,
                        new_main: Process) -> Process:
        """Forward recovery: replace ``old_main`` with a live replica.

        Mechanically the same user-space swap as
        :meth:`rollback_to_checkpoint` — kill and reap the outvoted
        process, let the replica run on — but it is *not* a rollback:
        the replica already sits at (or past) the verified boundary, so
        no committed work is re-executed and the rollback counter stays
        untouched.  The caller re-wires roles, cores and tracers.
        """
        old_main.tracer = None          # no exit/ptrace hooks for the corpse
        if old_main.alive:
            self.exit_process(old_main, 128 + abi.SIGKILL)
        self.reap(old_main)
        new_main.state = ProcessState.RUNNING
        return new_main

    # -- tracing ---------------------------------------------------------------------

    def attach_tracer(self, proc: Process, tracer: Tracer) -> None:
        proc.tracer = tracer

    def _charge_trace_stop(self) -> float:
        self.stats["trace_stops"] += 1
        return self.costs.trace_stop_cycles

    # -- nondet / counters --------------------------------------------------------------

    def _make_nondet(self) -> NondetSource:
        # Weak references to the kernel and the process: the source
        # belongs to a process the kernel holds, and strong ones would
        # make cycles that only the cyclic garbage collector frees.
        kernel = weakref.ref(self)
        proc_box: List[Callable[[], Optional[Process]]] = [lambda: None]

        def core_of():
            proc = proc_box[0]()
            return proc.core if proc is not None else None

        source = NondetSource(lambda: kernel().now(), core_of)
        source._proc_box = proc_box  # filled by caller via bind_nondet
        return source

    @staticmethod
    def bind_nondet(proc: Process) -> None:
        """Point the process's nondet source at itself (call after ctor)."""
        proc.nondet._proc_box[0] = weakref.ref(proc)

    def _make_skid_fn(self) -> Callable[[], int]:
        rng = self.rng.stream("skid")
        model = self.counters

        def draw() -> int:
            if model.skid_max <= 0 or rng.random() >= model.skid_probability:
                return 0
            return rng.randint(1, model.skid_max)

        return draw

    def _inject_overcount(self, proc: Process) -> None:
        """Instruction-counter overcount on a trap return (paper §4.2.1)."""
        maximum = self.counters.instr_overcount_max
        if maximum > 0:
            proc.cpu.instr_overcount += self._overcount_below(maximum + 1)

    # -- syscall handling -----------------------------------------------------------------

    def handle_syscall(self, proc: Process) -> float:
        """Process a SYSCALL stop.  Returns the cost in hw cycles.

        Retires the syscall instruction (pc advance, far-branch count,
        instruction-counter overcount), runs tracer entry/exit hooks, and
        either executes or emulates the call.
        """
        cpu = proc.cpu
        regs = cpu.regs.gprs
        sysno = regs[0]
        args = tuple(regs[1:6])
        cost = self.costs.syscall_cycles()
        action: Optional[SyscallAction] = None
        self.syscall_output = b""
        if proc.tracer is not None:
            cost += self._charge_trace_stop()
            action = proc.tracer.on_syscall_entry(proc, sysno, args)
            # The tracer may have rewritten the argument registers.
            regs = cpu.regs.gprs
            sysno = regs[0]
            args = tuple(regs[1:6])

        if not proc.runnable:
            # The tracer stalled (or killed) the tracee at syscall entry:
            # nothing executes or retires; the same syscall re-stops when
            # the process resumes (checker record-starvation, paper §2.3).
            return cost

        if action is not None and action.kind == SyscallAction.EMULATE:
            result = action.result
        else:
            result, extra = self._dispatch(proc, sysno, args)
            cost += extra

        self.stats["syscalls"] += 1
        alive = proc.alive
        if alive:
            cpu.regs.gprs[0] = result
            cpu.pc += 4
            cpu.instr_retired += 1
            cpu.far_branches_retired += 1
            self._inject_overcount(proc)
        if proc.tracer is not None:
            cost += self._charge_trace_stop()
            proc.tracer.on_syscall_exit(proc, sysno, args,
                                        result if alive else 0)
        return cost

    def _dispatch(self, proc: Process, sysno: int,
                  args: Tuple[int, ...]) -> Tuple[int, float]:
        """Execute a syscall; returns (result, extra cost cycles)."""
        handler = self._SYSCALLS.get(sysno)
        if handler is None:
            return -abi.ENOSYS, 0.0
        try:
            return handler(self, proc, args)
        except PageFault:
            return -abi.EFAULT, 0.0
        except FramePoolExhausted as exc:
            self.oom_kill(proc, exc.needed)
            return -abi.ENOMEM, 0.0

    # individual syscalls ------------------------------------------------------

    def _sys_read(self, proc, args):
        fd, addr, length = args[0], args[1], args[2]
        file_object = proc.fds.get(fd)
        if file_object is None:
            return -abi.EBADF, 0.0
        if length < 0:
            return -abi.EINVAL, 0.0
        data = file_object.read(length)
        proc.mem.write_bytes(addr, data)
        self.syscall_output = data
        return len(data), len(data) * self.costs.syscall_per_byte_cycles

    def _sys_write(self, proc, args):
        fd, addr, length = args[0], args[1], args[2]
        file_object = proc.fds.get(fd)
        if file_object is None:
            return -abi.EBADF, 0.0
        if length < 0:
            return -abi.EINVAL, 0.0
        data = proc.mem.read_bytes(addr, length)
        written = file_object.write(data)
        return written, length * self.costs.syscall_per_byte_cycles

    def _sys_open(self, proc, args):
        addr, length = args[0], args[1]
        path = proc.mem.read_bytes(addr, length).decode("utf-8",
                                                        errors="replace")
        file_object = self.vfs.open(path)
        if file_object is None:
            return -abi.ENOENT, 0.0
        return proc.install_fd(file_object), 0.0

    def _sys_close(self, proc, args):
        fd = args[0]
        if fd not in proc.fds:
            return -abi.EBADF, 0.0
        del proc.fds[fd]
        return 0, 0.0

    def _sys_mmap(self, proc, args):
        addr, length, prot, flags, fd = args
        if length <= 0:
            return -abi.EINVAL, 0.0
        content = b""
        if not flags & MAP_ANONYMOUS and fd >= 0:
            file_object = proc.fds.get(fd)
            if file_object is None:
                return -abi.EBADF, 0.0
            if not file_object.mappable:
                return -abi.EINVAL, 0.0
            content = file_object.content()[:length]
        try:
            base = proc.mem.mmap(addr, length, prot, flags,
                                 name="" if flags & MAP_ANONYMOUS else "file")
        except FramePoolExhausted:
            raise
        except Exception:
            return -abi.EINVAL, 0.0
        if content:
            proc.mem.write_bytes(base, content, force=True)
        pages = -(-length // self.page_size)
        return base, pages * 40.0

    def _sys_mprotect(self, proc, args):
        addr, length, prot = args[0], args[1], args[2]
        try:
            proc.mem.mprotect(addr, length, prot)
        except Exception:
            return -abi.EINVAL, 0.0
        return 0, 0.0

    def _sys_munmap(self, proc, args):
        addr, length = args[0], args[1]
        try:
            proc.mem.munmap(addr, length)
        except Exception:
            return -abi.EINVAL, 0.0
        return 0, 0.0

    def _sys_brk(self, proc, args):
        return proc.mem.brk(args[0]), 0.0

    def _sys_getpid(self, proc, args):
        return proc.pid, 0.0

    def _sys_exit(self, proc, args):
        self.exit_process(proc, args[0])
        return 0, 0.0

    def _sys_kill(self, proc, args):
        pid, signo = args[0], args[1]
        target = self.processes.get(pid)
        if target is None or not target.alive:
            return -abi.EINVAL, 0.0
        self.send_signal(target, signo, external=target is not proc)
        return 0, 0.0

    def _sys_gettimeofday(self, proc, args):
        # Returns microseconds of virtual time: nondeterministic between
        # main and checker (different invocation times) -> non-effectful
        # syscall that must be record/replayed (paper §4.3.1).
        return int(self.now() * 1_000_000), 0.0

    def _sys_sigaction(self, proc, args):
        signo, handler = args[0], args[1]
        if signo <= 0 or signo >= 32 or signo == abi.SIGKILL:
            return -abi.EINVAL, 0.0
        if handler == 0:
            proc.signal_handlers.pop(signo, None)
        else:
            proc.signal_handlers[signo] = handler
        return 0, 0.0

    def _sys_prctl(self, proc, args):
        return 0, 0.0

    def _sys_getrandom(self, proc, args):
        addr, length = args[0], args[1]
        if length < 0:
            return -abi.EINVAL, 0.0
        data = random_bytes(self.rng.stream("getrandom"), length)
        proc.mem.write_bytes(addr, data)
        self.syscall_output = data
        return length, length * self.costs.syscall_per_byte_cycles

    _SYSCALLS = {
        abi.SYS_READ: _sys_read,
        abi.SYS_WRITE: _sys_write,
        abi.SYS_OPEN: _sys_open,
        abi.SYS_CLOSE: _sys_close,
        abi.SYS_MMAP: _sys_mmap,
        abi.SYS_MPROTECT: _sys_mprotect,
        abi.SYS_MUNMAP: _sys_munmap,
        abi.SYS_BRK: _sys_brk,
        abi.SYS_GETPID: _sys_getpid,
        abi.SYS_EXIT: _sys_exit,
        abi.SYS_KILL: _sys_kill,
        abi.SYS_GETTIMEOFDAY: _sys_gettimeofday,
        abi.SYS_SIGACTION: _sys_sigaction,
        abi.SYS_PRCTL: _sys_prctl,
        abi.SYS_GETRANDOM: _sys_getrandom,
    }

    # -- signals --------------------------------------------------------------------------------

    def send_signal(self, proc: Process, signo: int,
                    external: bool = False) -> None:
        """Queue a signal; delivery happens at the next quantum boundary."""
        if not proc.alive:
            return
        proc.pending_signals.append((signo, external))

    def deliver_pending_signal(self, proc: Process) -> float:
        """Deliver one pending signal if possible; returns cost cycles."""
        if not proc.pending_signals or proc.signal_context is not None:
            return 0.0
        signo, external = proc.pending_signals.pop(0)
        cost = 0.0
        if proc.tracer is not None:
            cost += self._charge_trace_stop()
            if not proc.tracer.on_signal(proc, signo, external):
                return cost  # tracer took ownership (defers/replays it)
        return cost + self.deliver_signal_now(proc, signo)

    def deliver_signal_now(self, proc: Process, signo: int) -> float:
        """Deliver a signal immediately: run handler or apply the default."""
        if not proc.alive:
            return 0.0
        self.stats["signals_delivered"] += 1
        handler = proc.signal_handlers.get(signo)
        if handler is None:
            if signo in abi.FATAL_SIGNALS:
                self.kill_process(proc, signo)
            return self.costs.signal_delivery_cycles
        if proc.signal_context is not None:
            # Already in a handler: keep pending (no nesting).
            proc.pending_signals.insert(0, (signo, False))
            return 0.0
        cpu = proc.cpu
        proc.signal_context = SignalContext(
            cpu.pc, cpu.regs.snapshot(), cpu.regs.gprs[14])
        cpu.regs.gprs[1] = signo
        cpu.regs.gprs[14] = SIGRETURN_ADDR
        cpu.pc = handler
        self._inject_overcount(proc)
        return self.costs.signal_delivery_cycles

    def sigreturn(self, proc: Process) -> None:
        """Restore the context interrupted by a signal handler."""
        context = proc.signal_context
        if context is None:
            raise KernelError(f"pid {proc.pid}: sigreturn with no context")
        proc.cpu.regs.load_snapshot(context.regs_snapshot)
        proc.cpu.pc = context.pc
        proc.signal_context = None

    @staticmethod
    def is_sigreturn_fault(fault) -> bool:
        return (fault is not None and fault.address == SIGRETURN_ADDR
                and fault.detail == "exec")
