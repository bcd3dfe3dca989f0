"""Process abstraction.

A :class:`Process` bundles an address space, CPU context, file descriptors,
signal state and accounting.  Processes are created by
:meth:`repro.kernel.kernel.Kernel.spawn` and duplicated by
:meth:`~repro.kernel.kernel.Kernel.fork` (copy-on-write), which is the
substrate for Parallaft's checkpoint/checker processes.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.cpu.nondet import NondetSource
from repro.cpu.state import CpuContext
from repro.mem.address_space import AddressSpace

if TYPE_CHECKING:
    from repro.kernel.vfs import FileObject


class ProcessState(enum.Enum):
    RUNNING = "running"    # eligible to execute
    PAUSED = "paused"      # suspended by its tracer (not runnable)
    WAITING = "waiting"    # blocked in the kernel (e.g. checker stall)
    ZOMBIE = "zombie"      # exited, not yet reaped
    DEAD = "dead"          # reaped; resources released


#: Magic return address installed as ``lr`` when a signal handler runs;
#: jumping to it traps back into the kernel which restores the interrupted
#: context (our stand-in for ``sigreturn``).
SIGRETURN_ADDR = 0xDEAD_0000


class SignalContext:
    """Saved context while a signal handler runs."""

    __slots__ = ("pc", "regs_snapshot", "lr")

    def __init__(self, pc: int, regs_snapshot, lr: int):
        self.pc = pc
        self.regs_snapshot = regs_snapshot
        self.lr = lr


class Process:
    """One simulated process."""

    def __init__(self, pid: int, name: str, mem: AddressSpace,
                 cpu: CpuContext, nondet: NondetSource):
        self.pid = pid
        self.name = name
        self.mem = mem
        self.cpu = cpu
        self.nondet = nondet
        self.state = ProcessState.RUNNING
        self.exit_code: Optional[int] = None
        #: set by Kernel.oom_kill — distinguishes running out of RAM from
        #: fault detections in outcome classification
        self.oom_killed = False

        self.fds: Dict[int, "FileObject"] = {}
        self._next_fd = 3

        # Signals.
        self.signal_handlers: Dict[int, int] = {}   # signo -> handler address
        self.pending_signals: List[tuple] = []      # (signo, external)
        self.signal_context: Optional[SignalContext] = None

        # Tracing: set by Kernel.attach_tracer.
        self.tracer = None

        # Scheduling state, owned by the sim executor/scheduler.
        self.core = None            # Core or None
        self.ready_time = 0.0       # virtual seconds: earliest next run
        self.pinned_core_kind: Optional[str] = None
        #: (hw_cycles, kind) work parked until the process lands on a core
        #: (see Executor.charge_deferred).
        self.pending_charges: List[tuple] = []

        # Accounting (virtual seconds / counts).
        self.user_time = 0.0
        self.sys_time = 0.0
        self.spawn_time = 0.0
        self.exit_time: Optional[float] = None
        self.user_cycles = 0.0      # hardware cycles of user execution
        self.cycles_big = 0.0       # ... split by executing cluster
        self.cycles_little = 0.0

        # Skid model hook, installed by the kernel (draws from its RNG).
        self._skid_fn: Callable[[], int] = lambda: 0

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, {self.name!r}, {self.state.value})"

    # -- interpreter hooks ---------------------------------------------------

    def skid_draw(self) -> int:
        """Perf-counter skid for this stop (instructions past the overflow)."""
        return self._skid_fn()

    # -- fds -------------------------------------------------------------------

    def install_fd(self, file_object: "FileObject", fd: Optional[int] = None) -> int:
        if fd is None:
            fd = self._next_fd
            self._next_fd += 1
        self.fds[fd] = file_object
        return fd

    # -- liveness ----------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state not in (ProcessState.ZOMBIE, ProcessState.DEAD)

    @property
    def runnable(self) -> bool:
        return self.state == ProcessState.RUNNING
