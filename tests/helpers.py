"""Shared test helpers: compile and run programs on the simulated machine."""

from __future__ import annotations

import contextlib
from typing import Dict, Optional, Tuple
from unittest import mock

from repro.cpu import interpreter
from repro.isa import Program
from repro.kernel import Kernel
from repro.minic import compile_source
from repro.sim import Executor, PlatformConfig, apple_m2
from repro.trace import events as tev



@contextlib.contextmanager
def single_step_only(mem):
    """Run every instruction on ``mem`` inside the block on the
    interpreter's single-step loop, and prove that no compiled code ran.

    ``mem`` gets a private, empty block cache, and ``partition`` as the
    interpreter sees it cuts no blocks.  The interpreter calls compiled
    code only through that cache, so a cache still empty on exit means
    that none ran.
    """
    mem.blocks = {}
    with mock.patch.object(interpreter, "partition", lambda *args: {}):
        yield
    assert mem.blocks == {}, "compiled code ran in a single-step run"

def make_machine(platform: Optional[PlatformConfig] = None, seed: int = 0,
                 aslr: bool = True, quantum: int = 2000
                 ) -> Tuple[Kernel, Executor]:
    platform = platform or apple_m2()
    kernel = Kernel(page_size=platform.page_size, seed=seed, aslr=aslr)
    executor = Executor(kernel, platform, quantum=quantum)
    return kernel, executor


def run_program(program: Program,
                files: Optional[Dict[str, bytes]] = None,
                platform: Optional[PlatformConfig] = None,
                seed: int = 0, quantum: int = 2000):
    """Run a program natively (no fault-tolerance runtime).

    Returns (kernel, executor, process).
    """
    kernel, executor = make_machine(platform, seed=seed, quantum=quantum)
    for path, data in (files or {}).items():
        kernel.vfs.register(path, data)
    proc = kernel.spawn(program)
    executor.schedule_default(proc)
    executor.run()
    return kernel, executor, proc


def run_minic(source: str, files: Optional[Dict[str, bytes]] = None,
              platform: Optional[PlatformConfig] = None, seed: int = 0,
              quantum: int = 2000):
    """Compile mini-C and run it natively; returns (kernel, executor, proc)."""
    return run_program(compile_source(source), files=files,
                       platform=platform, seed=seed, quantum=quantum)


def stdout_of(kernel: Kernel) -> str:
    return kernel.console.text()


def corrupt_earlier_live_checker(runtime):
    """Once the main stalls for containment, flip a bit in the checker of
    an earlier live segment (so that segment FAILs while the main waits
    on it).  Returns a one-item list holding the corrupted segment's
    index once the fault fires."""
    corrupted = [None]

    def hook(proc, role):
        if corrupted[0] is not None or role != "checker":
            return
        if runtime.stall_cause(runtime.main) != tev.STALL_CONTAINMENT:
            return
        current = runtime.current
        if current is None:
            return
        segment = runtime.segment_of_checker.get(proc.pid)
        if segment is None or segment.index >= current.index \
                or not segment.live:
            return
        proc.cpu.regs.flip_bit("gpr", 8, 13)
        corrupted[0] = segment.index

    runtime.quantum_hooks.append(hook)
    return corrupted
