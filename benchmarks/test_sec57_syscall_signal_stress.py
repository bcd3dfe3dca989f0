"""§5.7: syscall and signal handling overhead under stress.

Paper result: repeatedly calling getpid slows down 124.5x under Parallaft
(dominated by ptrace stops); reading 1 MB blocks from /dev/zero slows
18.5x (dominated by recording the data read); raising SIGUSR1 with an
empty handler slows 39.8x.  RAFT incurs almost identical syscall slowdown
because the syscall-handling logic is shared.
"""

import pytest
from conftest import print_rows

from repro.harness.figures import run_syscall_signal_stress

PAPER = {"getpid": 124.5, "read_1mb": 18.5, "sigusr1": 39.8}


@pytest.fixture(scope="module")
def stress():
    return run_syscall_signal_stress()


def test_sec57_stress_slowdowns(benchmark, stress):
    results = benchmark.pedantic(lambda: stress, rounds=1, iterations=1)
    rows = [f"{name:10s} slowdown {r.slowdown:7.1f}x   "
            f"(paper {PAPER[name]}x)" for name, r in results.items()]
    print_rows("§5.7: syscall/signal stress", rows)

    # Shape criteria: each slowdown lands within ~2x of the paper's value,
    # and the ordering getpid >> sigusr1 >> read holds.
    for name, r in results.items():
        assert PAPER[name] / 2.2 < r.slowdown < PAPER[name] * 2.2, name
    assert results["getpid"].slowdown > results["sigusr1"].slowdown
    assert results["sigusr1"].slowdown > results["read_1mb"].slowdown


def test_sec57_raft_shares_syscall_cost(benchmark):
    """RAFT's getpid slowdown is nearly identical to Parallaft's (the
    interception path is shared)."""
    from repro.core import ParallaftConfig
    from repro.harness.figures import _GETPID_STRESS
    from repro.kernel import Kernel
    from repro.minic import compile_source
    from repro.core import Parallaft
    from repro.modes import get_mode
    from repro.sim import Executor, apple_m2

    program = compile_source(_GETPID_STRESS % {"iters": 300})

    def run(config):
        platform = apple_m2()
        platform.cycle_scale = 1
        if config is None:
            kernel = Kernel(page_size=platform.page_size)
            executor = Executor(kernel, platform)
            proc = kernel.spawn(program)
            executor.schedule_default(proc)
            executor.run()
            return (proc.exit_time or executor.wall_time()) - proc.spawn_time
        return Parallaft(program, config=config,
                         platform=platform).run().main_wall_time

    base = benchmark.pedantic(lambda: run(None), rounds=1, iterations=1)
    parallaft_slow = run(ParallaftConfig()) / base
    raft_slow = run(get_mode("raft").make_config()) / base
    print_rows("§5.7: getpid slowdown, Parallaft vs RAFT",
               [f"parallaft {parallaft_slow:.1f}x   raft {raft_slow:.1f}x"],
               "RAFT incurs almost identical slowdown (shared logic)")
    assert abs(parallaft_slow - raft_slow) / parallaft_slow < 0.35
