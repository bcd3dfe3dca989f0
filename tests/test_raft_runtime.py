"""Tests for the RAFT model's distinctive behaviours (paper §2.3, §5.1)."""

import pytest

from repro import abi
from repro.core import Parallaft
from repro.kernel.process import ProcessState
from repro.minic import compile_source
from repro.modes import get_mode
from repro.sim import apple_m2
from repro.trace import events as tev
from repro.workloads import synthetic_source

from helpers import run_minic, stdout_of


def raft_run(source, files=None, seed=0):
    runtime = Parallaft(compile_source(source),
                        config=get_mode("raft").make_config(),
                        platform=apple_m2(), files=files, seed=seed)
    stats = runtime.run()
    return runtime, stats


class TestRaftConcurrency:
    def test_checker_runs_concurrently_with_main(self):
        """RAFT's checker starts at program start: by the time the main
        exits, the checker has already made progress (asynchronous
        duplication, figure 1(a))."""
        runtime, stats = raft_run("""
        func main() {
            var i; var x;
            for (i = 0; i < 40000; i = i + 1) { x = x + i; }
            print_int(x % 1000003);
        }
        """)
        assert not stats.error_detected
        segment = runtime.segments[0]
        # Checker started long before the main finished.
        assert segment.check_started_time is not None
        assert segment.check_started_time < stats.main_wall_time / 2

    def test_checker_stalls_when_catching_up(self):
        """A syscall-dense program forces the RAFT checker to catch up with
        the record log and block until the main produces the next record
        (the synchronization RAFT's speculation avoids paying elsewhere)."""
        runtime, stats = raft_run("""
        global acc;
        func main() {
            var i; var j;
            for (i = 0; i < 25; i = i + 1) {
                acc = acc + getpid() % 3 + gettimeofday() % 5;
                for (j = 0; j < 1500; j = j + 1) { acc = acc + 1; }
            }
            print_int(acc % 1000003);
        }
        """)
        assert not stats.error_detected
        assert stats.syscalls_replayed >= 25
        events = list(runtime.trace)
        stalls = [i for i, e in enumerate(events)
                  if e.kind == tev.CHECKER_STALL]
        assert stalls
        for i in stalls:
            stall = events[i]
            assert stall.payload["reason"] == tev.STALL_RECORD_STARVATION
            pacing = [e.kind for e in events[i + 1:]
                      if e.pid == stall.pid and e.kind in
                      (tev.CHECKER_STALL, tev.CHECKER_WAKE)]
            assert pacing[:1] == [tev.CHECKER_WAKE]

    def test_single_segment_whole_program(self):
        runtime, stats = raft_run(synthetic_source(total_iters=8000))
        assert len(runtime.segments) == 1
        assert stats.nr_slices == 0

    def test_exec_point_still_verified_at_end(self):
        """Even without state comparison, the RAFT checker must reach the
        main's final execution point (counter + breakpoint replay)."""
        runtime, stats = raft_run(synthetic_source(total_iters=8000))
        segment = runtime.segments[0]
        assert segment.end_point is not None
        assert stats.segments_checked == 1


class TestRaftDetectionGap:
    def test_syscall_data_fault_detected(self):
        """RAFT detects faults that reach syscall data."""
        source = """
        func main() {
            var i; var x;
            for (i = 0; i < 20000; i = i + 1) { x = x + i; }
            print_int(x);
        }
        """
        runtime = Parallaft(compile_source(source),
                            config=get_mode("raft").make_config(),
                            platform=apple_m2())
        corrupted = [False]

        def hook(proc, role):
            if role == "checker" and not corrupted[0] and \
                    proc.user_time > 0.001:
                # Corrupt the checker's running sum: it flows into the
                # printed value, i.e. into write() data.
                for reg in range(7, 13):
                    proc.cpu.regs.gprs[reg] ^= 1 << 20
                corrupted[0] = True

        runtime.quantum_hooks.append(hook)
        stats = runtime.run()
        assert corrupted[0]
        assert stats.error_detected
        assert stats.errors[0].kind == "syscall_divergence"

    def test_silent_state_fault_missed(self):
        """...but faults that never reach a syscall escape RAFT entirely
        (Table 2's missing detection guarantee)."""
        source = """
        global scratch[128];
        func main() {
            var i;
            for (i = 0; i < 20000; i = i + 1) {
                scratch[i % 128] = scratch[i % 128] + i;
            }
            print_int(7);
        }
        """
        runtime = Parallaft(compile_source(source),
                            config=get_mode("raft").make_config(),
                            platform=apple_m2())
        corrupted = [False]

        def hook(proc, role):
            if role == "checker" and not corrupted[0] and \
                    proc.user_time > 0.001:
                from repro.isa.program import DATA_BASE
                proc.mem.store_word(DATA_BASE + 64, 0xBAD)
                corrupted[0] = True

        runtime.quantum_hooks.append(hook)
        stats = runtime.run()
        assert corrupted[0]
        assert not stats.error_detected   # RAFT's blind spot
        assert stats.exit_code == 0


class TestRaftOutput:
    def test_output_appears_once(self):
        _, stats = raft_run('func main() { print_str("once"); }')
        assert stats.stdout == "once"

    def test_output_matches_native(self):
        source = synthetic_source(total_iters=5000, seed=3)
        kernel, _, _ = run_minic(source)
        _, stats = raft_run(source)
        assert stats.stdout == stdout_of(kernel)


class TestRaftFileMmap:
    def test_file_backed_mmap_splits_even_in_raft(self):
        """The paper's RAFT model still checkpoints around file-backed
        mmaps (§5.1): the fd is not live in the checker otherwise."""
        runtime, stats = raft_run("""
        func main() {
            var fd; var p; var i; var total;
            fd = open("blob.bin");
            p = mmap_file(fd, 4096);
            total = 0;
            for (i = 0; i < 40; i = i + 1) { total = total + peek64(p + i * 8); }
            print_int(total);
        }
        """, files={"blob.bin": b"".join(i.to_bytes(8, "little")
                                         for i in range(512))})
        assert not stats.error_detected, stats.errors
        assert stats.mmap_splits == 1
        assert len(runtime.segments) == 2
        assert stats.stdout == f"{sum(range(40))}\n"
