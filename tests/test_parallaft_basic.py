"""Integration tests: programs run correctly under Parallaft and RAFT."""

import pytest

from repro.core import Parallaft, ParallaftConfig, SegmentStatus
from repro.minic import compile_source
from repro.modes import get_mode
from repro.sim import apple_m2, intel_14700

LOOP_PROGRAM = """
global cells[64];
func main() {
    var i; var round; var total;
    for (round = 0; round < 40; round = round + 1) {
        for (i = 0; i < 64; i = i + 1) {
            cells[i] = cells[i] + round * i;
        }
    }
    total = 0;
    for (i = 0; i < 64; i = i + 1) { total = total + cells[i]; }
    print_int(total);
}
"""
LOOP_EXPECTED = f"{sum(sum(r * i for r in range(40)) for i in range(64))}\n"


def run_protected(source, config=None, platform=None, files=None,
                  slicing_period=None, **kwargs):
    config = config or ParallaftConfig()
    if slicing_period is not None:
        config.slicing_period = slicing_period
    runtime = Parallaft(compile_source(source), config=config,
                        platform=platform or apple_m2(), files=files,
                        **kwargs)
    stats = runtime.run()
    return runtime, stats


class TestParallaftBasic:
    def test_simple_program_completes(self):
        runtime, stats = run_protected(LOOP_PROGRAM,
                                       slicing_period=2_000_000_000)
        assert stats.exit_code == 0
        assert stats.stdout == LOOP_EXPECTED
        assert not stats.error_detected

    def test_multiple_segments_created_and_checked(self):
        runtime, stats = run_protected(LOOP_PROGRAM,
                                       slicing_period=500_000_000)
        assert len(runtime.segments) >= 3
        assert all(s.status == SegmentStatus.CHECKED
                   for s in runtime.segments)
        assert stats.segments_checked == len(runtime.segments)

    def test_single_segment_when_period_huge(self):
        runtime, stats = run_protected(LOOP_PROGRAM,
                                       slicing_period=10**15)
        assert len(runtime.segments) == 1
        assert stats.segments_checked == 1

    def test_output_not_duplicated(self):
        """Checker writes are replayed, never passed to the OS."""
        _, stats = run_protected(
            'func main() { print_str("once\\n"); }')
        assert stats.stdout == "once\n"

    def test_checkers_run_on_little_cores(self):
        runtime, stats = run_protected(LOOP_PROGRAM,
                                       slicing_period=500_000_000)
        assert stats.checker_cycles_little > 0
        assert stats.all_wall_time >= stats.main_wall_time

    def test_syscall_results_replayed(self):
        """getpid/gettimeofday are nondeterministic between main and
        checker: without record/replay the checker would diverge."""
        _, stats = run_protected("""
        global stamp[4];
        func main() {
            var i;
            stamp[0] = getpid();
            stamp[1] = gettimeofday();
            for (i = 0; i < 30000; i = i + 1) {
                stamp[2] = stamp[2] + stamp[0] + stamp[1];
            }
            print_int(stamp[2] % 1000000);
        }
        """, slicing_period=300_000_000)
        assert not stats.error_detected
        assert stats.syscalls_replayed > 0

    def test_nondet_instructions_replayed(self):
        """rdtsc / cpu_model diverge across cores and time; the runtime
        traps and replays them (paper §4.3.4)."""
        _, stats = run_protected("""
        global trace[4];
        func main() {
            var i; var acc;
            trace[0] = rdtsc();
            trace[1] = cpu_model();
            acc = 0;
            for (i = 0; i < 30000; i = i + 1) {
                acc = acc + trace[0] % 97 + trace[1] % 89;
            }
            trace[2] = rdtsc();
            print_int(acc % 100000);
        }
        """, slicing_period=300_000_000)
        assert not stats.error_detected
        assert stats.nondet_recorded >= 3

    def test_cpu_model_would_diverge_without_replay(self):
        """Sanity: a little core really does report a different cpu model,
        so the mrs trap is load-bearing."""
        from repro.cpu.nondet import MIDR_BIG, MIDR_LITTLE
        assert MIDR_BIG != MIDR_LITTLE

    def test_read_input_file_replayed(self):
        _, stats = run_protected("""
        func main() {
            var fd; var p; var i; var total;
            fd = open("data.bin");
            p = mmap_anon(16384);
            read(fd, p, 800);
            total = 0;
            for (i = 0; i < 100; i = i + 1) {
                total = total + peek64(p + i * 8);
            }
            print_int(total);
        }
        """, files={"data.bin": b"".join(i.to_bytes(8, "little")
                                         for i in range(100))},
            slicing_period=200_000_000)
        assert stats.stdout == f"{sum(range(100))}\n"
        assert not stats.error_detected

    def test_aslr_mmap_replay(self):
        """ASLR gives main and checker different mmap addresses unless the
        runtime pins the checker's call with MAP_FIXED (paper §4.3.2)."""
        _, stats = run_protected("""
        func main() {
            var p; var i;
            p = mmap_anon(32768);
            for (i = 0; i < 1000; i = i + 1) { poke64(p + i * 8, i); }
            print_int(peek64(p + 999 * 8) + p % 2);
        }
        """, slicing_period=100_000_000)
        assert not stats.error_detected

    def test_getrandom_replayed(self):
        _, stats = run_protected("""
        func main() {
            var p; var i; var total;
            p = mmap_anon(4096);
            getrandom(p, 64);
            total = 0;
            for (i = 0; i < 8; i = i + 1) { total = total + peek8(p + i); }
            print_int(total);
        }
        """, slicing_period=100_000_000)
        assert not stats.error_detected

    def test_file_backed_mmap_splits_segment(self):
        runtime, stats = run_protected("""
        func main() {
            var fd; var p; var i; var total;
            fd = open("blob.bin");
            p = mmap_file(fd, 4096);
            total = 0;
            for (i = 0; i < 50; i = i + 1) { total = total + peek64(p + i * 8); }
            print_int(total);
        }
        """, files={"blob.bin": b"".join(i.to_bytes(8, "little")
                                         for i in range(512))})
        assert stats.stdout == f"{sum(range(50))}\n"
        assert stats.mmap_splits == 1
        assert not stats.error_detected

    def test_sbrk_heap_replay(self):
        _, stats = run_protected("""
        func main() {
            var p; var i;
            p = sbrk(65536);
            for (i = 0; i < 2000; i = i + 1) { poke64(p + i * 8, i * 3); }
            print_int(peek64(p + 1999 * 8));
        }
        """, slicing_period=100_000_000)
        assert stats.stdout == f"{1999 * 3}\n"
        assert not stats.error_detected

    def test_stats_keys(self):
        _, stats = run_protected(LOOP_PROGRAM, slicing_period=500_000_000)
        dump = stats.to_dict()
        assert dump["timing.all_wall_time"] >= dump["timing.main_wall_time"]
        assert dump["counter.checkpoint_count"] >= 1
        assert dump["hwmon.total_energy"] > 0

    def test_x86_trap_nondet_path(self):
        _, stats = run_protected("""
        global t[2];
        func main() {
            var i; var acc;
            t[0] = rdtsc();
            t[1] = cpuid();
            acc = 0;
            for (i = 0; i < 20000; i = i + 1) { acc = acc + i + t[0] % 3; }
            print_int(acc % 10007);
        }
        """, platform=intel_14700(), slicing_period=300_000_000)
        assert not stats.error_detected
        assert stats.nondet_recorded >= 2


class TestRunParameterValidation:
    """Regression: a zero or negative quantum or sampling interval used
    to hang the run; the executor now rejects both up front."""

    @pytest.mark.parametrize("quantum", [0, -5])
    def test_non_positive_quantum_rejected(self, quantum):
        with pytest.raises(ValueError, match="quantum"):
            Parallaft(compile_source(LOOP_PROGRAM), quantum=quantum)

    @pytest.mark.parametrize("enable", ["enable_metrics_sampling",
                                        "enable_memory_sampling"])
    def test_zero_sampling_interval_rejected(self, enable):
        runtime = Parallaft(compile_source(LOOP_PROGRAM))
        with pytest.raises(ValueError, match="interval"):
            getattr(runtime, enable)(interval=0)


class TestRaftMode:
    def test_raft_completes_and_matches(self):
        config = get_mode("raft").make_config()
        runtime, stats = run_protected(LOOP_PROGRAM, config=config)
        assert stats.exit_code == 0
        assert stats.stdout == LOOP_EXPECTED
        assert not stats.error_detected
        assert len(runtime.segments) == 1

    def test_raft_checker_on_big_core(self):
        config = get_mode("raft").make_config()
        _, stats = run_protected(LOOP_PROGRAM, config=config)
        assert stats.checker_cycles_big > 0
        assert stats.checker_cycles_little == 0

    def test_raft_syscall_comparison_still_works(self):
        config = get_mode("raft").make_config()
        _, stats = run_protected("""
        func main() {
            var i; var x;
            x = getpid() + gettimeofday();
            for (i = 0; i < 10000; i = i + 1) { x = x + i; }
            print_int(x % 65536);
        }
        """, config=config)
        assert not stats.error_detected
        assert stats.syscalls_replayed > 0

    def test_raft_does_no_state_comparison(self):
        config = get_mode("raft").make_config()
        runtime, stats = run_protected(LOOP_PROGRAM, config=config)
        assert runtime.dirty_tracker.pages_scanned == 0


class TestDeterminismUnderRuntime:
    def test_output_identical_to_native(self):
        from helpers import run_minic, stdout_of
        kernel, _, _ = run_minic(LOOP_PROGRAM)
        native = stdout_of(kernel)
        _, stats = run_protected(LOOP_PROGRAM, slicing_period=400_000_000)
        assert stats.stdout == native

    def test_repeated_runs_identical(self):
        outs = set()
        for seed in (0, 1, 2):
            _, stats = run_protected(LOOP_PROGRAM,
                                     slicing_period=400_000_000, seed=seed)
            assert not stats.error_detected
            outs.add(stats.stdout)
        assert len(outs) == 1


class TestVerifiedLogs:
    SOURCE = """
    global grid[512];
    global ent[1];
    func main() {
        var i; var round;
        for (round = 0; round < 8; round = round + 1) {
            getrandom(ent, 8);
            for (i = 0; i < 512; i = i + 1) {
                grid[i] = grid[i] * 3 + round + peek8(ent) % 7;
            }
            print_int(grid[round] % 1000003);
        }
    }
    """

    def run(self):
        runtime, stats = run_protected(self.SOURCE,
                                       slicing_period=600_000_000)
        events = [(e.ts, e.kind, e.pid, e.role, e.core, e.segment,
                   e.payload) for e in runtime.trace]
        return runtime, stats.to_dict(), events

    def test_a_verified_segment_drops_its_records(self, monkeypatch):
        """Once a segment verifies, its R/R log records (the recorded
        syscall bytes) are gone; nothing the run reports moves."""
        from repro.core.rr_log import RrLog
        runtime, stats, events = self.run()
        segments = runtime.segments
        assert len(segments) >= 3 \
            and stats["counter.syscalls_recorded"] >= 16
        assert all(s.status is SegmentStatus.CHECKED for s in segments)
        assert [len(s.log) for s in segments] == [0] * len(segments)
        monkeypatch.setattr(RrLog, "discard", lambda log: None)
        kept, kept_stats, kept_events = self.run()
        assert sum(len(s.log) for s in kept.segments) \
            == stats["counter.syscalls_recorded"]
        assert kept_stats == stats
        assert kept_events == events


ZERO_READS = """
global ent[4];
func main() {
    var i; var fd; var buf;
    fd = open("/dev/zero");
    buf = mmap_anon(1048576);
    for (i = 0; i < NREADS; i = i + 1) {
        read(fd, buf, 1048576);
        getrandom(ent, 32);
    }
}
"""


def zero_reads(n):
    return ZERO_READS.replace("NREADS", str(n))


class TestRecordedOutputBuffers:
    """A ``read``/``getrandom`` record holds the buffer the kernel wrote
    into the main's pages, not a copy read back out of them."""

    def test_records_share_the_kernels_buffer(self):
        from repro.abi import SYS_GETRANDOM, SYS_READ
        runtime = Parallaft(compile_source(zero_reads(8)),
                            config=ParallaftConfig(), platform=apple_m2())
        seen = {}
        fresh_getrandom = []

        def hook(proc, role):
            # The one segment's log, before it verifies and drops it.
            if role != "main" or runtime.current is None:
                return
            records = runtime.current.log.records
            if records and records[-1].sysno == SYS_GETRANDOM \
                    and id(records[-1]) not in seen:
                record = records[-1]
                now = proc.mem.read_bytes(record.output_addr,
                                          len(record.output_data))
                fresh_getrandom.append(record.output_data == now)
            for record in records:
                seen[id(record)] = record

        runtime.quantum_hooks.append(hook)
        stats = runtime.run()
        assert not stats.errors and stats.exit_code == 0
        records = list(seen.values())
        reads = [r for r in records if r.sysno == SYS_READ]
        draws = [r for r in records if r.sysno == SYS_GETRANDOM]
        assert len(reads) == len(draws) == 8
        assert len({id(r.output_data) for r in reads}) == 1
        assert reads[0].output_data == bytes(1 << 20)
        assert fresh_getrandom == [True] * 8
        assert len({r.output_data for r in draws}) == 8
        assert stats.bytes_recorded == sum(
            len(r.output_data) for r in records) + 2 * sum(
            len(r.input_data) for r in records)

    def test_log_memory_does_not_grow_with_zero_reads(self):
        """Sixteen 1 MiB ``/dev/zero`` reads in one live segment: the log
        holds sixteen references to one buffer (about 20 MB traced when
        each record held a copy)."""
        import tracemalloc
        program = compile_source(zero_reads(16))
        platform = apple_m2()
        platform.cycle_scale = 1
        tracemalloc.start()
        try:
            stats = Parallaft(program, config=ParallaftConfig(),
                              platform=platform).run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not stats.errors and stats.nr_slices == 0
        assert stats.syscalls_recorded == 34
        assert peak < 8 << 20, peak


@pytest.mark.parametrize("overrides", [
    {"enable_recovery": True}, {"mem_budget_bytes": 64 << 20}],
    ids=["recovery", "budget"])
def test_finished_run_is_freed_by_reference_counting(overrides):
    """With the cyclic garbage collector off, a finished run whose runtime
    owns a recovery manager or a pressure controller is freed, page
    frames included, as soon as its last reference goes: both reach the
    runtime through its weak proxy, and the controller that the pool's
    reclaim hook holds does not hold the pool."""
    import gc
    import weakref
    config = ParallaftConfig(**overrides)
    config.slicing_period = 400_000_000
    gc.collect()
    gc.disable()
    try:
        runtime, stats = run_protected(LOOP_PROGRAM, config=config)
        pte = next(iter(runtime.main.mem.pages.values()))
        refs = [weakref.ref(runtime), weakref.ref(runtime.kernel),
                weakref.ref(pte.frame)]
        del runtime, pte
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()
    assert stats.stdout == LOOP_EXPECTED and not stats.errors
