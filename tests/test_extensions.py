"""Tests for the future-work extensions (paper Table 2):
checker-retry error recovery and error containment in the SoR.
"""

import pytest

from repro import abi
from repro.core import Parallaft, ParallaftConfig
from repro.minic import compile_source
from repro.sim import apple_m2
from repro.trace import events as tev

from helpers import corrupt_earlier_live_checker

WORKLOAD = """
global data[256];
func main() {
    var i; var round; var total;
    for (round = 0; round < 40; round = round + 1) {
        for (i = 0; i < 256; i = i + 1) {
            data[i] = data[i] * 3 + round;
        }
    }
    total = 0;
    for (i = 0; i < 256; i = i + 1) { total = total + data[i]; }
    print_int(total);
}
"""


def make_runtime(retry=False, containment=False, period=500_000_000,
                 source=WORKLOAD):
    config = ParallaftConfig()
    config.slicing_period = period
    config.retry_failed_checkers = retry
    config.error_containment = containment
    return Parallaft(compile_source(source), config=config,
                     platform=apple_m2())


def transient_checker_fault(runtime, once=True):
    """Hook flipping one register bit in the first checker seen (once)."""
    fired = [0]

    def hook(proc, role):
        if role == "checker" and fired[0] == 0 and proc.user_time > 0.001:
            proc.cpu.regs.flip_bit("gpr", 8, 13)
            fired[0] += 1

    runtime.quantum_hooks.append(hook)
    return fired


class TestCheckerRetry:
    def test_transient_checker_fault_recovered(self):
        """A one-off checker fault is absorbed by a retry: the application
        survives with correct output and no reported error."""
        runtime = make_runtime(retry=True)
        fired = transient_checker_fault(runtime)
        stats = runtime.run()
        assert fired[0] == 1
        assert stats.checker_retries >= 1
        assert not stats.error_detected, stats.errors
        assert stats.exit_code == 0

    def test_without_retry_same_fault_kills_the_app(self):
        runtime = make_runtime(retry=False)
        fired = transient_checker_fault(runtime)
        stats = runtime.run()
        assert fired[0] == 1
        assert stats.error_detected

    def test_persistent_main_fault_still_reported(self):
        """A fault in the *main* copy survives the retry (the fresh checker
        disagrees with the corrupted end checkpoint again) and is reported."""
        from repro.isa.program import DATA_BASE
        runtime = make_runtime(retry=True)
        fired = [False]

        def hook(proc, role):
            if role == "main" and not fired[0] and proc.user_time > 0.002:
                proc.mem.store_word(DATA_BASE + 128, 0xBAD)
                fired[0] = True

        runtime.quantum_hooks.append(hook)
        stats = runtime.run()
        assert fired[0]
        assert stats.error_detected
        assert stats.checker_retries >= 1   # it tried

    def test_fault_free_run_unaffected_by_retry_mode(self):
        runtime = make_runtime(retry=True)
        stats = runtime.run()
        assert not stats.error_detected
        assert stats.checker_retries == 0

    def test_retry_timeout_fault(self):
        """Control-flow corruption (timeout detection) is also retryable."""
        runtime = make_runtime(retry=True)
        fired = [0]

        def hook(proc, role):
            if role == "checker" and fired[0] < 4 and proc.user_time > 0.001 \
                    and proc.name.startswith("checker-1") \
                    and "retry" not in proc.name:
                proc.cpu.regs.gprs[7] = 0  # reset loop counter: never ends
                fired[0] += 1

        runtime.quantum_hooks.append(hook)
        stats = runtime.run()
        assert fired[0] > 0
        assert not stats.error_detected, stats.errors
        assert stats.checker_retries >= 1


class TestErrorContainment:
    def test_output_held_until_previous_segments_verified(self):
        """With containment on, no write escapes while an earlier segment
        is still unverified: at every write, all previous segments are
        already CHECKED."""
        source = """
        global acc;
        func main() {
            var i; var j;
            for (i = 0; i < 8; i = i + 1) {
                for (j = 0; j < 6000; j = j + 1) { acc = acc + j; }
                print_int(acc % 1000003);
            }
        }
        """
        runtime = make_runtime(containment=True, period=150_000_000,
                               source=source)
        violations = []
        original_entry = runtime._main_syscall_entry

        def checked_entry(proc, sysno, args):
            action = original_entry(proc, sysno, args)
            from repro.kernel.process import ProcessState
            if sysno == abi.SYS_WRITE and proc.state == ProcessState.RUNNING:
                # The write is about to escape: every earlier segment must
                # already be verified.
                current = runtime.current.index if runtime.current else 1e9
                for segment in runtime.segments:
                    if segment.index < current and segment.live:
                        violations.append(segment.index)
            return action

        runtime._main_syscall_entry = checked_entry
        stats = runtime.run()
        assert not stats.error_detected
        assert stats.exit_code == 0
        assert violations == []

    def test_containment_costs_performance(self):
        source = """
        global acc;
        func main() {
            var i; var j;
            for (i = 0; i < 6; i = i + 1) {
                for (j = 0; j < 5000; j = j + 1) { acc = acc + j; }
                print_int(acc % 1000003);
            }
        }
        """
        contained = make_runtime(containment=True, period=150_000_000,
                                 source=source).run()
        free = make_runtime(containment=False, period=150_000_000,
                            source=source).run()
        assert not contained.error_detected and not free.error_detected
        assert contained.stdout == free.stdout
        # Holding syscalls until verification serializes main and checkers:
        # the paper rejects it for overhead reasons (§3.4).
        assert contained.main_wall_time > free.main_wall_time

    def test_containment_off_by_default(self):
        assert ParallaftConfig().error_containment is False


PRINT_LOOP = """
global acc;
func main() {
    var i; var j;
    for (i = 0; i < 6; i = i + 1) {
        for (j = 0; j < 5000; j = j + 1) { acc = acc + j; }
        print_int(acc % 1000003);
    }
}
"""


class TestContainmentWakeRegressions:
    """Regressions for two bugs in the containment stall/wake protocol.

    Both were caught by the trace invariant suite
    (tests/test_trace_invariants.py); these tests pin the user-visible
    symptoms directly.
    """

    def test_failed_segment_wakes_stalled_main(self):
        """Deadlock regression: with ``stop_on_error=False`` a FAILed
        segment never retires.  The error path must wake a main stalled
        waiting for that segment's verification — previously only the
        cap stall was woken, so the app hung forever (main WAITING, no
        runnable process) with its output truncated."""
        config = ParallaftConfig()
        config.slicing_period = 150_000_000
        config.error_containment = True
        config.stop_on_error = False
        config.max_live_segments = 2
        runtime = Parallaft(compile_source(PRINT_LOOP), config=config,
                            platform=apple_m2())
        corrupted = corrupt_earlier_live_checker(runtime)
        stats = runtime.run()
        assert corrupted[0] is not None, "fault never fired"
        # The divergence is still reported...
        assert stats.error_detected
        assert stats.errors[0].segment_index == corrupted[0]
        # ...but the application runs to completion with full output.
        assert stats.exit_code == 0
        assert len(stats.stdout.splitlines()) == 6
        # Every stall of the main was woken, the last one included.
        stalls = [e for e in runtime.trace if e.kind == tev.MAIN_STALL]
        wakes = [e for e in runtime.trace if e.kind == tev.MAIN_WAKE]
        assert len(wakes) == len(stalls)
        assert any(e.payload["reason"] == tev.STALL_CONTAINMENT
                   for e in stalls)
        assert runtime.stall_cause(runtime.main) is None

    def test_retirement_only_wakes_main_when_no_earlier_segment_live(self):
        """Premature-wake regression: any segment retirement used to
        clear the containment stall unconditionally, waking the main
        while *other* earlier segments were still unverified.  The wake
        must re-check the stall predicate (the held syscall is then
        re-issued, not skipped)."""
        source = """
        global acc;
        func main() {
            var i; var j;
            for (i = 0; i < 5; i = i + 1) {
                for (j = 0; j < 20000; j = j + 1) { acc = acc + j; }
                print_int(acc % 1000003);
            }
        }
        """
        config = ParallaftConfig()
        config.slicing_period = 80_000_000
        config.error_containment = True
        config.max_live_segments = 6
        runtime = Parallaft(compile_source(source), config=config,
                            platform=apple_m2())
        stats = runtime.run()
        assert not stats.error_detected
        assert stats.exit_code == 0
        assert len(stats.stdout.splitlines()) == 5

        # The scenario must actually pile up several earlier live
        # segments at a containment stall, else it proves nothing.
        stalls = [e for e in runtime.trace.events(tev.MAIN_STALL)
                  if e.payload.get("reason") == tev.STALL_CONTAINMENT]
        assert stalls
        assert max(len(e.payload.get("waiting_on", [])) for e in stalls) >= 2

        # Replay the trace: at every containment wake, no earlier
        # segment may still be live.
        live = set()
        premature = []
        for event in runtime.trace:
            if event.kind == tev.SEGMENT_START:
                live.add(event.segment)
            elif event.kind in tev.SEGMENT_TERMINAL:
                live.discard(event.segment)
            elif (event.kind == tev.MAIN_WAKE
                  and event.payload.get("reason") == tev.STALL_CONTAINMENT):
                earlier = [s for s in live if s < event.segment]
                if earlier:
                    premature.append((event.segment, earlier))
        assert premature == []

    def test_held_syscall_at_the_cap_keeps_one_stall(self):
        """A main parked on a held syscall can also reach a slicing
        boundary with the live-segment cap full.  It stays parked on its
        first cause: no second ``main_stall``, and each stall is paired
        with one wake of the same reason.  Containment is the cause that
        clears last (no earlier segment live leaves only the current
        one, below any cap of two or more), so it decides the wake."""
        source = """
        global data[512];
        func main() {
            var i; var round; var acc;
            acc = 0;
            for (round = 0; round < 20; round = round + 1) {
                for (i = 0; i < 512; i = i + 1) {
                    data[i] = data[i] * 3 + round + i;
                    acc = acc + data[i];
                }
                print_int(acc % 1000003);
            }
        }
        """
        config = ParallaftConfig(slicing_period=20_000_000,
                                 error_containment=True,
                                 max_live_segments=2)
        runtime = Parallaft(compile_source(source), config=config,
                            platform=apple_m2())
        stats = runtime.run()
        assert not stats.error_detected
        assert len(stats.stdout.splitlines()) == 20
        pacing = [e for e in runtime.trace
                  if e.kind in (tev.MAIN_STALL, tev.MAIN_WAKE)]
        reasons = {e.payload["reason"] for e in pacing}
        assert {tev.STALL_CAP, tev.STALL_CONTAINMENT} <= reasons
        for stall, wake in zip(pacing[::2], pacing[1::2]):
            assert (stall.kind, wake.kind) == (tev.MAIN_STALL, tev.MAIN_WAKE)
            assert stall.payload["reason"] == wake.payload["reason"]
        assert len(pacing) % 2 == 0
