"""Signal handling under Parallaft (paper §4.3.3).

External signals must be delivered to the checker at the *identical
execution point* as the main (custom handlers make delivery position
architecturally visible); internal signals are recorded and matched
against the checker's own faults; self-raised signals via kill() are
drained from the record after the replayed syscall.
"""

import pytest

from repro import abi
from repro.core import Parallaft, ParallaftConfig
from repro.kernel.process import ProcessState
from repro.minic import compile_source
from repro.sim import apple_m2, intel_14700

HANDLER_PROGRAM = """
global hits;
global progress;

func on_usr1(sig) {
    // Handler effect depends on delivery position: captures `progress`.
    hits = hits * 1000003 + progress + sig;
    return 0;
}

func main() {
    var i;
    sigaction(10, 99);
    for (i = 0; i < 60000; i = i + 1) {
        progress = progress + 1;
    }
    print_int(hits % 1000000007);
    print_int(progress);
}
"""


def make_runtime(source, period=300_000_000, platform=None):
    program = compile_source(source)
    handler = None
    for label, addr in program.labels.items():
        if label == "F_on_usr1":
            handler = addr
    if handler is not None:
        for instr in program.instrs:
            if instr.imm == 99:
                instr.imm = handler
    config = ParallaftConfig()
    config.slicing_period = period
    return Parallaft(program, config=config, platform=platform or apple_m2())


class TestExternalSignals:
    def test_external_signal_replayed_at_identical_point(self):
        """Deliver SIGUSR1 externally mid-run: the handler reads `progress`
        (position-dependent), so any delivery-point divergence between main
        and checker would trip the state comparison."""
        runtime = make_runtime(HANDLER_PROGRAM)
        sent = [0]

        def hook(proc, role):
            if role == "main" and sent[0] < 3 and proc.user_time > 0.002 * (sent[0] + 1):
                runtime.kernel.send_signal(proc, abi.SIGUSR1, external=True)
                sent[0] += 1

        runtime.quantum_hooks.append(hook)
        stats = runtime.run()
        assert sent[0] == 3
        assert stats.signals_recorded >= 3
        assert not stats.error_detected, stats.errors
        assert stats.exit_code == 0
        # The handler really ran (hits != 0 printed first).
        first_line = stats.stdout.splitlines()[0]
        assert first_line != "0"

    def test_external_signal_output_matches_unsignalled_progress(self):
        """The final `progress` value is unaffected by signal handling."""
        runtime = make_runtime(HANDLER_PROGRAM)

        def hook(proc, role):
            if role == "main" and proc.user_time > 0.004 and \
                    runtime.stats.signals_recorded == 0:
                runtime.kernel.send_signal(proc, abi.SIGUSR1, external=True)

        runtime.quantum_hooks.append(hook)
        stats = runtime.run()
        assert not stats.error_detected
        assert stats.stdout.splitlines()[1] == "60000"

    def test_external_fatal_signal_kills_main_and_checkers_verify(self):
        """SIGTERM (no handler) kills the main mid-run; the final partial
        segment is still verified against the death point."""
        runtime = make_runtime("""
        global progress;
        func main() {
            var i;
            for (i = 0; i < 80000; i = i + 1) { progress = progress + 1; }
            print_int(progress);
        }
        """)
        killed = [False]

        def hook(proc, role):
            if role == "main" and not killed[0] and proc.user_time > 0.004:
                runtime.kernel.send_signal(proc, abi.SIGTERM, external=True)
                killed[0] = True

        runtime.quantum_hooks.append(hook)
        stats = runtime.run()
        assert killed[0]
        assert stats.exit_code == 128 + abi.SIGTERM
        # The crash itself is not a detected *error*: checkers verified the
        # truncated execution faithfully.
        assert not stats.error_detected, stats.errors


class TestSelfRaisedSignals:
    def test_kill_self_with_handler_replays(self):
        runtime = make_runtime("""
        global hits;
        func on_usr1(sig) { hits = hits + 1; return 0; }
        func main() {
            var i;
            sigaction(10, 99);
            for (i = 0; i < 10; i = i + 1) {
                kill(getpid(), 10);
            }
            print_int(hits);
        }
        """, period=10**14)
        stats = runtime.run()
        assert not stats.error_detected, stats.errors
        assert stats.stdout == "10\n"

    def test_signal_records_drained_in_order(self):
        """Multiple self-signals interleaved with computation keep the
        record stream consistent."""
        runtime = make_runtime("""
        global hits;
        func on_usr1(sig) { hits = hits + sig; return 0; }
        func main() {
            var i; var burn;
            sigaction(10, 99);
            for (i = 0; i < 6; i = i + 1) {
                kill(getpid(), 10);
                for (burn = 0; burn < 2000; burn = burn + 1) {
                    hits = hits + 0;
                }
            }
            print_int(hits);
        }
        """, period=200_000_000)
        stats = runtime.run()
        assert not stats.error_detected, stats.errors
        assert stats.stdout == "60\n"


#: getpid, 1 MB ``/dev/zero`` read and self-SIGUSR1 loops (the §5.7
#: stress programs, shortened).
STRESS_PROGRAM = """
global hits;
func on_usr1(sig) { hits = hits + 1; return 0; }
func main() {
    var i; var fd; var buf; var me;
    sigaction(10, 99);
    me = getpid();
    for (i = 0; i < 600; i = i + 1) { getpid(); }
    fd = open("/dev/zero");
    buf = mmap_anon(1048576);
    for (i = 0; i < 6; i = i + 1) { read(fd, buf, 1048576); }
    for (i = 0; i < 300; i = i + 1) { kill(me, 10); }
    print_int(hits);
}
"""


class TestSignalsPendingAtACut:
    """A main cut between its ``kill`` and the signal's delivery would
    start a segment whose checker has nothing pending; the cut waits for
    the delivery instead."""

    @pytest.mark.parametrize("platform", [apple_m2, intel_14700])
    @pytest.mark.parametrize("period", [1_000, 2_000, 3_000, 5_000, 7_000,
                                        10_000, 15_000, 20_000])
    def test_self_signal_loop_is_clean_at_every_period(self, platform,
                                                       period):
        machine = platform()
        machine.cycle_scale = 1  # as the §5.7 stress figure runs it
        runtime = make_runtime(STRESS_PROGRAM, period=period,
                               platform=machine)
        pending_at_start = []
        start_segment = runtime.start_segment

        def recording_start():
            pending_at_start.append(list(runtime.main.pending_signals))
            start_segment()

        runtime.start_segment = recording_start
        stats = runtime.run()
        assert not stats.errors, stats.errors
        assert stats.stdout == "300\n"
        assert runtime.kernel.stats["signals_delivered"] == 600
        assert stats.nr_slices >= (2 if period <= 10_000 else 1)
        assert len(pending_at_start) == stats.nr_slices + 1
        assert not any(pending_at_start)


class TestInternalFaultSignals:
    def test_deterministic_crash_reproduced_not_flagged(self):
        """A program that segfaults deterministically crashes both main
        and checker at the same point: faithfully reproduced, not a
        divergence."""
        runtime = make_runtime("""
        global progress;
        func main() {
            var i;
            for (i = 0; i < 30000; i = i + 1) { progress = progress + 1; }
            poke64(64, 1);  // unmapped: SIGSEGV
            print_int(progress);
        }
        """, period=250_000_000)
        stats = runtime.run()
        assert stats.exit_code == 128 + abi.SIGSEGV
        assert not stats.error_detected, stats.errors
        assert stats.stdout == ""  # never reached the print

    def test_divide_by_zero_crash_reproduced(self):
        runtime = make_runtime("""
        global zero;
        func main() {
            var i; var x;
            for (i = 0; i < 20000; i = i + 1) { x = x + i; }
            x = x / zero;
            print_int(x);
        }
        """, period=10**14)
        stats = runtime.run()
        assert stats.exit_code == 128 + abi.SIGFPE
        assert not stats.error_detected, stats.errors
