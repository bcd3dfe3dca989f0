"""Fault-injection and error-detection tests (paper §5.6 mechanisms)."""

import pytest

from repro.core import Parallaft, ParallaftConfig
from repro.faults import FaultInjector, FaultSite, Outcome
from repro.minic import compile_source
from repro.sim import apple_m2

WORKLOAD = """
global data[128];
func main() {
    var i; var round; var total;
    srand64(11);
    for (round = 0; round < 30; round = round + 1) {
        for (i = 0; i < 128; i = i + 1) {
            data[i] = data[i] * 3 + round + i;
        }
    }
    total = 0;
    for (i = 0; i < 128; i = i + 1) { total = total + data[i]; }
    print_int(total);
}
"""


def make_runtime(source=WORKLOAD, period=400_000_000, **kwargs):
    config = ParallaftConfig()
    config.slicing_period = period
    return Parallaft(compile_source(source), config=config,
                     platform=apple_m2(), **kwargs)


class TestDirectedFaults:
    """Flip specific state and confirm the specific detector fires."""

    def _run_with_hook(self, hook, period=400_000_000):
        runtime = make_runtime(period=period)
        runtime.quantum_hooks.append(hook)
        stats = runtime.run()
        return runtime, stats

    def test_memory_corruption_detected_as_state_mismatch(self):
        """Corrupt a checker's data page mid-segment: the dirty-page hash
        comparison must catch it."""
        from repro.isa.program import DATA_BASE
        fired = [False]

        def hook(proc, role):
            if role == "checker" and not fired[0] and proc.user_time > 0.001:
                proc.mem.store_word(DATA_BASE + 64, 0x0BAD)
                fired[0] = True

        _, stats = self._run_with_hook(hook)
        assert fired[0]
        assert stats.error_detected
        assert stats.errors[0].kind in ("state_mismatch",
                                        "syscall_divergence")

    def test_register_corruption_detected(self):
        fired = [False]

        def hook(proc, role):
            if role == "checker" and not fired[0] and proc.user_time > 0.001:
                proc.cpu.regs.flip_bit("gpr", 8, 17)  # a live local register
                fired[0] = True

        _, stats = self._run_with_hook(hook)
        assert fired[0]
        assert stats.error_detected

    def test_pc_corruption_detected_as_exception_or_timeout(self):
        fired = [False]

        def hook(proc, role):
            if role == "checker" and not fired[0] and proc.user_time > 0.001:
                proc.cpu.pc = 0x0F00_0000  # jump into unmapped space
                fired[0] = True

        _, stats = self._run_with_hook(hook)
        assert fired[0]
        assert stats.error_detected
        assert stats.errors[0].kind in ("exception", "timeout")

    def test_infinite_loop_detected_as_timeout(self):
        """Corrupt a loop counter so the checker loops (almost) forever:
        the 1.1x instruction budget kills it (paper §4.2.2)."""
        fired = [False]

        def hook(proc, role):
            if role == "checker" and not fired[0] and proc.user_time > 0.0005:
                # Reset the outer loop counter register repeatedly: the
                # checker can never finish.
                proc.cpu.regs.gprs[7] = 0
                proc.cpu.regs.gprs[8] = 0
                fired[0] = True
                # keep firing: make it truly stuck
                fired[0] = False

        runtime = make_runtime()
        hits = [0]

        def persistent_hook(proc, role):
            if role == "checker":
                proc.cpu.regs.gprs[7] = 0
                hits[0] += 1

        runtime.quantum_hooks.append(persistent_hook)
        stats = runtime.run()
        assert hits[0] > 0
        assert stats.error_detected
        assert any(e.kind in ("timeout", "state_mismatch",
                              "exec_point_overrun", "syscall_divergence",
                              "exception")
                   for e in stats.errors)

    def test_write_data_corruption_detected_via_syscall_comparison(self):
        """Corrupt the checker's write buffer just before the output
        syscall: caught by input-data comparison (paper §4.3.1)."""
        source = """
        global buf[16];
        func main() {
            var i; var total;
            total = 0;
            for (i = 0; i < 30000; i = i + 1) { total = total + i; }
            print_int(total);
        }
        """
        runtime = make_runtime(source, period=10**14)  # single segment

        def hook(proc, role):
            if role == "checker":
                # Continuously trash the itoa buffer so the printed bytes
                # differ when the checker's write is replayed/compared.
                from repro.isa.program import DATA_BASE
                try:
                    proc.mem.store_byte(DATA_BASE + 7, 0x58)
                except Exception:
                    pass

        runtime.quantum_hooks.append(hook)
        stats = runtime.run()
        assert stats.error_detected

    def test_fault_in_main_detected_too(self):
        """Symmetry: the comparison also catches faults in the *main* copy
        (a real SEU could hit either)."""
        from repro.isa.program import DATA_BASE
        fired = [False]

        def hook(proc, role):
            if role == "main" and not fired[0] and proc.user_time > 0.002:
                proc.mem.store_word(DATA_BASE + 32, 0x0BAD)
                fired[0] = True

        _, stats = self._run_with_hook(hook)
        assert fired[0]
        assert stats.error_detected


class TestInjectorCampaign:
    def test_profile_returns_per_segment_times(self):
        injector = FaultInjector(
            compile_source(WORKLOAD),
            config_factory=lambda: ParallaftConfig(
                slicing_period=400_000_000),
            platform_factory=apple_m2)
        times, reference = injector.profile()
        assert len(times) >= 2
        assert all(t > 0 for t in times)
        assert reference.endswith("\n")

    def test_campaign_classifies_every_injection(self):
        injector = FaultInjector(
            compile_source(WORKLOAD),
            config_factory=lambda: ParallaftConfig(
                slicing_period=800_000_000),
            platform_factory=apple_m2, seed=3)
        campaign = injector.run_campaign(injections_per_segment=3,
                                         benchmark_name="unit")
        assert campaign.total >= 3
        for result in campaign.injections:
            assert isinstance(result.outcome, Outcome)
        # Everything is either detected (any flavour) or benign; fractions
        # sum to 1.
        assert sum(campaign.summary().values()) == pytest.approx(1.0)

    def test_campaign_finds_both_benign_and_detected(self):
        """With enough injections over 92 registers, some hit dead state
        (benign) and some hit live state (detected)."""
        injector = FaultInjector(
            compile_source(WORKLOAD),
            config_factory=lambda: ParallaftConfig(
                slicing_period=600_000_000),
            platform_factory=apple_m2, seed=1)
        campaign = injector.run_campaign(injections_per_segment=6,
                                         benchmark_name="unit")
        assert campaign.count(Outcome.BENIGN) > 0
        detected = campaign.total - campaign.count(Outcome.BENIGN)
        assert detected > 0
        assert campaign.detected_fraction + campaign.fraction(
            Outcome.BENIGN) == pytest.approx(1.0)

    def test_detected_faults_never_corrupt_output(self):
        """Faults are injected into checkers, so the program output always
        matches the reference (the paper's 'benign' definition relies on
        this)."""
        injector = FaultInjector(
            compile_source(WORKLOAD),
            config_factory=lambda: ParallaftConfig(
                slicing_period=10**14),
            platform_factory=apple_m2, seed=2)
        times, reference = injector.profile()
        result = injector.inject_site(
            0, times[0] * 0.5, FaultSite.register("gpr", 7, 5), reference)
        assert result is not None

    def test_missed_injection_returns_none(self):
        injector = FaultInjector(
            compile_source(WORKLOAD),
            config_factory=lambda: ParallaftConfig(slicing_period=10**14),
            platform_factory=apple_m2)
        times, reference = injector.profile()
        result = injector.inject_site(
            0, times[0] * 50.0, FaultSite.register("gpr", 1, 1), reference)
        assert result is None
