"""End-to-end and unit tests for checkpoint-rollback error recovery.

The recovery subsystem (``repro.recovery``) makes Parallaft survive faults
in the *main* process: a persistently failing segment check implicates the
main, which is rolled back to the retained segment-start checkpoint and
re-executed.  Correctness oracle everywhere: end-of-run stdout must equal
the fault-free reference byte for byte.
"""

from types import SimpleNamespace

import pytest

from repro.common.errors import RuntimeConfigError
from repro.core import Parallaft, ParallaftConfig
from repro.core.segment import SegmentStatus
from repro.faults import (
    FaultInjector,
    FaultSite,
    KIND_MEMORY,
    KIND_REGISTER,
    Outcome,
    TARGET_MAIN,
)
from repro.kernel.process import ProcessState
from repro.minic import compile_source
from repro.modes import get_mode
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
        print_int(data[round]);
    }
    total = 0;
    for (i = 0; i < 128; i = i + 1) { total = total + data[i]; }
    print_int(total);
}
"""

PERIOD = 400_000_000


def make_config(recovery=True, period=PERIOD, **overrides):
    config = ParallaftConfig()
    config.slicing_period = period
    config.enable_recovery = recovery
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def make_runtime(config=None, source=WORKLOAD):
    return Parallaft(compile_source(source),
                     config=config or make_config(),
                     platform=apple_m2())


def reference_output(source=WORKLOAD):
    stats = make_runtime(make_config(recovery=False), source).run()
    assert not stats.error_detected
    return stats.stdout


def main_register_fault(runtime, after=0.002, file="gpr", index=8, bit=17):
    """Hook flipping one register bit in the main, once."""
    fired = [0]

    def hook(proc, role):
        if role == "main" and fired[0] == 0 and proc.user_time > after:
            proc.cpu.regs.flip_bit(file, index, bit)
            fired[0] += 1

    runtime.quantum_hooks.append(hook)
    return fired


class TestMainFaultRecovery:
    def test_register_fault_rolled_back_and_survives(self):
        reference = reference_output()
        runtime = make_runtime()
        fired = main_register_fault(runtime)
        stats = runtime.run()
        assert fired[0] == 1
        assert not stats.error_detected, stats.errors
        assert stats.recovery_rollbacks >= 1
        assert stats.recovery_retries >= 1       # the diagnostic re-check
        assert stats.recovery_wasted_cycles > 0
        assert stats.exit_code == 0
        assert stats.stdout == reference

    def test_memory_fault_rolled_back_and_survives(self):
        reference = reference_output()
        runtime = make_runtime()
        fired = [0]
        site = FaultSite.memory(page_rank=3, bit=4321, target=TARGET_MAIN)

        def hook(proc, role):
            if role == "main" and fired[0] == 0 and proc.user_time > 0.002:
                if site.apply(proc,
                              runtime.dirty_tracker.dirty_vpns(proc)):
                    fired[0] += 1

        runtime.quantum_hooks.append(hook)
        stats = runtime.run()
        assert fired[0] == 1
        assert not stats.error_detected, stats.errors
        assert stats.recovery_rollbacks >= 1
        assert stats.stdout == reference

    def test_without_recovery_same_fault_is_fatal(self):
        runtime = make_runtime(make_config(recovery=False))
        fired = main_register_fault(runtime)
        stats = runtime.run()
        assert fired[0] == 1
        assert stats.error_detected
        assert stats.recovery_rollbacks == 0

    def test_rolled_back_output_is_truncated(self):
        """The workload prints every round; a recovered run must contain
        each line exactly once — output from the discarded execution is
        rolled back at the console."""
        reference = reference_output()
        runtime = make_runtime()
        main_register_fault(runtime)
        stats = runtime.run()
        assert stats.recovery_rollbacks >= 1
        assert stats.stdout == reference
        lines = [l for l in stats.stdout.splitlines() if l]
        assert len(lines) == len(set(range(len(lines)))) and lines

    def test_discarded_segments_marked_rolled_back(self):
        runtime = make_runtime()
        main_register_fault(runtime)
        stats = runtime.run()
        assert stats.recovery_rollbacks >= 1
        rolled = [s for s in runtime.segments
                  if s.status == SegmentStatus.ROLLED_BACK]
        assert rolled
        for segment in rolled:
            assert segment.checker is None
            assert segment.end_checkpoint is None

    def test_recovery_counters_surface_in_stats_dump(self):
        runtime = make_runtime()
        main_register_fault(runtime)
        stats = runtime.run()
        dump = stats.to_dict()
        assert dump["counter.recovery.rollbacks"] == stats.recovery_rollbacks
        assert dump["counter.recovery.retries"] == stats.recovery_retries
        assert dump["counter.recovery.wasted_cycles"] == \
            stats.recovery_wasted_cycles
        assert dump["counter.recovery.rollbacks"] >= 1

    def test_fault_free_run_unaffected_by_recovery_mode(self):
        reference = reference_output()
        stats = make_runtime().run()
        assert not stats.error_detected
        assert stats.recovery_rollbacks == 0
        assert stats.stdout == reference


class TestRecoveryBounds:
    def _persistent_fault(self, runtime):
        """Corrupt the main once per recorded segment — including every
        re-execution, which is a fresh segment — so every check fails and
        recovery can never make progress."""
        seen = set()
        site = FaultSite.memory(page_rank=0, bit=77, target=TARGET_MAIN)

        def hook(proc, role):
            if role != "main" or proc.user_time <= 0.002:
                return
            segment = runtime.current
            if segment is None or id(segment) in seen:
                return
            if site.apply(proc, runtime.dirty_tracker.dirty_vpns(proc)):
                seen.add(id(segment))

        runtime.quantum_hooks.append(hook)

    def test_persistent_fault_exhausts_reexecution_cap(self):
        config = make_config(max_segment_reexecutions=2, max_rollbacks=50)
        runtime = make_runtime(config)
        self._persistent_fault(runtime)
        stats = runtime.run()
        assert stats.error_detected
        assert stats.recovery_rollbacks == 2

    def test_max_rollbacks_budget(self):
        config = make_config(max_rollbacks=1, max_segment_reexecutions=10)
        runtime = make_runtime(config)
        self._persistent_fault(runtime)
        stats = runtime.run()
        assert stats.error_detected
        assert stats.recovery_rollbacks == 1

    def test_slicing_period_shrinks_with_streak(self):
        runtime = make_runtime(make_config(recovery_shrink_limit=3))
        manager = runtime.recovery
        assert manager.effective_slicing_period() == PERIOD
        manager.rollback_streak = 2
        assert manager.effective_slicing_period() == PERIOD / 4
        manager.rollback_streak = 10   # clamped at the shrink limit
        assert manager.effective_slicing_period() == PERIOD / 8

    def test_streak_resets_only_on_new_progress(self):
        runtime = make_runtime()
        manager = runtime.recovery
        manager.rollback_streak = 2
        manager._last_rollback_index = 5
        manager.on_segment_verified(SimpleNamespace(index=4))
        assert manager.rollback_streak == 2    # pre-rollback straggler
        manager.on_segment_verified(SimpleNamespace(index=6))
        assert manager.rollback_streak == 0

    def test_watchdog_failure_is_not_recoverable(self):
        # The watchdog trips on the main's first quantum; the error
        # ladder must neither re-check nor roll back recovery's own
        # failure, although the budget would allow a rollback.
        runtime = make_runtime()
        runtime.recovery._watchdog_budget = 0
        stats = runtime.run()
        assert [e.kind for e in stats.errors] == ["recovery_watchdog"]
        assert stats.recovery_rollbacks == 0
        assert stats.checker_retries == 0

    def test_rollback_budget_guard(self):
        runtime = make_runtime()
        manager = runtime.recovery
        segment = SimpleNamespace(recovery_checkpoint=SimpleNamespace(
            state=ProcessState.PAUSED), checkpoint_evicted=False)
        manager.rollbacks = runtime.config.max_rollbacks
        assert not manager.on_check_failed(segment)

    def test_watchdog_disarms_at_boundary(self):
        runtime = make_runtime()
        manager = runtime.recovery
        manager._watchdog_budget = 123
        manager.note_boundary()
        assert manager._watchdog_budget is None


class TestRecoveryConfig:
    def test_recovery_requires_state_comparison(self):
        config = make_config(compare_state=False)
        with pytest.raises(RuntimeConfigError):
            config.validate()

    def test_recovery_incompatible_with_raft(self):
        config = get_mode("raft").make_config()
        config.enable_recovery = True
        with pytest.raises(RuntimeConfigError):
            config.validate()

    def test_watchdog_scale_must_exceed_one(self):
        config = make_config(recovery_watchdog_scale=0.5)
        with pytest.raises(RuntimeConfigError):
            config.validate()

    def test_retains_checkpoint_for_either_extension(self):
        assert make_config().retains_recovery_checkpoint
        retry_only = ParallaftConfig(retry_failed_checkers=True)
        assert retry_only.retains_recovery_checkpoint
        assert not ParallaftConfig().retains_recovery_checkpoint


class TestRecoveryCampaign:
    def _injector(self, recovery, seed=7):
        def config_factory():
            return make_config(recovery=recovery)

        return FaultInjector(compile_source(WORKLOAD), config_factory,
                             apple_m2, seed=seed)

    def test_campaign_recovers_where_control_arm_detects(self):
        recovered_arm = self._injector(recovery=True).run_campaign(
            injections_per_segment=2, benchmark_name="wl", max_segments=2,
            target=TARGET_MAIN, site_kinds=(KIND_REGISTER, KIND_MEMORY),
            verify_recovered_output=True)
        control_arm = self._injector(recovery=False).run_campaign(
            injections_per_segment=2, benchmark_name="wl", max_segments=2,
            target=TARGET_MAIN, site_kinds=(KIND_REGISTER, KIND_MEMORY))
        assert recovered_arm.total == control_arm.total
        assert recovered_arm.total >= 4
        for with_recovery, without in zip(recovered_arm.injections,
                                          control_arm.injections):
            # Same seed -> same sites; the run prefix up to the injection
            # is identical, so the two arms saw the very same fault.
            assert (with_recovery.register_file, with_recovery.bit) == \
                (without.register_file, without.bit)
            if with_recovery.outcome is Outcome.BENIGN:
                assert without.outcome is Outcome.BENIGN
            else:
                assert with_recovery.outcome is Outcome.RECOVERED
                assert with_recovery.output_matched
                assert without.outcome in (Outcome.DETECTED,
                                           Outcome.EXCEPTION,
                                           Outcome.TIMEOUT)
        assert recovered_arm.count(Outcome.RECOVERED) >= 1

    def test_main_injection_marks_target(self):
        campaign = self._injector(recovery=True).run_campaign(
            injections_per_segment=1, benchmark_name="wl", max_segments=1,
            target=TARGET_MAIN)
        for result in campaign.injections:
            assert result.target == TARGET_MAIN
