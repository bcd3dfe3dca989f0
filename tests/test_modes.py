"""Detection-mode layer tests: registry, TMR voting, forward recovery,
the MEEK split knob and the new trace invariants.

The mode registry (`repro.modes`) replaces the string-compared dispatch
that used to be scattered across the runner/runtime/config: an unknown
mode is now a typed `ConfigError` naming the registry, and each mode's
segment policy (replica count, boundary check, recovery) lives on its
`DetectionMode` object.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.common.errors import ConfigError, RuntimeConfigError
from repro.core import Parallaft, ParallaftConfig
from repro.core.comparator import StateComparator
from repro.faults.outcomes import Outcome, classify_run
from repro.faults.sites import FaultSite
from repro.minic import compile_source
from repro.modes import (
    DetectionMode,
    ParallaftMode,
    RaftMode,
    TmrMode,
    get_mode,
    register_mode,
    registered_modes,
)
from repro.sim import apple_m2
from repro.trace import events as tev
from repro.trace.invariants import (
    InvariantChecker,
    assert_runtime_ok,
    check_runtime,
)
from repro.workloads import synthetic_source

SOURCE = """
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


def mode_config(mode, **overrides):
    overrides.setdefault("slicing_period", 40_000_000)
    return get_mode(mode).make_config(**overrides)


def tmr_config(**overrides):
    return mode_config("tmr", **overrides)


#: Modes that compare state, hence accept a MEEK split.
MEEK_MODES = ("parallaft", "tmr")


def run_mode(config, source=SOURCE, seed=0, hook=None):
    runtime = Parallaft(compile_source(source), config=config,
                        platform=apple_m2(), seed=seed)
    if hook is not None:
        runtime.quantum_hooks.append(hook(runtime))
    stats = runtime.run()
    return runtime, stats


def reference_stdout(source=SOURCE, seed=0):
    config = ParallaftConfig()
    config.slicing_period = 40_000_000
    _, stats = run_mode(config, source=source, seed=seed)
    assert not stats.error_detected
    return stats.stdout


def main_fault_hook(segment_index, site, after_instructions=500):
    """Flip ``site`` in the main once it is ``after_instructions`` deep
    into segment ``segment_index``."""
    def make(runtime):
        fired = [False]

        def hook(proc, role):
            if fired[0] or role != "main":
                return
            segment = runtime.current
            if segment is None or segment.index != segment_index:
                return
            progress = (runtime.instr_reading(proc)
                        - segment.start_instructions)
            if progress >= after_instructions:
                fired[0] = site.apply(
                    proc, runtime.dirty_tracker.dirty_vpns(proc))
        return hook
    return make


def replica_fault_hook(segment_index, site, replica_slot=0):
    """Flip ``site`` in one checker replica of segment
    ``segment_index`` (``replica_slot`` picks which one)."""
    def make(runtime):
        fired = [False]

        def hook(proc, role):
            if fired[0] or role != "checker":
                return
            if segment_index >= len(runtime.segments):
                return
            segment = runtime.segments[segment_index]
            replica = segment.replica_of(proc.pid)
            if replica is None:
                return
            if segment.replicas.index(replica) != replica_slot:
                return
            fired[0] = site.apply(
                proc, runtime.dirty_tracker.dirty_vpns(proc))
        return hook
    return make


class TestRegistry:
    def test_builtin_modes_registered(self):
        assert registered_modes() == ["parallaft", "raft", "tmr"]

    def test_get_mode_returns_singletons(self):
        assert get_mode("tmr") is get_mode("tmr")
        assert isinstance(get_mode("parallaft"), ParallaftMode)
        assert isinstance(get_mode("raft"), RaftMode)
        assert isinstance(get_mode("tmr"), TmrMode)

    def test_unknown_mode_is_typed_error_listing_registry(self):
        """Regression: unknown mode strings used to fall through to a
        silent Parallaft run; now they raise naming every valid mode."""
        with pytest.raises(ConfigError) as err:
            get_mode("trm")  # typo'd tmr
        message = str(err.value)
        for name in registered_modes():
            assert name in message

    def test_run_protected_rejects_unknown_mode(self):
        from repro.harness.runner import run_protected
        from repro.workloads.registry import benchmark
        with pytest.raises(ConfigError):
            run_protected(benchmark("mcf"), mode="parallaftt")

    def test_make_config_shapes(self):
        assert get_mode("parallaft").make_config().mode == "parallaft"
        raft = get_mode("raft").make_config()
        assert raft.mode == "raft"
        assert get_mode("raft").slices is False
        assert raft.slicing_period == float("inf")
        tmr = get_mode("tmr").make_config()
        assert tmr.mode == "tmr"
        assert tmr.compare_state is True

    def test_make_config_rejects_unknown_knob(self):
        with pytest.raises(ConfigError):
            get_mode("tmr").make_config(meek_splitt=0.5)

    @pytest.mark.parametrize("name", ["validate", "detection_mode",
                                      "retains_recovery_checkpoint"])
    def test_make_config_rejects_non_field_attributes(self, name):
        """Regression: an override was accepted whenever the config had
        an attribute of that name, so ``validate=0`` shadowed the method
        and the next ``config.validate()`` raised TypeError."""
        with pytest.raises(ConfigError):
            get_mode("parallaft").make_config(**{name: 0})
        get_mode("parallaft").make_config().validate()

    def test_make_config_cannot_change_mode(self):
        with pytest.raises(ConfigError):
            get_mode("parallaft").make_config(mode="raft")

    def test_custom_mode_config_carries_its_name(self):
        @register_mode
        class PresetMode(ParallaftMode):
            name = "test-preset"
            preset = {"max_live_segments": 3}
        try:
            config = get_mode("test-preset").make_config()
            assert config.mode == "test-preset"
            assert config.max_live_segments == 3
            assert config.detection_mode() is get_mode("test-preset")
            config.validate()
        finally:
            from repro.modes import base
            base._REGISTRY.pop("test-preset")

    def test_unknown_config_mode_is_typed_error(self):
        config = ParallaftConfig(mode="trm")
        with pytest.raises(ConfigError):
            config.validate()

    def test_mode_validation_hooks(self):
        raft = get_mode("raft").make_config(enable_recovery=True)
        with pytest.raises(RuntimeConfigError, match="raft mode"):
            raft.validate()
        for knob in ({"compare_state": False},
                     {"retry_failed_checkers": True},
                     {"clean_page_audit": 4}):
            with pytest.raises(RuntimeConfigError, match="TMR"):
                get_mode("tmr").make_config(**knob).validate()
        # The same knobs are fine where the mode allows them.
        get_mode("parallaft").make_config(
            retry_failed_checkers=True, clean_page_audit=4).validate()

    def test_make_config_applies_overrides(self):
        config = get_mode("tmr").make_config(meek_split=0.25,
                                             mem_budget_bytes=1 << 20)
        assert config.meek_split == 0.25
        assert config.mem_budget_bytes == 1 << 20

    def test_replica_counts(self):
        assert get_mode("parallaft").replica_count == 1
        assert get_mode("raft").replica_count == 1
        assert get_mode("tmr").replica_count == 2

    def test_custom_mode_registration(self):
        @register_mode
        class EagerMode(ParallaftMode):
            name = "test-eager"
            summary = "test-only clone"
        try:
            assert get_mode("test-eager") is not get_mode("parallaft")
            assert "test-eager" in registered_modes()
        finally:
            from repro.modes import base
            base._REGISTRY.pop("test-eager")

    @pytest.mark.parametrize("mode", ["parallaft", "tmr", "raft"])
    def test_live_segment_cap_must_let_a_slicing_main_run(self, mode):
        """A slicing main opens its next segment before the last one
        retires: a cap of 1 would park it at its first boundary forever,
        so slicing modes reject it.  RAFT never slices and keeps 1."""
        config = get_mode(mode).make_config(max_live_segments=1)
        if get_mode(mode).slices:
            with pytest.raises(RuntimeConfigError,
                               match="max_live_segments must be >= 2"):
                config.validate()
            get_mode(mode).make_config(max_live_segments=2).validate()
        else:
            config.validate()
        with pytest.raises(RuntimeConfigError):
            get_mode(mode).make_config(max_live_segments=0).validate()

    def test_tmr_config_forbids_rollback_recovery(self):
        config = get_mode("tmr").make_config()
        config.enable_recovery = True
        with pytest.raises(RuntimeConfigError):
            config.validate()


class TestTmrFaultFree:
    def test_votes_every_boundary_and_output_matches(self):
        reference = reference_stdout()
        runtime, stats = run_mode(tmr_config())
        assert not stats.error_detected
        assert stats.exit_code == 0
        assert stats.stdout == reference
        assert stats.segments_checked >= 2
        assert stats.tmr_votes == stats.segments_checked
        assert stats.tmr_outvoted == 0
        assert stats.tmr_forward_recoveries == 0
        assert_runtime_ok(runtime)

    def test_two_replicas_per_segment(self):
        runtime, stats = run_mode(tmr_config())
        for segment in runtime.segments:
            assert len(segment.replicas) <= 2
        votes = [e for e in runtime.trace if e.kind == tev.VOTE]
        assert votes and all(e.payload["quorum"] == 3 for e in votes)

    def test_vote_cycles_attributed_to_vote_phase(self):
        from repro.metrics import VOTE
        _, stats = run_mode(tmr_config())
        assert stats.phase_profile.cycles.get(VOTE, 0.0) > 0


class TestTmrForwardRecovery:
    def test_main_fault_survived_without_rollback(self):
        """The acceptance headline: a single-replica fault in the *main*
        is outvoted 2:1 and survived by promoting the winning replica —
        zero rollbacks, byte-identical output."""
        reference = reference_stdout()
        site = FaultSite.register("gpr", 5, 12, target="main")
        runtime, stats = run_mode(tmr_config(),
                                  hook=main_fault_hook(2, site))
        assert stats.exit_code == 0
        assert stats.stdout == reference
        assert stats.tmr_forward_recoveries == 1
        assert stats.recovery_rollbacks == 0
        assert classify_run(stats, reference) == Outcome.RECOVERED
        kinds = [e.kind for e in runtime.trace]
        assert tev.FORWARD_RECOVERY in kinds
        assert tev.ROLLBACK not in kinds
        assert_runtime_ok(runtime)

    def test_forward_recovery_truncates_stale_output(self):
        """Output the outvoted main printed past the voted boundary is
        discarded; the adopted timeline reprints it correctly."""
        reference = reference_stdout()
        site = FaultSite.register("gpr", 6, 20, target="main")
        runtime, stats = run_mode(tmr_config(),
                                  hook=main_fault_hook(1, site))
        if stats.tmr_forward_recoveries == 0:
            pytest.skip("fault was benign under this seed")
        assert stats.stdout == reference
        assert_runtime_ok(runtime)

    def test_forward_recovery_budget_fail_stops(self):
        """With the budget at zero, an outvoted main must fail-stop with
        the typed vote_inconclusive error instead of promoting."""
        site = FaultSite.register("gpr", 5, 12, target="main")
        runtime, stats = run_mode(tmr_config(max_forward_recoveries=0),
                                  hook=main_fault_hook(2, site))
        assert stats.error_detected
        assert stats.errors[0].kind == "vote_inconclusive"
        assert stats.tmr_forward_recoveries == 0
        assert_runtime_ok(runtime)


class TestTmrOutvote:
    def test_replica_fault_outvoted_and_run_survives(self):
        reference = reference_stdout()
        site = FaultSite.register("gpr", 5, 12, target="checker")
        runtime, stats = run_mode(tmr_config(),
                                  hook=replica_fault_hook(2, site))
        assert stats.exit_code == 0
        assert stats.stdout == reference
        assert stats.recovery_rollbacks == 0
        assert stats.tmr_forward_recoveries == 0
        if stats.tmr_outvoted:
            assert classify_run(stats, reference) == Outcome.RECOVERED
            assert any(e.kind == tev.OUTVOTED for e in runtime.trace)
        assert_runtime_ok(runtime)

    def test_second_replica_fault_outvoted_too(self):
        reference = reference_stdout()
        site = FaultSite.register("gpr", 7, 9, target="checker")
        runtime, stats = run_mode(
            tmr_config(), hook=replica_fault_hook(3, site, replica_slot=1))
        assert stats.exit_code == 0
        assert stats.stdout == reference
        assert stats.recovery_rollbacks == 0
        assert_runtime_ok(runtime)


class TestVoteUnit:
    """StateComparator.vote in isolation (no runtime)."""

    def _procs(self, n=3):
        from helpers import make_machine
        from repro.core.config import ComparisonStrategy
        kernel, _ = make_machine(aslr=False)
        prog = compile_source("func main() { print_int(1); }")
        procs = [kernel.spawn(prog, name=f"p{i}") for i in range(n)]
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH,
                                     page_size=kernel.page_size)
        return comparator, procs

    def test_unanimous_quorum_three(self):
        comparator, (a, b, c) = self._procs()
        vote = comparator.vote([b, c], a, dirty_vpns=set())
        assert vote.quorum == 3
        assert not vote.main_outvoted
        assert vote.loser_replicas == []

    def test_main_outvoted_when_replicas_agree(self):
        comparator, (a, b, c) = self._procs()
        a.cpu.regs.gprs[5] ^= 1 << 12    # corrupt the "main" checkpoint
        vote = comparator.vote([b, c], a, dirty_vpns=set())
        assert vote.quorum == 2
        assert vote.main_outvoted
        assert vote.winner_index == 0

    def test_one_replica_outvoted(self):
        comparator, (a, b, c) = self._procs()
        c.cpu.regs.gprs[5] ^= 1 << 12
        vote = comparator.vote([b, c], a, dirty_vpns=set())
        assert vote.quorum == 2
        assert not vote.main_outvoted
        assert vote.loser_replicas == [1]

    def test_all_disagree_no_quorum(self):
        comparator, (a, b, c) = self._procs()
        a.cpu.regs.gprs[5] ^= 1 << 12
        b.cpu.regs.gprs[6] ^= 1 << 3
        c.cpu.regs.gprs[7] ^= 1 << 7
        vote = comparator.vote([b, c], a, dirty_vpns=set())
        assert vote.quorum == 1
        assert not vote.main_outvoted


class TestMeekSplit:
    """The split is valid in every mode that compares state, so each
    test runs under both the parallaft and the tmr mode."""

    def test_early_checks_taken_per_replica(self):
        for mode in MEEK_MODES:
            _, stats = run_mode(mode_config(mode, meek_split=0.5))
            assert stats.exit_code == 0
            # Each replica of a checked segment takes one early check.
            replicas = get_mode(mode).replica_count
            assert stats.meek_early_checks > 0
            assert stats.meek_early_checks \
                >= replicas * stats.segments_checked

    def test_split_zero_means_no_early_checks(self):
        for mode in MEEK_MODES:
            _, stats = run_mode(mode_config(mode, meek_split=0.0))
            assert stats.meek_early_checks == 0

    def test_split_still_detects_checker_fault(self):
        """The combined verdict (early AND boundary) must not lose
        detections however the work is divided."""
        reference = reference_stdout()
        site = FaultSite.register("gpr", 5, 12, target="checker")
        for mode in MEEK_MODES:
            for split in (0.25, 1.0):
                runtime, stats = run_mode(mode_config(mode,
                                                      meek_split=split),
                                          hook=replica_fault_hook(2, site))
                assert_runtime_ok(runtime)
                # The flip either perturbed replayed state (detected, or
                # outvoted under TMR) or was masked before any compare;
                # it must never corrupt output.
                if stats.error_detected:
                    assert stats.errors[0].kind in ("state_mismatch",
                                                    "syscall_divergence")
                else:
                    assert stats.stdout == reference

    def test_early_mismatch_counts_detection(self):
        site = FaultSite.register("gpr", 5, 12, target="checker")
        for mode in MEEK_MODES:
            # The early stage covers everything.
            runtime, stats = run_mode(mode_config(mode, meek_split=1.0),
                                      hook=replica_fault_hook(2, site))
            # A state verdict against the checker: an error report, or
            # under TMR a boundary outvote for diverged state.
            state_outvotes = [
                e for e in runtime.trace if e.kind == tev.OUTVOTED
                and e.payload["cause"] in ("pc", "registers", "memory")]
            if stats.error_detected or state_outvotes:
                assert stats.meek_early_detections >= 1

    @pytest.mark.parametrize("mode", MEEK_MODES)
    def test_fault_free_split_divides_work_without_changing_verdicts(
            self, mode):
        """Fault-free, the split moves work between the two stages and
        nothing else: same output and verdicts, early checks whenever the
        split is above zero, and the same bytes hashed per boundary."""
        outcomes = {}
        for split in (0.0, 0.5, 1.0):
            runtime, stats = run_mode(mode_config(mode, meek_split=split))
            assert (stats.meek_early_checks > 0) == (split > 0)
            hashed = {}
            for event in runtime.trace:
                if event.kind == tev.COMPARISON:
                    hashed[event.segment] = (hashed.get(event.segment, 0)
                                             + event.payload["bytes_hashed"])
            assert hashed
            verdicts = (stats.exit_code, stats.to_dict()["errors"],
                        stats.segments_checked, stats.tmr_votes,
                        stats.tmr_outvoted, stats.tmr_forward_recoveries,
                        stats.meek_early_detections)
            outcomes[split] = (stats.stdout, verdicts, hashed)
        assert outcomes[0.5] == outcomes[0.0]
        assert outcomes[1.0] == outcomes[0.0]

    def test_meek_split_validated(self):
        config = ParallaftConfig()
        config.meek_split = 1.5
        with pytest.raises(RuntimeConfigError):
            config.validate()


class TestNewInvariants:
    def _event(self, kind, **kw):
        payload = {k: v for k, v in kw.items()
                   if k not in ("pid", "segment")}
        return tev.TraceEvent(ts=0.0, kind=kind,
                              pid=kw.get("pid"),
                              segment=kw.get("segment"),
                              payload=payload)

    def test_quorum1_vote_without_error_violates(self):
        events = [self._event(tev.VOTE, segment=0, quorum=1,
                              main_outvoted=False)]
        violations = InvariantChecker().check(events)
        assert any(v.invariant == "vote_quorum" for v in violations)

    def test_quorum1_vote_with_error_ok(self):
        events = [
            self._event(tev.VOTE, segment=0, quorum=1,
                        main_outvoted=False),
            self._event(tev.ERROR, segment=0,
                        error="vote_inconclusive"),
        ]
        assert not InvariantChecker().check(events)

    def test_quorum3_vote_ok(self):
        events = [self._event(tev.VOTE, segment=0, quorum=3,
                              main_outvoted=False)]
        assert not InvariantChecker().check(events)

    def test_rollback_after_forward_recovery_violates(self):
        events = [
            self._event(tev.FORWARD_RECOVERY, segment=1, winner_pid=7),
            self._event(tev.ROLLBACK, segment=2, pid=1),
        ]
        violations = InvariantChecker().check(events)
        assert any(v.invariant == "forward_recovery" for v in violations)

    def test_rollback_before_forward_recovery_ok(self):
        events = [
            self._event(tev.ROLLBACK, segment=0, pid=1),
            self._event(tev.FORWARD_RECOVERY, segment=1, winner_pid=7),
        ]
        assert not any(v.invariant == "forward_recovery"
                       for v in InvariantChecker().check(events))


class TestModeComparison:
    def test_identical_plan_across_modes(self):
        from repro.modes import run_mode_comparison
        program = compile_source(synthetic_source(total_iters=20000))
        summaries = run_mode_comparison(program,
                                        modes=("parallaft", "tmr"),
                                        injections=2, seed=3)
        assert set(summaries) == {"parallaft", "tmr"}
        for summary in summaries.values():
            assert len(summary.records) == 2
        tmr = summaries["tmr"]
        assert tmr.total_rollbacks == 0
        assert tmr.detected_fault_indices \
            >= summaries["parallaft"].detected_fault_indices

    def test_finished_comparison_leaves_nothing_to_the_cycle_collector(
            self):
        """With the cyclic garbage collector off, a comparison's runtimes,
        kernels and page frames are freed by reference counting: the
        fault hooks reach their runtime weakly, and exited processes
        leave their cores when the run ends.  The first comparison only
        warms caches."""
        import gc
        from repro.modes import run_mode_comparison

        def compare():
            run_mode_comparison(
                compile_source(synthetic_source(total_iters=3000)),
                injections=1)

        compare()
        gc.collect()
        gc.disable()
        try:
            compare()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            left = {type(obj).__name__ for obj in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not left & {"Parallaft", "Kernel", "Frame", "Process"}

    def test_render_mode_comparison_table(self):
        from repro.harness.report import NA, render_mode_comparison
        from repro.modes.comparison import (ModeInjectionRecord,
                                            ModeRunSummary)
        fired = ModeRunSummary(mode="tmr", wall_time=12.0,
                               baseline_wall_time=10.0)
        fired.records.append(ModeInjectionRecord(
            fault_index=0, outcome=Outcome.RECOVERED, fired=True,
            detection_latency=0.5, forward_recoveries=1))
        silent = ModeRunSummary(mode="raft", wall_time=11.0,
                                baseline_wall_time=10.0)
        silent.records.append(ModeInjectionRecord(
            fault_index=0, outcome=Outcome.BENIGN, fired=False))
        table = render_mode_comparison({"tmr": fired, "raft": silent})
        lines = table.splitlines()
        assert lines[1].startswith("mode")
        tmr_row = next(l for l in lines if l.startswith("tmr"))
        assert "+20.0" in tmr_row and "100%" in tmr_row
        raft_row = next(l for l in lines if l.startswith("raft"))
        # Nothing fired: every fraction cell is the NA placeholder.
        assert NA in raft_row
        assert "0%" not in raft_row


class TestComparisonOverrideFilter:
    def test_meek_split_override_skipped_for_raft(self):
        """Regression: a meek_split override must not be forced onto
        modes that never compare state (RAFT) — that combination is
        rejected by config validation."""
        from repro.modes import run_mode_comparison
        program = compile_source(synthetic_source(total_iters=8000))
        summaries = run_mode_comparison(program, modes=("raft",),
                                        injections=1, seed=0,
                                        config_overrides={"meek_split": 0.5})
        assert "raft" in summaries


class TestComparisonOverrideValidation:
    def test_misspelled_override_raises_before_any_run(self, monkeypatch):
        """Regression: overrides were filtered by ``hasattr`` on each
        mode's base config, so a misspelled key was silently dropped and
        the comparison ran without it."""
        from repro.modes import comparison

        def no_run(*args, **kwargs):
            raise AssertionError("a run started despite a bad override")

        monkeypatch.setattr(comparison, "_baseline_wall", no_run)
        monkeypatch.setattr(comparison, "Parallaft", no_run)
        program = compile_source(synthetic_source(total_iters=8000))
        with pytest.raises(ConfigError, match="meek_splitt"):
            comparison.run_mode_comparison(
                program, modes=("parallaft", "raft", "tmr"), injections=1,
                config_overrides={"meek_splitt": 0.5})

    def test_trace_off_override_raises_before_any_run(self, monkeypatch):
        """Regression: detection latency is read from the event trace, so
        with ``enable_trace`` off every detected fault reported no
        latency — the table's "never happened" mark."""
        from repro.modes import comparison

        def no_run(*args, **kwargs):
            raise AssertionError("a run started despite a bad override")

        monkeypatch.setattr(comparison, "_baseline_wall", no_run)
        monkeypatch.setattr(comparison, "Parallaft", no_run)
        program = compile_source(synthetic_source(total_iters=8000))
        with pytest.raises(ConfigError, match="enable_trace"):
            comparison.run_mode_comparison(
                program, modes=("parallaft",), injections=1,
                config_overrides={"enable_trace": False})


class TestDriversAgree:
    def test_comparison_and_injector_agree_on_the_same_fault(self):
        """One segment makes a fraction of the main's total progress the
        same point as that fraction of segment 0, so the cross-mode
        comparison and the application injector must strike — and
        classify — every planned fault identically."""
        from repro.faults import FaultInjector
        from repro.modes.comparison import plan_faults, run_mode_comparison
        program = compile_source(synthetic_source(total_iters=12000,
                                                  seed=0))
        one_segment = {"slicing_period": float("inf")}
        summary = run_mode_comparison(
            program, modes=("parallaft",), injections=4, seed=3,
            config_overrides=one_segment)["parallaft"]
        injector = FaultInjector(
            program,
            lambda: get_mode("parallaft").make_config(**one_segment),
            apple_m2, seed=3)
        _, reference = injector.profile()
        results = [injector.inject_site(0, fault.fraction, fault.site,
                                        reference)
                   for fault in plan_faults(4, seed=3)]
        assert [r.fired for r in summary.records] \
            == [result is not None for result in results] == [True] * 4
        assert [r.outcome for r in summary.records] \
            == [result.outcome for result in results] \
            == [Outcome.DETECTED, Outcome.DETECTED, Outcome.BENIGN,
                Outcome.DETECTED]


class TestVerdictBoundary:
    def test_policies_reach_only_the_public_runtime(self):
        # Modes, recovery and fault injection call the runtime's public
        # verdict, lifecycle and stall methods; its privates stay its own.
        root = Path(repro.__file__).parent
        private = re.compile(r"\b(rt|runtime|me|self\.rt)\._[a-z]")
        hits = [f"{path.relative_to(root)}:{number}: {line.strip()}"
                for package in ("modes", "recovery", "faults")
                for path in sorted((root / package).rglob("*.py"))
                for number, line in enumerate(
                    path.read_text().splitlines(), 1)
                if private.search(line)]
        assert not hits, "\n".join(hits)
