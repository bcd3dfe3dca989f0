"""Unit tests for the fault-injection machinery itself."""

import pytest

from repro.core import ParallaftConfig
from repro.core.runtime import ERROR_KINDS
from repro.faults import (CampaignResult, FaultInjector, FaultSite,
                          Outcome, classify_run)
from repro.faults.outcomes import ERROR_KIND_TO_OUTCOME, InjectionResult
from repro.minic import compile_source
from repro.sim import apple_m2

PROGRAM = """
global grid[64];
func main() {
    var i; var round;
    for (round = 0; round < 25; round = round + 1) {
        for (i = 0; i < 64; i = i + 1) { grid[i] = grid[i] + round; }
    }
    print_int(grid[63]);
}
"""


def make_injector(period=10**14, seed=0):
    return FaultInjector(
        compile_source(PROGRAM),
        config_factory=lambda: ParallaftConfig(slicing_period=period),
        platform_factory=apple_m2, seed=seed)


class TestOutcomeMapping:
    def test_every_error_kind_maps(self):
        # Both ways: classify_run would count a kind missing from the
        # outcome table as DETECTED without a word.
        assert set(ERROR_KINDS) == set(ERROR_KIND_TO_OUTCOME)

    def test_recovery_watchdog_counts_as_timeout(self):
        assert ERROR_KIND_TO_OUTCOME["recovery_watchdog"] is Outcome.TIMEOUT

    def test_detected_flags(self):
        assert Outcome.DETECTED.is_detected
        assert Outcome.EXCEPTION.is_detected
        assert Outcome.TIMEOUT.is_detected
        assert not Outcome.BENIGN.is_detected

    def test_recovered_is_detected_and_survived(self):
        assert Outcome.RECOVERED.is_detected
        assert Outcome.RECOVERED.is_survived
        assert Outcome.BENIGN.is_survived
        assert not Outcome.DETECTED.is_survived

    def test_campaign_fractions(self):
        campaign = CampaignResult("x")
        for outcome in (Outcome.DETECTED, Outcome.DETECTED, Outcome.BENIGN,
                        Outcome.TIMEOUT):
            campaign.injections.append(InjectionResult(
                outcome, "gpr", 0, 0, 0, 0.0))
        assert campaign.total == 4
        assert campaign.fraction(Outcome.DETECTED) == pytest.approx(0.5)
        assert campaign.detected_fraction == pytest.approx(0.75)
        assert sum(campaign.summary().values()) == pytest.approx(1.0)

    def test_recovered_and_missed_accounting(self):
        campaign = CampaignResult("x", missed=2)
        for outcome in (Outcome.RECOVERED, Outcome.RECOVERED,
                        Outcome.BENIGN, Outcome.DETECTED):
            campaign.injections.append(InjectionResult(
                outcome, "gpr", 0, 0, 0, 0.0))
        assert campaign.total == 4
        assert campaign.planned == 6
        assert campaign.recovered_fraction == pytest.approx(0.5)
        assert campaign.survived_fraction == pytest.approx(0.75)
        # RECOVERED runs were detected (then repaired), so they count
        # toward coverage too.
        assert campaign.detected_fraction == pytest.approx(0.75)

    def test_empty_campaign(self):
        campaign = CampaignResult("x")
        assert campaign.detected_fraction == 0.0
        assert campaign.recovered_fraction == 0.0
        assert campaign.fraction(Outcome.BENIGN) == 0.0


class TestClassifier:
    def _stats(self, stdout, rollbacks=0, retries=0):
        from repro.core.stats import RunStats
        stats = RunStats()
        stats.stdout = stdout
        stats.recovery_rollbacks = rollbacks
        stats.checker_retries = retries
        return stats

    def test_silent_output_corruption_is_sdc(self):
        # No error reported, but the output is wrong: the corruption
        # escaped silently.  This must never count as a detection.
        outcome = classify_run(self._stats("corrupt"), "good")
        assert outcome is Outcome.SDC
        assert not outcome.is_detected
        assert not outcome.is_survived

    def test_silent_stderr_corruption_is_sdc(self):
        stats = self._stats("good")
        stats.stderr = "oops"
        outcome = classify_run(stats, "good", "")
        assert outcome is Outcome.SDC

    def test_sdc_fraction(self):
        campaign = CampaignResult("x")
        for outcome in (Outcome.SDC, Outcome.DETECTED,
                        Outcome.BENIGN, Outcome.SDC):
            campaign.injections.append(InjectionResult(
                outcome, "infra", 0, 0, 0, 0.0))
        assert campaign.sdc_fraction == pytest.approx(0.5)
        assert campaign.detected_fraction == pytest.approx(0.25)

    def test_rollback_with_matching_output_is_recovered(self):
        outcome = classify_run(
            self._stats("good", rollbacks=1), "good")
        assert outcome is Outcome.RECOVERED

    def test_checker_retry_with_matching_output_is_recovered(self):
        outcome = classify_run(
            self._stats("good", retries=1), "good")
        assert outcome is Outcome.RECOVERED

    def test_clean_run_is_benign(self):
        outcome = classify_run(self._stats("good"), "good")
        assert outcome is Outcome.BENIGN


class TestInjectorMechanics:
    def test_profile_is_fault_free(self):
        times, reference = make_injector().profile()
        assert len(times) == 1
        assert times[0] > 0
        assert reference.strip().isdigit() or reference.strip().lstrip("-").isdigit()

    def test_injection_into_live_register_detected(self):
        injector = make_injector()
        times, reference = injector.profile()
        result = injector.inject_site(
            0, times[0] * 0.3, FaultSite.register("gpr", 8, 5), reference)
        assert result is not None
        assert result.outcome.is_detected

    def test_injection_into_dead_vector_register_detected_by_compare(self):
        """Even a never-used register flip is caught: the comparison is
        bit-exact over the whole architectural state."""
        injector = make_injector()
        times, reference = injector.profile()
        result = injector.inject_site(
            0, times[0] * 0.3, FaultSite.register("vec", 3, 200), reference)
        assert result is not None
        assert result.outcome == Outcome.DETECTED

    def test_late_injection_misses(self):
        injector = make_injector()
        times, reference = injector.profile()
        assert injector.inject_site(
            0, times[0] * 100,
            FaultSite.register("gpr", 1, 1), reference) is None

    def test_out_of_range_segment_misses(self):
        injector = make_injector()
        times, reference = injector.profile()
        assert injector.inject_site(
            99, 0.0, FaultSite.register("gpr", 1, 1), reference) is None

    @pytest.mark.parametrize("max_segments", [0, -1])
    def test_max_segments_below_one_rejected(self, max_segments):
        """Regression: 0 divided by zero computing the sampling stride,
        and a negative value silently planned no injection at all."""
        with pytest.raises(ValueError, match="max_segments"):
            make_injector().run_campaign(max_segments=max_segments)

    def test_max_segments_cli_flag_rejects_zero(self, capsys):
        from repro.harness.runner import main
        with pytest.raises(SystemExit) as exc:
            main(["--bench", "libquantum", "--campaign",
                  "--max-segments", "0"])
        assert exc.value.code == 2
        assert "--max-segments" in capsys.readouterr().err

    def test_max_segments_sampling(self):
        injector = make_injector(period=150_000_000, seed=2)
        campaign = injector.run_campaign(injections_per_segment=1,
                                         max_segments=2,
                                         benchmark_name="unit")
        segments = {r.segment_index for r in campaign.injections}
        assert len(segments) <= 2

    def test_campaign_reproducible_with_seed(self):
        def run(seed):
            campaign = make_injector(period=10**14, seed=seed).run_campaign(
                injections_per_segment=2, benchmark_name="unit")
            return [(r.register_file, r.register_index, r.bit,
                     r.outcome.value) for r in campaign.injections]
        assert run(3) == run(3)
        assert run(3) != run(4)
