"""Tests for the experiment harness: runner, breakdown, periods, figures."""

import gc
import weakref

import pytest

from repro.common.units import BILLION, geomean, geomean_overhead_pct
from repro.core import ParallaftConfig
from repro.harness import (
    BenchmarkResult,
    InputResult,
    breakdown,
    energy_overhead_pct,
    overhead_pct,
    run_baseline,
    run_protected,
    suite_geomean,
)
from repro.harness.periods import (
    DURATION_COMPRESSION,
    effective_period,
    paper_period_label,
)
from repro.workloads import benchmark


def _result(name, mode, wall, main_wall=None, user=0.0, sys=0.0,
            energy=1.0, pss=()):
    result = BenchmarkResult(name, mode)
    result.inputs.append(InputResult(
        wall_time=wall, main_wall_time=main_wall or wall, user_time=user,
        sys_time=sys, energy_joules=energy, pss_samples=list(pss)))
    return result


class TestUnits:
    def test_geomean(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1, 0])

    def test_geomean_overhead_pct(self):
        # geomean of ratios 1.1 and 1.1 -> 10%
        assert geomean_overhead_pct([10.0, 10.0]) == pytest.approx(10.0)
        # overheads are aggregated as ratios, not averaged
        assert geomean_overhead_pct([0.0, 21.0]) == pytest.approx(10.0, abs=0.5)

    def test_suite_geomean(self):
        assert suite_geomean({"a": 10.0, "b": 10.0}) == pytest.approx(10.0)


class TestPeriods:
    def test_effective_period_compresses(self):
        assert effective_period(5 * BILLION) == 5 * BILLION / DURATION_COMPRESSION

    def test_labels(self):
        assert paper_period_label(1 * BILLION) == "1Billion"
        assert paper_period_label(2.5 * BILLION) == "2.5Billion"


class TestOverheadMath:
    def test_overhead_pct(self):
        base = _result("x", "baseline", wall=10.0)
        prot = _result("x", "parallaft", wall=12.0)
        assert overhead_pct(prot, base) == pytest.approx(20.0)

    def test_energy_overhead_pct(self):
        base = _result("x", "baseline", wall=1, energy=100.0)
        prot = _result("x", "parallaft", wall=1, energy=188.0)
        assert energy_overhead_pct(prot, base) == pytest.approx(88.0)

    def test_breakdown_components_sum(self):
        base = _result("x", "baseline", wall=10.0, user=9.0, sys=0.5)
        prot = _result("x", "parallaft", wall=13.0, main_wall=12.0,
                       user=10.0, sys=1.5)
        bd = breakdown(prot, base)
        assert bd.total_pct == pytest.approx(30.0)
        assert bd.fork_and_cow_pct == pytest.approx(10.0)       # sys delta
        assert bd.resource_contention_pct == pytest.approx(10.0)  # user delta
        assert bd.last_checker_sync_pct == pytest.approx(10.0)  # wall gap
        assert bd.runtime_work_pct == pytest.approx(0.0)
        assert bd.as_dict()["total"] == pytest.approx(30.0)

    def test_multi_input_results_sum(self):
        result = BenchmarkResult("multi", "baseline")
        for wall in (1.0, 2.0, 3.0):
            result.inputs.append(InputResult(
                wall_time=wall, main_wall_time=wall, user_time=wall / 2,
                sys_time=0.1, energy_joules=wall * 5,
                pss_samples=[100.0, 200.0]))
        assert result.wall_time == pytest.approx(6.0)
        assert result.energy_joules == pytest.approx(30.0)
        assert len(result.pss_samples) == 6
        assert result.mean_pss() == pytest.approx(150.0)


class TestRunners:
    def test_baseline_runner_runs_all_inputs(self):
        bench = benchmark("hmmer")  # two inputs
        result = run_baseline(bench)
        assert len(result.inputs) == 2
        assert result.wall_time > 0
        assert result.energy_joules > 0

    def test_protected_runner_collects_stats(self):
        bench = benchmark("sphinx3")
        config = ParallaftConfig()
        config.slicing_period = effective_period(5 * BILLION)
        result = run_protected(bench, "parallaft", config=config)
        assert result.inputs[0].stats is not None
        assert result.inputs[0].stats.segments_checked >= 1
        assert result.wall_time >= result.main_wall_time

    def test_raft_runner_mode(self):
        bench = benchmark("sphinx3")
        result = run_protected(bench, "raft")
        stats = result.inputs[0].stats
        assert stats.checker_cycles_big > 0
        assert stats.checker_cycles_little == 0

    def test_protected_beats_nothing_baseline_sanity(self):
        """Protection is never free: wall time exceeds baseline's."""
        bench = benchmark("sphinx3")
        base = run_baseline(bench)
        prot = run_protected(bench, "parallaft")
        assert prot.wall_time > base.wall_time

    def test_memory_sampling_collects_pss(self):
        bench = benchmark("sphinx3")
        base = run_baseline(bench, sample_memory=True)
        prot = run_protected(bench, "parallaft", sample_memory=True)
        assert base.mean_pss() > 0
        assert prot.mean_pss() > base.mean_pss()


    def test_finished_runs_are_freed_by_reference_counting(self,
                                                           monkeypatch):
        """With the cyclic garbage collector off, a finished run's kernel
        and page frames are gone once the runner returns: nothing in the
        run's object graph refers back into it.  The results still
        read."""
        from repro.core import runtime
        from repro.harness import runner
        kernels, frames = [], []

        for module in (runner, runtime):
            class Recording(module.Kernel):
                def spawn(self, *args, **kwargs):
                    proc = super().spawn(*args, **kwargs)
                    kernels.append(weakref.ref(self))
                    pte = next(iter(proc.mem.pages.values()))
                    frames.append(weakref.ref(pte.frame))
                    return proc

            monkeypatch.setattr(module, "Kernel", Recording)
        bench = benchmark("sphinx3")
        gc.collect()
        gc.disable()
        try:
            base = run_baseline(bench)
            prot = run_protected(bench, "parallaft")
            assert len(kernels) == 2
            assert [ref() for ref in kernels + frames] == [None] * 4
        finally:
            gc.enable()
        assert base.wall_time > 0
        stats = prot.inputs[0].stats
        assert stats.stdout and stats.segments_checked >= 1
        assert stats.to_dict()["exit_code"] == 0
        assert sum(prot.phase_profile().cycles.values()) > 0


class TestRunnerCliValidation:
    """Regression: ``--quantum 0`` and ``--metrics-interval 0`` hung the
    run and ``--scale 0`` divided by zero building the workload; each is
    now an argparse error before anything runs."""

    @pytest.mark.parametrize("flag, value", [
        ("--quantum", "0"), ("--quantum", "-5"), ("--scale", "0"),
        ("--metrics-interval", "0"), ("--metrics-interval", "-1")])
    def test_non_positive_value_rejected(self, flag, value, capsys):
        from repro.harness.runner import main
        with pytest.raises(SystemExit) as exc:
            main(["--bench", "sphinx3", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestFigureDrivers:
    def test_table2_capability_matrix(self):
        from repro.harness.figures import table2_capabilities
        table = table2_capabilities()
        assert table["Parallaft"]["guaranteed_error_detection"] == "Yes"
        assert table["RAFT"]["guaranteed_error_detection"] == "No"

    def test_injection_summary_empty(self):
        from repro.harness.figures import injection_summary
        from repro.faults.outcomes import Outcome
        assert injection_summary({}) == {
            outcome.value: 0.0 for outcome in Outcome}

    def test_table1_static_rows_present(self):
        from repro.harness.figures import TABLE1_STATIC_ROWS
        approaches = [row[0] for row in TABLE1_STATIC_ROWS]
        assert "Lock-stepping" in approaches
        assert any("ParaMedic" in row[1] for row in TABLE1_STATIC_ROWS)
