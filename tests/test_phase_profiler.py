"""Phase-attribution profiler: conservation, stall taxonomy, span hygiene.

The load-bearing property is *cycle conservation*: every cycle the
executor charges lands in exactly one profiler phase, checked three ways
— bitwise against ``Executor.charged_cycles`` on real runs, by trace
invariant (j) over the emitted ``phase_totals`` event, and as a
hypothesis property over random charge sequences.  The stall tests pin
the satellite bugfixes: pressure-ladder stalls and containment stalls
are distinct phases, and kill paths (OOM, shed, rollback) never leak an
open stall span.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Parallaft, ParallaftConfig
from repro.harness.report import render_phase_breakdown
from repro.kernel import Kernel
from repro.metrics import (
    CAP_STALL,
    CHECKER_STALL,
    COMPARISON,
    CONTAINMENT_STALL,
    CYCLE_PHASES,
    DIRTY_SCAN,
    MAIN_EXEC,
    PRESSURE_STALL,
    REPLAY,
    PhaseProfiler,
)
from repro.minic import compile_source
from repro.modes import get_mode
from repro.sim import apple_m2
from repro.trace import InvariantChecker, check_runtime
from repro.trace import events as tev

PAGE = 16384

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

COW_WORKLOAD = """
global data[2048];
func main() {
    var i; var round;
    srand64(7);
    for (round = 0; round < 24; round = round + 1) {
        for (i = 0; i < 2048; i = i + 1) {
            data[i] = data[i] * 5 + round + i;
        }
        print_int(data[round] % 1000003);
    }
}
"""


def run_workload(source=PRINT_LOOP, **overrides):
    config = ParallaftConfig()
    config.slicing_period = 150_000_000
    for key, value in overrides.items():
        setattr(config, key, value)
    runtime = Parallaft(compile_source(source), config=config,
                        platform=apple_m2())
    return runtime, runtime.run()


CONFIGS = {
    "plain": {},
    "containment": {"error_containment": True},
    "short_period": {"slicing_period": 80_000_000,
                     "max_live_segments": 6},
}


class TestConservation:
    @pytest.fixture(params=sorted(CONFIGS), scope="class")
    def finished(self, request):
        runtime, stats = run_workload(**CONFIGS[request.param])
        assert stats.exit_code == 0
        return runtime, stats

    def test_profiler_total_matches_executor_bitwise(self, finished):
        runtime, stats = finished
        profile = stats.phase_profile
        # Both totals accumulate the same charges in the same order, so
        # they must be bit-identical, not merely close.
        assert profile.total_cycles == runtime.executor.charged_cycles

    def test_phase_sum_conserves(self, finished):
        runtime, stats = finished
        profile = stats.phase_profile
        assert sum(profile.cycles.values()) == pytest.approx(
            runtime.executor.charged_cycles, rel=1e-9)
        assert set(profile.cycles) <= set(CYCLE_PHASES)

    def test_overhead_components_sum_exactly(self, finished):
        _, stats = finished
        profile = stats.phase_profile
        components = profile.overhead_components()
        # Components are the ledger's non-main entries verbatim (same
        # float objects, no recomputation), so any consistent summation
        # of the components reproduces the ledger's overhead with zero
        # slack — fsum is exactly rounded and order-independent.
        assert components == {p: profile.cycles.get(p, 0.0)
                              for p in CYCLE_PHASES if p != MAIN_EXEC}
        import math
        assert math.fsum(components.values()) == math.fsum(
            v for p, v in profile.cycles.items() if p != MAIN_EXEC)

    def test_phase_totals_event_and_invariants(self, finished):
        runtime, _ = finished
        totals = list(runtime.trace.events(tev.PHASE_TOTALS))
        assert len(totals) == 1
        assert check_runtime(runtime) == []

    def test_corrupted_ledger_trips_invariant(self):
        runtime, _ = run_workload()
        events = list(runtime.trace)
        for event in events:
            if event.kind == tev.PHASE_TOTALS:
                event.payload["phases"] = {
                    k: v * 1.5 for k, v in event.payload["phases"].items()}
        violations = InvariantChecker().check(events)
        assert [v.invariant for v in violations] == ["cycle_conservation"]

    def test_segment_ledger_within_totals(self, finished):
        _, stats = finished
        profile = stats.phase_profile
        for seg, phases in profile.segment_cycles.items():
            for phase, cyc in phases.items():
                assert cyc <= profile.cycles[phase] * (1 + 1e-12)


@given(st.lists(
    st.tuples(st.integers(0, len(CYCLE_PHASES) - 1),
              st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False)),
    max_size=200))
@settings(deadline=None, max_examples=50)
def test_property_random_charges_conserve(charges):
    """Hypothesis property: however charges interleave across phases and
    segments, the per-phase ledger and the independently accumulated
    total agree (satellite #3)."""
    profiler = PhaseProfiler()
    executor_total = 0.0
    for idx, cycles in charges:
        profiler.charge(CYCLE_PHASES[idx], cycles, segment=idx % 3)
        executor_total += cycles
    assert profiler.total_cycles == executor_total  # same order: bitwise
    assert sum(profiler.cycles.values()) == pytest.approx(
        executor_total, rel=1e-9, abs=1e-6)
    per_segment = sum(c for phases in profiler.segment_cycles.values()
                      for c in phases.values())
    assert per_segment == pytest.approx(executor_total, rel=1e-9, abs=1e-6)


class TestRaftMode:
    def test_raft_never_runs_parallaft_phases(self):
        config = get_mode("raft").make_config()
        runtime = Parallaft(compile_source(PRINT_LOOP), config=config,
                            platform=apple_m2())
        stats = runtime.run()
        assert stats.exit_code == 0
        profile = stats.phase_profile
        assert profile.cycles.get(REPLAY, 0.0) > 0     # duplicate runs
        assert profile.cycles.get(COMPARISON, 0.0) == 0.0
        assert profile.stall_seconds.get(CONTAINMENT_STALL, 0.0) == 0.0
        text = render_phase_breakdown({"bench": profile})
        row = text.splitlines()[-1]
        assert "—" in row  # never-executed phases render as em-dash


class TestStallTaxonomy:
    def test_containment_stall_not_pressure(self):
        runtime, stats = run_workload(error_containment=True,
                                      max_live_segments=2)
        profile = stats.phase_profile
        assert profile.stall_seconds.get(CONTAINMENT_STALL, 0.0) > 0.0
        assert profile.stall_seconds.get(PRESSURE_STALL, 0.0) == 0.0
        assert check_runtime(runtime) == []

    def test_pressure_stall_not_containment(self):
        _, reference = run_workload(COW_WORKLOAD)
        budget = int(reference.peak_resident_bytes * 0.7)
        runtime, stats = run_workload(COW_WORKLOAD,
                                      mem_budget_bytes=budget)
        assert stats.pressure_stalls > 0
        profile = stats.phase_profile
        assert profile.stall_seconds.get(PRESSURE_STALL, 0.0) > 0.0
        assert profile.stall_seconds.get(CONTAINMENT_STALL, 0.0) == 0.0
        assert check_runtime(runtime) == []


class TestSpanHygiene:
    def test_exit_process_closes_open_span(self):
        """Kill paths route through ``Kernel.exit_process``; a process
        dying with an open stall span must not leak it (satellite #6)."""
        kernel = Kernel(page_size=PAGE, seed=1)
        now = [0.0]
        profiler = PhaseProfiler(clock=lambda: now[0])
        kernel.profiler = profiler
        proc = kernel.spawn(compile_source(PRINT_LOOP))
        profiler.open_span(proc.pid, CHECKER_STALL)
        now[0] = 2.5
        kernel.exit_process(proc, 137)
        assert profiler.open_spans == {}
        assert profiler.stall_seconds[CHECKER_STALL] == 2.5

    def test_reopen_closes_previous_span(self):
        now = [0.0]
        profiler = PhaseProfiler(clock=lambda: now[0])
        profiler.open_span(1, CAP_STALL)
        now[0] = 1.0
        profiler.open_span(1, CONTAINMENT_STALL)  # re-stall without wake
        now[0] = 4.0
        profiler.close_span(1)
        assert profiler.stall_seconds[CAP_STALL] == 1.0
        assert profiler.stall_seconds[CONTAINMENT_STALL] == 3.0

    def test_oom_killed_run_leaves_no_open_spans(self):
        runtime, stats = run_workload(COW_WORKLOAD,
                                      mem_budget_bytes=8 * PAGE)
        assert stats.oom_killed
        assert runtime.profiler.open_spans == {}
        assert check_runtime(runtime) == []

    def test_checker_shed_run_leaves_no_open_spans(self):
        _, reference = run_workload(COW_WORKLOAD)
        runtime, stats = run_workload(
            COW_WORKLOAD,
            mem_budget_bytes=int(reference.peak_resident_bytes * 0.55))
        assert stats.exit_code == 0 or stats.oom_killed
        assert runtime.profiler.open_spans == {}
