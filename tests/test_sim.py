"""Tests for the platform/timing/energy simulation layer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.kernel import Kernel
from repro.minic import compile_source
from repro.sim import (
    Executor,
    apple_m2,
    intel_14700,
    make_cores,
    platform_by_name,
)

from helpers import make_machine


class TestPlatformConfig:
    def test_presets_by_name(self):
        assert platform_by_name("apple_m2").name == "apple_m2"
        assert platform_by_name("intel_14700").arch == "x86_64"
        with pytest.raises(ValueError):
            platform_by_name("riscv")

    def test_apple_m2_matches_table3(self):
        platform = apple_m2()
        assert platform.n_big == 4 and platform.n_little == 4
        assert platform.page_size == 16384
        assert platform.arch == "aarch64"
        assert platform.big_freq_hz == pytest.approx(3.5e9)
        assert platform.separate_voltage_domain

    def test_intel_differences(self):
        intel = intel_14700()
        assert intel.page_size == 4096
        assert not intel.separate_voltage_domain
        assert intel.branch_counter_includes_far
        assert intel.slicing_unit == "instructions"

    def test_miss_factor_monotone_in_footprint(self):
        platform = apple_m2()
        values = [platform.miss_factor("little", kb << 10)
                  for kb in (16, 64, 128, 192, 256, 512)]
        assert values == sorted(values)
        assert values[0] == 0.0
        assert values[-1] == 1.0

    def test_cache_sharing_raises_misses(self):
        platform = apple_m2()
        footprint = 200 << 10
        alone = platform.miss_factor("big", footprint, n_active=1)
        shared = platform.miss_factor("big", footprint, n_active=2)
        assert shared > alone

    def test_cpi_grows_with_memory_intensity(self):
        platform = apple_m2()
        fp = 400 << 10
        assert platform.cpi("little", 0.3, fp) > platform.cpi("little", 0.0, fp)
        assert platform.cpi("little", 0.3, fp) > platform.cpi("big", 0.3, fp)

    def test_little_slowdown_range(self):
        platform = apple_m2()
        compute = platform.little_slowdown(0.05, 48 << 10)
        memory = platform.little_slowdown(0.25, 400 << 10)
        assert 1.3 < compute < 2.5       # paper: sjeng ~2x
        assert 3.0 < memory < 9.0        # paper: mcf >4x, up to 8x

    def test_dvfs_power_scaling(self):
        platform = apple_m2()
        full = platform.core_dyn_power_w("little", platform.little_freq_max_hz)
        half = platform.core_dyn_power_w("little",
                                         platform.little_freq_max_hz / 2)
        assert half == pytest.approx(full / 8)   # separate rail: f^3
        intel = intel_14700()
        ifull = intel.core_dyn_power_w("little", intel.little_freq_max_hz)
        ihalf = intel.core_dyn_power_w("little",
                                       intel.little_freq_max_hz / 2)
        assert ihalf == pytest.approx(ifull / 2)  # shared rail: f^1

    @given(st.floats(min_value=0.0, max_value=0.5),
           st.integers(min_value=0, max_value=1 << 21),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_cpi_always_at_least_base(self, ratio, footprint, n_active):
        platform = apple_m2()
        assert platform.cpi("big", ratio, footprint, n_active) >= \
            platform.big_cpi_base
        assert platform.cpi("little", ratio, footprint, n_active) >= \
            platform.little_cpi_base


class TestCores:
    def test_make_cores_layout(self):
        cores = make_cores(4, 4, 3.5e9, 2.42e9, 0.6e9)
        assert sum(1 for c in cores if c.is_big) == 4
        assert cores[0].is_big and not cores[7].is_big
        assert cores[4].freq_hz == pytest.approx(2.42e9)

    def test_set_frequency_clamped(self):
        cores = make_cores(1, 1, 3.5e9, 2.42e9, 0.6e9)
        little = cores[1]
        little.set_frequency(10e9)
        assert little.freq_hz == pytest.approx(2.42e9)
        little.set_frequency(0.1e9)
        assert little.freq_hz == pytest.approx(0.6e9)

    def test_bad_cluster_rejected(self):
        from repro.sim.cores import Core
        with pytest.raises(ValueError):
            Core(0, "medium", 1e9, 1e9, 1e9)


class TestExecutor:
    def test_page_size_mismatch_rejected(self):
        kernel = Kernel(page_size=4096)
        with pytest.raises(SimulationError):
            Executor(kernel, apple_m2())

    @pytest.mark.parametrize("quantum", [0, -5])
    def test_non_positive_quantum_rejected(self, quantum):
        """Regression: a quantum below one instruction never advanced
        virtual time, so the step loop hung."""
        platform = apple_m2()
        with pytest.raises(ValueError, match="quantum"):
            Executor(Kernel(page_size=platform.page_size), platform,
                     quantum=quantum)

    @pytest.mark.parametrize("interval", [0, -0.5])
    def test_non_positive_sampler_interval_rejected(self, interval):
        """Regression: firing samplers stepped ``next_time`` by the
        interval until it passed the wall clock, forever for a
        non-positive step."""
        _, executor = make_machine()
        with pytest.raises(ValueError, match="interval"):
            executor.add_sampler(interval, lambda when: None)
        assert executor.samplers == []

    def test_free_core_prefers_least_busy(self):
        kernel, executor = make_machine()
        a = executor.free_core("big")
        a.local_time = 5.0
        b = executor.free_core("big")
        assert b is not a

    def test_charge_advances_core_time_and_energy(self):
        kernel, executor = make_machine()
        proc = kernel.spawn(compile_source("func main() {}"))
        core = executor.schedule_default(proc)
        before = core.energy_joules
        seconds = executor.charge(proc, 3.5e9)  # one second of big cycles
        assert seconds == pytest.approx(1.0)
        assert core.local_time >= 1.0
        assert core.energy_joules > before
        assert proc.sys_time == pytest.approx(1.0)

    def test_charge_without_core_raises(self):
        """Charging a core-less process used to silently bill big-core
        frequency with no energy or core-time accounting; it is now a
        programming error."""
        kernel, executor = make_machine()
        proc = kernel.spawn(compile_source("func main() {}"))
        assert proc.core is None
        with pytest.raises(SimulationError, match="charge_deferred"):
            executor.charge(proc, 1e6)
        assert proc.sys_time == 0.0

    def test_charge_deferred_parks_until_placement(self):
        kernel, executor = make_machine()
        proc = kernel.spawn(compile_source("func main() {}"))
        executor.charge_deferred(proc, 3.5e9)
        assert proc.pending_charges
        assert proc.sys_time == 0.0
        core = executor.schedule_default(proc)
        # Placement flushes the parked cycles at the real core frequency,
        # with energy and core-time accounted.
        assert proc.pending_charges == []
        assert proc.sys_time == pytest.approx(3.5e9 / core.freq_hz)
        assert core.energy_joules > 0.0

    def test_charge_deferred_immediate_when_placed(self):
        kernel, executor = make_machine()
        proc = kernel.spawn(compile_source("func main() {}"))
        executor.schedule_default(proc)
        executor.charge_deferred(proc, 3.5e9)
        assert proc.pending_charges == []
        assert proc.sys_time == pytest.approx(1.0)

    def test_total_energy_includes_idle_and_dram(self):
        kernel, executor = make_machine()
        proc = kernel.spawn(compile_source(
            "func main() { var i; for (i = 0; i < 30000; i = i + 1) {} }"))
        executor.schedule_default(proc)
        executor.run()
        wall = executor.wall_time()
        total = executor.total_energy_joules()
        busy_only = sum(c.energy_joules for c in executor.cores)
        assert total > busy_only  # DRAM background + idle statics
        assert total > apple_m2().dram_background_w * wall

    def test_run_guard_against_livelock(self):
        kernel, executor = make_machine()
        proc = kernel.spawn(compile_source("""
        func main() { var i; while (1) { i = i + 1; } }
        """))
        executor.schedule_default(proc)
        with pytest.raises(SimulationError):
            executor.run(max_steps=50)

    def test_shutdown_stops_stepping(self):
        kernel, executor = make_machine()
        proc = kernel.spawn(compile_source(
            "func main() { var i; for (i = 0; i < 99999; i = i + 1) {} }"))
        executor.schedule_default(proc)
        executor.step()
        executor.shutdown()
        assert executor.step() is False


class TestScheduling:
    """``step`` runs the runnable, placed process that can start
    earliest: ``max(core.local_time, ready_time)``."""

    SOURCE = "func main() { var i; for (i = 0; i < 500; i = i + 1) {} }"

    def three_on_cores(self):
        """Three processes placed against creation order: the first
        created sits on the last core."""
        kernel, executor = make_machine()
        program = compile_source(self.SOURCE)
        procs = [kernel.spawn(program) for _ in range(3)]
        for proc, core in zip(reversed(procs), executor.big_cores):
            executor.assign(proc, core)
        return executor, procs

    def test_a_tie_goes_to_the_first_unreaped_process(self):
        executor, procs = self.three_on_cores()
        executor.step()
        assert executor.current_proc is procs[0]

    def test_the_most_behind_process_runs(self):
        executor, procs = self.three_on_cores()
        procs[0].core.local_time = 2.0
        procs[1].ready_time = 3.0
        procs[2].core.local_time = 1.0
        executor.step()
        assert executor.current_proc is procs[2]
        assert executor.current_time > 1.0

    def test_parked_and_unplaced_processes_wait(self):
        from repro.kernel.process import ProcessState
        executor, procs = self.three_on_cores()
        procs[0].state = ProcessState.PAUSED
        executor.unassign(procs[1])
        executor.step()
        assert executor.current_proc is procs[2]


def reference_contention(executor, proc):
    """The per-step contention helpers the single core scan replaced,
    copied verbatim apart from the intensity's attribute name."""
    pressure = 0.0
    for core in executor.cores:
        other = core.occupant
        if other is None or other is proc or not other.runnable:
            continue
        intensity = getattr(other, "dram_intensity", 0.0)
        pressure += intensity * (core.freq_hz / executor.platform.big_freq_hz)
    cluster = proc.core.cluster
    count = 0
    for core in executor.cores:
        other = core.occupant
        if (core.cluster == cluster and other is not None
                and other.runnable):
            count += 1
    return max(1, count), pressure


def test_contention_scan_matches_the_helpers_it_replaced():
    """On random occupancy, states, DVFS points and DRAM intensities,
    one pass over the cores gives the cluster's running count and the
    DRAM pressure bit for bit."""
    import random
    from repro.kernel.process import ProcessState
    kernel, executor = make_machine()
    program = compile_source("func main() {}")
    procs = [kernel.spawn(program) for _ in range(len(executor.cores))]
    states = [ProcessState.RUNNING] * 3 + [
        ProcessState.PAUSED, ProcessState.WAITING, ProcessState.ZOMBIE]
    rng = random.Random(11)
    for _ in range(300):
        for core in executor.cores:
            if core.occupant is not None:
                core.occupant.core = None
                core.occupant = None
            if not core.is_big:
                core.set_frequency(rng.uniform(0.5e9, 2.5e9))
        for proc in procs:
            proc.state = rng.choice(states)
            proc.dram_intensity = rng.choice(
                [0.0, rng.random(), rng.random() * 1e-3])
            core = rng.choice(executor.cores + [None] * 4)
            if core is not None and core.occupant is None:
                core.occupant = proc
                proc.core = core
        for proc in procs:
            if proc.core is not None:
                assert executor._contention(proc, proc.core.cluster) \
                    == reference_contention(executor, proc)


class TestContention:
    def test_corunner_slows_memory_bound_process(self):
        """Two memory-bound processes on the big cluster run slower than
        one alone (the RAFT contention mechanism)."""
        from repro.workloads import synthetic_source
        source = synthetic_source(total_iters=6000, footprint_bytes=393216,
                                  mem_ops_per_iter=4)

        def wall_time(pair):
            kernel, executor = make_machine()
            a = kernel.spawn(compile_source(source))
            executor.assign(a, executor.big_cores[0])
            if pair:
                b = kernel.spawn(compile_source(source))
                executor.assign(b, executor.big_cores[1])
            executor.run()
            return a.user_time

        assert wall_time(True) > 1.05 * wall_time(False)

    def test_compute_bound_processes_barely_interfere(self):
        source = """
        func main() { var i; var x; for (i = 0; i < 30000; i = i + 1) { x = x * 3 + i; } }
        """

        def user_time(pair):
            kernel, executor = make_machine()
            a = kernel.spawn(compile_source(source))
            executor.assign(a, executor.big_cores[0])
            if pair:
                b = kernel.spawn(compile_source(source))
                executor.assign(b, executor.big_cores[1])
            executor.run()
            return a.user_time

        assert user_time(True) < 1.1 * user_time(False)
