"""End-to-end trace invariant suite over the workload matrix.

Each scenario runs a real workload under a distinct runtime configuration
(plain, containment, containment with a FAILED segment, containment with
retries and several live segments, recovery), then feeds the recorded
event trace to the offline :class:`InvariantChecker` and validates the
Chrome trace_event export.

The containment scenarios are the regression net for two wake bugs in the
containment stall path:

* ``failed_segment``: with ``stop_on_error=False`` a FAILED segment never
  retires, so the error path itself must wake a containment-stalled main
  (otherwise the leftover ``main_stall`` trips the stall-pairing
  invariant and the app deadlocks).
* ``many_live``: a retirement may not wake the main while *other* earlier
  segments are still live (a premature ``main_wake`` trips the
  containment invariant).
"""

import json

import pytest

from repro.core import Parallaft, ParallaftConfig
from repro.minic import compile_source
from repro.sim import apple_m2
from repro.trace import InvariantChecker, check_runtime
from repro.trace import events as tev

from helpers import corrupt_earlier_live_checker

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

WIDE_PRINT_LOOP = """
global acc;
func main() {
    var i; var j;
    for (i = 0; i < 5; i = i + 1) {
        for (j = 0; j < 20000; j = j + 1) { acc = acc + j; }
        print_int(acc % 1000003);
    }
}
"""


def corrupt_main_once(runtime):
    fired = [0]

    def hook(proc, role):
        if role == "main" and fired[0] == 0 and proc.user_time > 0.002:
            proc.cpu.regs.flip_bit("gpr", 8, 17)
            fired[0] += 1

    runtime.quantum_hooks.append(hook)
    return fired


def scenario_plain():
    runtime = Parallaft(compile_source(PRINT_LOOP),
                        config=ParallaftConfig(), platform=apple_m2())
    return runtime, {"errors": 0}


def scenario_containment():
    config = ParallaftConfig()
    config.slicing_period = 150_000_000
    config.error_containment = True
    runtime = Parallaft(compile_source(PRINT_LOOP), config=config,
                        platform=apple_m2())
    return runtime, {"errors": 0}


def scenario_failed_segment():
    """Containment + stop_on_error=False + a segment that FAILs while the
    main is stalled waiting for it (the deadlock regression)."""
    config = ParallaftConfig()
    config.slicing_period = 150_000_000
    config.error_containment = True
    config.stop_on_error = False
    config.max_live_segments = 2
    runtime = Parallaft(compile_source(PRINT_LOOP), config=config,
                        platform=apple_m2())
    corrupt_earlier_live_checker(runtime)
    return runtime, {"errors": 1}


def scenario_many_live():
    """Containment with several earlier live segments at each stall (the
    premature-wake regression: retiring one of them must not wake the
    main while the others are still live)."""
    config = ParallaftConfig()
    config.slicing_period = 80_000_000
    config.error_containment = True
    config.max_live_segments = 6
    runtime = Parallaft(compile_source(WIDE_PRINT_LOOP), config=config,
                        platform=apple_m2())
    return runtime, {"errors": 0, "min_waiting_on": 2}


def scenario_retry_containment():
    config = ParallaftConfig()
    config.slicing_period = 150_000_000
    config.error_containment = True
    config.retry_failed_checkers = True
    config.max_live_segments = 4
    runtime = Parallaft(compile_source(PRINT_LOOP), config=config,
                        platform=apple_m2())
    corrupt_earlier_live_checker(runtime)
    return runtime, {"errors": 0}


def scenario_recovery():
    config = ParallaftConfig()
    config.slicing_period = 400_000_000
    config.enable_recovery = True
    runtime = Parallaft(compile_source(PRINT_LOOP), config=config,
                        platform=apple_m2())
    corrupt_main_once(runtime)
    return runtime, {"errors": 0, "min_rollbacks": 1}


def corrupt_every_recovery_checkpoint(runtime):
    """Flip a bit in each retained recovery checkpoint shortly after its
    fork (after the fork-time digest was taken), so whichever segment an
    application fault later lands in, the checkpoint recovery would trust
    is rotten."""
    from repro.isa import DATA_BASE
    corrupted = set()

    def hook(proc, role):
        for segment in runtime.segments:
            checkpoint = segment.recovery_checkpoint
            if (segment.index in corrupted or checkpoint is None
                    or not checkpoint.alive):
                continue
            value = checkpoint.mem.load_byte(DATA_BASE)
            checkpoint.mem.store_byte(DATA_BASE, value ^ 1)
            corrupted.add(segment.index)

    runtime.quantum_hooks.append(hook)
    return corrupted


def scenario_integrity_failstop():
    """Recovery + checkpoint digests + rotten checkpoints + a main fault:
    every recovery path would trust corrupted saved state, so the runtime
    must fail-stop with a typed ``infra_integrity`` error — even though
    ``stop_on_error`` is off — and must never roll back (the integrity
    trace invariant)."""
    config = ParallaftConfig()
    config.slicing_period = 400_000_000
    config.enable_recovery = True
    config.checkpoint_digests = True
    config.stop_on_error = False
    runtime = Parallaft(compile_source(PRINT_LOOP), config=config,
                        platform=apple_m2())
    corrupt_every_recovery_checkpoint(runtime)
    corrupt_main_once(runtime)
    return runtime, {"errors": 1, "killed": True}


SCENARIOS = {
    "plain": scenario_plain,
    "containment": scenario_containment,
    "failed_segment": scenario_failed_segment,
    "many_live": scenario_many_live,
    "retry_containment": scenario_retry_containment,
    "recovery": scenario_recovery,
    "integrity_failstop": scenario_integrity_failstop,
}


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def finished_run(request):
    runtime, expect = SCENARIOS[request.param]()
    stats = runtime.run()
    return request.param, runtime, stats, expect


class TestWorkloadMatrixInvariants:
    def test_run_completes(self, finished_run):
        name, runtime, stats, expect = finished_run
        assert len(stats.errors) == expect["errors"], stats.errors
        if expect.get("killed"):
            # Integrity fail-stop: the app must NOT run to completion —
            # its saved state is untrusted, so the runtime tears it down
            # with a typed error instead of limping on (or "recovering").
            assert stats.exit_code != 0, f"{name}: app was not torn down"
            assert stats.errors[0].kind == "infra_integrity"
            assert stats.recovery_rollbacks == 0
            assert not list(runtime.trace.events(tev.ROLLBACK))
            assert list(runtime.trace.events(tev.INTEGRITY_FAIL))
            return
        assert stats.exit_code == 0, f"{name}: app did not finish"
        # The app's own output is never lost, even when a fault was
        # detected (containment) or repaired (recovery) along the way.
        assert len(stats.stdout.splitlines()) >= 5

    def test_invariants_hold(self, finished_run):
        name, runtime, stats, expect = finished_run
        violations = check_runtime(runtime)
        assert violations == [], (
            f"{name}: " + "; ".join(str(v) for v in violations))

    def test_chrome_export_valid(self, finished_run, tmp_path):
        name, runtime, stats, expect = finished_run
        path = tmp_path / f"{name}.json"
        runtime.trace.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert {"i", "X", "M"} <= {e["ph"] for e in events}
        assert all("ts" in e for e in events if e["ph"] != "M")
        checked = [e for e in events
                   if e["ph"] == "i" and e["name"] == tev.SEGMENT_CHECKED]
        assert len(checked) == stats.segments_checked

    def test_scenario_preconditions(self, finished_run):
        """The matrix only regresses the wake bugs if the scenarios really
        exercise the paths: recovery rolled back, the many-live stall had
        several earlier live segments, the failed-segment scenario stalled
        on the segment that failed."""
        name, runtime, stats, expect = finished_run
        if "min_rollbacks" in expect:
            assert stats.recovery_rollbacks >= expect["min_rollbacks"]
        if "min_waiting_on" in expect:
            stalls = [e for e in runtime.trace.events(tev.MAIN_STALL)
                      if e.payload.get("reason") == tev.STALL_CONTAINMENT]
            assert stalls, "scenario never stalled for containment"
            assert max(len(e.payload.get("waiting_on", []))
                       for e in stalls) >= expect["min_waiting_on"]
        if name == "failed_segment":
            assert stats.errors[0].kind == "syscall_divergence"

    def test_retire_emitted_once_per_segment(self, finished_run):
        """Regression: segment retirement used to re-enter via the checker
        exit hook, double-counting checker time and emitting duplicate
        retire events."""
        name, runtime, stats, expect = finished_run
        retires = [e.segment for e in
                   runtime.trace.events(tev.SEGMENT_RETIRE)]
        assert len(retires) == len(set(retires))
