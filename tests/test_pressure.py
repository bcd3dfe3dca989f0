"""Finite-RAM kernel and memory-pressure degradation tests.

Three layers, mirroring the subsystem:

* :class:`FramePool` unit tests — exact COW-aware accounting, budget
  enforcement, the reclaim hook, and the ``decref`` regression (negative
  refcounts must raise; bytes must be reclaimed at refcount zero).
* A hypothesis property over random allocate/clone/incref/decref churn:
  ``resident_bytes`` always equals live frames × page size, the peak is a
  true high-water mark, and no refcount ever goes negative.
* End-to-end runs: an unprotected overrunner is OOM-killed (a distinct
  exit class, exit 137, preceded in the trace by ``pressure_exhausted``);
  a protected run under a finite budget degrades through the ladder yet
  commits byte-identical output; rollback onto an evicted checkpoint is
  refused with the typed ``checkpoint_evicted`` error; and the offline
  invariant checker enforces ladder order, OOM provenance and the
  evicted-rollback ban on hand-built traces.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import abi
from repro.common.errors import FramePoolExhausted
from repro.core import Parallaft, ParallaftConfig
from repro.faults import Outcome, classify_run
from repro.mem.frames import FramePool, budget_from_env
from repro.minic import compile_source
from repro.modes import get_mode
from repro.sim import apple_m2
from repro.trace import InvariantChecker, TraceBuffer, check_runtime
from repro.trace import events as tev
from repro.trace.events import TraceEvent

from .helpers import make_machine

PAGE = 16384


# ---------------------------------------------------------------------------
# FramePool units
# ---------------------------------------------------------------------------


class TestFramePool:
    def test_budget_enforced(self):
        pool = FramePool(PAGE, budget_bytes=2 * PAGE)
        pool.allocate()
        pool.allocate()
        with pytest.raises(FramePoolExhausted):
            pool.allocate()
        assert pool.resident_bytes == 2 * PAGE

    def test_clone_counts_against_budget(self):
        pool = FramePool(PAGE, budget_bytes=2 * PAGE)
        frame = pool.allocate(b"x" * 8)
        pool.incref(frame)            # COW share: no new residency
        assert pool.resident_bytes == PAGE
        copy = pool.clone(frame)      # COW break: a second resident frame
        assert pool.resident_bytes == 2 * PAGE
        assert copy.data == frame.data
        with pytest.raises(FramePoolExhausted):
            pool.clone(frame)

    def test_decref_reclaims_bytes(self):
        """Regression: freeing at refcount zero must return the bytes to
        the budget, or a long run leaks its budget away."""
        pool = FramePool(PAGE, budget_bytes=PAGE)
        frame = pool.allocate()
        with pytest.raises(FramePoolExhausted):
            pool.allocate()
        pool.decref(frame)
        assert pool.resident_bytes == 0
        pool.allocate()               # fits again
        assert pool.frames_freed == 1

    def test_decref_dead_frame_raises(self):
        """Regression: a double-free must fail loudly, not drive the
        refcount negative and corrupt the residency accounting."""
        pool = FramePool(PAGE)
        frame = pool.allocate()
        pool.decref(frame)
        with pytest.raises(ValueError):
            pool.decref(frame)
        assert pool.resident_bytes == 0

    def test_reclaim_hook_makes_room(self):
        pool = FramePool(PAGE, budget_bytes=2 * PAGE)
        victims = [pool.allocate(), pool.allocate()]
        calls = []

        def reclaim(needed):
            calls.append(needed)
            pool.decref(victims.pop())

        pool.reclaim_hook = reclaim
        pool.allocate()               # succeeds via the hook
        assert calls == [PAGE]
        assert pool.resident_bytes == 2 * PAGE

    def test_reclaim_hook_insufficient_still_raises(self):
        pool = FramePool(PAGE, budget_bytes=PAGE)
        pool.allocate()
        pool.reclaim_hook = lambda needed: None
        with pytest.raises(FramePoolExhausted):
            pool.allocate()

    def test_peak_is_high_water(self):
        pool = FramePool(PAGE)
        frames = [pool.allocate() for _ in range(3)]
        for frame in frames:
            pool.decref(frame)
        assert pool.resident_bytes == 0
        assert pool.peak_resident_bytes == 3 * PAGE

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            FramePool(PAGE, budget_bytes=0)
        pool = FramePool(PAGE)
        with pytest.raises(ValueError):
            pool.set_budget(-1)
        pool.set_budget(PAGE)
        assert pool.budget_bytes == PAGE
        pool.set_budget(None)
        assert pool.budget_bytes is None

    def test_budget_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MEM_BUDGET", raising=False)
        assert budget_from_env() is None
        monkeypatch.setenv("REPRO_MEM_BUDGET", "1048576")
        assert budget_from_env() == 1048576


# ---------------------------------------------------------------------------
# Property: COW churn never breaks the accounting
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("acid"), st.integers(0, 31)),
                max_size=80))
def test_property_cow_churn(ops):
    """Random allocate/clone/incref/decref interleavings: residency is
    exactly live-frames × page-size at every step, the peak only grows,
    and refcounts stay positive."""
    pool = FramePool(PAGE)
    live = []                         # frames with at least one reference
    refs = {}                         # frame_id -> model refcount
    for op, pick in ops:
        if op == "a":
            frame = pool.allocate()
            live.append(frame)
            refs[frame.frame_id] = 1
        elif live:
            frame = live[pick % len(live)]
            if op == "c":
                copy = pool.clone(frame)
                live.append(copy)
                refs[copy.frame_id] = 1
            elif op == "i":
                pool.incref(frame)
                refs[frame.frame_id] += 1
            else:
                pool.decref(frame)
                refs[frame.frame_id] -= 1
                if refs[frame.frame_id] == 0:
                    del refs[frame.frame_id]
                    live.remove(frame)
        assert pool.resident_bytes == len(pool) * PAGE
        assert pool.resident_bytes == len(refs) * PAGE
        assert pool.peak_resident_bytes >= pool.resident_bytes
        assert all(f.refcount == n for f, n in
                   ((pool.live_frame(i), n) for i, n in refs.items()))


# ---------------------------------------------------------------------------
# End-to-end: unprotected overrunner is OOM-killed
# ---------------------------------------------------------------------------

HOG = """
func main() {
    var p; var i; var j;
    for (i = 0; i < 64; i = i + 1) {
        p = sbrk(16384);
        for (j = 0; j < 16384; j = j + 8) { poke64(p + j, i + j); }
    }
    print_int(1);
}
"""


def test_unprotected_oom_kill():
    kernel, executor = make_machine(seed=3)
    kernel.pool.set_budget(20 * PAGE)
    kernel.trace = TraceBuffer()
    proc = kernel.spawn(compile_source(HOG))
    executor.schedule_default(proc)
    executor.run()
    assert proc.oom_killed
    assert proc.exit_code == 128 + abi.SIGKILL
    assert kernel.stats["oom_kills"] == 1
    kinds = [e.kind for e in kernel.trace]
    assert tev.OOM in kinds
    # provenance: the exhaustion record precedes the kill
    assert kinds.index(tev.PRESSURE_EXHAUSTED) < kinds.index(tev.OOM)
    InvariantChecker().assert_ok(kernel.trace)


def test_unprotected_within_budget_untouched():
    kernel, executor = make_machine(seed=3)
    kernel.pool.set_budget(200 * PAGE)
    proc = kernel.spawn(compile_source(HOG))
    executor.schedule_default(proc)
    executor.run()
    assert proc.exit_code == 0
    assert not proc.oom_killed
    assert kernel.console.text() == "1\n"


# ---------------------------------------------------------------------------
# End-to-end: protected runs under pressure
# ---------------------------------------------------------------------------

WORKLOAD = """
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


def run_workload(budget=None, **overrides):
    config = ParallaftConfig(mem_budget_bytes=budget)
    config.slicing_period = 150_000_000
    for key, value in overrides.items():
        setattr(config, key, value)
    runtime = Parallaft(compile_source(WORKLOAD), config=config,
                        platform=apple_m2())
    return runtime, runtime.run()


def test_pressure_stall_preserves_output():
    _, reference = run_workload(budget=None)
    assert reference.exit_code == 0 and not reference.error_detected
    runtime, stats = run_workload(
        budget=int(reference.peak_resident_bytes * 0.7))
    assert stats.exit_code == 0
    assert not stats.error_detected
    assert not stats.oom_killed
    assert stats.stdout == reference.stdout
    assert stats.pressure_stalls > 0
    assert stats.peak_resident_bytes <= reference.peak_resident_bytes * 0.7
    assert check_runtime(runtime) == []
    exported = stats.to_dict()
    assert exported["counter.pressure.stalls"] == stats.pressure_stalls
    assert (exported["memory.peak_resident_bytes"]
            == stats.peak_resident_bytes)


def test_protected_oom_is_distinct_exit_class():
    runtime, stats = run_workload(budget=8 * PAGE)
    assert stats.oom_killed
    assert stats.errors == []
    assert stats.exit_code == 128 + abi.SIGKILL
    assert classify_run(stats, reference_stdout="") is Outcome.OOM
    assert not Outcome.OOM.is_detected
    kinds = [e.kind for e in runtime.trace]
    assert kinds.index(tev.PRESSURE_EXHAUSTED) < kinds.index(tev.OOM)
    assert check_runtime(runtime) == []


def test_tmr_shed_respawns_replica_pairs():
    """TMR under a finite budget: the ladder sheds two-replica segments
    and re-forks both replicas from the retained checkpoint, every vote
    still has three voters, and exhaustion ends the run as a clean OOM
    whose committed output is a prefix of the unprotected run's."""
    kernel, executor = make_machine()
    proc = kernel.spawn(compile_source(WORKLOAD))
    executor.schedule_default(proc)
    executor.run()
    unprotected = kernel.console.text()
    config = get_mode("tmr").make_config(slicing_period=600_000_000,
                                         mem_budget_bytes=14 * PAGE)
    runtime = Parallaft(compile_source(WORKLOAD), config=config,
                        platform=apple_m2())
    stats = runtime.run()
    assert stats.oom_killed and stats.exit_code == 128 + abi.SIGKILL
    assert stats.errors == []
    assert check_runtime(runtime) == []
    assert unprotected.startswith(stats.stdout)
    assert stats.pressure_sheds > 0 and stats.pressure_evictions > 0
    forks = [e.payload["name"] for e in runtime.trace.events(tev.PROCESS_FORK)]
    respawns = [n for n in forks if re.fullmatch(r"checker-\d+-shed\d+", n)]
    assert respawns
    assert all(f"{name}r1" in forks for name in respawns)
    votes = runtime.trace.events(tev.VOTE)
    assert votes and all(e.payload["quorum"] == 3 for e in votes)


def test_rollback_to_evicted_checkpoint_refused():
    """A main-implicating check failure whose segment lost its recovery
    checkpoint to stage-3 eviction must fail stop with the typed
    ``checkpoint_evicted`` error — never roll back onto freed state."""
    config = ParallaftConfig(mem_budget_bytes=None)
    config.slicing_period = 150_000_000
    config.enable_recovery = True
    runtime = Parallaft(compile_source(WORKLOAD), config=config,
                        platform=apple_m2())
    corrupted = [False]

    def corrupt(proc, role):
        if role == "checker" and not corrupted[0] and proc.user_time > 0.001:
            proc.cpu.regs.flip_bit("gpr", 9, 21)
            corrupted[0] = True

    def evict(segment):
        # Simulate the stage-3 eviction having hit this segment before
        # the comparison runs (eviction reaps the checkpoint and nulls
        # the reference; only the flag remains).
        if corrupted[0] and segment.recovery_checkpoint is not None:
            runtime.kernel.reap(segment.recovery_checkpoint)
            segment.recovery_checkpoint = None
            segment.checkpoint_evicted = True

    runtime.quantum_hooks.append(corrupt)
    runtime.compare_hooks.append(evict)
    stats = runtime.run()
    assert stats.error_detected
    assert any(e.kind == "checkpoint_evicted" for e in stats.errors)
    assert stats.recovery_rollbacks == 0
    assert not any(e.kind == tev.ROLLBACK for e in runtime.trace)
    assert classify_run(stats, reference_stdout="") is Outcome.DETECTED


# ---------------------------------------------------------------------------
# Invariant checker units (hand-built traces)
# ---------------------------------------------------------------------------


def _ev(kind, **kw):
    segment = kw.pop("segment", None)
    pid = kw.pop("pid", None)
    return TraceEvent(ts=0.0, kind=kind, pid=pid, segment=segment,
                      payload=kw)


class TestPressureInvariants:
    def test_ladder_order_violation(self):
        violations = InvariantChecker().check(
            [_ev(tev.EVICT, segment=2, stage=3)])
        assert [v.invariant for v in violations] == ["pressure_ladder"]

    def test_ladder_in_order_ok(self):
        trace = [
            _ev(tev.PRESSURE_STALL, pid=1, stage=1),
            _ev(tev.PRESSURE_SHED, pid=2, segment=1, stage=2),
            _ev(tev.EVICT, segment=0, stage=3),
            _ev(tev.PRESSURE_ADAPT, stage=4),
        ]
        assert InvariantChecker().check(trace) == []

    def test_dry_rung_marker_satisfies_order(self):
        """A dry rung emits its stage event with ``skipped=True``; the
        ladder invariant accepts it as the stage having been reached."""
        trace = [
            _ev(tev.PRESSURE_STALL, pid=1, stage=1),
            _ev(tev.PRESSURE_SHED, stage=2, skipped=True),
            _ev(tev.EVICT, segment=0, stage=3),
        ]
        assert InvariantChecker().check(trace) == []

    def test_oom_provenance(self):
        bad = [_ev(tev.OOM, pid=7)]
        violations = InvariantChecker().check(bad)
        assert [v.invariant for v in violations] == ["oom_provenance"]
        good = [_ev(tev.PRESSURE_EXHAUSTED, pid=7, stage=3),
                _ev(tev.OOM, pid=7)]
        assert InvariantChecker().check(good) == []

    def test_evicted_rollback_refusal(self):
        bad = [
            _ev(tev.PRESSURE_STALL, pid=1, stage=1),
            _ev(tev.PRESSURE_SHED, stage=2, skipped=True),
            _ev(tev.EVICT, segment=5, stage=3),
            _ev(tev.ROLLBACK, segment=5),
        ]
        violations = InvariantChecker().check(bad)
        assert any(v.invariant == "evicted_rollback" for v in violations)
        ok = [
            _ev(tev.PRESSURE_STALL, pid=1, stage=1),
            _ev(tev.PRESSURE_SHED, stage=2, skipped=True),
            _ev(tev.EVICT, segment=5, stage=3),
            _ev(tev.ROLLBACK, segment=6),
        ]
        assert not any(v.invariant == "evicted_rollback"
                       for v in InvariantChecker().check(ok))
