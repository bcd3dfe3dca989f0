"""Unit tests: R/R log, syscall model, config, stats."""

import pytest

from repro import abi
from repro.core import (
    NondetRecord,
    ParallaftConfig,
    RrLog,
    SignalRecord,
    SyscallRecord,
)
from repro.core import syscall_model
from repro.core.runtime import CHECKER_TIMEOUT_SCALE
from repro.core.stats import DetectedError, RunStats
from repro.common.errors import RuntimeConfigError
from repro.modes import get_mode


class TestRrLog:
    def test_append_and_cursor(self):
        log = RrLog()
        a = SyscallRecord(abi.SYS_GETPID, (0,) * 5, "noneffectful")
        b = NondetRecord(0x1000, 60, 42)
        log.append(a)
        log.append(b)
        cursor = log.cursor()
        assert cursor.peek() is a
        assert cursor.next() is a
        assert cursor.next() is b
        assert cursor.next() is None
        assert cursor.exhausted

    def test_multiple_cursors_independent(self):
        log = RrLog()
        log.append(SignalRecord(10, external=False))
        first, second = log.cursor(), log.cursor()
        assert first.next() is not None
        assert second.position == 0

    def test_cursor_sees_later_appends(self):
        """RAFT-style concurrency: records appended after the cursor
        catches up become visible."""
        log = RrLog()
        cursor = log.cursor()
        assert cursor.peek() is None
        log.append(SignalRecord(2, external=True))
        assert cursor.peek() is not None

    def test_record_reprs(self):
        assert "SyscallRecord" in repr(
            SyscallRecord(1, (1, 2, 3, 4, 5), "global"))
        assert "external" in repr(SignalRecord(2, external=True))
        assert "NondetRecord" in repr(NondetRecord(0x40, 61, 9))


class TestSyscallModel:
    def test_classification(self):
        assert syscall_model.classify(abi.SYS_WRITE) == syscall_model.GLOBAL
        assert syscall_model.classify(abi.SYS_READ) == syscall_model.GLOBAL
        assert syscall_model.classify(abi.SYS_KILL) == syscall_model.GLOBAL
        assert syscall_model.classify(abi.SYS_MMAP) == syscall_model.LOCAL
        assert syscall_model.classify(abi.SYS_BRK) == syscall_model.LOCAL
        assert syscall_model.classify(abi.SYS_GETPID) == \
            syscall_model.NONEFFECTFUL
        assert syscall_model.classify(abi.SYS_GETTIMEOFDAY) == \
            syscall_model.NONEFFECTFUL
        # Unknown syscalls fail deterministically: non-effectful.
        assert syscall_model.classify(9999) == syscall_model.NONEFFECTFUL

    def test_write_input_region(self):
        region = syscall_model.input_region(
            abi.SYS_WRITE, (1, 0x2000, 128, 0, 0))
        assert region == (0x2000, 128)

    def test_read_output_region_uses_result(self):
        region = syscall_model.output_region(
            abi.SYS_READ, (3, 0x3000, 4096, 0, 0), result=100)
        assert region == (0x3000, 100)
        assert syscall_model.output_region(
            abi.SYS_READ, (3, 0x3000, 4096, 0, 0), result=-9) is None

    def test_getrandom_output_region(self):
        region = syscall_model.output_region(
            abi.SYS_GETRANDOM, (0x4000, 64, 0, 0, 0), result=64)
        assert region == (0x4000, 64)

    def test_getpid_has_no_regions(self):
        assert syscall_model.input_region(abi.SYS_GETPID, (0,) * 5) is None
        assert syscall_model.output_region(abi.SYS_GETPID, (0,) * 5, 7) is None

    def test_file_backed_mmap_detection(self):
        anon = (0, 4096, 3, abi.MAP_PRIVATE | abi.MAP_ANONYMOUS, -1)
        filed = (0, 4096, 3, abi.MAP_PRIVATE, 3)
        assert not syscall_model.is_file_backed_mmap(abi.SYS_MMAP, anon)
        assert syscall_model.is_file_backed_mmap(abi.SYS_MMAP, filed)
        assert not syscall_model.is_file_backed_mmap(abi.SYS_WRITE, filed)

    def test_shared_mmap_detection(self):
        shared = (0, 4096, 3, abi.MAP_SHARED, -1)
        assert syscall_model.is_shared_mmap(abi.SYS_MMAP, shared)

    def test_aslr_fixup_detection(self):
        floating = (0, 4096, 3, abi.MAP_PRIVATE | abi.MAP_ANONYMOUS, -1)
        fixed = (0x5000, 4096, 3,
                 abi.MAP_PRIVATE | abi.MAP_ANONYMOUS | abi.MAP_FIXED, -1)
        hinted = (0x5000, 4096, 3, abi.MAP_PRIVATE | abi.MAP_ANONYMOUS, -1)
        assert syscall_model.needs_aslr_fixup(abi.SYS_MMAP, floating)
        assert not syscall_model.needs_aslr_fixup(abi.SYS_MMAP, fixed)
        assert not syscall_model.needs_aslr_fixup(abi.SYS_MMAP, hinted)


class TestConfig:
    def test_defaults_match_paper(self):
        config = ParallaftConfig()
        config.validate()
        assert config.slicing_period == 5_000_000_000   # §4.1
        assert CHECKER_TIMEOUT_SCALE == 1.1             # §4.2.2
        assert config.checker_cluster == "little"
        assert config.compare_state

    def test_raft_preset(self):
        config = get_mode("raft").make_config()
        config.validate()
        assert config.mode == "raft"
        assert config.slicing_period == float("inf")
        assert not config.compare_state
        assert config.checker_cluster == "big"
        assert not config.enable_dvfs_pacer

    @pytest.mark.parametrize("attr,value", [
        ("slicing_period", 0),
        ("slicing_period", -1),
        ("skid_buffer_branches", -1),
        ("checker_cluster", "medium"),
        ("max_live_segments", 0),
        ("slicing_unit", "bogomips"),
    ])
    def test_invalid_configs_rejected(self, attr, value):
        config = ParallaftConfig()
        setattr(config, attr, value)
        with pytest.raises(RuntimeConfigError):
            config.validate()


class TestStats:
    def test_to_dict_keys_match_artifact(self):
        stats = RunStats()
        dump = stats.to_dict()
        for key in ("timing.all_wall_time", "timing.main_wall_time",
                    "counter.checkpoint_count",
                    "fixed_interval_slicer.nr_slices", "hwmon.total_energy"):
            assert key in dump

    def test_to_dict_round_trips_every_counter(self):
        """Regression: to_dict() silently dropped several counters
        (checker_retries, mmap_splits, bytes_recorded, signals_recorded,
        nondet_recorded, checkers_finished_on_big), making them invisible
        in harness reports and campaign artifacts.  Set every scalar
        field to a distinct value and require each to surface in the
        dump."""
        import dataclasses
        stats = RunStats()
        skip = {"pss_samples", "pacer_freq_history", "errors",
                "stdout", "stderr", "exit_code"}
        expected = {}
        value = 1.0
        for f in dataclasses.fields(RunStats):
            if f.name in skip:
                continue
            value += 1.0
            setattr(stats, f.name, value)
            expected[f.name] = value
        dumped = {v for v in stats.to_dict().values()
                  if isinstance(v, (int, float))}
        missing = [name for name, v in expected.items() if v not in dumped]
        assert missing == [], f"fields dropped by to_dict(): {missing}"

    def test_to_dict_includes_previously_dropped_counters(self):
        dump = RunStats().to_dict()
        for key in ("counter.checker_retries", "counter.mmap_splits",
                    "counter.bytes_recorded", "counter.signals_recorded",
                    "counter.nondet_recorded",
                    "counter.checkers_finished_on_big",
                    "timing.checker_user_time", "timing.checker_sys_time",
                    "work.big_core_work_fraction"):
            assert key in dump

    def test_error_detected_property(self):
        stats = RunStats()
        assert not stats.error_detected
        stats.errors.append(DetectedError("state_mismatch", 3))
        assert stats.error_detected
        assert "state_mismatch" in stats.to_dict()["errors"][0]

    def test_big_core_work_fraction(self):
        stats = RunStats()
        assert stats.big_core_work_fraction == 0.0
        stats.checker_cycles_little = 75.0
        stats.checker_cycles_big = 25.0
        assert stats.big_core_work_fraction == pytest.approx(0.25)
