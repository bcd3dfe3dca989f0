"""Unit tests for the metric registry, exporters and the RunStats view.

Covers the tentpole's registry semantics (typed metrics, label sets,
kind conflicts), the histogram quantile estimator at bucket boundaries,
exact exporter round-trips, and the two RunStats satellites: ``to_dict``
byte-compatibility with the pre-registry output and the source-scan
guarantee that every counter incremented anywhere in ``src/repro``
appears in the dict dump.
"""

import json
import math
import re
from dataclasses import fields as dataclass_fields
from pathlib import Path

import pytest

from repro.core.stats import STAT_SCHEMA, DetectedError, RunStats
from repro.metrics import (
    Dashboard,
    Histogram,
    MetricKindError,
    MetricRegistry,
    PhaseProfile,
    collapsed_stacks,
    json_snapshot,
    parse_collapsed,
    parse_prometheus_text,
    prometheus_text,
)

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestRegistry:
    def test_counter_increments(self):
        reg = MetricRegistry()
        c = reg.counter("a.b")
        c.inc()
        c.inc(2.5)
        assert reg.value("a.b") == 3.5

    def test_counter_rejects_negative_and_decrease(self):
        reg = MetricRegistry()
        c = reg.counter("a.b")
        c.inc(5)
        with pytest.raises(ValueError):
            c.inc(-1)
        with pytest.raises(ValueError):
            c.set(4)
        c.set(5)  # no-op set is fine
        assert c.value == 5

    def test_gauge_moves_both_ways(self):
        reg = MetricRegistry()
        g = reg.gauge("x")
        g.set(10)
        g.dec(4)
        g.inc(1)
        assert reg.value("x") == 7

    def test_labels_are_distinct_series(self):
        reg = MetricRegistry()
        reg.counter("hits", core="big").inc(3)
        reg.counter("hits", core="little").inc(1)
        # Label order must not matter for identity.
        reg.counter("hits", core="big").inc()
        assert reg.value("hits", core="big") == 4
        assert reg.value("hits", core="little") == 1
        assert reg.value("hits", core="absent") == 0.0

    def test_kind_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("m")
        with pytest.raises(MetricKindError):
            reg.gauge("m")
        with pytest.raises(MetricKindError):
            reg.histogram("m", bounds=(1.0,))

    def test_iteration_sorted(self):
        reg = MetricRegistry()
        reg.counter("b")
        reg.gauge("a")
        reg.counter("c", z="1")
        names = [m.name for m in reg]
        assert names == sorted(names)

    def test_sample_pull_gauges_and_series(self):
        reg = MetricRegistry()
        state = {"v": 1.0}
        g = reg.gauge("pulled")
        g.fn = lambda: state["v"]
        reg.sample(0.5)
        state["v"] = 2.0
        reg.sample(1.0)
        assert g.series == [(0.5, 1.0), (1.0, 2.0)]


class TestHistogramQuantiles:
    def bucketed(self):
        h = Histogram("h", (), bounds=(10.0, 20.0, 30.0))
        for v in (5, 10, 15, 20, 25, 30, 35, 40):
            h.observe(v)
        return h

    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("h", (), bounds=(2.0, 1.0))

    def test_empty_histogram(self):
        h = Histogram("h", (), bounds=(1.0,))
        assert h.quantile(0.5) == 0.0
        assert h.count == 0

    def test_quantile_at_bucket_boundaries(self):
        h = self.bucketed()
        # Buckets (upper bounds): 10 -> 2 obs, 20 -> 2, 30 -> 2, +inf -> 2.
        assert h.quantile(0.25) == 10.0   # exactly the first boundary
        assert h.quantile(0.5) == 20.0
        assert h.quantile(0.75) == 30.0
        assert h.quantile(0.251) == 20.0  # just past a boundary: next bucket

    def test_overflow_quantile_reports_max_observed(self):
        h = self.bucketed()
        assert h.quantile(1.0) == 40.0

    def test_mean_and_count(self):
        h = self.bucketed()
        assert h.count == 8
        assert h.mean == pytest.approx(sum((5, 10, 15, 20, 25, 30, 35, 40))
                                       / 8)


def populated_registry():
    reg = MetricRegistry()
    reg.counter("seg.checked").inc(13)
    reg.counter("work.cycles", core="big").inc(1.5e9 + 0.123)
    reg.gauge("pool.bytes").set(4096.75)
    h = reg.histogram("compare.pages", bounds=(1.0, 8.0, 64.0))
    for v in (0, 3, 9, 100):
        h.observe(v)
    return reg


class TestMergeAndSnapshot:
    """Shard-aggregation semantics: counters sum, gauges last-write-wins
    by virtual time, histograms add bucket-wise — plus the JSON snapshot
    round-trip campaign journals use to ship a shard's registry."""

    def test_counters_sum(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("seg", bench="x").inc(3)
        b.counter("seg", bench="x").inc(4)
        b.counter("other").inc(1)
        a.merge(b)
        assert a.value("seg", bench="x") == 7.0
        assert a.value("other") == 1.0
        assert b.value("seg", bench="x") == 4.0    # other side untouched

    def test_gauges_take_last_write_by_virtual_time(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.gauge("pool").set(10.0)
        a.sample(5.0)
        b.gauge("pool").set(99.0)
        b.sample(2.0)                              # older write
        a.merge(b)
        assert a.value("pool") == 10.0             # newest write wins
        assert a.gauge("pool").series == [(2.0, 99.0), (5.0, 10.0)]
        c = MetricRegistry()
        c.gauge("pool").set(123.0)
        c.sample(9.0)
        a.merge(c)
        assert a.value("pool") == 123.0

    def test_unsampled_gauge_loses_to_sampled_but_still_merges(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.gauge("pool").set(10.0)
        a.sample(1.0)
        b.gauge("pool").set(99.0)                  # never sampled
        a.merge(b)
        assert a.value("pool") == 10.0
        fresh = MetricRegistry()
        fresh.merge(b)                             # both unsampled:
        assert fresh.value("pool") == 99.0         # incoming wins

    def test_histograms_add_bucketwise(self):
        a, b = MetricRegistry(), MetricRegistry()
        for v in (0.5, 3.0):
            a.histogram("lat", bounds=(1.0, 8.0)).observe(v)
        for v in (5.0, 100.0):
            b.histogram("lat", bounds=(1.0, 8.0)).observe(v)
        a.merge(b)
        h = a.histogram("lat", bounds=(1.0, 8.0))
        assert h.count == 4
        assert h.bucket_counts == [1, 2, 1]
        assert h.sum == 108.5
        assert h.max_observed == 100.0

    def test_histogram_bounds_mismatch_raises(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.histogram("lat", bounds=(1.0,)).observe(0.5)
        b.histogram("lat", bounds=(2.0,)).observe(0.5)
        with pytest.raises(MetricKindError):
            a.merge(b)

    def test_kind_conflict_raises_on_merge(self):
        a, b = MetricRegistry(), MetricRegistry()
        a.counter("x").inc()
        b.gauge("x").set(1.0)
        with pytest.raises(MetricKindError):
            a.merge(b)

    def test_snapshot_round_trip_is_exact(self):
        reg = populated_registry()
        reg.sample(3.25)
        doc = json.loads(json.dumps(reg.to_snapshot()))  # via real JSON
        back = MetricRegistry.from_snapshot(doc)
        assert back.value("seg.checked") == 13.0
        assert back.value("work.cycles", core="big") == 1.5e9 + 0.123
        assert back.gauge("pool.bytes").series == [(3.25, 4096.75)]
        assert back.gauge("pool.bytes").last_write == 3.25
        h = back.histogram("compare.pages", bounds=(1.0, 8.0, 64.0))
        assert h.bucket_counts == [1, 1, 1, 1]
        assert h.sum == 112.0
        # Snapshot of the rebuilt registry is identical: a fixed point.
        assert back.to_snapshot() == reg.to_snapshot()

    def test_merge_of_snapshot_equals_merge_of_original(self):
        a1, a2 = MetricRegistry(), MetricRegistry()
        b = populated_registry()
        a1.merge(b)
        a2.merge(MetricRegistry.from_snapshot(b.to_snapshot()))
        assert a1.to_snapshot() == a2.to_snapshot()


class TestExporters:
    def test_prometheus_round_trip_is_exact(self):
        reg = populated_registry()
        parsed = parse_prometheus_text(prometheus_text(reg))
        assert parsed["seg_checked"] == 13.0
        assert parsed['work_cycles{core="big"}'] == 1.5e9 + 0.123  # bit-exact
        assert parsed["pool_bytes"] == 4096.75
        assert parsed['compare_pages_bucket{le="8.0"}'] == 2
        assert parsed['compare_pages_bucket{le="+Inf"}'] == 4
        assert parsed["compare_pages_count"] == 4
        assert parsed["compare_pages_sum"] == 112.0

    def test_collapsed_stacks_round_trip_and_total(self):
        profile = PhaseProfile(
            cycles={"main_exec": 100.25, "replay": 50.5, "runtime": 7.0},
            segment_cycles={0: {"main_exec": 60.25, "replay": 50.5},
                            1: {"main_exec": 40.0}},
            total_cycles=157.75)
        text = collapsed_stacks(profile)
        parsed = parse_collapsed(text)
        assert parse_collapsed(collapsed_stacks(profile)) == parsed
        assert parsed["root;seg0;replay"] == 50.5
        # Every charged cycle appears exactly once: segment lines plus
        # the unsegmented remainder sum to the profile total.
        assert sum(parsed.values()) == pytest.approx(profile.total_cycles,
                                                     abs=0.0)
        assert parsed["root;runtime"] == 7.0  # not charged to any segment

    def test_collapsed_drops_drift_level_remainders(self):
        """Per-segment and global ledgers sum identical charges in
        different orders; a few-ulp phantom remainder (which could go
        negative) must not appear in the export."""
        profile = PhaseProfile(
            cycles={"replay": 100.0},
            segment_cycles={0: {"replay": 100.0 + 1e-11}},
            total_cycles=100.0)
        parsed = parse_collapsed(collapsed_stacks(profile))
        assert list(parsed) == ["root;seg0;replay"]

    def test_json_snapshot_parses(self):
        reg = populated_registry()
        reg.sample(1.0)
        doc = json.loads(json_snapshot(reg, profile=PhaseProfile(
            cycles={"main_exec": 1.0}, total_cycles=1.0)))
        assert doc["counters"]["seg.checked"] == 13.0
        assert doc["phase_profile"]["total_cycles"] == 1.0

    def test_dashboard_emits_header_once(self):
        import io
        out = io.StringIO()
        dash = Dashboard(stream=out)
        reg = MetricRegistry()
        reg.gauge("parallaft.live_checkers").set(2)
        dash.update(0.5, reg)
        dash.update(1.0, reg)
        lines = out.getvalue().splitlines()
        assert dash.lines_written == 2
        assert len(lines) == 4  # header + rule + two samples
        assert "checkers" in lines[0]


def distinctive_stats():
    stats = RunStats()
    for i, f in enumerate(dataclass_fields(RunStats)):
        if f.name == "oom_killed":
            setattr(stats, f.name, True)
        elif f.name in ("errors", "pss_samples", "pacer_freq_history",
                        "stdout", "stderr", "exit_code"):
            continue
        else:
            setattr(stats, f.name, i + 1)
    stats.errors.append(DetectedError("state_mismatch", 7))
    stats.exit_code = 0
    return stats


class TestRunStatsView:
    def test_to_dict_matches_pre_registry_output(self):
        """Byte-for-byte compatibility: keys, order and values must equal
        the hand-maintained dict the pre-schema ``to_dict`` returned."""
        stats = distinctive_stats()
        expected = {
            "timing.all_wall_time": stats.all_wall_time,
            "timing.main_wall_time": stats.main_wall_time,
            "timing.main_user_time": stats.main_user_time,
            "timing.main_sys_time": stats.main_sys_time,
            "timing.checker_user_time": stats.checker_user_time,
            "timing.checker_sys_time": stats.checker_sys_time,
            "counter.checkpoint_count": stats.checkpoint_count,
            "fixed_interval_slicer.nr_slices": stats.nr_slices,
            "counter.syscalls_recorded": stats.syscalls_recorded,
            "counter.syscalls_replayed": stats.syscalls_replayed,
            "counter.signals_recorded": stats.signals_recorded,
            "counter.nondet_recorded": stats.nondet_recorded,
            "counter.bytes_recorded": stats.bytes_recorded,
            "counter.segments_checked": stats.segments_checked,
            "counter.checker_retries": stats.checker_retries,
            "counter.checker_migrations": stats.checker_migrations,
            "counter.checkers_finished_on_big":
                stats.checkers_finished_on_big,
            "counter.mmap_splits": stats.mmap_splits,
            "counter.recovery.rollbacks": stats.recovery_rollbacks,
            "counter.recovery.retries": stats.recovery_retries,
            "counter.recovery.wasted_cycles": stats.recovery_wasted_cycles,
            "counter.tmr.votes": stats.tmr_votes,
            "counter.tmr.outvoted": stats.tmr_outvoted,
            "counter.tmr.forward_recoveries": stats.tmr_forward_recoveries,
            "counter.meek.early_checks": stats.meek_early_checks,
            "counter.meek.early_detections": stats.meek_early_detections,
            "counter.integrity.checks": stats.integrity_checks,
            "counter.integrity.failures": stats.integrity_failures,
            "counter.pressure.stalls": stats.pressure_stalls,
            "counter.pressure.sheds": stats.pressure_sheds,
            "counter.pressure.evictions": stats.pressure_evictions,
            "counter.pressure.adaptations": stats.pressure_adaptations,
            "counter.pressure.checker_ooms": stats.checker_ooms,
            "counter.oom_kills": stats.oom_kills,
            "oom_killed": stats.oom_killed,
            "memory.peak_resident_bytes": stats.peak_resident_bytes,
            "work.checker_cycles_big": stats.checker_cycles_big,
            "work.checker_cycles_little": stats.checker_cycles_little,
            "work.big_core_work_fraction": stats.big_core_work_fraction,
            "hwmon.total_energy": stats.energy_joules,
            "errors": ["state_mismatch@7"],
            "exit_code": 0,
        }
        got = stats.to_dict()
        assert got == expected
        assert list(got) == list(expected)  # insertion order too

    def test_every_incremented_counter_is_exported(self):
        """Satellite: scan ``src/repro`` for ``stats.<field> +=`` /
        ``stats.<field> =`` writes; every written RunStats field must
        have a ``to_dict`` key (the pre-schema failure mode was adding a
        counter and forgetting the dict entry)."""
        field_names = {f.name for f in dataclass_fields(RunStats)}
        collections = {"pss_samples", "pacer_freq_history", "errors"}
        writes = set()
        pattern = re.compile(r"\bstats\.(\w+)\s*(?:\+=|-=|=(?!=))")
        for path in SRC_ROOT.rglob("*.py"):
            for name in pattern.findall(path.read_text()):
                if name in field_names and name not in collections:
                    writes.add(name)
        assert writes, "source scan found no stats writes — regex broken?"
        exported = set(stats_attr_to_key())
        missing = writes - exported - {"exit_code", "stdout", "stderr"}
        assert not missing, (
            f"RunStats fields written in src/repro but absent from "
            f"to_dict: {sorted(missing)}")

    def test_registry_mirror_tracks_assignments(self):
        reg = MetricRegistry()
        stats = RunStats()
        stats.segments_checked = 3
        stats.bind_registry(reg)
        assert reg.value("counter.segments_checked") == 3.0
        stats.segments_checked = 5
        stats.oom_killed = True
        assert reg.value("counter.segments_checked") == 5.0
        assert reg.value("oom_killed") == 1.0
        # Binding never changes the dict dump.
        assert stats.to_dict()["counter.segments_checked"] == 5

    @pytest.mark.parametrize("mode", ["parallaft", "tmr"])
    def test_registry_view_after_a_sampled_run(self, mode):
        """The registry reports exactly the numbers ``to_dict`` does —
        through ``value``, through the exported (finalized) gauge values
        — and the sampler recorded every schema gauge."""
        from repro.core import Parallaft
        from repro.minic import compile_source
        from repro.modes import get_mode
        from repro.sim import apple_m2
        from repro.workloads import synthetic_source
        config = get_mode(mode).make_config(slicing_period=40_000_000,
                                            metrics_sample_interval=0.001)
        runtime = Parallaft(compile_source(synthetic_source(
            total_iters=8000)), config=config, platform=apple_m2())
        stats = runtime.run()
        assert stats.exit_code == 0 and stats.segments_checked >= 2
        dump = stats.to_dict()
        exported = parse_prometheus_text(prometheus_text(runtime.metrics))
        for f in STAT_SCHEMA:
            if f.derived:
                continue
            assert runtime.metrics.value(f.key) == dump[f.key], f.key
            prom = f.key.replace(".", "_")
            assert exported[prom] == float(dump[f.key]), f.key
            assert runtime.metrics.gauge(f.key).series, f.key

    def test_schema_covers_every_to_dict_scalar(self):
        stats = RunStats()
        keys = set(stats.to_dict())
        assert {f.key for f in STAT_SCHEMA} == keys - {"errors", "exit_code"}


def stats_attr_to_key():
    return {f.attr: f.key for f in STAT_SCHEMA}
