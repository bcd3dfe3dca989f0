"""Infrastructure fault injection and integrity hardening.

Unit coverage for the mechanisms in :mod:`repro.faults.infra` and the
config-gated integrity layers they are measured against: R/R log
checksums, dirty-tracker suppression + clean-page audit, the comparator
collision model, checkpoint digests, and the no-rollback-after-
integrity-failure policy (trace invariant included).
"""

import pytest

from repro.core import (
    ComparisonStrategy,
    DirtyPageBackend,
    DirtyPageTracker,
    Parallaft,
    ParallaftConfig,
    StateComparator,
)
from repro.core.comparator import audit_clean_pages, state_digest
from repro.core.segment import SegmentStatus
from repro.core.rr_log import (
    NondetRecord,
    RrLog,
    SignalRecord,
    SyscallRecord,
    record_checksum,
    verify_record,
)
from repro.faults import Outcome
from repro.faults.infra import (
    INFRA_CHECKPOINT_CORRUPT,
    INFRA_DIGEST_CORRUPT,
    INFRA_DIRTY_MISS,
    INFRA_KINDS,
    INFRA_LOG_CORRUPT,
    InfraFaultController,
    InfraFaultSite,
    harden,
)
from repro.faults.outcomes import classify_run
from repro.isa import DATA_BASE
from repro.kernel import Kernel
from repro.minic import compile_source
from repro.sim import apple_m2
from repro.trace import InvariantChecker
from repro.trace import events as tev
from repro.trace.events import TraceEvent

PAGE = 16384

# Entropy-consuming workload: a wrongful rollback re-draws getrandom and
# silently changes the output — the infra campaign's key escape channel.
WORKLOAD = """
global grid[2048];
global ent[1];
func main() {
    var i; var round; var total;
    srand64(5);
    for (round = 0; round < 12; round = round + 1) {
        getrandom(ent, 8);
        for (i = 0; i < 2048; i = i + 1) {
            grid[i] = grid[i] * 3 + round - i;
        }
        print_int((grid[round] + peek8(ent)) % 1000003);
    }
    total = 0;
    for (i = 0; i < 2048; i = i + 1) { total = total + grid[i]; }
    print_int(total);
}
"""


def make_config(hardening=False):
    config = ParallaftConfig()
    config.slicing_period = 12_000_000_000
    config.enable_recovery = True
    if hardening:
        harden(config)
    return config


_PROFILE = {}


def profile(hardening):
    """Fault-free reference for one arm: (per-segment instr, stdout)."""
    if hardening not in _PROFILE:
        runtime = Parallaft(compile_source(WORKLOAD),
                            config=make_config(hardening),
                            platform=apple_m2())
        stats = runtime.run()
        assert not stats.errors
        _PROFILE[hardening] = (
            [s.main_instructions for s in runtime.segments], stats.stdout)
    return _PROFILE[hardening]


def run_with_site(site, hardening):
    """One full run with ``site`` applied; returns (stats, runtime, ctl)."""
    instr, _ = profile(hardening)
    runtime = Parallaft(compile_source(WORKLOAD),
                        config=make_config(hardening), platform=apple_m2())
    controller = InfraFaultController(
        runtime, site,
        app_threshold=site.when * instr[site.segment_index])
    stats = runtime.run()
    return stats, runtime, controller


def trace_kinds(runtime):
    return [event.kind for event in runtime.trace]


# ---------------------------------------------------------------------------


class TestRecordIntegrity:
    def test_append_stamps_seq_and_checksum(self):
        log = RrLog()
        log.integrity = True
        for i in range(3):
            log.append(NondetRecord(pc=0x1000 + i, opcode=7, value=i))
        for i, record in enumerate(log.records):
            assert record.seq == i
            assert record.checksum == record_checksum(record)
            assert verify_record(record, i) is None

    def test_append_without_integrity_leaves_records_bare(self):
        log = RrLog()
        log.append(NondetRecord(pc=0x1000, opcode=7, value=1))
        record = log.records[0]
        assert getattr(record, "seq", None) is None
        problem = verify_record(record, 0)
        assert problem is not None and "no integrity metadata" in problem

    def test_value_corruption_detected(self):
        log = RrLog()
        log.integrity = True
        log.append(NondetRecord(pc=0x1000, opcode=7, value=42))
        record = log.records[0]
        record.value ^= 1 << 13
        problem = verify_record(record, 0)
        assert problem is not None and "checksum mismatch" in problem

    def test_syscall_output_data_corruption_detected(self):
        log = RrLog()
        log.integrity = True
        log.append(SyscallRecord(63, (1, 2), "local", result=8,
                                 output_addr=0x2000,
                                 output_data=b"\x01" * 8))
        record = log.records[0]
        record.output_data = b"\x01" * 7 + b"\x81"
        assert "checksum mismatch" in verify_record(record, 0)

    def test_signal_record_checksummed(self):
        log = RrLog()
        log.integrity = True
        log.append(SignalRecord(10, external=True, exec_point=(3, 500)))
        record = log.records[0]
        assert verify_record(record, 0) is None
        record.signo = 12
        assert "checksum mismatch" in verify_record(record, 0)

    def test_reordering_detected_by_sequence_numbers(self):
        log = RrLog()
        log.integrity = True
        log.append(NondetRecord(pc=0x1000, opcode=7, value=1))
        log.append(NondetRecord(pc=0x1004, opcode=7, value=2))
        log.records.reverse()  # splice: checksums still valid, order not
        problem = verify_record(log.records[0], 0)
        assert problem is not None and "reordered or spliced" in problem


class TestTrackerSuppression:
    @pytest.mark.parametrize("backend", [DirtyPageBackend.SOFT_DIRTY,
                                         DirtyPageBackend.MAP_COUNT])
    def test_suppressed_vpn_hidden_from_scans(self, backend):
        kernel = Kernel(page_size=PAGE, seed=0)
        proc = kernel.spawn(compile_source("""
        global data[8192];
        func main() { print_int(1); }
        """))
        tracker = DirtyPageTracker(backend, PAGE)
        tracker.begin_segment(proc)
        proc.mem.store_word(DATA_BASE, 5)
        proc.mem.store_word(DATA_BASE + PAGE, 6)
        vpns = set(tracker.dirty_vpns(proc))
        assert {DATA_BASE // PAGE, DATA_BASE // PAGE + 1} <= vpns

        tracker.suppressed_vpns.add(DATA_BASE // PAGE)
        filtered = set(tracker.dirty_vpns(proc))
        assert DATA_BASE // PAGE not in filtered
        assert DATA_BASE // PAGE + 1 in filtered
        assert tracker.suppressed_hits > 0


class TestComparatorCollision:
    def _pair(self):
        kernel = Kernel(page_size=PAGE, seed=0)
        proc = kernel.spawn(compile_source("""
        global data[2048];
        func main() { print_int(0); }
        """))
        twin, _ = kernel.fork(proc, paused=True)
        return proc, twin

    def test_collision_forces_silent_match_on_memory_divergence(self):
        proc, twin = self._pair()
        proc.mem.store_word(DATA_BASE, 0xBAD)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        comparator.fault_next_digest_collision = True
        result = comparator.compare(proc, twin,
                                    dirty_vpns={DATA_BASE // PAGE})
        assert result.match  # the escape the unhardened arm measures

    def test_collision_forges_register_verdict_too(self):
        proc, twin = self._pair()
        proc.cpu.regs.flip_bit("gpr", 5, 20)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        comparator.fault_next_digest_collision = True
        assert comparator.compare(proc, twin, dirty_vpns=set()).match

    def test_redundant_path_converts_collision_to_integrity(self):
        proc, twin = self._pair()
        proc.mem.store_word(DATA_BASE, 0xBAD)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE,
                                     redundant=True)
        comparator.fault_next_digest_collision = True
        result = comparator.compare(proc, twin,
                                    dirty_vpns={DATA_BASE // PAGE})
        assert not result.match
        assert result.reason == "integrity"
        assert "hash paths disagree" in result.describe()

    def test_redundant_doubles_hash_cost(self):
        proc, twin = self._pair()
        plain = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        doubled = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE,
                                  redundant=True)
        vpns = {DATA_BASE // PAGE}
        assert (doubled.compare(proc, twin, dirty_vpns=vpns).bytes_hashed
                == 2 * plain.compare(proc, twin,
                                     dirty_vpns=vpns).bytes_hashed)

    def test_collision_is_one_shot(self):
        proc, twin = self._pair()
        proc.mem.store_word(DATA_BASE, 0xBAD)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        comparator.fault_next_digest_collision = True
        assert comparator.compare(proc, twin,
                                  dirty_vpns={DATA_BASE // PAGE}).match
        # Second compare: flag consumed, divergence detected normally.
        result = comparator.compare(proc, twin,
                                    dirty_vpns={DATA_BASE // PAGE})
        assert not result.match and result.reason == "memory"


class TestCleanPageAudit:
    def _pair(self):
        kernel = Kernel(page_size=PAGE, seed=0)
        proc = kernel.spawn(compile_source("""
        global data[8192];
        func main() { print_int(0); }
        """))
        twin, _ = kernel.fork(proc, paused=True)
        return proc, twin

    def test_audit_catches_untracked_modified_page(self):
        proc, twin = self._pair()
        vpn = DATA_BASE // PAGE
        proc.mem.store_word(DATA_BASE, 99)       # modified...
        trusted = set()                           # ...but not in the union
        audited, mismatched, nbytes = audit_clean_pages(
            proc, twin, trusted, limit=4)
        assert vpn in audited
        assert mismatched == [vpn]
        assert nbytes > 0

    def test_audit_trusts_pages_inside_the_union(self):
        proc, twin = self._pair()
        vpn = DATA_BASE // PAGE
        proc.mem.store_word(DATA_BASE, 99)
        audited, mismatched, _ = audit_clean_pages(
            proc, twin, {vpn}, limit=4)
        assert vpn not in audited and not mismatched

    def test_audit_disabled_with_zero_limit(self):
        proc, twin = self._pair()
        proc.mem.store_word(DATA_BASE, 99)
        audited, mismatched, nbytes = audit_clean_pages(
            proc, twin, set(), limit=0)
        assert audited == [] and mismatched == [] and nbytes == 0

    def test_fault_free_forks_have_nothing_suspicious(self):
        proc, twin = self._pair()
        audited, mismatched, _ = audit_clean_pages(proc, twin, set(),
                                                   limit=8)
        assert mismatched == []

    def test_state_digest_covers_registers_and_memory(self):
        proc, twin = self._pair()
        base, _ = state_digest(proc)
        assert state_digest(twin)[0] == base
        twin.mem.store_word(DATA_BASE, 1)
        assert state_digest(twin)[0] != base
        proc.mem.store_word(DATA_BASE, 1)
        assert state_digest(twin)[0] == state_digest(proc)[0]
        proc.cpu.regs.flip_bit("gpr", 3, 7)
        assert state_digest(proc)[0] != state_digest(twin)[0]


class TestHardenAndSites:
    def test_harden_enables_every_layer(self):
        config = harden(ParallaftConfig())
        assert config.log_checksums
        assert config.checkpoint_digests
        assert config.clean_page_audit > 0
        assert config.redundant_compare

    def test_defaults_leave_hardening_off(self):
        config = ParallaftConfig()
        assert not config.log_checksums
        assert not config.checkpoint_digests
        assert config.clean_page_audit == 0
        assert not config.redundant_compare

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            InfraFaultSite("cache-corrupt", 0)

    def test_known_kinds_describe(self):
        for kind in INFRA_KINDS:
            assert kind in InfraFaultSite(kind, 2, bit=5).describe()


class TestIntegrityInvariant:
    def _event(self, kind, ts, segment=0, **payload):
        return TraceEvent(ts=ts, kind=kind, segment=segment,
                          payload=payload)

    def test_rollback_after_integrity_failure_violates(self):
        events = [
            self._event(tev.INTEGRITY_FAIL, 1.0, segment=2,
                        check="checkpoint"),
            self._event(tev.ROLLBACK, 2.0, segment=2),
        ]
        violations = InvariantChecker().check(events)
        assert any(v.invariant == "integrity" for v in violations)
        message = next(v for v in violations
                       if v.invariant == "integrity").message
        assert "untrusted checkpoint" in message

    def test_rollback_before_integrity_failure_is_fine(self):
        events = [
            self._event(tev.ROLLBACK, 1.0, segment=1),
            self._event(tev.INTEGRITY_FAIL, 2.0, segment=3, check="log"),
        ]
        violations = InvariantChecker().check(events)
        assert not any(v.invariant == "integrity" for v in violations)

    def test_integrity_checks_alone_are_fine(self):
        events = [
            self._event(tev.INTEGRITY_CHECK, 1.0, check="log", ok=True),
            self._event(tev.ROLLBACK, 2.0, segment=1),
        ]
        violations = InvariantChecker().check(events)
        assert not any(v.invariant == "integrity" for v in violations)


# ---------------------------------------------------------------------------
# End-to-end: one representative site per kind, both arms.


class TestEndToEndDirtyMiss:
    SITE = dict(kind=INFRA_DIRTY_MISS, segment_index=1, bit=1234,
                page_rank=0, when=0.7)

    def test_unhardened_escape(self):
        _, reference = profile(False)
        stats, runtime, controller = run_with_site(
            InfraFaultSite(**self.SITE), hardening=False)
        assert controller.fired
        assert runtime.dirty_tracker.suppressed_hits > 0
        assert classify_run(stats, reference) is Outcome.SDC
        assert not stats.errors and stats.stdout != reference

    def test_hardened_failstop(self):
        stats, runtime, controller = run_with_site(
            InfraFaultSite(**self.SITE), hardening=True)
        assert controller.fired
        assert stats.errors and stats.errors[0].kind == "infra_integrity"
        assert "clean-page audit" in stats.errors[0].detail
        assert stats.recovery_rollbacks == 0
        kinds = trace_kinds(runtime)
        assert tev.INTEGRITY_FAIL in kinds
        assert tev.ROLLBACK not in kinds
        InvariantChecker(recovery=True).assert_ok(runtime.trace)


class TestEndToEndLogCorrupt:
    # Record 5 of segment 1 is the segment's *last* getrandom; field_rank
    # 1 selects its recorded output_data, so the checker replays rotten
    # entropy that survives (uncorrected) to the segment-end comparison.
    # Bit 9 lands in byte 1, which the program never prints: the main's
    # own output stays clean and only the replay is poisoned.
    SITE = dict(kind=INFRA_LOG_CORRUPT, segment_index=1, bit=9,
                record_rank=5, field_rank=1, when=0.6)

    def test_unhardened_wrongful_rollback_escapes(self):
        _, reference = profile(False)
        stats, runtime, controller = run_with_site(
            InfraFaultSite(**self.SITE), hardening=False)
        assert controller.fired
        # The rotten record implicated the innocent main: it was rolled
        # back, the re-execution re-drew getrandom entropy, and the run
        # finished "clean" with silently different output.
        assert stats.recovery_rollbacks > 0
        assert classify_run(stats, reference) is Outcome.SDC

    def test_hardened_checksum_detects_before_replay(self):
        stats, runtime, controller = run_with_site(
            InfraFaultSite(**self.SITE), hardening=True)
        assert controller.fired
        assert stats.errors and stats.errors[0].kind == "log_integrity"
        assert "checksum mismatch" in stats.errors[0].detail
        assert stats.recovery_rollbacks == 0
        assert tev.ROLLBACK not in trace_kinds(runtime)
        InvariantChecker(recovery=True).assert_ok(runtime.trace)


class TestLogStrikeOnAVerifiedSegment:
    """A verified segment drops its log.  A log strike aimed at it then
    misses, just as it did when the records stayed but the replay cursor
    had passed them all."""

    def strike(self, runtime):
        controller = InfraFaultController(runtime, InfraFaultSite(
            **TestEndToEndLogCorrupt.SITE))
        controller._strike_log(runtime.main, "main")
        return controller

    def test_strike_misses_with_the_records_gone_or_all_consumed(self):
        runtime = Parallaft(compile_source(WORKLOAD),
                            config=make_config(False), platform=apple_m2())
        assert not runtime.run().errors
        segment = runtime.segments[1]
        assert segment.status is SegmentStatus.CHECKED
        assert len(segment.log) == 0
        consumed = segment.cursor.position
        assert consumed > 0
        gone = self.strike(runtime)
        assert gone._log_missed and not gone.infra_fired

        records = [NondetRecord(pc=0x1000, opcode=60, value=v)
                   for v in range(consumed)]
        segment.log.records = records
        passed = self.strike(runtime)
        assert passed._log_missed and not passed.infra_fired
        assert [r.value for r in records] == list(range(consumed))


class TestLogStrikeOnASharedBuffer:
    """Every ``/dev/zero`` read record holds the device's one zero buffer.
    A strike on one record's output rebinds that record alone: the other
    records, and the zeros later reads return, stay zero."""

    SOURCE = """
    func main() {
        var i; var fd; var buf;
        fd = open("/dev/zero");
        buf = mmap_anon(65536);
        for (i = 0; i < 6; i = i + 1) { read(fd, buf, 65536); }
    }
    """

    def test_strike_rebinds_one_record_and_leaves_the_buffer_zero(self):
        from repro.abi import SYS_READ
        from repro.kernel.vfs import DevZero
        config = ParallaftConfig(log_checksums=True)
        runtime = Parallaft(compile_source(self.SOURCE), config=config,
                            platform=apple_m2())
        # Records 0 and 1 are the open and the mmap: rank 3 is the
        # second read, and field rank 1 its output.
        controller = InfraFaultController(runtime, InfraFaultSite(
            INFRA_LOG_CORRUPT, segment_index=0, bit=8 * 300 + 5,
            record_rank=3, field_rank=1))
        reads, devices = [], []

        def collect(proc, role):
            if role != "main" or reads:
                return
            records = [r for r in runtime.current.log.records
                       if r.kind == "syscall" and r.sysno == SYS_READ]
            if len(records) == 3:
                reads.extend(records)
                devices.extend(f for f in proc.fds.values()
                               if isinstance(f, DevZero))

        runtime.quantum_hooks.append(collect)
        stats = runtime.run()
        zeros = bytes(65536)
        assert controller.fired
        assert len(reads) == 3 and len(devices) == 1
        assert reads[1].output_data == zeros[:300] + b"\x20" + zeros[301:]
        assert reads[0].output_data is reads[2].output_data \
            is devices[0]._zeros
        assert devices[0]._zeros == zeros
        # The checksum stamped over the shared bytes catches the strike.
        assert [e.kind for e in stats.errors] == ["log_integrity"]
        assert stats.syscalls_recorded == 8


class TestEndToEndCheckpointCorrupt:
    SITE = dict(kind=INFRA_CHECKPOINT_CORRUPT, segment_index=1, bit=321,
                page_rank=0, when=0.7, app_bit=17)

    def test_unhardened_corrupt_promotion_escapes(self):
        _, reference = profile(False)
        stats, runtime, controller = run_with_site(
            InfraFaultSite(**self.SITE), hardening=False)
        assert controller.fired
        assert stats.recovery_rollbacks > 0  # the rotten checkpoint won
        assert classify_run(stats, reference) is Outcome.SDC

    def test_hardened_digest_refuses_promotion(self):
        stats, runtime, controller = run_with_site(
            InfraFaultSite(**self.SITE), hardening=True)
        assert controller.fired
        assert stats.errors and stats.errors[0].kind == "infra_integrity"
        assert "failed integrity verification" in stats.errors[0].detail
        assert stats.recovery_rollbacks == 0
        kinds = trace_kinds(runtime)
        assert tev.INTEGRITY_FAIL in kinds and tev.ROLLBACK not in kinds
        InvariantChecker(recovery=True).assert_ok(runtime.trace)


class TestEndToEndDigestCorrupt:
    SITE = dict(kind=INFRA_DIGEST_CORRUPT, segment_index=1, bit=4096,
                page_rank=0, when=0.9)

    def test_unhardened_collision_escapes(self):
        _, reference = profile(False)
        stats, runtime, controller = run_with_site(
            InfraFaultSite(**self.SITE), hardening=False)
        assert controller.fired
        assert classify_run(stats, reference) is Outcome.SDC
        assert not stats.errors

    def test_hardened_redundant_path_failstops(self):
        stats, runtime, controller = run_with_site(
            InfraFaultSite(**self.SITE), hardening=True)
        assert controller.fired
        assert stats.errors and stats.errors[0].kind == "infra_integrity"
        assert "hash paths disagree" in stats.errors[0].detail
        assert stats.recovery_rollbacks == 0
        InvariantChecker(recovery=True).assert_ok(runtime.trace)


class TestIntegrityAccounting:
    def test_hardened_fault_free_run_counts_checks_and_no_failures(self):
        runtime = Parallaft(compile_source(WORKLOAD),
                            config=make_config(hardening=True),
                            platform=apple_m2())
        stats = runtime.run()
        assert not stats.errors
        assert stats.integrity_checks > 0
        assert stats.integrity_failures == 0
        dump = stats.to_dict()
        assert dump["counter.integrity.checks"] == stats.integrity_checks
        assert dump["counter.integrity.failures"] == 0
        kinds = trace_kinds(runtime)
        assert tev.INTEGRITY_CHECK in kinds
        assert tev.INTEGRITY_FAIL not in kinds
        # Hardened and unhardened fault-free runs produce identical
        # output: the integrity layers observe, they do not interfere.
        assert stats.stdout == profile(False)[1]
