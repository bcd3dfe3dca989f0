"""Unit tests: state comparator and dirty-page tracking (paper §4.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ComparisonStrategy,
    DirtyPageBackend,
    DirtyPageTracker,
    StateComparator,
)
from repro.cpu import CpuContext
from repro.isa import DATA_BASE, assemble
from repro.kernel import Kernel
from repro.minic import compile_source

PAGE = 16384


def spawn_pair(kernel=None):
    """A process and its fork (checkpoint-style), sharing all frames."""
    kernel = kernel or Kernel(page_size=PAGE, seed=0)
    program = compile_source("""
    global data[8192];
    func main() {
        var i;
        for (i = 0; i < 2048; i = i + 1) { data[i] = i; }
        print_int(0);
    }
    """)
    proc = kernel.spawn(program)
    twin, _ = kernel.fork(proc, paused=True)
    return kernel, proc, twin


DATA_VPN = DATA_BASE // PAGE
MMAP_VPN = 0x3000_0000 // PAGE


def reference_compare(strategy, redundant, checker, checkpoint, dirty_vpns):
    """Naive memory verdict: copy both sides of every page and compare.

    Returns ``(match, reason, mismatched_vpns, bytes_hashed,
    pages_compared)`` for states whose PC and registers agree.
    """
    left_mem, right_mem = checker.mem, checkpoint.mem
    if strategy == ComparisonStrategy.FULL_MEMORY:
        vpns = sorted(set(left_mem.pages) | set(right_mem.pages))
    else:
        vpns = sorted(dirty_vpns)
    mismatched, nbytes = [], 0
    for vpn in vpns:
        in_left, in_right = vpn in left_mem.pages, vpn in right_mem.pages
        if not (in_left and in_right):
            if in_left or in_right:
                mismatched.append(vpn)
            continue
        left, right = left_mem.page_bytes(vpn), right_mem.page_bytes(vpn)
        nbytes += 2 * len(left)
        if left != right:
            mismatched.append(vpn)
    if redundant:
        nbytes *= 2
    return (not mismatched, "memory" if mismatched else "", mismatched,
            nbytes, len(vpns))


_side = st.sampled_from(["proc", "twin"])
_word_slot = st.tuples(st.integers(min_value=0, max_value=4),
                       st.integers(min_value=0, max_value=7))
_memory_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), _side, _word_slot,
              st.one_of(st.integers(min_value=-2, max_value=2),
                        st.integers(min_value=-2**63,
                                    max_value=2**63 - 1))),
    # Write back the fork-time value: a re-COWed but byte-equal frame.
    st.tuples(st.just("restore"), _side, _word_slot),
    st.tuples(st.just("mmap"), _side, st.integers(min_value=0, max_value=2)),
), max_size=12)
_candidate_vpns = st.sets(st.sampled_from(
    [DATA_VPN + i for i in range(5)] + [MMAP_VPN + i for i in range(3)]
    + [MMAP_VPN + 100]))


class TestComparator:
    def test_identical_forks_match_full(self):
        _, proc, twin = spawn_pair()
        comparator = StateComparator(ComparisonStrategy.FULL_MEMORY, PAGE)
        assert comparator.compare(proc, twin).match

    def test_identical_forks_match_dirty_hash_empty_set(self):
        _, proc, twin = spawn_pair()
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(proc, twin, dirty_vpns=set())
        assert result.match
        assert result.pages_compared == 0

    def test_memory_divergence_detected(self):
        _, proc, twin = spawn_pair()
        proc.mem.store_word(DATA_BASE + 800, 0xBAD)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(
            proc, twin, dirty_vpns={DATA_BASE // PAGE})
        assert not result.match
        assert result.reason == "memory"
        assert result.mismatched_vpns == [DATA_BASE // PAGE]

    def test_register_divergence_detected_before_memory(self):
        _, proc, twin = spawn_pair()
        proc.cpu.regs.gprs[5] ^= 1 << 33
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(proc, twin, dirty_vpns=set())
        assert not result.match
        assert result.register_mismatch

    def test_pc_divergence_detected(self):
        _, proc, twin = spawn_pair()
        proc.cpu.pc += 4
        comparator = StateComparator(ComparisonStrategy.FULL_MEMORY, PAGE)
        result = comparator.compare(proc, twin)
        assert not result.match and result.pc_mismatch

    def test_fp_and_vector_registers_compared(self):
        _, proc, twin = spawn_pair()
        proc.cpu.regs.flip_bit("vec", 2, 130)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        assert not comparator.compare(proc, twin, dirty_vpns=set()).match

    def test_dirty_union_equals_full_compare(self):
        """The paper's optimization is sound: comparing only the union of
        both sides' dirty pages gives the same verdict as comparing all
        memory, because clean pages share frames."""
        kernel, proc, twin = spawn_pair()
        # Both sides write different pages; one writes a conflicting value.
        proc.mem.store_word(DATA_BASE + 8, 111)
        twin.mem.store_word(DATA_BASE + PAGE + 8, 222)

        full = StateComparator(ComparisonStrategy.FULL_MEMORY, PAGE)
        hashed = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        tracker = DirtyPageTracker(DirtyPageBackend.MAP_COUNT, PAGE)
        union = set(tracker.dirty_vpns(proc)) | set(tracker.dirty_vpns(twin))
        assert full.compare(proc, twin).match is False
        assert hashed.compare(proc, twin, union).match is False

        # Now make them agree again: verdicts match again.
        twin.mem.store_word(DATA_BASE + 8, 111)
        proc.mem.store_word(DATA_BASE + PAGE + 8, 222)
        union = set(tracker.dirty_vpns(proc)) | set(tracker.dirty_vpns(twin))
        assert full.compare(proc, twin).match
        assert hashed.compare(proc, twin, union).match

    def test_page_mapped_on_one_side_only_mismatches(self):
        from repro.mem.address_space import (MAP_ANONYMOUS, MAP_FIXED,
                                             MAP_PRIVATE, PROT_READ,
                                             PROT_WRITE)
        _, proc, twin = spawn_pair()
        addr = proc.mem.mmap(0x3000_0000, PAGE, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(proc, twin,
                                    dirty_vpns={addr // PAGE})
        assert not result.match

    def test_page_mapped_on_twin_side_only_mismatches(self):
        """Asymmetry goes both ways: a page present only in the
        *checkpoint* (right side) must mismatch just like one present
        only in the checker, whichever side lacks the PTE."""
        from repro.mem.address_space import (MAP_ANONYMOUS, MAP_FIXED,
                                             MAP_PRIVATE, PROT_READ,
                                             PROT_WRITE)
        _, proc, twin = spawn_pair()
        addr = twin.mem.mmap(0x3000_0000, PAGE, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(proc, twin, dirty_vpns={addr // PAGE})
        assert not result.match
        assert result.reason == "memory"
        assert result.mismatched_vpns == [addr // PAGE]

    def test_one_sided_mappings_mismatch_in_both_orders(self):
        """Swapping the argument order must flip nothing: whichever side
        lacks the page, the verdict is the same mismatch."""
        from repro.mem.address_space import (MAP_ANONYMOUS, MAP_FIXED,
                                             MAP_PRIVATE, PROT_READ,
                                             PROT_WRITE)
        _, proc, twin = spawn_pair()
        addr = proc.mem.mmap(0x3000_0000, PAGE, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        forward = comparator.compare(proc, twin, dirty_vpns={addr // PAGE})
        backward = comparator.compare(twin, proc, dirty_vpns={addr // PAGE})
        assert not forward.match and not backward.match
        assert forward.mismatched_vpns == backward.mismatched_vpns

    def test_dirty_hash_requires_vpns(self):
        _, proc, twin = spawn_pair()
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        with pytest.raises(ValueError):
            comparator.compare(proc, twin, dirty_vpns=None)

    @given(st.integers(min_value=0, max_value=PAGE // 8 - 1),
           st.integers(min_value=0, max_value=63))
    @settings(max_examples=25, deadline=None)
    def test_any_single_bit_flip_detected(self, word, bit):
        _, proc, twin = spawn_pair()
        address = DATA_BASE + word * 8
        proc.mem.store_word(address, proc.mem.load_word(address) ^ (1 << bit))
        comparator = StateComparator(ComparisonStrategy.DIRTY_HASH, PAGE)
        result = comparator.compare(proc, twin,
                                    dirty_vpns={DATA_BASE // PAGE})
        assert not result.match

    @pytest.mark.parametrize("redundant", [False, True])
    @pytest.mark.parametrize("strategy", list(ComparisonStrategy))
    @given(ops=_memory_ops, dirty_vpns=_candidate_vpns)
    @settings(max_examples=40, deadline=None)
    def test_verdict_and_cost_equal_naive_reference(self, strategy,
                                                    redundant, ops,
                                                    dirty_vpns):
        """Frame identity plus in-place byte compare gives exactly the
        verdict and simulated cost of copying and comparing every page."""
        from repro.mem.address_space import (MAP_ANONYMOUS, MAP_FIXED,
                                             MAP_PRIVATE, PROT_READ,
                                             PROT_WRITE)
        _, proc, twin = spawn_pair()
        sides = {"proc": proc, "twin": twin}
        at_fork = {vpn: proc.mem.page_bytes(vpn)
                   for vpn in range(DATA_VPN, DATA_VPN + 5)}
        for op in ops:
            mem = sides[op[1]].mem
            if op[0] == "mmap":
                mem.mmap((MMAP_VPN + op[2]) * PAGE, PAGE,
                         PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
                continue
            page, word = op[2]
            if op[0] == "write":
                value = op[3]
            else:
                value = int.from_bytes(
                    at_fork[DATA_VPN + page][word * 8:word * 8 + 8],
                    "little", signed=True)
            mem.store_word((DATA_VPN + page) * PAGE + word * 8, value)

        comparator = StateComparator(strategy, PAGE, redundant=redundant)
        result = comparator.compare(proc, twin, dirty_vpns=dirty_vpns)
        assert (result.match, result.reason, result.mismatched_vpns,
                result.bytes_hashed, result.pages_compared) == \
            reference_compare(strategy, redundant, proc, twin, dirty_vpns)


class TestDirtyTracker:
    def test_soft_dirty_backend_clears_and_tracks(self):
        kernel, proc, twin = spawn_pair()
        tracker = DirtyPageTracker(DirtyPageBackend.SOFT_DIRTY, PAGE)
        pages = tracker.begin_segment(proc)
        assert pages == proc.mem.mapped_pages
        assert tracker.dirty_vpns(proc) == []
        proc.mem.store_word(DATA_BASE, 5)
        assert tracker.dirty_vpns(proc) == [DATA_BASE // PAGE]

    def test_map_count_backend_needs_no_clearing(self):
        kernel, proc, twin = spawn_pair()
        tracker = DirtyPageTracker(DirtyPageBackend.MAP_COUNT, PAGE)
        assert tracker.begin_segment(proc) == 0
        assert tracker.dirty_vpns(proc) == []
        proc.mem.store_word(DATA_BASE, 5)
        assert DATA_BASE // PAGE in tracker.dirty_vpns(proc)

    def test_backends_agree_on_write_sets(self):
        kernel, proc, twin = spawn_pair()
        soft = DirtyPageTracker(DirtyPageBackend.SOFT_DIRTY, PAGE)
        mapc = DirtyPageTracker(DirtyPageBackend.MAP_COUNT, PAGE)
        soft.begin_segment(proc)
        for offset in (0, PAGE, 3 * PAGE + 64):
            proc.mem.store_word(DATA_BASE + (offset // 8) * 8, offset)
        assert soft.dirty_vpns(proc) == mapc.dirty_vpns(proc)

    def test_cost_counters_accumulate(self):
        kernel, proc, twin = spawn_pair()
        tracker = DirtyPageTracker(DirtyPageBackend.SOFT_DIRTY, PAGE)
        tracker.begin_segment(proc)
        tracker.dirty_vpns(proc)
        assert tracker.pages_cleared > 0
        assert tracker.pages_scanned > 0
