"""Tests for frames, COW address spaces and dirty-page tracking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import MemoryError_
from repro.isa import DATA_BASE, assemble
from repro.mem import (
    MAP_ANONYMOUS,
    MAP_FIXED,
    MAP_PRIVATE,
    MAP_SHARED,
    AddressSpace,
    FramePool,
    PageFault,
)
from repro.mem.address_space import PROT_READ, PROT_WRITE

PAGE = 4096


def make_space(page_size=PAGE, aslr=False):
    pool = FramePool(page_size)
    space = AddressSpace(pool, aslr=aslr)
    return pool, space


def make_loaded_space(page_size=PAGE, data=b"", aslr=False):
    pool, space = make_space(page_size, aslr=aslr)
    program = assemble(".data\nblob: .space 8\n.text\nhalt\n")
    program = type(program)(program.instrs, program.labels,
                            data or program.data, "t")
    space.load_program(program)
    return pool, space


class TestFramePool:
    def test_allocate_zeroed(self):
        pool = FramePool(PAGE)
        frame = pool.allocate()
        assert frame.data == bytearray(PAGE)
        assert frame.refcount == 1

    def test_allocate_with_data(self):
        pool = FramePool(PAGE)
        frame = pool.allocate(b"hello")
        assert frame.data[:5] == b"hello"
        assert frame.data[5:] == bytearray(PAGE - 5)

    def test_oversized_data_rejected(self):
        pool = FramePool(PAGE)
        with pytest.raises(ValueError):
            pool.allocate(b"x" * (PAGE + 1))

    def test_clone_copies_content(self):
        pool = FramePool(PAGE)
        frame = pool.allocate(b"abc")
        copy = pool.clone(frame)
        assert copy.data == frame.data
        copy.data[0] = 0xFF
        assert frame.data[0] == ord("a")

    def test_refcounting_frees(self):
        pool = FramePool(PAGE)
        frame = pool.allocate()
        pool.incref(frame)
        pool.decref(frame)
        assert pool.live_frame(frame.frame_id) is frame
        pool.decref(frame)
        assert pool.live_frame(frame.frame_id) is None
        assert pool.frames_freed == 1

    def test_double_free_raises(self):
        pool = FramePool(PAGE)
        frame = pool.allocate()
        pool.decref(frame)
        with pytest.raises(ValueError):
            pool.decref(frame)

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            FramePool(100)  # not a multiple of 8
        with pytest.raises(ValueError):
            FramePool(0)


class TestLoadStore:
    def test_word_round_trip(self):
        _, space = make_loaded_space()
        space.store_word(DATA_BASE, -123456789)
        assert space.load_word(DATA_BASE) == -123456789

    @given(st.one_of(st.sampled_from([-2**63, -2**63 + 1, -1, 0, 1,
                                      2**63 - 1, 2**63, 2**64 - 1]),
                     st.integers(min_value=-2**63, max_value=2**64 - 1)),
           st.integers(min_value=0, max_value=PAGE // 8 - 1))
    @settings(max_examples=200, deadline=None)
    def test_word_round_trip_matches_int_bytes(self, value, word):
        """Stores wrap to 64 bits little-endian; loads read them back
        signed — the ``int.to_bytes``/``int.from_bytes`` semantics."""
        _, space = make_loaded_space()
        address = DATA_BASE + word * 8
        raw = (value & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "little")
        space.store_word(address, value)
        assert space.read_bytes(address, 8) == raw
        assert space.load_word(address) == \
            int.from_bytes(raw, "little", signed=True)

    def test_byte_round_trip(self):
        _, space = make_loaded_space()
        space.store_byte(DATA_BASE + 3, 0xAB)
        assert space.load_byte(DATA_BASE + 3) == 0xAB

    def test_unmapped_read_faults(self):
        _, space = make_loaded_space()
        with pytest.raises(PageFault):
            space.load_word(0x9999_0000)

    def test_misaligned_word_faults(self):
        _, space = make_loaded_space()
        with pytest.raises(PageFault):
            space.load_word(DATA_BASE + 1)
        with pytest.raises(PageFault):
            space.store_word(DATA_BASE + 4, 0)  # 4 is not 8-aligned

    def test_read_write_bytes_cross_page(self):
        _, space = make_loaded_space()
        blob = bytes(range(256)) * 40  # 10240 bytes, crosses pages
        base = space.mmap(0, 3 * PAGE, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS)
        space.write_bytes(base + 100, blob)
        assert space.read_bytes(base + 100, len(blob)) == blob

    def test_word_is_little_endian_in_memory(self):
        _, space = make_loaded_space()
        space.store_word(DATA_BASE, 0x0102030405060708)
        assert space.read_bytes(DATA_BASE, 8) == bytes(
            [8, 7, 6, 5, 4, 3, 2, 1])


class TestMmap:
    def test_anonymous_mapping(self):
        _, space = make_loaded_space()
        addr = space.mmap(0, PAGE, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS)
        assert addr % PAGE == 0
        space.store_word(addr, 7)
        assert space.load_word(addr) == 7

    def test_map_fixed_honored(self):
        _, space = make_loaded_space()
        target = 0x3000_0000
        addr = space.mmap(target, PAGE, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        assert addr == target

    def test_aslr_randomizes_addresses(self):
        import random
        pool = FramePool(PAGE)
        a = AddressSpace(pool, aslr=True, rng=random.Random(1))
        b = AddressSpace(pool, aslr=True, rng=random.Random(2))
        addr_a = a.mmap(0, PAGE, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS)
        addr_b = b.mmap(0, PAGE, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS)
        assert addr_a != addr_b

    def test_no_aslr_is_deterministic(self):
        _, space_a = make_loaded_space()
        _, space_b = make_loaded_space()
        addr_a = space_a.mmap(0, PAGE, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS)
        addr_b = space_b.mmap(0, PAGE, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS)
        assert addr_a == addr_b

    def test_munmap_unmaps(self):
        _, space = make_loaded_space()
        addr = space.mmap(0, 2 * PAGE, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS)
        space.munmap(addr, 2 * PAGE)
        with pytest.raises(PageFault):
            space.load_word(addr)

    def test_munmap_releases_frames(self):
        pool, space = make_loaded_space()
        before = len(pool)
        addr = space.mmap(0, 4 * PAGE, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS)
        assert len(pool) == before + 4
        space.munmap(addr, 4 * PAGE)
        assert len(pool) == before

    def test_mprotect_read_only_blocks_writes(self):
        _, space = make_loaded_space()
        addr = space.mmap(0, PAGE, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS)
        space.mprotect(addr, PAGE, PROT_READ)
        with pytest.raises(PageFault):
            space.store_word(addr, 1)
        assert space.load_word(addr) == 0

    def test_brk_grows_heap(self):
        _, space = make_loaded_space()
        start = space.brk(0)
        new_brk = space.brk(start + 3 * PAGE)
        assert new_brk == start + 3 * PAGE
        space.store_word(start, 99)
        assert space.load_word(start) == 99

    def test_brk_query_does_not_grow(self):
        _, space = make_loaded_space()
        start = space.brk(0)
        assert space.brk(0) == start

    def test_bad_length_rejected(self):
        _, space = make_loaded_space()
        with pytest.raises(MemoryError_):
            space.mmap(0, 0, PROT_READ, MAP_PRIVATE)


class TestForkCow:
    def test_fork_shares_frames(self):
        pool, space = make_loaded_space()
        space.store_word(DATA_BASE, 41)
        frames_before = len(pool)
        child = space.fork()
        assert len(pool) == frames_before  # nothing copied yet
        assert child.load_word(DATA_BASE) == 41

    def test_write_after_fork_copies_one_page(self):
        pool, space = make_loaded_space()
        child = space.fork()
        copied_before = pool.frames_copied
        space.store_word(DATA_BASE, 1)
        assert pool.frames_copied == copied_before + 1
        assert child.load_word(DATA_BASE) == 0
        assert space.load_word(DATA_BASE) == 1

    def test_child_write_does_not_leak_to_parent(self):
        _, space = make_loaded_space()
        space.store_word(DATA_BASE, 5)
        child = space.fork()
        child.store_word(DATA_BASE, 6)
        assert space.load_word(DATA_BASE) == 5
        assert child.load_word(DATA_BASE) == 6

    def test_cow_fault_counter(self):
        _, space = make_loaded_space()
        space.fork()
        base = space.cow_faults
        space.store_word(DATA_BASE, 1)
        space.store_word(DATA_BASE + 8, 2)  # same page: only one fault
        assert space.cow_faults == base + 1

    def test_second_fork_of_same_page(self):
        _, space = make_loaded_space()
        child1 = space.fork()
        child2 = space.fork()
        space.store_word(DATA_BASE, 10)
        assert child1.load_word(DATA_BASE) == 0
        assert child2.load_word(DATA_BASE) == 0

    def test_last_owner_write_skips_copy(self):
        pool, space = make_loaded_space()
        child = space.fork()
        child.destroy()
        copied_before = pool.frames_copied
        space.store_word(DATA_BASE, 1)
        # refcount back to 1: no copy needed even though PTE was COW
        assert pool.frames_copied == copied_before

    def test_destroy_releases_everything(self):
        pool, space = make_loaded_space()
        child = space.fork()
        child.destroy()
        space.destroy()
        assert len(pool) == 0

    def test_fork_copies_code_list(self):
        from repro.isa import Instr, make_brk
        _, space = make_loaded_space()
        child = space.fork()
        original = space.code[0]
        space.patch_code(space.code_base, make_brk())
        assert child.code[0] == original

    def test_fork_preserves_brk(self):
        _, space = make_loaded_space()
        space.brk(space.brk(0) + PAGE)
        child = space.fork()
        assert child.brk(0) == space.brk(0)

    def test_shared_mapping_not_cow(self):
        _, space = make_loaded_space()
        addr = space.mmap(0, PAGE, PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_ANONYMOUS)
        child = space.fork()
        space.store_word(addr, 123)
        assert child.load_word(addr) == 123  # shared: visible to child


class TestDirtyTracking:
    def test_soft_dirty_set_on_write(self):
        _, space = make_loaded_space()
        space.clear_soft_dirty()
        space.store_word(DATA_BASE, 1)
        vpns = space.soft_dirty_vpns()
        assert vpns == [DATA_BASE // PAGE]

    def test_clear_soft_dirty_resets(self):
        _, space = make_loaded_space()
        space.store_word(DATA_BASE, 1)
        assert space.clear_soft_dirty() >= 1
        assert space.soft_dirty_vpns() == []

    def test_map_count_dirty_after_fork(self):
        _, space = make_loaded_space()
        child = space.fork()
        assert child.map_count_dirty_vpns() == []  # everything shared
        child.store_word(DATA_BASE, 7)
        assert child.map_count_dirty_vpns() == [DATA_BASE // PAGE]

    def test_map_count_includes_new_pages(self):
        _, space = make_loaded_space()
        child = space.fork()
        addr = child.mmap(0, PAGE, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS)
        assert addr // PAGE in child.map_count_dirty_vpns()

    def test_both_backends_agree_after_fork(self):
        _, space = make_loaded_space()
        child = space.fork()
        child.clear_soft_dirty()
        child.store_word(DATA_BASE, 3)
        assert child.soft_dirty_vpns() == child.map_count_dirty_vpns()

    def test_page_bytes_reflects_stores(self):
        _, space = make_loaded_space()
        space.store_byte(DATA_BASE + 5, 0x7F)
        page = space.page_bytes(DATA_BASE // PAGE)
        assert page[5] == 0x7F

    @given(st.lists(st.integers(min_value=0, max_value=PAGE // 8 - 1),
                    min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_dirty_iff_written_property(self, offsets):
        _, space = make_loaded_space()
        child = space.fork()
        child.clear_soft_dirty()
        for offset in offsets:
            child.store_word(DATA_BASE + offset * 8, offset)
        assert child.soft_dirty_vpns() == [DATA_BASE // PAGE]
        # Untouched stack pages stay clean in both backends.
        assert DATA_BASE // PAGE in child.map_count_dirty_vpns()


class TestAccounting:
    def test_pss_splits_shared_frames(self):
        _, space = make_loaded_space()
        rss = space.rss_bytes()
        assert space.pss_bytes() == pytest.approx(rss)
        child = space.fork()
        # All frames now shared by two spaces.
        assert space.pss_bytes() == pytest.approx(rss / 2)
        assert child.pss_bytes() == pytest.approx(rss / 2)

    def test_pss_grows_after_cow(self):
        _, space = make_loaded_space()
        space.fork()
        before = space.pss_bytes()
        space.store_word(DATA_BASE, 1)
        assert space.pss_bytes() > before

    def test_mapped_pages_counts(self):
        _, space = make_loaded_space()
        pages = space.mapped_pages
        space.mmap(0, 2 * PAGE, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS)
        assert space.mapped_pages == pages + 2


class TestBufferAccess:
    """``read_bytes``/``write_bytes``, page by page across boundaries."""

    BASE = 0x4000_0000

    def three_pages(self):
        """Three private writable pages at ``BASE``, pages 0 and 2 filled
        with their index."""
        pool, space = make_space()
        space.mmap(self.BASE, 3 * PAGE, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED)
        for page in (0, 2):
            space.write_bytes(self.BASE + page * PAGE, bytes([page]) * PAGE)
        return pool, space

    def page_bytes(self, space, page):
        return space.page_bytes(self.BASE // PAGE + page)

    def test_round_trip_across_pages(self):
        _, space = self.three_pages()
        data = bytes(range(251)) * 40     # 10,040 bytes over three pages
        space.write_bytes(self.BASE + 100, data)
        read = space.read_bytes(self.BASE + 100, len(data))
        assert type(read) is bytes and read == data
        assert bytes(space.load_byte(self.BASE + 100 + i)
                     for i in range(0, len(data), 97)) == data[::97]
        assert space.read_bytes(self.BASE, 100) == bytes(100)
        end = self.BASE + 100 + len(data)
        assert space.read_bytes(end, 3 * PAGE - 100 - len(data)) == \
            bytes([2]) * (3 * PAGE - 100 - len(data))

    def test_read_crossing_into_unmapped_page_faults_there(self):
        _, space = self.three_pages()
        space.munmap(self.BASE + 2 * PAGE, PAGE)
        with pytest.raises(PageFault) as info:
            space.read_bytes(self.BASE + PAGE + 8, PAGE)
        assert info.value.address == self.BASE + 2 * PAGE
        assert info.value.access == "read"

    def test_zero_length_touches_no_page(self):
        _, space = make_space()
        assert space.read_bytes(0x7000_0000, 0) == b""
        space.write_bytes(0x7000_0000, b"")
        assert space.dirty_marks == 0

    def test_write_fault_mid_span_keeps_exactly_the_earlier_pages(self):
        _, space = self.three_pages()
        space.mprotect(self.BASE + 2 * PAGE, PAGE, PROT_READ)
        space.clear_soft_dirty()
        with pytest.raises(PageFault) as info:
            space.write_bytes(self.BASE + 8, b"\xab" * (3 * PAGE - 16))
        assert info.value.address == self.BASE + 2 * PAGE
        assert info.value.access == "write"
        assert self.page_bytes(space, 0) == bytes(8) + b"\xab" * (PAGE - 8)
        assert self.page_bytes(space, 1) == b"\xab" * PAGE
        assert self.page_bytes(space, 2) == bytes([2]) * PAGE
        assert space.dirty_marks == 2

    def test_force_writes_a_read_only_page(self):
        _, space = self.three_pages()
        space.mprotect(self.BASE + PAGE, PAGE, PROT_READ)
        data = b"\x5a" * (PAGE + 64)
        with pytest.raises(PageFault):
            space.write_bytes(self.BASE + PAGE - 32, data)
        space.write_bytes(self.BASE + PAGE - 32, data, force=True)
        assert space.read_bytes(self.BASE + PAGE - 32, len(data)) == data
        assert self.page_bytes(space, 2)[:32] == b"\x5a" * 32

    def test_copy_on_write_is_resolved_per_written_page(self):
        pool, space = self.three_pages()
        child = space.fork()
        copies = pool.frames_copied
        faults = space.cow_faults
        space.write_bytes(self.BASE + PAGE - 4, b"\x77" * 8)  # pages 0, 1
        assert space.cow_faults == faults + 2
        assert pool.frames_copied == copies + 2
        first = self.BASE // PAGE
        assert space.frame_id(first) != child.frame_id(first)
        assert space.frame_id(first + 1) != child.frame_id(first + 1)
        assert space.frame_id(first + 2) == child.frame_id(first + 2)
        assert child.read_bytes(self.BASE + PAGE - 4, 8) == \
            bytes(4) + bytes(4)
        assert space.read_bytes(self.BASE + PAGE - 4, 8) == b"\x77" * 8

    def test_soft_dirty_marked_once_per_written_page(self):
        _, space = self.three_pages()
        space.clear_soft_dirty()
        space.write_bytes(self.BASE + 2 * PAGE - 1, b"\x01\x02")
        first = self.BASE // PAGE
        assert space.soft_dirty_vpns() == [first + 1, first + 2]
        assert space.dirty_marks == 2
        space.write_bytes(self.BASE + 2 * PAGE, b"\x03" * 16)
        assert space.dirty_marks == 2
