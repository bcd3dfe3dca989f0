"""Virtual address spaces with copy-on-write sharing.

This is the substrate for Parallaft's checkpointing: ``fork`` marks every
private writable page copy-on-write and shares its frame, so checkpoints are
cheap to take and pages are only duplicated when the main process (or a
checker) first writes to them — exactly the cost structure the paper's
fork-and-COW overhead component measures (§5.2.1).

Dirty-page tracking supports both backends from §4.4:

* ``soft_dirty_vpns`` — the x86_64 soft-dirty PTE bit, set on write and
  cleared explicitly at segment start;
* ``map_count_dirty_vpns`` — the AArch64 ``PAGEMAP_SCAN`` model: a page whose
  frame is mapped exactly once is private (modified or new since the fork),
  one mapped multiple times is still shared and hence unmodified.
"""

from __future__ import annotations

import random
import struct
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import MemoryError_
from repro.isa.instructions import Instr
from repro.isa.program import (
    CODE_BASE,
    DATA_BASE,
    INSTR_SIZE,
    STACK_SIZE,
    STACK_TOP,
    Program,
)
from repro.mem.frames import Frame, FramePool

PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4

MAP_PRIVATE = 1
MAP_SHARED = 2
MAP_ANONYMOUS = 4
MAP_FIXED = 8

#: Base of the mmap area (ASLR randomizes within a window above this).
MMAP_BASE = 0x2000_0000
MMAP_CEILING = 0x6000_0000
#: ASLR entropy window, in pages.
ASLR_WINDOW_PAGES = 4096

# Little-endian 64-bit word access straight on a frame's bytearray.
_unpack_word = struct.Struct("<q").unpack_from
_pack_word = struct.Struct("<Q").pack_into


class PageFault(Exception):
    """Architectural page fault: unmapped address or protection violation.

    Deliberately *not* a ReproError: the CPU interpreter catches it and turns
    it into a SIGSEGV for the faulting process, like hardware would.
    """

    def __init__(self, address: int, access: str):
        super().__init__(f"page fault: {access} at {address:#x}")
        self.address = address
        self.access = access


class Pte:
    """Page-table entry."""

    __slots__ = ("frame", "writable", "cow", "soft_dirty")

    def __init__(self, frame: Frame, writable: bool, cow: bool = False,
                 soft_dirty: bool = False):
        self.frame = frame
        self.writable = writable
        self.cow = cow
        self.soft_dirty = soft_dirty


class Vma:
    """A mapped virtual region."""

    __slots__ = ("start", "end", "prot", "kind", "shared", "name")

    def __init__(self, start: int, end: int, prot: int, kind: str,
                 shared: bool = False, name: str = ""):
        self.start = start
        self.end = end
        self.prot = prot
        self.kind = kind
        self.shared = shared
        self.name = name

    def __repr__(self) -> str:
        return (f"Vma({self.start:#x}-{self.end:#x} prot={self.prot} "
                f"{self.kind}{' ' + self.name if self.name else ''})")

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end


class AddressSpace:
    """One process's virtual memory: page table, VMAs, code segment."""

    def __init__(self, pool: FramePool, aslr: bool = True,
                 rng: Optional[random.Random] = None):
        self.pool = pool
        self.page_size = pool.page_size
        self.aslr = aslr
        self._rng = rng or random.Random(0)
        self.pages: Dict[int, Pte] = {}
        self.vmas: List[Vma] = []
        # Code is a pre-decoded instruction list, patchable (for the mrs ->
        # brk binary patching of paper §4.3.4).  Forks copy the list.
        self.code: List[Instr] = []
        self.code_base = CODE_BASE
        self.brk_base = 0
        self.brk_current = 0
        #: Copy-on-write faults resolved since creation (timing model input).
        self.cow_faults = 0
        #: Pages written (soft-dirty transitions 0->1) since last clear.
        self.dirty_marks = 0

    # -- setup -------------------------------------------------------------

    def load_program(self, program: Program) -> None:
        """Map a program image: code, data+heap, stack."""
        self.code = list(program.instrs)
        self.code_base = CODE_BASE
        data_pages = max(1, -(-len(program.data) // self.page_size))
        self._map_pages(DATA_BASE, data_pages, PROT_READ | PROT_WRITE,
                        kind="data", initial=program.data)
        self.brk_base = DATA_BASE + data_pages * self.page_size
        self.brk_current = self.brk_base
        stack_pages = STACK_SIZE // self.page_size
        self._map_pages(STACK_TOP - STACK_SIZE, stack_pages,
                        PROT_READ | PROT_WRITE, kind="stack")

    def _map_pages(self, start: int, num_pages: int, prot: int, kind: str,
                   initial: bytes = b"", shared: bool = False,
                   name: str = "") -> None:
        if start % self.page_size:
            raise MemoryError_(f"unaligned mapping at {start:#x}")
        for i in range(num_pages):
            vpn = (start // self.page_size) + i
            if vpn in self.pages:
                raise MemoryError_(f"page {vpn:#x} already mapped")
            chunk = initial[i * self.page_size:(i + 1) * self.page_size]
            frame = self.pool.allocate(chunk if chunk else None)
            self.pages[vpn] = Pte(frame, writable=bool(prot & PROT_WRITE))
        self.vmas.append(Vma(start, start + num_pages * self.page_size, prot,
                             kind, shared=shared, name=name))

    # -- mmap family ---------------------------------------------------------

    def mmap(self, addr: int, length: int, prot: int, flags: int,
             name: str = "") -> int:
        """Map ``length`` bytes; returns the chosen address.

        With ``addr == 0`` and no ``MAP_FIXED``, the kernel picks the address
        — randomized when ASLR is on, which is exactly the divergence source
        Parallaft's mmap handler has to fix up (paper §4.3.2).
        """
        if length <= 0:
            raise MemoryError_("mmap length must be positive")
        num_pages = -(-length // self.page_size)
        if flags & MAP_FIXED or (addr and self._range_free(addr, num_pages)):
            if addr % self.page_size:
                raise MemoryError_(f"MAP_FIXED at unaligned {addr:#x}")
            start = addr
            if not self._range_free(start, num_pages):
                self._unmap_range(start, num_pages)  # MAP_FIXED clobbers
        else:
            start = self._find_free_region(num_pages)
        kind = "file" if name else "anon"
        self._map_pages(start, num_pages, prot, kind=kind,
                        shared=bool(flags & MAP_SHARED), name=name)
        return start

    def munmap(self, addr: int, length: int) -> None:
        if addr % self.page_size:
            raise MemoryError_(f"munmap at unaligned {addr:#x}")
        num_pages = -(-length // self.page_size)
        self._unmap_range(addr, num_pages)

    def mprotect(self, addr: int, length: int, prot: int) -> None:
        if addr % self.page_size:
            raise MemoryError_(f"mprotect at unaligned {addr:#x}")
        num_pages = -(-length // self.page_size)
        for i in range(num_pages):
            vpn = addr // self.page_size + i
            pte = self.pages.get(vpn)
            if pte is None:
                raise MemoryError_(f"mprotect of unmapped page {vpn:#x}")
            pte.writable = bool(prot & PROT_WRITE)
        for vma in self.vmas:
            if vma.start <= addr and addr + num_pages * self.page_size <= vma.end:
                vma.prot = prot
                break

    def brk(self, new_brk: int) -> int:
        """Grow (or query, with 0) the heap break."""
        if new_brk == 0 or new_brk < self.brk_base:
            return self.brk_current
        new_end = -(-new_brk // self.page_size) * self.page_size
        current_end = -(-self.brk_current // self.page_size) * self.page_size
        if self.brk_current == self.brk_base:
            current_end = self.brk_base
        if new_end > current_end:
            pages = (new_end - current_end) // self.page_size
            self._map_pages(current_end, pages, PROT_READ | PROT_WRITE,
                            kind="heap")
        self.brk_current = new_brk
        return self.brk_current

    def _range_free(self, start: int, num_pages: int) -> bool:
        base_vpn = start // self.page_size
        return all(base_vpn + i not in self.pages for i in range(num_pages))

    def _find_free_region(self, num_pages: int) -> int:
        if self.aslr:
            for _ in range(64):
                slot = self._rng.randrange(ASLR_WINDOW_PAGES)
                start = MMAP_BASE + slot * self.page_size * 16
                if start + num_pages * self.page_size <= MMAP_CEILING and \
                        self._range_free(start, num_pages):
                    return start
        start = MMAP_BASE
        while start + num_pages * self.page_size <= MMAP_CEILING:
            if self._range_free(start, num_pages):
                return start
            start += self.page_size
        raise MemoryError_("mmap region exhausted")

    def _unmap_range(self, start: int, num_pages: int) -> None:
        base_vpn = start // self.page_size
        for i in range(num_pages):
            pte = self.pages.pop(base_vpn + i, None)
            if pte is not None:
                self.pool.decref(pte.frame)
        end = start + num_pages * self.page_size
        new_vmas: List[Vma] = []
        for vma in self.vmas:
            if vma.end <= start or vma.start >= end:
                new_vmas.append(vma)
                continue
            if vma.start < start:
                new_vmas.append(Vma(vma.start, start, vma.prot, vma.kind,
                                    vma.shared, vma.name))
            if vma.end > end:
                new_vmas.append(Vma(end, vma.end, vma.prot, vma.kind,
                                    vma.shared, vma.name))
        self.vmas = new_vmas

    # -- data access ---------------------------------------------------------

    def _pte_for_read(self, address: int) -> Tuple[Pte, int]:
        vpn, offset = divmod(address, self.page_size)
        pte = self.pages.get(vpn)
        if pte is None:
            raise PageFault(address, "read")
        return pte, offset

    def _pte_for_write(self, address: int) -> Tuple[Pte, int]:
        vpn, offset = divmod(address, self.page_size)
        pte = self.pages.get(vpn)
        if pte is None:
            raise PageFault(address, "write")
        if not pte.writable:
            raise PageFault(address, "write")
        if pte.cow:
            self._resolve_cow(pte)
        if not pte.soft_dirty:
            pte.soft_dirty = True
            self.dirty_marks += 1
        return pte, offset

    def _resolve_cow(self, pte: Pte) -> None:
        if pte.frame.refcount > 1:
            new_frame = self.pool.clone(pte.frame)
            self.pool.decref(pte.frame)
            pte.frame = new_frame
            self.cow_faults += 1
        pte.cow = False

    def load_word(self, address: int) -> int:
        if address % 8:
            raise PageFault(address, "misaligned-read")
        pte, offset = self._pte_for_read(address)
        return _unpack_word(pte.frame.data, offset)[0]

    def store_word(self, address: int, value: int) -> None:
        if address % 8:
            raise PageFault(address, "misaligned-write")
        pte, offset = self._pte_for_write(address)
        _pack_word(pte.frame.data, offset, value & 0xFFFF_FFFF_FFFF_FFFF)

    def load_byte(self, address: int) -> int:
        pte, offset = self._pte_for_read(address)
        return pte.frame.data[offset]

    def store_byte(self, address: int, value: int) -> None:
        pte, offset = self._pte_for_write(address)
        pte.frame.data[offset] = value & 0xFF

    def read_bytes(self, address: int, length: int) -> bytes:
        """Kernel-side buffer read (syscall arguments, comparator)."""
        out = bytearray()
        while length > 0:
            pte, offset = self._pte_for_read(address)
            take = min(length, self.page_size - offset)
            out.extend(pte.frame.data[offset:offset + take])
            address += take
            length -= take
        return bytes(out)

    def write_bytes(self, address: int, data: bytes, force: bool = False) -> None:
        """Kernel-side buffer write (syscall results, replay injection).

        With ``force`` the write ignores page protection (kernel-mode write,
        e.g. populating a read-only file mapping); COW resolution and
        soft-dirty marking still apply.
        """
        position = 0
        while position < len(data):
            if force:
                vpn, offset = divmod(address + position, self.page_size)
                pte = self.pages.get(vpn)
                if pte is None:
                    raise PageFault(address + position, "write")
                if pte.cow:
                    self._resolve_cow(pte)
                if not pte.soft_dirty:
                    pte.soft_dirty = True
                    self.dirty_marks += 1
            else:
                pte, offset = self._pte_for_write(address + position)
            take = min(len(data) - position, self.page_size - offset)
            pte.frame.data[offset:offset + take] = data[position:position + take]
            position += take

    # -- code segment ----------------------------------------------------------

    def fetch(self, pc: int) -> Instr:
        index = (pc - self.code_base) >> 2
        if index < 0 or index >= len(self.code):
            raise PageFault(pc, "exec")
        return self.code[index]

    def patch_code(self, address: int, instr: Instr) -> Instr:
        """Replace the instruction at ``address``; returns the original."""
        index = (address - self.code_base) // INSTR_SIZE
        if index < 0 or index >= len(self.code):
            raise MemoryError_(f"patch outside code segment: {address:#x}")
        original = self.code[index]
        self.code[index] = instr
        return original

    def scan_code(self) -> Iterable[Tuple[int, Instr]]:
        """Iterate (address, instruction) over the executable segment."""
        for index, instr in enumerate(self.code):
            yield self.code_base + index * INSTR_SIZE, instr

    # -- fork / lifetime ---------------------------------------------------------

    def fork(self) -> "AddressSpace":
        """Clone this address space copy-on-write.

        Private writable pages in both parent and child become COW; shared
        mappings keep sharing their frames (and stay writable).
        """
        child = AddressSpace(self.pool, aslr=self.aslr, rng=self._rng)
        child.code = list(self.code)
        child.code_base = self.code_base
        child.brk_base = self.brk_base
        child.brk_current = self.brk_current
        child.vmas = [Vma(v.start, v.end, v.prot, v.kind, v.shared, v.name)
                      for v in self.vmas]
        shared_vpns = set()
        for vma in self.vmas:
            if vma.shared:
                first = vma.start // self.page_size
                last = -(-vma.end // self.page_size)
                shared_vpns.update(range(first, last))
        for vpn, pte in self.pages.items():
            self.pool.incref(pte.frame)
            if vpn in shared_vpns:
                child.pages[vpn] = Pte(pte.frame, pte.writable)
            else:
                if pte.writable:
                    pte.cow = True
                child.pages[vpn] = Pte(pte.frame, pte.writable,
                                       cow=pte.writable)
        return child

    def destroy(self) -> None:
        for pte in self.pages.values():
            self.pool.decref(pte.frame)
        self.pages.clear()
        self.vmas.clear()
        self.code = []

    # -- accounting / dirty tracking -----------------------------------------

    @property
    def mapped_pages(self) -> int:
        return len(self.pages)

    def pss_bytes(self) -> float:
        """Proportional set size: each frame's size divided by its map count
        (paper §5.1 footnote 12)."""
        return sum(self.page_size / pte.frame.refcount
                   for pte in self.pages.values())

    def rss_bytes(self) -> int:
        return len(self.pages) * self.page_size

    def clear_soft_dirty(self) -> int:
        """Clear all soft-dirty bits; returns how many were set."""
        cleared = 0
        for pte in self.pages.values():
            if pte.soft_dirty:
                pte.soft_dirty = False
                cleared += 1
        self.dirty_marks = 0
        return cleared

    def soft_dirty_vpns(self) -> List[int]:
        """x86_64-style: pages whose soft-dirty bit is set."""
        return sorted(vpn for vpn, pte in self.pages.items() if pte.soft_dirty)

    def map_count_dirty_vpns(self) -> List[int]:
        """AArch64 PAGEMAP_SCAN-style: pages whose frame is mapped once."""
        return sorted(vpn for vpn, pte in self.pages.items()
                      if pte.frame.refcount == 1)

    def page_bytes(self, vpn: int) -> bytes:
        pte = self.pages.get(vpn)
        if pte is None:
            raise MemoryError_(f"page {vpn:#x} not mapped")
        return bytes(pte.frame.data)

    def frame_id(self, vpn: int) -> int:
        pte = self.pages.get(vpn)
        if pte is None:
            raise MemoryError_(f"page {vpn:#x} not mapped")
        return pte.frame.frame_id
