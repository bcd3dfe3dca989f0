"""Program container: code, symbols and initial data image.

A :class:`Program` is the repro equivalent of a binary executable.  Code
lives at :data:`CODE_BASE`; each instruction occupies :data:`INSTR_SIZE`
bytes of address space, so the PC advances by 4 per instruction and branch
targets are ordinary absolute addresses.  The initial data image is loaded
at :data:`DATA_BASE` by the kernel's exec.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.instructions import Instr

#: Base virtual address of the code segment (non-PIE, like SPEC binaries).
CODE_BASE = 0x0001_0000
#: Bytes of address space per instruction.
INSTR_SIZE = 4
#: Base virtual address of the initial data segment.
DATA_BASE = 0x0100_0000
#: Initial stack top (stack grows downwards).
STACK_TOP = 0x7FFF_0000
#: Default stack reservation in bytes (workloads are shallow; a small stack
#: keeps process footprints dominated by their actual working sets).
STACK_SIZE = 0x0000_8000


class Program:
    """An executable: instructions, label symbols, and an initial data image."""

    def __init__(self, instrs: List[Instr], labels: Optional[Dict[str, int]] = None,
                 data: bytes = b"", name: str = "a.out"):
        self.instrs = instrs
        #: label name -> absolute code address
        self.labels = dict(labels or {})
        self.data = bytes(data)
        self.name = name
        #: pc -> compiled basic block (:mod:`repro.cpu.blocks`), filled on
        #: first run and shared by every address space loaded from this
        #: program, so ``instrs`` must not change after the first load.
        self.blocks: Dict[int, object] = {}

    def __len__(self) -> int:
        return len(self.instrs)

    @property
    def entry(self) -> int:
        """Entry-point address: the ``main``/``_start`` label if present,
        else the first instruction."""
        for symbol in ("_start", "main"):
            if symbol in self.labels:
                return self.labels[symbol]
        return CODE_BASE

    @property
    def code_end(self) -> int:
        """One past the last code address."""
        return CODE_BASE + len(self.instrs) * INSTR_SIZE

    def address_of(self, label: str) -> int:
        if label not in self.labels:
            raise KeyError(f"no such label: {label}")
        return self.labels[label]

    def index_of_address(self, address: int) -> int:
        """Map a code address to an instruction index."""
        offset = address - CODE_BASE
        if offset < 0 or offset % INSTR_SIZE or offset // INSTR_SIZE >= len(self.instrs):
            raise ValueError(f"address {address:#x} is not a code address")
        return offset // INSTR_SIZE

    @staticmethod
    def address_of_index(index: int) -> int:
        return CODE_BASE + index * INSTR_SIZE
