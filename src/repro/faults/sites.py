"""Generalized fault-site model.

The paper's §5.6 campaign flips register bits in *checker* processes only
(the main's output is the correctness oracle, so it must stay clean).  With
error recovery the oracle is the fault-free reference output instead, which
frees the campaign to attack the **main** as well, and to attack *memory*:

* ``FaultSite.register(...)`` — flip one bit of one register, in the main
  or a checker (the union of GPR/FPR/vector files, as in the paper).
* ``FaultSite.memory(...)`` — flip one bit in one of the target's *dirty*
  pages (pages written since the segment started).  Dirty pages model the
  SEU-in-DRAM/cache case: a flip in data the program is actively using.
  Clean pages still share frames with checkpoint forks, so flipping them
  would corrupt every copy at once — physically that is a multi-process
  upset, which is outside the single-event fault model.

``apply`` returns False when the site cannot be hit right now (no dirty
pages yet); the injector treats that like the paper's missed injections and
retries at the next quantum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.isa.registers import RegisterSite

#: Valid injection targets: which process copy absorbs the flip.
TARGET_MAIN = "main"
TARGET_CHECKER = "checker"

KIND_REGISTER = "register"
KIND_MEMORY = "memory"


@dataclass(frozen=True)
class FaultSite:
    """One single-event upset: where the bit flips."""

    target: str = TARGET_CHECKER    # "main" | "checker"
    kind: str = KIND_REGISTER       # "register" | "memory"
    # register faults
    register_file: str = "gpr"
    register_index: int = 0
    #: Bit index.  Registers: within the register.  Memory: within the page
    #: (bit // 8 = byte offset, modulo the page size).
    bit: int = 0
    #: Memory faults: rank into the target's sorted dirty-page list at the
    #: moment of injection (modulo its length), so one drawn site stays
    #: meaningful whatever the page count turns out to be.
    page_rank: int = 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def register(cls, file: str, index: int, bit: int,
                 target: str = TARGET_CHECKER) -> "FaultSite":
        return cls(target=target, kind=KIND_REGISTER, register_file=file,
                   register_index=index, bit=bit)

    @classmethod
    def memory(cls, page_rank: int, bit: int,
               target: str = TARGET_CHECKER) -> "FaultSite":
        return cls(target=target, kind=KIND_MEMORY, page_rank=page_rank,
                   bit=bit)

    # -- application -------------------------------------------------------

    def apply(self, proc, dirty_vpns: Optional[Iterable[int]] = None) -> bool:
        """Flip the bit in ``proc``.  Returns False if the site cannot be
        hit right now (memory fault with no dirty pages yet)."""
        if self.kind == KIND_REGISTER:
            proc.cpu.regs.flip_bit(self.register_file, self.register_index,
                                   self.bit)
            return True
        vpn = self.page_of(dirty_vpns)
        if vpn is None:
            return False
        page_size = proc.mem.page_size
        offset = (self.bit // 8) % page_size
        address = vpn * page_size + offset
        value = proc.mem.load_byte(address)
        proc.mem.store_byte(address, value ^ (1 << (self.bit % 8)))
        return True

    def page_of(self, vpns: Optional[Iterable[int]]) -> Optional[int]:
        """The page a memory site hits among ``vpns``: ``page_rank``
        into their sorted order; None when there are none."""
        vpns = sorted(vpns or [])
        return vpns[self.page_rank % len(vpns)] if vpns else None

    def describe(self) -> str:
        if self.kind == KIND_REGISTER:
            where = str(RegisterSite(self.register_file, self.register_index,
                                     self.bit))
        else:
            where = f"dirty page #{self.page_rank} bit {self.bit}"
        return f"{self.target}:{where}"
