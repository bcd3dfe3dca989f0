"""Physical frame pool with reference counting.

Frames are shared between address spaces by copy-on-write ``fork`` (paper
§4.3) and the reference count doubles as the kernel's "number of maps" for
the AArch64-style ``PAGEMAP_SCAN`` dirty-page backend (paper §4.4): a frame
mapped exactly once is private to its process — i.e. written or newly
allocated since the fork — while a frame mapped more than once is still
shared with the checkpoint/checker and therefore unmodified.

The pool can be given a finite byte budget (``budget_bytes``), making it
behave like real RAM: allocations past the budget first invoke the
``reclaim_hook`` (the pressure controller's emergency-reclaim path) and, if
that fails to make room, raise :class:`FramePoolExhausted`.  Accounting is
exact and COW-aware — ``resident_bytes`` counts each unique live frame once
regardless of how many address spaces map it, and is maintained
incrementally so it is authoritative at every instant.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

from repro.common.errors import FramePoolExhausted


def budget_from_env(var: str = "REPRO_MEM_BUDGET") -> Optional[int]:
    """Default frame-pool budget from the environment (bytes), or None.

    Lets the whole suite run under a finite budget (CI's pressure-coverage
    job) without threading a parameter through every entry point.
    """
    raw = os.environ.get(var)
    if not raw:
        return None
    return int(raw)


class Frame:
    """One physical page frame."""

    __slots__ = ("frame_id", "data", "refcount", "__weakref__")

    def __init__(self, frame_id: int, data: bytearray):
        self.frame_id = frame_id
        self.data = data
        self.refcount = 1

    def __repr__(self) -> str:
        return f"Frame(id={self.frame_id}, refs={self.refcount})"


class FramePool:
    """Allocator for physical frames.

    Tracks totals so the harness can account memory the way the paper does
    (proportional set size: frame size divided by its map count).
    """

    def __init__(self, page_size: int, budget_bytes: Optional[int] = None):
        if page_size <= 0 or page_size % 8:
            raise ValueError(f"page size must be a positive multiple of 8: {page_size}")
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(f"budget must be positive: {budget_bytes}")
        self.page_size = page_size
        self.budget_bytes = budget_bytes
        self._next_id = 1
        self._frames: Dict[int, Frame] = {}
        self._resident_bytes = 0
        #: high-water mark of ``resident_bytes`` over the pool's lifetime
        self.peak_resident_bytes = 0
        #: called with the shortfall in bytes when an allocation would
        #: exceed the budget; may free frames (via ``decref``) to make room
        self.reclaim_hook: Optional[Callable[[int], None]] = None
        #: cumulative counters for the timing/energy model
        self.frames_allocated = 0
        self.frames_copied = 0
        self.frames_freed = 0

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    def set_budget(self, budget_bytes: Optional[int]) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(f"budget must be positive: {budget_bytes}")
        self.budget_bytes = budget_bytes

    def _reserve(self, nbytes: int) -> None:
        """Account ``nbytes`` of new residency, enforcing the budget."""
        if (self.budget_bytes is not None
                and self._resident_bytes + nbytes > self.budget_bytes):
            if self.reclaim_hook is not None:
                self.reclaim_hook(nbytes)
            if self._resident_bytes + nbytes > self.budget_bytes:
                raise FramePoolExhausted(
                    nbytes, self._resident_bytes, self.budget_bytes)
        self._resident_bytes += nbytes
        if self._resident_bytes > self.peak_resident_bytes:
            self.peak_resident_bytes = self._resident_bytes

    def allocate(self, data: Optional[bytes] = None) -> Frame:
        """Allocate a fresh frame, zero-filled or initialized from ``data``."""
        if data is None:
            payload = bytearray(self.page_size)
        else:
            if len(data) > self.page_size:
                raise ValueError("initial data larger than a page")
            payload = bytearray(self.page_size)
            payload[:len(data)] = data
        self._reserve(self.page_size)
        frame = Frame(self._next_id, payload)
        self._next_id += 1
        self._frames[frame.frame_id] = frame
        self.frames_allocated += 1
        return frame

    def clone(self, frame: Frame) -> Frame:
        """Copy-on-write resolution: duplicate ``frame`` into a private copy."""
        self._reserve(self.page_size)
        copy = Frame(self._next_id, bytearray(frame.data))
        self._next_id += 1
        self._frames[copy.frame_id] = copy
        self.frames_allocated += 1
        self.frames_copied += 1
        return copy

    def incref(self, frame: Frame) -> None:
        frame.refcount += 1

    def decref(self, frame: Frame) -> None:
        if frame.refcount <= 0:
            raise ValueError(f"decref of dead frame {frame.frame_id}")
        frame.refcount -= 1
        if frame.refcount == 0:
            del self._frames[frame.frame_id]
            self.frames_freed += 1
            self._resident_bytes -= self.page_size

    def live_frame(self, frame_id: int) -> Optional[Frame]:
        return self._frames.get(frame_id)
