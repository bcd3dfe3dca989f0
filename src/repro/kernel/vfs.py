"""A minimal virtual filesystem.

Provides exactly what the workloads and the evaluation need: a console that
captures program output (correctness oracle for fault injection), byte
devices (``/dev/zero``, ``/dev/urandom``), and named in-memory input files
the benchmark harness registers (SPEC-style input sets; also the target of
file-backed ``mmap``, whose handling Parallaft special-cases, paper §4.3.2).
"""

from __future__ import annotations

import random
from typing import Dict, Optional


class FileObject:
    """Base file object.  Positions are per-open-file (per-process after
    fork the description is duplicated, like O_CLOEXEC-less CLONE)."""

    name = "?"
    mappable = False

    def read(self, length: int) -> bytes:
        raise NotImplementedError

    def write(self, data: bytes) -> int:
        raise NotImplementedError

    def content(self) -> bytes:
        """Full backing content, for file-backed mmap."""
        raise NotImplementedError

    def clone(self) -> "FileObject":
        """Duplicate for fork (independent offset)."""
        return self


class Console(FileObject):
    """Write-only sink capturing program output."""

    def __init__(self, label: str = "stdout"):
        self.name = label
        self.buffer = bytearray()

    def read(self, length: int) -> bytes:
        return b""

    def write(self, data: bytes) -> int:
        self.buffer.extend(data)
        return len(data)

    def text(self) -> str:
        return self.buffer.decode("utf-8", errors="replace")

    def mark(self) -> int:
        """Current buffer position, for later :meth:`truncate`."""
        return len(self.buffer)

    def truncate(self, mark: int) -> int:
        """Discard everything written after ``mark``; returns bytes dropped.

        Used by checkpoint rollback: output a discarded execution produced
        must not escape the sphere of replication, so the console models a
        commit-on-verify buffer.
        """
        dropped = len(self.buffer) - mark
        if dropped > 0:
            del self.buffer[mark:]
        return max(dropped, 0)


class NullSink(FileObject):
    """Console stand-in for checker processes whose output must not reach
    the outside world twice (Parallaft replays write results instead)."""

    name = "null"

    def read(self, length: int) -> bytes:
        return b""

    def write(self, data: bytes) -> int:
        return len(data)


class DevZero(FileObject):
    name = "/dev/zero"

    def __init__(self):
        #: The zeros of the last read: a loop of equal reads (the 1 MB
        #: read stress) allocates them once.
        self._zeros = b""

    def read(self, length: int) -> bytes:
        if len(self._zeros) != length:
            self._zeros = bytes(length)
        return self._zeros

    def write(self, data: bytes) -> int:
        return len(data)


class DevUrandom(FileObject):
    """Nondeterministic byte stream (deterministic per kernel seed, but
    *different on every read*, so main and checker reads diverge unless
    record/replayed)."""

    name = "/dev/urandom"

    def __init__(self, rng: random.Random):
        self._rng = rng

    def read(self, length: int) -> bytes:
        return bytes(self._rng.getrandbits(8) for _ in range(length))

    def write(self, data: bytes) -> int:
        return len(data)


class MemFile(FileObject):
    """In-memory regular file with an independent offset per open."""

    mappable = True

    def __init__(self, name: str, data: bytes, offset: int = 0):
        self.name = name
        self._data = bytes(data)
        self._offset = offset

    def read(self, length: int) -> bytes:
        chunk = self._data[self._offset:self._offset + length]
        self._offset += len(chunk)
        return chunk

    def write(self, data: bytes) -> int:
        prefix = self._data[:self._offset]
        suffix = self._data[self._offset + len(data):]
        self._data = prefix + bytes(data) + suffix
        self._offset += len(data)
        return len(data)

    def content(self) -> bytes:
        return self._data

    def clone(self) -> "MemFile":
        return MemFile(self.name, self._data, self._offset)


class Vfs:
    """Path registry: devices plus harness-registered input files."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._files: Dict[str, bytes] = {}

    def register(self, path: str, data: bytes) -> None:
        self._files[path] = bytes(data)

    def open(self, path: str) -> Optional[FileObject]:
        if path == "/dev/zero":
            return DevZero()
        if path == "/dev/urandom":
            return DevUrandom(self._rng)
        if path in self._files:
            return MemFile(path, self._files[path])
        return None
