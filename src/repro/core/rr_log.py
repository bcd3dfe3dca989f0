"""The record/replay log (paper §3.2, §4.3).

While the main process executes a segment, every interaction with the
outside world is recorded: syscalls (number, arguments, input data, result,
output data), signals (with the execution point of delivery), and
nondeterministic instructions (pc + value).  A checker replaying the segment
consumes the records in order; any disagreement between what the checker
does and what was recorded is a detected divergence.

Replay correctness hinges entirely on log integrity (rr makes the same
assumption explicit): a flipped bit in a stored record silently poisons
the checker's view of the world.  With ``ParallaftConfig.log_checksums``
on, :meth:`RrLog.append` stamps each record with a monotonic sequence
number and a content checksum; :func:`verify_record` re-checks both just
before the cursor consumes the record, so corruption (or reordering /
splicing) surfaces as a typed ``log_integrity`` error instead of a bogus
replay divergence — or worse, a silent escape.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.hashing import Xxh3_64


class Record:
    """Base class so the replay cursor can type-check what it dequeues."""

    kind = "?"


class SyscallRecord(Record):
    kind = "syscall"

    __slots__ = ("sysno", "args", "input_data", "result", "output_addr",
                 "output_data", "classification", "replay_passthrough",
                 "fixed_args")

    def __init__(self, sysno: int, args: Tuple[int, ...],
                 classification: str,
                 input_data: bytes = b"",
                 result: int = 0,
                 output_addr: int = 0,
                 output_data: bytes = b"",
                 replay_passthrough: bool = False,
                 fixed_args: Optional[Tuple[int, ...]] = None):
        self.sysno = sysno
        self.args = args
        self.classification = classification
        self.input_data = input_data
        self.result = result
        self.output_addr = output_addr
        self.output_data = output_data
        #: Locally-effectful syscalls are re-executed by the checker rather
        #: than emulated (paper §4.3.1).
        self.replay_passthrough = replay_passthrough
        #: Argument rewrite applied at replay (mmap MAP_FIXED, §4.3.2).
        self.fixed_args = fixed_args

    def __repr__(self) -> str:
        return (f"SyscallRecord({self.sysno}, args={self.args}, "
                f"class={self.classification}, result={self.result})")


class SignalRecord(Record):
    kind = "signal"

    __slots__ = ("signo", "external", "exec_point")

    def __init__(self, signo: int, external: bool, exec_point=None):
        self.signo = signo
        self.external = external
        #: For external signals: the ExecPoint where delivery happened in
        #: the main, so the checker receives it at the same point (§4.3.3).
        self.exec_point = exec_point

    def __repr__(self) -> str:
        return (f"SignalRecord({self.signo}, "
                f"{'external' if self.external else 'internal'})")


class NondetRecord(Record):
    kind = "nondet"

    __slots__ = ("pc", "opcode", "value")

    def __init__(self, pc: int, opcode: int, value: int):
        self.pc = pc
        self.opcode = opcode
        self.value = value

    def __repr__(self) -> str:
        return f"NondetRecord(pc={self.pc:#x}, value={self.value})"


def record_checksum(record: Record) -> int:
    """Content checksum over every replay-relevant field of a record.

    The field tuple is serialized via ``repr`` — stable for the int /
    bytes / tuple payloads records carry, and independent of object
    identity — and hashed with the same XXH3-64 the comparator uses.
    """
    hasher = Xxh3_64()
    hasher.update(record.kind.encode())
    if record.kind == "syscall":
        fields = (record.sysno, record.args, record.classification,
                  record.input_data, record.result, record.output_addr,
                  record.output_data, record.replay_passthrough,
                  record.fixed_args)
    elif record.kind == "signal":
        fields = (record.signo, record.external, repr(record.exec_point))
    elif record.kind == "nondet":
        fields = (record.pc, record.opcode, record.value)
    else:  # pragma: no cover - no other kinds exist
        fields = ()
    hasher.update(repr(fields).encode())
    return hasher.digest()


def verify_record(record: Record, position: int) -> Optional[str]:
    """Check a record's integrity metadata just before replay consumes it.

    Returns ``None`` when the record is intact, else a human-readable
    description of the violation (missing metadata, sequence break, or
    checksum mismatch).
    """
    seq = getattr(record, "seq", None)
    stored = getattr(record, "checksum", None)
    if seq is None or stored is None:
        return (f"record {position} ({record.kind}) carries no integrity "
                f"metadata")
    if seq != position:
        return (f"record {position} ({record.kind}) has sequence number "
                f"{seq} — log reordered or spliced")
    actual = record_checksum(record)
    if actual != stored:
        return (f"record {position} ({record.kind}) checksum mismatch: "
                f"stored {stored:#018x}, recomputed {actual:#018x}")
    return None


class RrLog:
    """Ordered record stream for one segment, with per-checker cursor."""

    def __init__(self):
        self.records: List[Record] = []
        #: Bytes of syscall data captured (drives recording cost, §5.7).
        self.bytes_recorded = 0
        #: When on (``ParallaftConfig.log_checksums``), ``append`` stamps
        #: each record with ``seq``/``checksum`` integrity metadata.
        self.integrity = False

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: Record) -> None:
        self.records.append(record)
        if self.integrity:
            # The runtime appends on syscall *exit*, after result/output
            # fields are final, so the checksum covers the stored values.
            record.seq = len(self.records) - 1
            record.checksum = record_checksum(record)

    def discard(self) -> None:
        """Drop every record: the segment verified, so no replay reads
        its log again.  ``len`` reads 0 afterwards."""
        self.records = []

    def cursor(self) -> "RrCursor":
        return RrCursor(self)


class RrCursor:
    """A checker's position in its segment's log."""

    def __init__(self, log: RrLog):
        self._log = log
        self.position = 0

    def peek(self) -> Optional[Record]:
        if self.position < len(self._log.records):
            return self._log.records[self.position]
        return None

    def next(self) -> Optional[Record]:
        record = self.peek()
        if record is not None:
            self.position += 1
        return record

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self._log.records)
