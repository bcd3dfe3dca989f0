"""XXH3-64-style wide-lane hash for digests that are themselves artifacts.

Used for the campaign journal, the R/R-log record checksums and the
retained-checkpoint state digests.  The paper's comparator uses xxHash's
XXH3-64b variant for its speed on large inputs (paper §4.4 and footnote 13:
collision probability ~3.13e-8 over their experiment count).  Our
comparator charges that hashing on the simulated clock only; its verdict
comes from frame identity and byte compares, not from digests computed
here.  XXH3's speed comes from eight 64-bit accumulators striped
across the input.  We model that structure here: a documented,
deterministic, well-dispersing 8-lane variant whose per-lane rounds reuse the
audited XXH64 round function.  (Bit-exact XXH3 conformance is not required by
any experiment — only 64-bit digests with negligible collision rate — and is
recorded as a substitution in DESIGN.md.)
"""

from __future__ import annotations

import struct

from repro.hashing.xxhash64 import (
    PRIME64_1,
    PRIME64_2,
    PRIME64_3,
    PRIME64_4,
    PRIME64_5,
    _avalanche,
    _rotl64,
    _round,
    xxh64,
)

_MASK64 = 0xFFFFFFFFFFFFFFFF
_LANES = 8
_STRIPE = _LANES * 8  # 64-byte stripes, as in XXH3


def xxh3_64(data: bytes, seed: int = 0) -> int:
    """64-bit digest of ``data`` using 8-lane striped accumulation.

    Inputs shorter than one stripe fall through to XXH64 (XXH3 similarly has
    dedicated short-input paths).
    """
    length = len(data)
    if length < _STRIPE:
        return xxh64(data, seed ^ PRIME64_5)

    seed &= _MASK64
    accs = [
        (seed + PRIME64_1) & _MASK64,
        (seed + PRIME64_2) & _MASK64,
        (seed + PRIME64_3) & _MASK64,
        (seed + PRIME64_4) & _MASK64,
        (seed ^ PRIME64_5) & _MASK64,
        (seed * PRIME64_1) & _MASK64,
        (seed * PRIME64_2) & _MASK64,
        (seed * PRIME64_3 + 1) & _MASK64,
    ]

    full = length - (length % _STRIPE)
    for offset in range(0, full, _STRIPE):
        lanes = struct.unpack_from("<8Q", data, offset)
        for i in range(_LANES):
            accs[i] = _round(accs[i], lanes[i])

    # Tail: hash the remaining <64 bytes with XXH64 and mix into lane 0.
    if full != length:
        accs[0] ^= xxh64(data[full:], seed)

    acc = (seed + length) & _MASK64
    for i, lane_acc in enumerate(accs):
        acc ^= _rotl64(lane_acc, (i * 7 + 1) % 63 + 1)
        acc = (acc * PRIME64_1 + PRIME64_4) & _MASK64
    return _avalanche(acc)


class Xxh3_64:
    """Streaming interface over :func:`xxh3_64`.

    Pages arrive whole from the dirty-page tracker, so we hash each chunk and
    fold the (address-tagged) digests; ordering of updates is significant.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed & _MASK64
        self._state = (self._seed ^ PRIME64_5) & _MASK64
        self._count = 0

    def update(self, data: bytes) -> "Xxh3_64":
        chunk_digest = xxh3_64(data, self._seed)
        self._state = _round(self._state ^ chunk_digest, self._count + 1)
        self._count += 1
        return self

    def digest(self) -> int:
        return _avalanche((self._state + self._count) & _MASK64)
