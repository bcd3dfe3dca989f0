"""Heterogeneous cores with DVFS.

Each core runs at most one process at a time (Parallaft pins the main to a
big core and each checker to its own little core, migrating to big cores
under pressure — paper §4.5).  A core keeps a local "busy until" time; the
executor always advances the most-behind runnable core, which keeps cores
loosely synchronized to within one quantum.
"""

from __future__ import annotations

from typing import List, Optional


class Core:
    """One CPU core."""

    def __init__(self, index: int, cluster: str, freq_hz: float,
                 freq_min_hz: float, freq_max_hz: float):
        if cluster not in ("big", "little"):
            raise ValueError(f"bad cluster {cluster!r}")
        self.index = index
        self.cluster = cluster
        #: The name trace events carry, e.g. ``big0`` or ``little5``.
        self.label = f"{cluster}{index}"
        self.freq_hz = freq_hz
        self.freq_min_hz = freq_min_hz
        self.freq_max_hz = freq_max_hz
        self.local_time = 0.0       # virtual seconds: busy until
        self.busy_seconds = 0.0
        self.energy_joules = 0.0    # dynamic+static energy while busy
        self.occupant = None        # Process or None

    def __repr__(self) -> str:
        return (f"Core({self.cluster}{self.index}, {self.freq_hz / 1e9:.2f} GHz, "
                f"t={self.local_time:.3f})")

    @property
    def is_big(self) -> bool:
        return self.cluster == "big"

    def set_frequency(self, freq_hz: float) -> None:
        """DVFS: clamp into the core's legal range."""
        self.freq_hz = min(self.freq_max_hz, max(self.freq_min_hz, freq_hz))


def make_cores(n_big: int, n_little: int, big_freq_hz: float,
               little_freq_max_hz: float,
               little_freq_min_hz: float) -> List[Core]:
    """Build the platform's core list: big cores first, then little."""
    cores: List[Core] = []
    for i in range(n_big):
        cores.append(Core(i, "big", big_freq_hz, big_freq_hz, big_freq_hz))
    for i in range(n_little):
        cores.append(Core(n_big + i, "little", little_freq_max_hz,
                          little_freq_min_hz, little_freq_max_hz))
    return cores
