"""The paper's Parallaft mode: sliced segments, one little-core checker
per segment, pairwise state compare at each boundary."""

from __future__ import annotations

from repro.modes.base import DetectionMode, register_mode


@register_mode
class ParallaftMode(DetectionMode):
    name = "parallaft"
    summary = ("sliced record/replay with one little-core checker per "
               "segment and a pairwise boundary compare")
    replica_count = 1
    concurrent_checking = False
    slices = True
