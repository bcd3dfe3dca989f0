"""The RAFT baseline (Zhang et al., CGO 2012), as the paper models it.

RAFT has no public release, so the paper models it by reconfiguring
Parallaft (§5.1): (1) no periodic checkpoints — a single segment
spanning the program; (2) homogeneous execution — the checker runs on a
big core; (3) no end-of-segment state comparison or dirty-page
tracking.  Syscall interception, comparison and record/replay are shared
with Parallaft ("RAFT incurs almost identical slowdown because of shared
syscall-handling logic", §5.7).  The checker runs *concurrently* with
the main from program start, stalling when it catches up with the record
log, and detects divergence only through that log.
"""

from __future__ import annotations

from repro.modes.base import DetectionMode, register_mode


@register_mode
class RaftMode(DetectionMode):
    name = "raft"
    summary = ("single-segment concurrent replay on a big core; log "
               "divergence only, no boundary state compare")
    replica_count = 1
    concurrent_checking = True
    slices = False
    #: The paper's RAFT model (§5.1): one segment, a big-core checker,
    #: no state comparison and no checker migration or pacing.
    preset = {
        "slicing_period": float("inf"),
        "compare_state": False,
        "enable_migration": False,
        "enable_dvfs_pacer": False,
        "checker_cluster": "big",
    }
