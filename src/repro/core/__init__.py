"""Parallaft: runtime-based CPU fault tolerance via heterogeneous
parallelism — the paper's primary contribution.
"""

from repro.core.checker_sched import CheckerScheduler
from repro.core.comparator import (
    ComparisonResult,
    StateComparator,
    VoteResult,
)
from repro.core.config import (
    ComparisonStrategy,
    DirtyPageBackend,
    ExecPointCounter,
    ParallaftConfig,
)
from repro.core.dirty_tracker import DirtyPageTracker
from repro.core.exec_point import (
    ExecPoint,
    ExecPointReplayer,
    ReplayOutcome,
    ReplayStop,
    ReplayStopKind,
)
from repro.core.rr_log import (
    NondetRecord,
    RrCursor,
    RrLog,
    SignalRecord,
    SyscallRecord,
)
from repro.core.runtime import Parallaft, protect
from repro.core.segment import Replica, Segment, SegmentStatus
from repro.core.stats import DetectedError, RunStats

__all__ = [
    "Parallaft",
    "protect",
    "ParallaftConfig",
    "DirtyPageBackend",
    "ExecPointCounter",
    "ComparisonStrategy",
    "Segment",
    "SegmentStatus",
    "Replica",
    "RunStats",
    "DetectedError",
    "ExecPoint",
    "ExecPointReplayer",
    "ReplayOutcome",
    "ReplayStop",
    "ReplayStopKind",
    "RrLog",
    "RrCursor",
    "SyscallRecord",
    "SignalRecord",
    "NondetRecord",
    "StateComparator",
    "ComparisonResult",
    "VoteResult",
    "DirtyPageTracker",
    "CheckerScheduler",
]
