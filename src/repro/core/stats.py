"""Runtime statistics, mirroring the artifact's output keys (appendix A.7):
``timing.all_wall_time``, ``timing.main_wall_time``,
``timing.main_user_time``/``main_sys_time``, ``counter.checkpoint_count``,
``fixed_interval_slicer.nr_slices``, plus energy and error reporting.

The dataclass fields are the only store of every run statistic.  The
exported key of each scalar is defined exactly once, in
:data:`STAT_SCHEMA`, and both ``to_dict`` and the registry view are
derived from it: binding a :class:`~repro.metrics.MetricRegistry`
(``bind_registry``) registers one gauge per schema key whose pull hook
reads the field, so the registry reports the numbers the dict dump
reports without keeping a second copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.metrics import MetricRegistry


@dataclass
class DetectedError:
    """One detected divergence."""

    kind: str                 # one of repro.core.runtime.ERROR_KINDS
    segment_index: int
    detail: str = ""
    time: float = 0.0

    def __repr__(self) -> str:
        return f"DetectedError({self.kind}, segment={self.segment_index})"


class StatField(NamedTuple):
    """One exported scalar: dataclass attribute -> artifact dict key."""

    attr: str
    key: str
    #: A computed property: exported by ``to_dict`` but given no gauge.
    derived: bool = False


#: The single definition of every scalar ``to_dict`` exports, in the
#: artifact's key order.  ``errors`` and ``exit_code`` are appended by
#: ``to_dict`` itself (they are not scalars).
STAT_SCHEMA: Tuple[StatField, ...] = (
    StatField("all_wall_time", "timing.all_wall_time"),
    StatField("main_wall_time", "timing.main_wall_time"),
    StatField("main_user_time", "timing.main_user_time"),
    StatField("main_sys_time", "timing.main_sys_time"),
    StatField("checker_user_time", "timing.checker_user_time"),
    StatField("checker_sys_time", "timing.checker_sys_time"),
    StatField("checkpoint_count", "counter.checkpoint_count"),
    StatField("nr_slices", "fixed_interval_slicer.nr_slices"),
    StatField("syscalls_recorded", "counter.syscalls_recorded"),
    StatField("syscalls_replayed", "counter.syscalls_replayed"),
    StatField("signals_recorded", "counter.signals_recorded"),
    StatField("nondet_recorded", "counter.nondet_recorded"),
    StatField("bytes_recorded", "counter.bytes_recorded"),
    StatField("segments_checked", "counter.segments_checked"),
    StatField("checker_retries", "counter.checker_retries"),
    StatField("checker_migrations", "counter.checker_migrations"),
    StatField("checkers_finished_on_big", "counter.checkers_finished_on_big"),
    StatField("mmap_splits", "counter.mmap_splits"),
    StatField("recovery_rollbacks", "counter.recovery.rollbacks"),
    StatField("recovery_retries", "counter.recovery.retries"),
    StatField("recovery_wasted_cycles", "counter.recovery.wasted_cycles"),
    StatField("tmr_votes", "counter.tmr.votes"),
    StatField("tmr_outvoted", "counter.tmr.outvoted"),
    StatField("tmr_forward_recoveries", "counter.tmr.forward_recoveries"),
    StatField("meek_early_checks", "counter.meek.early_checks"),
    StatField("meek_early_detections", "counter.meek.early_detections"),
    StatField("integrity_checks", "counter.integrity.checks"),
    StatField("integrity_failures", "counter.integrity.failures"),
    StatField("pressure_stalls", "counter.pressure.stalls"),
    StatField("pressure_sheds", "counter.pressure.sheds"),
    StatField("pressure_evictions", "counter.pressure.evictions"),
    StatField("pressure_adaptations", "counter.pressure.adaptations"),
    StatField("checker_ooms", "counter.pressure.checker_ooms"),
    StatField("oom_kills", "counter.oom_kills"),
    StatField("oom_killed", "oom_killed"),
    StatField("peak_resident_bytes", "memory.peak_resident_bytes"),
    StatField("checker_cycles_big", "work.checker_cycles_big"),
    StatField("checker_cycles_little", "work.checker_cycles_little"),
    StatField("big_core_work_fraction",
              "work.big_core_work_fraction", derived=True),
    StatField("energy_joules", "hwmon.total_energy"),
)


@dataclass
class RunStats:
    """Everything a Parallaft/RAFT run reports."""

    # timing.* (virtual seconds)
    all_wall_time: float = 0.0        # includes waiting for last checkers
    main_wall_time: float = 0.0       # main process only
    main_user_time: float = 0.0
    main_sys_time: float = 0.0
    checker_user_time: float = 0.0
    checker_sys_time: float = 0.0

    # counter.*
    checkpoint_count: int = 0         # includes mmap-split checkpoints
    nr_slices: int = 0                # fixed-interval slicer boundaries
    syscalls_recorded: int = 0
    syscalls_replayed: int = 0
    signals_recorded: int = 0
    nondet_recorded: int = 0
    bytes_recorded: int = 0
    segments_checked: int = 0
    checker_retries: int = 0
    # counter.recovery.* — checkpoint-rollback recovery extension
    recovery_rollbacks: int = 0
    recovery_retries: int = 0         # diagnostic re-checks run by recovery
    recovery_wasted_cycles: float = 0.0   # discarded main+checker work
    # counter.tmr.* — majority voting (repro.modes.tmr): boundary votes
    # run, voters outvoted (main or replica), forward recoveries applied
    tmr_votes: int = 0
    tmr_outvoted: int = 0
    tmr_forward_recoveries: int = 0
    # counter.meek.* — split-check early verdicts taken at replica arrival
    meek_early_checks: int = 0
    meek_early_detections: int = 0
    # counter.integrity.* — hardening checks run/failed (log checksums,
    # checkpoint digests, clean-page audits, redundant compare verdicts)
    integrity_checks: int = 0
    integrity_failures: int = 0
    checker_migrations: int = 0
    checkers_finished_on_big: int = 0
    mmap_splits: int = 0
    # counter.pressure.* — memory-pressure degradation ladder actions
    pressure_stalls: int = 0          # stage 1: backpressure episodes
    pressure_sheds: int = 0           # stage 2: checkers torn down/re-queued
    pressure_evictions: int = 0       # stage 3: recovery checkpoints evicted
    pressure_adaptations: int = 0     # stage 4: slicing-period shortenings
    checker_ooms: int = 0             # checkers sacrificed by the OOM path
    oom_kills: int = 0                # kernel OOM kills (any process)
    # whether the *main* process was OOM-killed (distinct exit class)
    oom_killed: bool = False
    # high-water mark of unique live frame bytes in the pool
    peak_resident_bytes: float = 0.0

    # hwmon.* (joules)
    energy_joules: float = 0.0

    # memory (bytes, time-averaged by the sampler)
    pss_samples: List[float] = field(default_factory=list)

    # pacer telemetry
    pacer_freq_history: List[float] = field(default_factory=list)

    # work split: user cycles checkers spent on big vs little cores
    checker_cycles_little: float = 0.0
    checker_cycles_big: float = 0.0

    errors: List[DetectedError] = field(default_factory=list)
    exit_code: Optional[int] = None
    stdout: str = ""
    stderr: str = ""

    # -- registry view -----------------------------------------------------

    def bind_registry(self, registry: MetricRegistry) -> None:
        """Register a gauge per non-derived schema key in ``registry``
        whose pull hook (``Gauge.fn``) reads the field.  ``to_dict``
        keeps reading the fields directly, so binding can never change
        its output.  The stats keep no reference back to the registry:
        the runtime owns it."""
        for f in STAT_SCHEMA:
            if not f.derived:
                registry.attr_gauge(f.key, self, f.attr)

    @property
    def error_detected(self) -> bool:
        return bool(self.errors)

    @property
    def big_core_work_fraction(self) -> float:
        """Fraction of checker work done on big cores (paper §5.2.1 reports
        41.7%/38.0%/50.0% for mcf/milc/lbm)."""
        total = self.checker_cycles_little + self.checker_cycles_big
        return self.checker_cycles_big / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Artifact-style flat key dump (appendix A.7).

        Every public counter appears here — harness reports and campaign
        artifacts serialize this dict, so a field missing from it is
        silently invisible downstream (tests/test_core_units.py round-trips
        the full set).  Keys and order come from :data:`STAT_SCHEMA`.
        """
        out: Dict[str, object] = {
            f.key: getattr(self, f.attr) for f in STAT_SCHEMA}
        out["errors"] = [f"{e.kind}@{e.segment_index}" for e in self.errors]
        out["exit_code"] = self.exit_code
        return out
