"""Parallaft runtime configuration.

Defaults follow the paper: 5-billion-cycle slicing period (§4.1),
branch-counter execution points with a skid buffer (§4.2), a 1.1x checker
instruction timeout (§4.2.2), dirty-page hashing with XXH3-64 (§4.4), and
the checker scheduler/pacer enabled (§4.5).

``mode`` names a registered :class:`~repro.modes.DetectionMode`; each
mode's ``make_config`` presets the fields it needs (the ``raft`` mode
reconfigures this runtime the way the paper models RAFT, §5.1) and
checks its own rules when the config is validated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import RuntimeConfigError
from repro.common.units import BILLION


class DirtyPageBackend(enum.Enum):
    #: x86_64: soft-dirty PTE bits, cleared at segment start (paper §4.4).
    SOFT_DIRTY = "soft_dirty"
    #: AArch64: PAGEMAP_SCAN map counting — a page mapped exactly once is
    #: private, hence modified or new (paper §4.4).
    MAP_COUNT = "map_count"


class ExecPointCounter(enum.Enum):
    #: Deterministic near-branch counter (the paper's choice, §4.2.1).
    BRANCHES = "branches"
    #: Raw instruction counter — overcounts nondeterministically; provided
    #: for the ablation that shows why branch counters are required.
    INSTRUCTIONS = "instructions"


class ComparisonStrategy(enum.Enum):
    #: Hash only dirty pages with the injected hasher (paper §4.4).
    DIRTY_HASH = "dirty_hash"
    #: Byte-compare every mapped page — the slow strawman for the ablation.
    FULL_MEMORY = "full_memory"


@dataclass
class ParallaftConfig:
    #: Registered detection-mode name (``repro.modes.registered_modes``).
    mode: str = "parallaft"

    #: Slicing period in *hardware* units; interpreted per ``slicing_unit``.
    slicing_period: float = 5 * BILLION
    #: 'cycles' (Apple) or 'instructions' (Intel, paper footnote 14).
    #: None = use the platform's default.
    slicing_unit: Optional[str] = None

    #: Branch-count margin the replay stops short by, to absorb
    #: perf-counter skid (paper §4.2.2).  In simulated branches.
    skid_buffer_branches: int = 64
    exec_point_counter: ExecPointCounter = ExecPointCounter.BRANCHES

    #: None = pick by platform arch (x86 soft-dirty, aarch64 map-count).
    dirty_page_backend: Optional[DirtyPageBackend] = None
    comparison: ComparisonStrategy = ComparisonStrategy.DIRTY_HASH
    #: Compare registers+memory at segment ends (off in RAFT mode).
    compare_state: bool = True
    #: MEEK-style tunable checker split (MEEK, PAPERS.md): the fraction
    #: of the dirty-page union checked *early*, when a replica arrives at
    #: its end point (PC + registers + the first ``ceil(split * n)``
    #: pages of the sorted union); the boundary compare covers only the
    #: remaining ``1 - split`` fraction.  Work is divided, never
    #: duplicated — total pages hashed per boundary is invariant in the
    #: knob.  0.0 (default) keeps the whole check at the boundary.
    meek_split: float = 0.0

    #: Checker scheduler/pacer (paper §4.5).
    enable_migration: bool = True
    enable_dvfs_pacer: bool = True
    #: Where checkers run by default: 'little' (Parallaft) or 'big' (RAFT).
    checker_cluster: str = "little"

    #: Upper bound on concurrently live segments (error-detection latency
    #: bound, §3.4).  The main stalls when it is reached.
    max_live_segments: int = 12

    #: Stop the whole application when an error is detected (§4.4).
    stop_on_error: bool = True

    # -- extensions beyond the paper's prototype (its stated future work) --

    #: Table 2 "error recovery": retry a failed segment check with a fresh
    #: checker forked from the (retained) segment-start state.  A transient
    #: fault in the *checker* disappears on retry; a persistent mismatch
    #: implicates the main and is reported as an error.
    retry_failed_checkers: bool = False

    #: Table 2 "error recovery", part two: when a failed check persists
    #: across the diagnostic re-check (implicating the *main*), roll the
    #: main back to the last verified checkpoint and re-execute the
    #: segment instead of stopping.  Console output is buffered per
    #: segment so rolled-back output never escapes the sphere of
    #: replication.
    enable_recovery: bool = False
    #: Total rollbacks allowed across the whole run before giving up.
    max_rollbacks: int = 8
    #: Consecutive re-executions of the *same* region before giving up
    #: (a persistent fault re-detected every time).
    max_segment_reexecutions: int = 3
    #: Watchdog on a re-executed segment: abort recovery if the new main
    #: has not reached the next boundary within
    #: ``original_segment_instructions * this scale``.
    recovery_watchdog_scale: float = 4.0
    #: After each consecutive rollback the slicing period is halved
    #: (period / 2**streak) to shrink the re-exposed window, down to at
    #: most this many halvings.
    recovery_shrink_limit: int = 4

    #: TMR only: forward recoveries (main outvoted, majority state
    #: adopted) allowed across the run before the runtime fail-stops —
    #: the analogue of ``max_rollbacks`` for a mode that never rolls
    #: back.
    max_forward_recoveries: int = 8

    #: Table 2 "error containment in SoR": hold the main at every
    #: globally-effectful syscall until all previous segments have been
    #: verified, so no erroneous data ever escapes.  Expensive (the paper
    #: §3.4 rejects it for exactly that reason — the ablation bench
    #: measures the cost).
    error_containment: bool = False

    # -- integrity hardening against *infrastructure* faults ---------------
    # The detection machinery itself (dirty tracker, R/R log, retained
    # checkpoints, comparator digests) is a single point of failure the
    # paper assumes perfect.  These knobs defend it; their value is
    # measured as SDC-escape-rate reduction by ``repro.faults.infra``.

    #: Stamp every R/R record with a monotonic sequence number and a
    #: content checksum at append time, verified before the replay cursor
    #: consumes it.  Failure reports ``log_integrity`` — a checker-side
    #: transient (the log copy is suspect, not the main), retried from the
    #: retained checkpoint and never rolled back.
    log_checksums: bool = False
    #: Digest the retained recovery checkpoint (registers + all mapped
    #: pages) at fork time and re-verify before the checkpoint is ever
    #: trusted — on the error path before retry/rollback.  A mismatch
    #: means saved state is untrusted: fail-stop with ``infra_integrity``.
    checkpoint_digests: bool = False
    #: At each passing segment check, byte-audit up to this many
    #: supposedly-clean pages (frame-divergent between checker and end
    #: checkpoint yet absent from the dirty union) to catch dirty-tracker
    #: under-reporting.  0 disables the audit.
    clean_page_audit: int = 0
    #: Run a second, independent hash path over the compared pages; if the
    #: two paths disagree on a verdict the comparator itself is faulty —
    #: reported as ``infra_integrity`` (fail-stop), never as an
    #: application mismatch.
    redundant_compare: bool = False

    # -- memory pressure (finite frame pool, ``repro.core.pressure``) ------
    # The real runtime's checkpoints compete for finite RAM (paper §4.3,
    # Fig. 8); this knob bounds the modelled frame pool.  The
    # graceful-degradation ladder's thresholds are constants of
    # ``repro.core.pressure``.

    #: Frame-pool byte budget; None = unbounded (the historical default).
    #: ``REPRO_MEM_BUDGET`` is resolved when a runtime is assembled, not
    #: here, so a bare config object is environment-independent.
    mem_budget_bytes: Optional[int] = None

    #: Structured event tracing (``repro.trace``): every lifecycle event
    #: lands in a bounded ring buffer, exportable as Chrome trace_event
    #: JSON and replayable through the offline invariant checker.
    enable_trace: bool = True
    #: Ring-buffer capacity in events; older events are dropped (and
    #: counted) once full, so tracing cost is O(1) in run length.
    trace_capacity: int = 65536

    #: Metric registry + phase-attribution profiler (``repro.metrics``):
    #: every charged cycle is attributed to a runtime phase and the
    #: cycle-conservation invariant is enforced on traced runs.
    enable_metrics: bool = True
    #: Virtual-time gauge sampling period in seconds; None disables the
    #: sampler (``Parallaft.enable_metrics_sampling`` can still arm it).
    metrics_sample_interval: Optional[float] = None

    def validate(self) -> None:
        if self.slicing_period <= 0:
            raise RuntimeConfigError("slicing_period must be positive")
        if self.skid_buffer_branches < 0:
            raise RuntimeConfigError("skid_buffer_branches must be >= 0")
        if self.checker_cluster not in ("little", "big"):
            raise RuntimeConfigError("checker_cluster must be little or big")
        if self.max_live_segments < 1:
            raise RuntimeConfigError("max_live_segments must be >= 1")
        if self.slicing_unit not in (None, "cycles", "instructions"):
            raise RuntimeConfigError("slicing_unit must be cycles or "
                                     "instructions")
        if self.max_rollbacks < 0:
            raise RuntimeConfigError("max_rollbacks must be >= 0")
        if self.max_segment_reexecutions < 1:
            raise RuntimeConfigError("max_segment_reexecutions must be >= 1")
        if self.recovery_watchdog_scale <= 1.0:
            raise RuntimeConfigError(
                "recovery_watchdog_scale must exceed 1.0")
        if self.recovery_shrink_limit < 0:
            raise RuntimeConfigError("recovery_shrink_limit must be >= 0")
        self.detection_mode().validate_config(self)
        if self.enable_recovery and not self.compare_state:
            raise RuntimeConfigError(
                "recovery requires state comparison (compare_state)")
        if not 0.0 <= self.meek_split <= 1.0:
            raise RuntimeConfigError("meek_split must be in [0, 1]")
        if self.meek_split > 0.0 and not self.compare_state:
            raise RuntimeConfigError(
                "meek_split divides the state check; it needs "
                "compare_state enabled")
        if self.max_forward_recoveries < 0:
            raise RuntimeConfigError("max_forward_recoveries must be >= 0")
        if self.trace_capacity < 1:
            raise RuntimeConfigError("trace_capacity must be >= 1")
        if self.metrics_sample_interval is not None \
                and self.metrics_sample_interval <= 0:
            raise RuntimeConfigError(
                "metrics_sample_interval must be positive")
        if self.clean_page_audit < 0:
            raise RuntimeConfigError("clean_page_audit must be >= 0")
        if self.mem_budget_bytes is not None and self.mem_budget_bytes <= 0:
            raise RuntimeConfigError("mem_budget_bytes must be positive")

    @property
    def retains_recovery_checkpoint(self) -> bool:
        """Whether segment-start checkpoints outlive checker placement
        (needed by the retry and rollback extensions, and by the pressure
        controller so shed checkers can be re-spawned — a mode that does
        not slice has no per-segment checkpoints, so a budget alone never
        retains there).
        Only an explicit ``mem_budget_bytes`` counts: the runtime copies
        the ``REPRO_MEM_BUDGET`` fallback into its own config at assembly
        time, so a bare config object never retains."""
        return (self.retry_failed_checkers or self.enable_recovery
                or (self.mem_budget_bytes is not None
                    and self.detection_mode().slices))

    def detection_mode(self):
        """Resolve this config's :class:`~repro.modes.DetectionMode`
        policy object from the mode registry (lazy import: the modes
        import the core package)."""
        from repro.modes import get_mode
        return get_mode(self.mode)
