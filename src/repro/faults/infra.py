"""Infrastructure fault injection: attacking the detection machinery.

The application campaign (:class:`repro.faults.FaultInjector`) flips bits
in the *protected program's* architectural state and asks whether
Parallaft notices.  This module attacks the **protector itself** — the
single points of failure the paper's argument quietly trusts:

* ``dirty-miss`` — a vpn vanishes from every
  :class:`~repro.core.dirty_tracker.DirtyPageTracker` scan (a lost
  soft-dirty bit / a PAGEMAP_SCAN under-report, §4.4), paired with a bit
  flip in that page of the main.  The comparator skips the one page that
  diverges, so the corruption sails through every segment check.
* ``log-corrupt`` — a bit flips in a stored ``SyscallRecord`` /
  ``NondetRecord`` value before the replay cursor consumes it (rr's
  log-integrity assumption, §4.2/§4.3).  Unhardened, the checker
  misdiagnoses the rotten record as an application divergence; under
  recovery the *main* is then wrongly implicated and rolled back, and a
  re-executed ``getrandom`` draws fresh kernel entropy — silently
  different output with no error on the books.
* ``checkpoint-corrupt`` — a bit flips in a retained
  ``recovery_checkpoint`` page after the fork, paired with an application
  fault that makes recovery *use* that checkpoint.  Blind promotion
  "recovers" into a corrupt timeline that then re-records itself
  consistently.
* ``digest-corrupt`` — the comparator's hash path reports a collision
  (differing pages digest equal) for the segment where an application
  memory fault landed, so the one comparison that mattered lies.

Injections run through the application campaign's pipeline
(:mod:`repro.faults.injector`: the same runtimes, reference run,
progress trigger, bit flip and engine hookup) and are classified exactly
like application faults
(:func:`repro.faults.outcomes.classify_run`); the headline metric is the
:attr:`~repro.faults.outcomes.Outcome.SDC` fraction — runs whose final
output silently diverged from the fault-free reference.  :func:`harden`
flips on the config-gated integrity layers (``log_checksums``,
``checkpoint_digests``, ``clean_page_audit``, ``redundant_compare``) whose
value :func:`run_infra_campaign` measures as escape-rate reduction:
hardening must drive every kind's SDC fraction to exactly zero
(``benchmarks/test_infra_coverage.py`` asserts both arms).
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import Parallaft, ParallaftConfig
from repro.core.segment import Segment, SegmentStatus
from repro.faults.injector import InjectionTarget, main_trigger, \
    injection_result
from repro.faults.outcomes import CampaignResult, InjectionResult
from repro.faults.sites import FaultSite
from repro.isa import DATA_BASE, STACK_SIZE, STACK_TOP
from repro.isa.program import Program
from repro.sim.platform import PlatformConfig

INFRA_DIRTY_MISS = "dirty-miss"
INFRA_LOG_CORRUPT = "log-corrupt"
INFRA_CHECKPOINT_CORRUPT = "checkpoint-corrupt"
INFRA_DIGEST_CORRUPT = "digest-corrupt"

INFRA_KINDS: Tuple[str, ...] = (
    INFRA_DIRTY_MISS,
    INFRA_LOG_CORRUPT,
    INFRA_CHECKPOINT_CORRUPT,
    INFRA_DIGEST_CORRUPT,
)


def harden(config: ParallaftConfig) -> ParallaftConfig:
    """Enable every integrity-hardening layer on ``config`` (in place;
    returned for chaining).  This is the campaign's hardened arm."""
    config.log_checksums = True
    config.checkpoint_digests = True
    config.clean_page_audit = 4
    config.redundant_compare = True
    return config


class InfraFaultSite:
    """One infrastructure fault: what breaks, where, and when.

    Ranks (``record_rank``/``field_rank``/``page_rank``) index into
    whatever population exists at strike time (modulo its size), so one
    drawn site stays meaningful whatever the run's shape turns out to be
    — the same convention as :class:`repro.faults.sites.FaultSite`.
    ``when`` is the fraction of the target segment's recorded
    instructions at which the paired application fault (and the
    dirty-miss strike) fires; ``app_bit`` is the register bit the
    checkpoint-corrupt model flips to force recovery to *use* the
    corrupted checkpoint.
    """

    __slots__ = ("kind", "segment_index", "bit", "record_rank",
                 "field_rank", "page_rank", "when", "app_bit")

    def __init__(self, kind: str, segment_index: int, bit: int = 0,
                 record_rank: int = 0, field_rank: int = 0,
                 page_rank: int = 0, when: float = 0.85,
                 app_bit: int = 17):
        if kind not in INFRA_KINDS:
            raise ValueError(f"unknown infra fault kind: {kind!r}")
        self.kind = kind
        self.segment_index = segment_index
        self.bit = bit
        self.record_rank = record_rank
        self.field_rank = field_rank
        self.page_rank = page_rank
        self.when = when
        self.app_bit = app_bit

    def describe(self) -> str:
        return (f"{self.kind}@segment{self.segment_index} bit={self.bit} "
                f"when={self.when:.2f}")

    def __repr__(self) -> str:
        return f"InfraFaultSite({self.describe()})"


def _flip_int(value: int, bit: int) -> int:
    return value ^ (1 << (bit % 64))


def _flip_bytes(data: bytes, bit: int) -> bytes:
    buf = bytearray(data)
    pos = (bit // 8) % len(buf)
    buf[pos] ^= 1 << (bit % 8)
    return bytes(buf)


class InfraFaultController:
    """Applies one :class:`InfraFaultSite` to a live runtime via its
    ``quantum_hooks`` / ``compare_hooks``.

    ``fired`` reports whether the fault actually landed: ``log-corrupt``
    needs only the record strike; the other kinds pair an infrastructure
    strike with an application fault and require both (a lost dirty bit
    on a page nobody corrupted, or a rotten checkpoint nobody promotes,
    is unmeasurable — the classic fault-injection "miss").  The
    application half strikes through the shared
    :func:`~repro.faults.injector.main_trigger` once the main's progress
    through the target segment reaches ``app_threshold`` (``site.when``
    × the profiled segment length).
    """

    def __init__(self, runtime: Parallaft, site: InfraFaultSite,
                 app_threshold: Optional[float] = None):
        # Its bound methods become the runtime's hooks: a weak proxy, as
        # for :class:`~repro.faults.injector.Trigger`.
        self.runtime = weakref.proxy(runtime)
        self.site = site
        self.infra_fired = False
        self._log_missed = False
        #: The bit flip of every page-level strike.
        self._page = FaultSite.memory(site.page_rank, site.bit)
        kind = site.kind
        #: The paired application fault (log-corrupt has none).
        self._app = main_trigger(
            runtime, app_threshold,
            {INFRA_DIRTY_MISS: self._strike_dirty_miss,
             INFRA_CHECKPOINT_CORRUPT: self._strike_register,
             INFRA_DIGEST_CORRUPT: self._strike_data_page}.get(kind),
            site.segment_index)
        if kind == INFRA_LOG_CORRUPT:
            runtime.quantum_hooks.append(self._strike_log)
        elif kind == INFRA_CHECKPOINT_CORRUPT:
            # The checkpoint rots first; the main is faulted only after.
            runtime.quantum_hooks.append(self._strike_checkpoint)
        else:
            runtime.quantum_hooks.append(self._app)
        if kind == INFRA_DIGEST_CORRUPT:
            runtime.compare_hooks.append(self._on_compare)

    @property
    def app_fired(self) -> bool:
        return self._app.fired

    @property
    def fired(self) -> bool:
        if self.site.kind == INFRA_LOG_CORRUPT:
            return self.infra_fired
        return self.infra_fired and self.app_fired

    def _data_vpns(self, vpns) -> List[int]:
        """Restrict to the program's data region: globals the workload
        actually computes with (not code, not stack frames)."""
        page_size = self.runtime.platform.page_size
        lo = DATA_BASE // page_size
        hi = (STACK_TOP - STACK_SIZE) // page_size
        return sorted(v for v in vpns if lo <= v < hi)

    # -- strikes -----------------------------------------------------------

    def _strike_dirty_miss(self, proc) -> bool:
        """Flip a bit in a dirty data page of the main AND drop that vpn
        from every tracker scan (stuck-bit model: never re-reported).
        The tracker is shared by the main's finalize scan and the
        checker's replay scan, so the page leaves the comparison union
        entirely — the flip is compared by nobody."""
        tracker = self.runtime.dirty_tracker
        vpn = self._page.page_of(self._data_vpns(tracker.dirty_vpns(proc)))
        if vpn is None:
            return False
        self._page.apply(proc, [vpn])
        tracker.suppressed_vpns.add(vpn)
        self.infra_fired = True
        return True

    def _strike_data_page(self, proc) -> bool:
        """The application half of the digest-fault model: flip a bit in
        a dirty data page of the main.  The memory stage is the only one
        the collision covers, so the fault must live in a compared page
        (a register flip would be caught by the register stage)."""
        return self._page.apply(proc, self._data_vpns(
            self.runtime.dirty_tracker.dirty_vpns(proc)))

    def _strike_register(self, proc) -> bool:
        """The application half of the checkpoint-corrupt model: a
        register flip in the main that makes recovery use the rotten
        checkpoint."""
        return FaultSite.register("gpr", 8, self.site.app_bit,
                                  target="main").apply(proc)

    def _strike_log(self, proc, role: str) -> None:
        """Flip a bit in a stored record of the target segment's R/R log
        before the replay cursor reaches it."""
        if self.infra_fired or self._log_missed:
            return
        runtime = self.runtime
        if self.site.segment_index >= len(runtime.segments):
            return
        segment = runtime.segments[self.site.segment_index]
        records = segment.log.records
        if segment.status == SegmentStatus.RECORDING:
            # Strike as soon as the ranked record exists; it is stamped
            # (seq+checksum, when hardened) at append, so the corruption
            # lands *after* stamping, exactly like storage rot.
            if self.site.record_rank >= len(records):
                return
            index = self.site.record_rank
        else:
            if not records:
                self._log_missed = True
                return
            # The segment went READY before the ranked record appeared:
            # wrap the rank, but never behind the replay cursor — a
            # consumed record is beyond reach.
            index = max(self.site.record_rank % len(records),
                        segment.cursor.position)
        index = self._corruptible_index(records, index)
        if index is None:
            if segment.status != SegmentStatus.RECORDING:
                self._log_missed = True
            return
        self._corrupt_record(records[index])
        self.infra_fired = True

    @staticmethod
    def _corruptible_index(records, start: int) -> Optional[int]:
        for i in range(start, len(records)):
            if records[i].kind in ("syscall", "nondet"):
                return i
        return None

    def _corrupt_record(self, record) -> None:
        bit = self.site.bit
        if record.kind == "nondet":
            record.value = _flip_int(record.value, bit)
            return
        fields = ["result"]
        if record.input_data:
            fields.append("input_data")
        if record.output_data:
            fields.append("output_data")
        field = fields[self.site.field_rank % len(fields)]
        if field == "result":
            record.result = _flip_int(record.result, bit)
        else:
            setattr(record, field, _flip_bytes(getattr(record, field), bit))

    def _strike_checkpoint(self, proc, role: str) -> None:
        """Flip a bit in a retained recovery checkpoint's data page right
        after the fork, then fault the main so recovery trusts it."""
        runtime = self.runtime
        if (not self.infra_fired
                and self.site.segment_index < len(runtime.segments)):
            checkpoint = runtime.segments[
                self.site.segment_index].recovery_checkpoint
            if checkpoint is not None and checkpoint.alive:
                # store_byte COW-resolves privately: only the paused
                # checkpoint copy rots, never the main's frame.
                self.infra_fired = self._page.apply(
                    checkpoint, self._data_vpns(checkpoint.mem.pages))
        if self.infra_fired:
            self._app(proc, role)

    # -- compare hook (digest-corrupt only) --------------------------------

    def _on_compare(self, segment: Segment) -> None:
        """Arm the comparator's collision fault for every comparison of
        the target segment (retries re-compare the same segment, and a
        real hash-path fault would lie to them too)."""
        if segment.index != self.site.segment_index or not self.app_fired:
            return
        self.runtime.comparator.fault_next_digest_collision = True
        self.infra_fired = True


class InfraInjector(InjectionTarget):
    """Runs infrastructure fault campaigns against one program/config.

    The application campaign's pipeline (:class:`InjectionTarget`): a
    fault-free reference run per arm (hardening changes cycle charges, so
    segment boundaries — and the reference output's timing — are
    arm-specific), then one full run per injection, classified against
    the reference's stdout/stderr.  The hardened arm runs
    ``harden(config_factory())``.
    """

    def __init__(self, program: Program,
                 config_factory: Callable[[], ParallaftConfig],
                 platform_factory: Callable[[], PlatformConfig],
                 files: Optional[Dict[str, bytes]] = None,
                 seed: int = 0, quantum: int = 2000,
                 hardening: bool = False):
        super().__init__(
            program,
            (lambda: harden(config_factory())) if hardening
            else config_factory,
            platform_factory, files=files, seed=seed, quantum=quantum)
        self.hardening = hardening

    def profile(self) -> Tuple[List[int], str]:
        """Per-segment main instruction counts and the reference stdout,
        for this arm's config (hardened or not)."""
        reference = self.reference()
        return reference.main_instructions, reference.stdout

    # -- single injection --------------------------------------------------

    def inject_site(self, site: InfraFaultSite) -> Optional[InjectionResult]:
        """Run the program once with ``site`` applied; None on a miss."""
        reference = self.reference()
        instr = reference.main_instructions
        if site.segment_index >= len(instr) \
                or instr[site.segment_index] <= 0:
            return None
        runtime = self.runtime()
        controller = InfraFaultController(
            runtime, site,
            app_threshold=site.when * instr[site.segment_index])
        stats = runtime.run()
        if not controller.fired:
            return None
        return injection_result(
            stats, reference.stdout, reference.stderr,
            register_file="infra",
            register_index=(site.record_rank
                            if site.kind == INFRA_LOG_CORRUPT
                            else site.page_rank),
            bit=site.bit, segment_index=site.segment_index,
            inject_time=site.when, target="infra", site_kind=site.kind)

    # -- campaign ----------------------------------------------------------

    @staticmethod
    def _draw_site(kind: str, eligible: List[int], rng) -> InfraFaultSite:
        return InfraFaultSite(
            kind=kind,
            segment_index=rng.choice(eligible),
            bit=rng.randrange(1 << 17),
            record_rank=rng.randrange(64),
            field_rank=rng.randrange(8),
            page_rank=rng.randrange(1 << 16),
            when=rng.uniform(0.55, 0.9),
            app_bit=rng.randrange(8, 32),
        )

    def run_campaign(self, kinds: Tuple[str, ...] = INFRA_KINDS,
                     injections_per_kind: int = 6,
                     max_attempts_per_injection: int = 6,
                     benchmark_name: str = "workload",
                     shards: int = 1, workers: int = 0,
                     campaign_seed: Optional[int] = None,
                     journal_path: Optional[str] = None,
                     resume: bool = False,
                     registry=None,
                     engine_options: Optional[Dict] = None,
                     ) -> Dict[str, CampaignResult]:
        """Per kind: ``injections_per_kind`` injections at drawn sites,
        each retried up to ``max_attempts_per_injection`` times before
        being counted as missed.  Returns ``{kind: CampaignResult}``.

        One engine plan covers every kind (the payload carries the kind),
        so sharding and resume account the whole campaign as a unit; each
        task draws from its splittable ``(campaign_seed, shard, index)``
        seed, quarantined/exhausted tasks count as misses of their kind,
        and the engine's fleet accounting is attached to every per-kind
        result as ``campaign.fleet``.
        """
        instr = self.reference().main_instructions
        eligible = [i for i, n in enumerate(instr) if n > 0]
        if len(eligible) > 1:
            # The final segment ends at exit: faults there have no later
            # output to corrupt, so they only dilute the campaign.
            eligible = eligible[:-1]
        payloads = [{"kind": kind, "shot": shot}
                    for kind in kinds
                    for shot in range(injections_per_kind)]
        results: Dict[str, CampaignResult] = {
            kind: CampaignResult(benchmark=benchmark_name)
            for kind in kinds}
        fleet = self.run_on_engine(
            lambda payload, rng: self._draw_site(payload["kind"], eligible,
                                                 rng),
            lambda payload, site: self.inject_site(site),
            payloads, lambda payload: results[payload["kind"]],
            max_attempts=max_attempts_per_injection,
            campaign_seed=campaign_seed, engine_options=engine_options,
            shards=shards, workers=workers,
            name=f"infra:{benchmark_name}",
            fingerprint_extra={"kinds": list(kinds),
                               "injections_per_kind": injections_per_kind,
                               "hardening": self.hardening},
            journal_path=journal_path, resume=resume, registry=registry)
        for campaign in results.values():
            campaign.fleet = fleet
        return results


def run_infra_campaign(program: Program,
                       config_factory: Callable[[], ParallaftConfig],
                       platform_factory: Callable[[], PlatformConfig],
                       *,
                       kinds: Tuple[str, ...] = INFRA_KINDS,
                       injections_per_kind: int = 6,
                       max_attempts_per_injection: int = 6,
                       hardening: bool = False,
                       seed: int = 0,
                       quantum: int = 2000,
                       files: Optional[Dict[str, bytes]] = None,
                       benchmark_name: str = "workload",
                       shards: int = 1, workers: int = 0,
                       journal_path: Optional[str] = None,
                       resume: bool = False,
                       ) -> Dict[str, CampaignResult]:
    """One-call campaign: per-kind results for one workload and one arm
    (``hardening`` off = measure the escape rate, on = prove it zero)."""
    injector = InfraInjector(program, config_factory, platform_factory,
                             files=files, seed=seed, quantum=quantum,
                             hardening=hardening)
    return injector.run_campaign(
        kinds=kinds, injections_per_kind=injections_per_kind,
        max_attempts_per_injection=max_attempts_per_injection,
        benchmark_name=benchmark_name, shards=shards, workers=workers,
        journal_path=journal_path, resume=resume)
