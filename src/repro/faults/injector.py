"""Fault injection: the one injected-run pipeline, and the application
campaign built on it (paper §5.6, extended with main-side faults).

The paper's method is one recipe: run once without faults for a profile
and the reference output, re-run once per injection with a bit flipped at
a drawn point, and classify the outcome against the reference.  This
module owns every step of that recipe for all three drivers — the
application campaign (:class:`FaultInjector`), the infrastructure
campaign (:class:`repro.faults.infra.InfraInjector`) and the cross-mode
comparison (:func:`repro.modes.comparison.run_mode_comparison`):

* :class:`InjectionTarget` builds runtimes from (program, config factory,
  platform factory, files, seed, quantum) and runs the fault-free
  :class:`Reference` once, raising if it detected an error;
* :func:`main_trigger` strikes once when the main's instruction progress
  crosses a threshold, counted from a segment's start or from program
  start;
* :meth:`repro.faults.sites.FaultSite.apply` flips the bit;
* :func:`injection_result` classifies a finished run into an
  :class:`~repro.faults.outcomes.InjectionResult`;
* :meth:`InjectionTarget.run_on_engine` routes a campaign's planned
  injections through :class:`repro.campaign.CampaignEngine` and merges the
  records, counting missed tasks.

The application campaign, mirrored from the paper:

1. The reference run measures each segment's checker execution time
   ``t`` and the main's per-segment instruction counts.
2. For each segment, the program is re-run with one injection.  Checker
   faults fire at a point drawn uniformly from ``[0, 1.1 t)`` of the
   checker's execution; main faults fire when the main's instruction
   progress through the segment crosses a uniformly drawn fraction.  The
   flipped bit lives in a random register (GPR/FPR/vector) or — beyond the
   paper — in a random *dirty page* of the target (see
   :mod:`repro.faults.sites`).  Injections that miss (the target finished
   first, or had no dirty page yet) are retried and, if they never fire,
   counted on ``CampaignResult.missed`` instead of silently vanishing.
3. The run's outcome is classified as detected / exception / timeout /
   recovered / benign (see :mod:`repro.faults.outcomes`).

Main-side injection needs recovery (or at least checker retries) enabled
for faults to be *survived*; without it they are merely detected, which is
what the recovery benchmarks use as the control arm.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign import CampaignEngine, DISP_COMPLETED, FleetResult, \
    task_rng
from repro.core import Parallaft, ParallaftConfig
from repro.faults.drawing import draw_until_fired
from repro.faults.outcomes import (
    CampaignResult,
    InjectionResult,
    Outcome,
    classify_run,
)
from repro.faults.sites import (
    FaultSite,
    KIND_MEMORY,
    KIND_REGISTER,
    TARGET_CHECKER,
    TARGET_MAIN,
)
from repro.isa.program import Program
from repro.isa.registers import all_fault_sites
from repro.sim.platform import PlatformConfig


@dataclass
class Reference:
    """The fault-free run every injection is classified against."""

    stdout: str
    stderr: str
    #: Per segment: the main's recorded instructions, and the checker's
    #: user time (0 for a segment without a checker).
    main_instructions: List[int]
    checker_times: List[float]
    wall_time: float
    exit_code: Optional[int]


class InjectionTarget:
    """One program under one protector config: builds its runtimes and
    runs (once) the fault-free reference its injections are judged by.

    ``runtime_class`` is the class every runtime is built from: a driver
    passes its own module's ``Parallaft`` name, so swapping that name
    (to capture or stub the runtimes) still reaches every run it makes.
    """

    def __init__(self, program: Program,
                 config_factory: Callable[[], ParallaftConfig],
                 platform_factory: Callable[[], PlatformConfig],
                 files: Optional[Dict[str, bytes]] = None,
                 seed: int = 0, quantum: int = 2000,
                 runtime_class=Parallaft):
        self.program = program
        self.config_factory = config_factory
        self.platform_factory = platform_factory
        self.files = files or {}
        self.seed = seed
        self.quantum = quantum
        self.runtime_class = runtime_class
        self._reference: Optional[Reference] = None

    def runtime(self) -> Parallaft:
        return self.runtime_class(
            self.program, config=self.config_factory(),
            platform=self.platform_factory(), files=self.files,
            seed=self.seed, quantum=self.quantum)

    def reference(self) -> Reference:
        """The fault-free run, executed on first use and cached."""
        if self._reference is None:
            runtime = self.runtime()
            stats = runtime.run()
            if stats.error_detected:
                raise RuntimeError(
                    f"fault-free reference run detected errors: "
                    f"{stats.errors}")
            self._reference = Reference(
                stdout=stats.stdout, stderr=stats.stderr,
                main_instructions=[s.main_instructions
                                   for s in runtime.segments],
                checker_times=[
                    0.0 if s.checker is None else s.checker.user_time
                    for s in runtime.segments],
                wall_time=stats.all_wall_time, exit_code=stats.exit_code)
        return self._reference

    def run_on_engine(self, draw, inject, payloads: List[Dict],
                      campaign_of: Callable[[Dict], CampaignResult], *,
                      max_attempts: int,
                      campaign_seed: Optional[int] = None,
                      engine_options: Optional[Dict] = None,
                      **engine_args) -> FleetResult:
        """Run one planned injection per payload on the campaign engine.

        Each task draws with ``draw(payload, rng)`` from its own
        splittable seed and attempts with ``inject(payload, drawn)``,
        re-drawing on a miss (:func:`draw_until_fired`).  Every record
        lands in ``campaign_of(payload)``: a landed injection in
        ``injections``, a miss — exhausted draws, or a
        quarantined / failed task — on ``missed``, so the campaign sums
        to plan.  ``engine_args`` go to :class:`CampaignEngine`; the seed
        defaults to this target's.
        """
        def run_task(task) -> Dict:
            rng = task_rng(task.seed)
            result = draw_until_fired(
                lambda: draw(task.payload, rng),
                lambda drawn: inject(task.payload, drawn), max_attempts)
            if result is None:
                return {"missed": True}
            return {"injection": result.to_dict()}

        engine = CampaignEngine(
            run_task, payloads,
            campaign_seed=(campaign_seed if campaign_seed is not None
                           else self.seed),
            **engine_args, **(engine_options or {}))
        fleet = engine.run()
        payload_of = {t.task_id: t.payload for t in engine.tasks}
        for record in fleet.records:
            campaign = campaign_of(payload_of[record.task_id])
            if record.disposition != DISP_COMPLETED \
                    or record.result.get("missed"):
                campaign.missed += 1
                continue
            campaign.injections.append(
                InjectionResult.from_dict(record.result["injection"]))
        return fleet


class Trigger:
    """A once-only quantum hook: runs ``strike(proc)`` whenever
    ``due(proc, role)`` holds, until the strike lands (returns True).

    The runtime holds its hooks, so a hook (and the ``due`` and
    ``strike`` closures it holds) reaches the runtime through a weak
    proxy: a strong reference back would make a cycle that only the
    cyclic garbage collector frees.
    """

    def __init__(self, runtime: Parallaft, due: Callable[..., bool],
                 strike: Callable[..., bool]):
        self.runtime = weakref.proxy(runtime)
        self.due = due
        self.strike = strike
        #: Virtual time of the landed strike; None until it lands.
        self.fired_at: Optional[float] = None

    @property
    def fired(self) -> bool:
        return self.fired_at is not None

    def __call__(self, proc, role: str) -> None:
        if self.fired_at is None and self.due(proc, role) \
                and self.strike(proc):
            self.fired_at = self.runtime.executor.current_time


def main_trigger(runtime: Parallaft, threshold: float,
                 strike: Callable[..., bool],
                 segment_index: Optional[int] = None) -> Trigger:
    """Strike the main once its instruction progress reaches
    ``threshold``, counted from the start of segment ``segment_index``
    (only while that segment records) or, when None, from program
    start."""
    me = weakref.proxy(runtime)

    def due(proc, role: str) -> bool:
        if role != "main":
            return False
        start = 0
        if segment_index is not None:
            segment = me.current
            if segment is None or segment.index != segment_index:
                return False
            start = segment.start_instructions
        return me.instr_reading(proc) - start >= threshold
    return Trigger(runtime, due, strike)


def site_strike(runtime: Parallaft, site: FaultSite) -> Callable[..., bool]:
    """Apply ``site`` to the struck process, its memory faults ranked
    over that process's dirty pages at the moment of the strike (the
    runtime through a weak proxy, as :class:`Trigger` explains)."""
    me = weakref.proxy(runtime)
    return lambda proc: site.apply(proc, me.dirty_tracker.dirty_vpns(proc))


def injection_result(stats, stdout: str, stderr: Optional[str],
                     **where) -> InjectionResult:
    """Classify a finished injected run against the fault-free ``stdout``
    and ``stderr`` (None: stderr not compared); ``where`` fills the
    site fields of :class:`InjectionResult`."""
    return InjectionResult(
        outcome=classify_run(stats, stdout, stderr),
        detail=stats.errors[0].detail if stats.errors else "",
        rolled_back=stats.recovery_rollbacks > 0,
        output_matched=(stats.stdout == stdout
                        and (stderr is None or stats.stderr == stderr)),
        **where)


class FaultInjector(InjectionTarget):
    """Runs injection campaigns against one program/config combination."""

    def profile(self) -> Tuple[List[float], str]:
        """Per-segment checker times and the reference stdout."""
        reference = self.reference()
        return reference.checker_times, reference.stdout

    # -- single injection ----------------------------------------------------

    def inject_site(self, segment_index: int, when: float, site: FaultSite,
                    reference_output: str) -> Optional[InjectionResult]:
        """Run the program once, applying ``site`` during segment
        ``segment_index``.

        ``when`` is target-relative: seconds of checker execution for
        checker faults, a fraction of the segment's recorded instructions
        for main faults.  Returns None when the injection missed (the
        paper discards and retries these; campaigns also count them).
        """
        if site.target == TARGET_MAIN:
            instr = self.reference().main_instructions
            if segment_index >= len(instr):
                return None
        runtime = self.runtime()
        strike = site_strike(runtime, site)
        if site.target == TARGET_MAIN:
            trigger = main_trigger(runtime, when * instr[segment_index],
                                   strike, segment_index)
        else:
            me = weakref.proxy(runtime)

            def checker_due(proc, role: str) -> bool:
                segments = me.segments
                return (role == "checker"
                        and segment_index < len(segments)
                        and segments[segment_index].replica_of(proc.pid)
                        is not None
                        and proc.user_time >= when)
            trigger = Trigger(runtime, checker_due, strike)
        runtime.quantum_hooks.append(trigger)
        stats = runtime.run()
        if not trigger.fired:
            return None
        # stderr is part of the sphere of replication too: a recovered run
        # must reproduce the fault-free stderr as well as stdout (not
        # compared when no reference ran, e.g. direct inject_site calls
        # with an external reference).
        memory = site.kind == KIND_MEMORY
        return injection_result(
            stats, reference_output,
            self._reference.stderr if self._reference else None,
            register_file="mem" if memory else site.register_file,
            register_index=site.page_rank if memory
            else site.register_index,
            bit=site.bit, segment_index=segment_index, inject_time=when,
            target=site.target, site_kind=site.kind)

    # -- campaign ----------------------------------------------------------------

    def run_campaign(self, injections_per_segment: int = 5,
                     max_attempts_per_injection: int = 8,
                     benchmark_name: str = "workload",
                     max_segments: Optional[int] = None,
                     target: str = TARGET_CHECKER,
                     site_kinds: Tuple[str, ...] = (KIND_REGISTER,),
                     verify_recovered_output: bool = False,
                     shards: int = 1, workers: int = 0,
                     campaign_seed: Optional[int] = None,
                     journal_path: Optional[str] = None,
                     resume: bool = False,
                     registry=None,
                     engine_options: Optional[Dict] = None
                     ) -> CampaignResult:
        """The paper's campaign, generalized: per segment,
        ``injections_per_segment`` injections into ``target`` at uniform
        points, drawing each site from ``site_kinds``.

        ``max_segments`` (at least 1) samples that many segments evenly
        across the run instead of injecting into every one (each
        injection costs a full program run, exactly as in the paper's
        methodology).
        ``verify_recovered_output`` asserts that every RECOVERED run's
        end-of-run stdout equals the fault-free reference — the recovery
        campaign's correctness oracle, applied to the merged records so
        resumed fleets check journaled runs too.

        Execution routes through :class:`repro.campaign.CampaignEngine`:
        each planned injection is one engine task whose draws come from a
        splittable seed (``campaign_seed``, shard, index), so any
        injection is reproducible in isolation and the merged result of a
        sharded fleet (``workers > 0``) is byte-identical to the serial
        run of the same plan.  ``journal_path`` + ``resume`` continue a
        half-finished campaign, skipping journaled injections.  Tasks
        whose worker was quarantined or that exhausted their attempts are
        counted on ``CampaignResult.missed`` (the campaign still sums to
        plan).  The engine's :class:`~repro.campaign.FleetResult` is
        attached as ``campaign.fleet`` for :func:`render_fleet`.
        """
        if max_segments is not None and max_segments < 1:
            raise ValueError(f"max_segments must be >= 1, got "
                             f"{max_segments}")
        reference = self.reference()
        times = reference.checker_times
        weights = (reference.main_instructions if target == TARGET_MAIN
                   else times)
        indices = [i for i, w in enumerate(weights) if w > 0]
        if max_segments is not None and len(indices) > max_segments:
            stride = len(indices) / max_segments
            indices = [indices[int(i * stride)] for i in range(max_segments)]
        payloads = [{"segment_index": segment_index, "shot": shot}
                    for segment_index in indices
                    for shot in range(injections_per_segment)]
        site_kinds = tuple(site_kinds)
        register_sites = all_fault_sites()

        def draw(payload: Dict, rng) -> Tuple[FaultSite, float]:
            kind = site_kinds[0] if len(site_kinds) == 1 \
                else rng.choice(list(site_kinds))
            if kind == KIND_MEMORY:
                site = FaultSite.memory(rng.randrange(1 << 16),
                                        rng.randrange(1 << 20),
                                        target=target)
            else:
                file_name, index, bit = rng.choice(register_sites)
                site = FaultSite.register(file_name, index, bit,
                                          target=target)
            if target == TARGET_MAIN:
                # Stay clear of the boundary so the flip lands inside the
                # recorded segment despite counter overcount noise.
                return site, rng.uniform(0.0, 0.95)
            return site, rng.uniform(0, 1.1 * times[payload["segment_index"]])

        campaign = CampaignResult(benchmark=benchmark_name)
        campaign.fleet = self.run_on_engine(
            draw,
            lambda payload, drawn: self.inject_site(
                payload["segment_index"], drawn[1], drawn[0],
                reference.stdout),
            payloads, lambda payload: campaign,
            max_attempts=max_attempts_per_injection,
            campaign_seed=campaign_seed, engine_options=engine_options,
            shards=shards, workers=workers,
            name=f"faults:{benchmark_name}",
            fingerprint_extra={"target": target, "site_kinds": site_kinds,
                               "injections_per_segment":
                                   injections_per_segment},
            journal_path=journal_path, resume=resume, registry=registry)
        for result in campaign.injections:
            if (verify_recovered_output
                    and result.outcome == Outcome.RECOVERED
                    and not result.output_matched):
                raise AssertionError(
                    f"recovered run diverged from the fault-free "
                    f"reference (segment {result.segment_index})")
        return campaign
