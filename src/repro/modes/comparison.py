"""Cross-mode comparison campaigns: one injection set, every mode.

The point of the :class:`~repro.modes.base.DetectionMode` abstraction is
that modes become *comparable*: the same workload, the same faults, one
table.  To make the injection set identical across modes, faults are
described in mode-independent coordinates — a register site plus a
fraction of the main's total instruction progress.  Segment geometry
differs per mode (RAFT records one segment, Parallaft/TMR slice), so
anything phrased per-segment would not transfer; instruction progress of
the protected process does.

Per mode the campaign runs one fault-free reference (wall time, stdout /
stderr oracle) plus one run per injection, through the shared
injected-run pipeline of :mod:`repro.faults.injector`
(:class:`~repro.faults.injector.InjectionTarget` for runtimes and the
reference, :func:`~repro.faults.injector.main_trigger` counting from
program start for the strike), recording:

* **outcome** — :func:`repro.faults.outcomes.classify_run` against the
  mode's own fault-free output;
* **detection latency** — virtual seconds from the bit flip to the first
  detection action (``error``, ``outvoted``, ``forward_recovery`` or
  ``rollback`` event in the trace, which must therefore stay enabled),
  the window during which corrupt state existed undetected;
* **recovery behaviour** — rollbacks and forward recoveries, so the
  table shows *how* each mode survived, not just whether.

:func:`repro.harness.report.render_mode_comparison` renders the result.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigError
from repro.common.rng import RngPool
from repro.core import Parallaft
from repro.faults.injector import InjectionTarget, main_trigger, site_strike
from repro.faults.outcomes import Outcome, classify_run
from repro.faults.sites import FaultSite, TARGET_MAIN
from repro.isa.registers import all_fault_sites
from repro.modes.base import get_mode
from repro.sim.platform import PlatformConfig, apple_m2
from repro.trace import events as tev

#: Trace events that mark the moment a fault stopped being silent.
_DETECTION_EVENTS = (tev.ERROR, tev.OUTVOTED, tev.FORWARD_RECOVERY,
                     tev.ROLLBACK)


@dataclass
class PlannedFault:
    """One mode-independent injection: flip ``site`` when the main's
    instruction progress crosses ``fraction`` of the reference total."""

    index: int
    site: FaultSite
    fraction: float


@dataclass
class ModeInjectionRecord:
    """What one planned fault did under one mode."""

    fault_index: int
    outcome: Outcome
    fired: bool
    #: Virtual seconds from flip to first detection action; None when the
    #: fault never fired, was benign, or escaped as an SDC.
    detection_latency: Optional[float] = None
    rollbacks: int = 0
    forward_recoveries: int = 0
    outvoted: int = 0
    error_kind: str = ""


@dataclass
class ModeRunSummary:
    """One mode's column of the comparison table."""

    mode: str
    wall_time: float                  # fault-free protected wall time
    baseline_wall_time: float         # unprotected reference
    records: List[ModeInjectionRecord] = field(default_factory=list)

    @property
    def overhead_pct(self) -> float:
        if self.baseline_wall_time <= 0:
            return 0.0
        return (self.wall_time / self.baseline_wall_time - 1.0) * 100.0

    @property
    def fired(self) -> List[ModeInjectionRecord]:
        return [r for r in self.records if r.fired]

    def count(self, outcome: Outcome) -> int:
        return sum(1 for r in self.fired if r.outcome == outcome)

    def fraction(self, outcome: Outcome) -> float:
        fired = self.fired
        return self.count(outcome) / len(fired) if fired else 0.0

    @property
    def detected_fraction(self) -> float:
        fired = self.fired
        if not fired:
            return 0.0
        return sum(1 for r in fired if r.outcome.is_detected) / len(fired)

    @property
    def sdc_fraction(self) -> float:
        return self.fraction(Outcome.SDC)

    @property
    def mean_detection_latency(self) -> Optional[float]:
        latencies = [r.detection_latency for r in self.fired
                     if r.detection_latency is not None]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    @property
    def total_rollbacks(self) -> int:
        return sum(r.rollbacks for r in self.records)

    @property
    def total_forward_recoveries(self) -> int:
        return sum(r.forward_recoveries for r in self.records)

    @property
    def detected_fault_indices(self) -> frozenset:
        """Which planned faults this mode detected — set-comparable
        across modes because the plan is shared."""
        return frozenset(r.fault_index for r in self.fired
                         if r.outcome.is_detected)


def plan_faults(count: int, seed: int = 0,
                low: float = 0.05, high: float = 0.9) -> List[PlannedFault]:
    """Draw the shared injection plan.

    Fractions stay inside ``[low, high]`` so every flip lands while the
    main is still recording under every segment geometry.  The draws
    come from a named stream of the substrate RNG: the plan depends only
    on ``(seed, count)``, never on which modes later consume it.
    """
    rng = RngPool(seed).stream("mode-comparison")
    sites = all_fault_sites()
    plan = []
    for index in range(count):
        file_name, reg_index, bit = rng.choice(sites)
        plan.append(PlannedFault(
            index=index,
            site=FaultSite.register(file_name, reg_index, bit,
                                    target=TARGET_MAIN),
            fraction=rng.uniform(low, high)))
    return plan


def _baseline_wall(program, platform: PlatformConfig, files, seed: int,
                   quantum: int) -> float:
    from repro.kernel import Kernel
    from repro.sim import Executor
    kernel = Kernel(page_size=platform.page_size, seed=seed)
    executor = Executor(kernel, platform, quantum=quantum)
    for path, data in files.items():
        kernel.vfs.register(path, data)
    proc = kernel.spawn(program)
    executor.schedule_default(proc)
    executor.run()
    if proc.exit_code != 0:
        raise RuntimeError(f"baseline exited {proc.exit_code}")
    return (proc.exit_time or executor.wall_time()) - proc.spawn_time


def _first_detection_ts(runtime, fired_ts: float) -> Optional[float]:
    for event in runtime.trace:
        if event.kind in _DETECTION_EVENTS and event.ts >= fired_ts:
            return event.ts
    return None


def run_mode_comparison(program, modes: Sequence[str] = ("parallaft",
                                                         "raft", "tmr"),
                        injections: int = 6, seed: int = 0,
                        files: Optional[Dict[str, bytes]] = None,
                        platform_factory=apple_m2,
                        quantum: int = 2000,
                        config_overrides: Optional[Dict] = None,
                        ) -> Dict[str, ModeRunSummary]:
    """Run the identical injection plan under every requested mode.

    ``program`` is a compiled :class:`~repro.isa.program.Program`;
    ``config_overrides`` (e.g. ``{"meek_split": 0.5}``) is applied to
    every mode's config through ``make_config``, so a key that is not a
    config field raises :class:`~repro.common.errors.ConfigError` before
    anything runs — as does turning ``enable_trace`` off, since detection
    latency is read from the event trace.  ``meek_split`` is dropped for
    modes that never compare state (RAFT): it would have nothing to
    split.  Returns ``{mode: ModeRunSummary}`` in the order requested.
    """
    if not (config_overrides or {}).get("enable_trace", True):
        raise ConfigError("run_mode_comparison reads detection latency "
                          "from the event trace; enable_trace must stay on")
    overrides_of = {}
    for mode_name in modes:
        detection = get_mode(mode_name)  # typed error for unknown names
        overrides = dict(config_overrides or {})
        if not detection.make_config().compare_state:
            overrides.pop("meek_split", None)
        detection.make_config(**overrides)  # unknown keys raise here
        overrides_of[mode_name] = overrides
    files = files or {}
    plan = plan_faults(injections, seed=seed)
    baseline = _baseline_wall(program, platform_factory(), files, seed,
                              quantum)
    summaries: Dict[str, ModeRunSummary] = {}

    for mode_name in modes:
        # Built through this module's ``Parallaft`` name, which callers
        # swap to capture or stub every run.
        target = InjectionTarget(
            program, functools.partial(get_mode(mode_name).make_config,
                                       **overrides_of[mode_name]),
            platform_factory, files=files, seed=seed, quantum=quantum,
            runtime_class=Parallaft)
        # Fault-free reference: this mode's own oracle and wall time.
        reference = target.reference()
        if reference.exit_code != 0:
            raise RuntimeError(f"{mode_name} fault-free reference exited "
                               f"{reference.exit_code}")
        total_instructions = sum(reference.main_instructions)
        summary = ModeRunSummary(mode=mode_name,
                                 wall_time=reference.wall_time,
                                 baseline_wall_time=baseline)

        for fault in plan:
            runtime = target.runtime()
            trigger = main_trigger(runtime,
                                   fault.fraction * total_instructions,
                                   site_strike(runtime, fault.site))
            runtime.quantum_hooks.append(trigger)
            stats = runtime.run()
            record = ModeInjectionRecord(
                fault_index=fault.index,
                outcome=Outcome.BENIGN,
                fired=trigger.fired,
                rollbacks=stats.recovery_rollbacks,
                forward_recoveries=stats.tmr_forward_recoveries,
                outvoted=stats.tmr_outvoted,
                error_kind=stats.errors[0].kind if stats.errors else "")
            if record.fired:
                record.outcome = classify_run(stats, reference.stdout,
                                              reference.stderr)
                detected_ts = _first_detection_ts(runtime, trigger.fired_at)
                if detected_ts is not None:
                    record.detection_latency = detected_ts - trigger.fired_at
            summary.records.append(record)
        summaries[mode_name] = summary
    return summaries
