"""The benchmark's five workloads.

Each workload is a closed batch: a fixed list of items run back to back
by one process, where an item is one benchmark input, one mode run or
one campaign task.  The workload seed reaches the program only through
the generated inputs and the kernel and campaign seeds.

``prepare(seed)`` is the set-up that ``setup_s`` times (registry
lookups, program generation and compilation); ``run_pass`` executes the
batch once and returns a :class:`PassResult`: items attempted and
failed, the simulated results reduced to digests, and the simulated
metrics the per-layer table reports.  A failing item is counted, never
raised: the rest of the batch still runs.

Harness functions are called through their modules
(``runner.run_protected``, not a bound name), so a test can replace one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

Label = Callable[[str], None]


def _plain(value):
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    raise TypeError(f"not canonical JSON: {type(value).__name__}")


def canonical_sha(value) -> str:
    """sha256 of the canonical JSON of ``value`` (floats by repr, so
    every bit of a simulated number counts)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_plain)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class PassResult:
    """One execution of a workload's batch."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Digest key -> sha256 of that item's simulated results.
    parts: Dict[str, str] = field(default_factory=dict)
    #: Simulated metrics (``sim.*``) read from the results.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Merged phase ledger of the protected runs, when they expose one.
    profile: Optional[object] = None
    #: Host-side facts the results carry (campaign fleet accounting).
    host: Dict[str, float] = field(default_factory=dict)

    def part(self, key: str, value) -> None:
        self.parts[key] = canonical_sha(value)

    def fail(self, items: int, message: str) -> None:
        self.failed += items
        self.failures.append(message)

    def merge_profile(self, profile) -> None:
        if profile is not None:
            self.profile = (profile if self.profile is None
                            else self.profile.merge(profile))

    @property
    def digest(self) -> str:
        return canonical_sha(self.parts)


def _stats_doc(stats) -> Dict[str, object]:
    return {"stats": stats.to_dict(), "stdout": stats.stdout,
            "stderr": stats.stderr}


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


@contextmanager
def capturing(module, attr: str) -> Iterator[List[object]]:
    """Record every instance of ``module.attr`` built inside the block.

    The class is swapped for a recording subclass by ``setattr`` on the
    module and restored on exit, so it affects only callers that look
    the class up through that module while the block runs.
    """
    original = getattr(module, attr)
    made: List[object] = []

    class Recording(original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    Recording.__name__ = Recording.__qualname__ = original.__name__
    setattr(module, attr, Recording)
    try:
        yield made
    finally:
        setattr(module, attr, original)


def _exit_codes(kernel) -> List[Optional[int]]:
    return [proc.exit_code for proc in kernel.processes.values()]


def sim_metrics(result: PassResult) -> Dict[str, float]:
    """Every simulated per-layer metric of one batch, 0 where the
    workload has no such quantity.  ``sim.phase.*`` are the Fig. 6
    overhead components in Gcycles and the stall phases in virtual
    seconds."""
    from repro.metrics.phases import CYCLE_PHASES, MAIN_EXEC, STALL_PHASES
    out = {name: result.sim.get(name, 0.0) for name in (
        "sim.overhead_pct", "sim.energy_overhead_pct", "sim.detected_frac")}
    profile = result.profile
    for phase in CYCLE_PHASES:
        if phase != MAIN_EXEC:
            cycles = profile.cycles.get(phase, 0.0) if profile else 0.0
            out[f"sim.phase.{phase}_gcycles"] = cycles / 1e9
    for phase in STALL_PHASES:
        seconds = profile.stall_seconds.get(phase, 0.0) if profile else 0.0
        out[f"sim.phase.{phase}_s"] = seconds
    return out


# ------------------------------------------------------------------ fig 5


class Fig5:
    """Baseline then Parallaft over one half of the Fig. 5/7 suite."""

    #: Runs a forked fleet whose serial run is a separate measurement.
    fleet = False
    #: Its results read the runtime's event trace, so turning
    #: observation off changes them.
    reads_trace = False

    def __init__(self, name: str, benchmarks: Sequence[str]):
        self.name = name
        self.benchmarks = tuple(benchmarks)

    def prepare(self, seed: int):
        from repro.workloads import benchmark
        return [benchmark(name) for name in self.benchmarks]

    def run_pass(self, prepared, seed: int, label: Label,
                 serial: bool = False, counter=None) -> PassResult:
        from repro.common.units import geomean_overhead_pct
        from repro.core import ParallaftConfig
        from repro.harness import runner
        from repro.harness.figures import DEFAULT_PERIOD
        from repro.harness.periods import effective_period

        result = PassResult()
        perf, energy = {}, {}
        for bench in prepared:
            n_inputs = len(bench.input_seeds())
            result.attempted += n_inputs
            try:
                label(f"{bench.name}:baseline")
                with capturing(runner, "Kernel") as kernels:
                    base = runner.run_baseline(bench, seed_base=seed)
                label(f"{bench.name}:parallaft")
                config = ParallaftConfig(
                    slicing_period=effective_period(DEFAULT_PERIOD))
                prot = runner.run_protected(bench, "parallaft",
                                            config=config, seed_base=seed)
            except Exception as exc:  # noqa: BLE001 — count, keep going
                result.fail(n_inputs, f"{bench.name}: {_error(exc)}")
                continue
            base_stdout = [k.console.text() for k in kernels]
            for index, (run, expected) in enumerate(
                    zip(prot.inputs, base_stdout), start=1):
                if run.stats.stdout != expected:
                    result.fail(1, f"{bench.name} input {index}: protected "
                                   f"stdout differs from baseline")
            result.part(f"{bench.name}/baseline", [
                {"wall": r.wall_time, "user": r.user_time, "sys": r.sys_time,
                 "energy": r.energy_joules, "stdout": out}
                for r, out in zip(base.inputs, base_stdout)])
            result.part(f"{bench.name}/parallaft",
                        [_stats_doc(r.stats) for r in prot.inputs])
            perf[bench.name] = runner.overhead_pct(prot, base)
            energy[bench.name] = runner.energy_overhead_pct(prot, base)
            result.merge_profile(prot.phase_profile())
        if perf:
            result.sim["sim.overhead_pct"] = geomean_overhead_pct(
                perf.values())
            result.sim["sim.energy_overhead_pct"] = geomean_overhead_pct(
                energy.values())
        result.part("overheads", {"perf": perf, "energy": energy})
        return result


# ------------------------------------------------------------ modes/faults


class ModesFaults:
    """One injection plan under parallaft, raft and tmr."""

    name = "modes-faults"
    fleet = False
    reads_trace = True      # detection latency comes from the event trace
    MODES = ("parallaft", "raft", "tmr")
    INJECTIONS = 3
    ITERS = 12000

    def prepare(self, seed: int):
        from repro.minic import compile_source
        from repro.workloads.generator import synthetic_source
        return compile_source(synthetic_source(total_iters=self.ITERS,
                                               seed=seed))

    def run_pass(self, program, seed: int, label: Label,
                 serial: bool = False, counter=None) -> PassResult:
        from repro.harness.report import render_mode_comparison
        from repro.modes import comparison

        result = PassResult()
        result.attempted = len(self.MODES) * (1 + self.INJECTIONS)
        label("modes")
        try:
            with capturing(comparison, "Parallaft") as runtimes:
                summaries = comparison.run_mode_comparison(
                    program, modes=self.MODES, injections=self.INJECTIONS,
                    seed=seed)
        except Exception as exc:  # noqa: BLE001
            result.fail(result.attempted, _error(exc))
            return result
        para, tmr = summaries["parallaft"], summaries["tmr"]
        missed = para.detected_fault_indices - tmr.detected_fault_indices
        if missed:
            result.fail(len(missed), f"tmr missed faults parallaft "
                                     f"detected: {sorted(missed)}")
        rolled = [r.fault_index for r in tmr.records if r.rollbacks]
        if rolled:
            result.fail(len(rolled), f"tmr rolled back on faults {rolled}")
        result.part("report", render_mode_comparison(summaries))
        for mode, summary in summaries.items():
            result.part(f"{mode}/summary", {
                "wall": summary.wall_time,
                "baseline_wall": summary.baseline_wall_time,
                "records": summary.records})
        result.part("runs", [_stats_doc(r.stats) for r in runtimes])
        for runtime in runtimes:
            result.merge_profile(getattr(runtime.stats, "phase_profile",
                                         None))
        result.sim["sim.overhead_pct"] = para.overhead_pct
        result.sim["sim.detected_frac"] = para.detected_fraction
        return result


# ---------------------------------------------------------------- campaign


#: The program of the campaign scale test: small and fast, so the scale
#: is in the task count, not in the run.
CAMPAIGN_SOURCE = """
global data[32];
func main() {
    var i; var round; var total;
    for (round = 0; round < 6; round = round + 1) {
        for (i = 0; i < 32; i = i + 1) {
            data[i] = data[i] * 3 + round + i;
        }
    }
    total = 0;
    for (i = 0; i < 32; i = i + 1) { total = total + data[i]; }
    print_int(total);
}
"""


def fleet_workers() -> int:
    """Two workers, or fewer on a host with fewer usable cores."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


class CampaignFleet:
    """A sharded, journaled fault campaign on a forked worker fleet."""

    name = "campaign-fleet"
    fleet = True
    reads_trace = False
    TASKS = 256
    SHARDS = 4
    PERIOD = 400_000_000     # two segments; tasks = 2 * per-segment shots

    def prepare(self, seed: int):
        from repro.minic import compile_source
        return compile_source(CAMPAIGN_SOURCE)

    def run_pass(self, program, seed: int, label: Label,
                 serial: bool = False, counter=None) -> PassResult:
        from repro.campaign import DISP_COMPLETED
        from repro.core import ParallaftConfig
        from repro.faults import FaultInjector
        from repro.harness.report import render_injection
        from repro.sim import apple_m2

        result = PassResult(attempted=self.TASKS)
        workers = 0 if serial else fleet_workers()
        label("campaign")
        injector = FaultInjector(
            program,
            config_factory=lambda: ParallaftConfig(
                slicing_period=self.PERIOD),
            platform_factory=apple_m2, seed=seed)
        # Forked workers count their own instructions; each reports its
        # count (which starts from the supervisor's at fork) once, at exit.
        snapshot = counter.snapshot if counter is not None and workers \
            else None
        options = {"metrics_snapshot": snapshot} if snapshot else None
        try:
            with tempfile.TemporaryDirectory() as tmp:
                campaign = injector.run_campaign(
                    injections_per_segment=self.TASKS // 2,
                    benchmark_name="scale", shards=self.SHARDS,
                    workers=workers,
                    journal_path=os.path.join(tmp, "journal.jsonl"),
                    engine_options=options)
        except Exception as exc:  # noqa: BLE001
            result.fail(self.TASKS, _error(exc))
            return result
        engine = campaign.fleet
        bad = [r for r in engine.records if r.disposition != DISP_COMPLETED]
        if bad:
            result.fail(len(bad), f"{len(bad)} tasks ended "
                                  f"{sorted({r.disposition for r in bad})}")
        if campaign.planned != self.TASKS:
            result.fail(abs(self.TASKS - campaign.planned),
                        f"campaign planned {campaign.planned} tasks")
        result.part("report", render_injection({"scale": campaign}))
        result.part("campaign", campaign.to_dict())
        result.sim["sim.detected_frac"] = campaign.detected_fraction
        result.host.update({
            "workers": workers,
            "fleet_wall_s": engine.wall_time,
            "shard_busy_s": sum(s.wall_time for s in engine.shards),
            "retries": engine.registry.value("campaign.retries"),
        })
        if snapshot:
            # The supervisor interprets nothing while the fleet runs, so
            # its count now is the count every worker started from.
            result.host["worker_instructions"] = (
                engine.registry.value("bench.sim_instructions")
                - engine.registry.value("bench.snapshots") * counter.total)
        return result


# ------------------------------------------------------------- §5.7 stress


class SyscallStress:
    """getpid, 1 MB read and SIGUSR1 loops, baseline and protected."""

    name = "syscall-stress"
    fleet = False
    reads_trace = False
    ITERS = 4000
    CASES = 3

    def prepare(self, seed: int):
        # run_syscall_signal_stress generates its programs itself, with
        # fixed loop counts: the seed does not change this workload's
        # inputs.
        return None

    def run_pass(self, prepared, seed: int, label: Label,
                 serial: bool = False, counter=None) -> PassResult:
        from repro import core, kernel as kernel_module
        from repro.common.units import geomean_overhead_pct
        from repro.harness import figures

        result = PassResult(attempted=2 * self.CASES)
        label("stress")
        try:
            with capturing(core, "Parallaft") as runtimes, \
                    capturing(kernel_module, "Kernel") as kernels:
                stress = figures.run_syscall_signal_stress(iters=self.ITERS)
        except Exception as exc:  # noqa: BLE001
            result.fail(result.attempted, _error(exc))
            return result
        for runtime in runtimes:
            stats = runtime.stats
            if stats.exit_code != 0 or stats.errors:
                result.fail(1, f"protected {runtime.program.name}: exit "
                               f"{stats.exit_code} errors {stats.errors}")
        for kernel in kernels:
            if any(code != 0 for code in _exit_codes(kernel)):
                result.fail(1, f"baseline exit codes {_exit_codes(kernel)}")
        result.part("slowdowns", {name: [r.baseline_time, r.protected_time]
                                  for name, r in stress.items()})
        result.part("runs", [_stats_doc(r.stats) for r in runtimes])
        result.part("baseline", [{"stdout": k.console.text(),
                                  "exit": _exit_codes(k)} for k in kernels])
        for runtime in runtimes:
            result.merge_profile(getattr(runtime.stats, "phase_profile",
                                         None))
        result.sim["sim.overhead_pct"] = geomean_overhead_pct(
            (r.slowdown - 1.0) * 100.0 for r in stress.values())
        return result


#: The two halves of the 16-benchmark Fig. 5/7 suite, split by where
#: their host time goes: hashing and the comparator, or the interpreter.
FIG5_MEMORY = ("mcf", "gcc", "omnetpp", "hmmer", "soplex", "astar", "lbm",
               "milc")
FIG5_COMPUTE = ("sjeng", "povray", "h264ref", "namd", "gobmk", "libquantum",
                "sphinx3", "bzip2")


def workloads() -> Dict[str, object]:
    """Every workload by name, in the order the benchmark runs them."""
    return {w.name: w for w in (
        Fig5("fig5-memory", FIG5_MEMORY),
        Fig5("fig5-compute", FIG5_COMPUTE),
        ModesFaults(),
        CampaignFleet(),
        SyscallStress(),
    )}
