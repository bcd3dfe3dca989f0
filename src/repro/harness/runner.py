"""Experiment runner: execute benchmarks under baseline / Parallaft / RAFT.

Implements the paper's measurement methodology (§5.1):

* **baseline** — the program alone on a big core; wall time, user/sys CPU
  time and energy integrated over the run.
* **parallaft** / **raft** — the same program under the runtime; performance
  overhead is wall-time relative to baseline, energy overhead likewise.
* Benchmarks with multiple inputs run each input as its own process and sum
  (SPEC-style); memory runs sample summed PSS every 0.5 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.units import geomean_overhead_pct
from repro.core import Parallaft, ParallaftConfig
from repro.core.stats import RunStats
from repro.kernel import Kernel
from repro.metrics import MetricRegistry, PhaseProfile
from repro.sim import Executor, PlatformConfig, apple_m2
from repro.workloads.registry import Benchmark


@dataclass
class InputResult:
    """Measurements for one benchmark input (one process)."""

    wall_time: float
    main_wall_time: float
    user_time: float
    sys_time: float
    energy_joules: float
    stats: Optional[RunStats] = None
    pss_samples: List[float] = field(default_factory=list)
    #: Metric registry of the run (protected modes only).
    metrics: Optional[MetricRegistry] = None
    #: Phase-attributed cycle ledger of the run (protected modes only).
    phase_profile: Optional[PhaseProfile] = None


@dataclass
class BenchmarkResult:
    """Summed measurements across a benchmark's inputs."""

    benchmark: str
    mode: str
    inputs: List[InputResult] = field(default_factory=list)

    @property
    def wall_time(self) -> float:
        return sum(r.wall_time for r in self.inputs)

    @property
    def main_wall_time(self) -> float:
        return sum(r.main_wall_time for r in self.inputs)

    @property
    def user_time(self) -> float:
        return sum(r.user_time for r in self.inputs)

    @property
    def sys_time(self) -> float:
        return sum(r.sys_time for r in self.inputs)

    @property
    def energy_joules(self) -> float:
        return sum(r.energy_joules for r in self.inputs)

    @property
    def pss_samples(self) -> List[float]:
        samples: List[float] = []
        for r in self.inputs:
            samples.extend(r.pss_samples)
        return samples

    def mean_pss(self) -> float:
        samples = self.pss_samples
        return sum(samples) / len(samples) if samples else 0.0

    def phase_profile(self) -> Optional[PhaseProfile]:
        """Phase ledgers of all inputs merged (SPEC-style summing, like
        the wall-time properties above); ``None`` for baseline runs."""
        merged: Optional[PhaseProfile] = None
        for r in self.inputs:
            if r.phase_profile is None:
                continue
            merged = (r.phase_profile if merged is None
                      else merged.merge(r.phase_profile))
        return merged


def run_baseline(bench: Benchmark, platform: Optional[PlatformConfig] = None,
                 scale: int = 1, seed_base: int = 0, quantum: int = 2000,
                 sample_memory: bool = False) -> BenchmarkResult:
    """Run a benchmark natively (no runtime) and collect measurements."""
    platform = platform or apple_m2()
    result = BenchmarkResult(bench.name, "baseline")
    for seed in bench.input_seeds():
        kernel = Kernel(page_size=platform.page_size, seed=seed_base + seed)
        executor = Executor(kernel, platform, quantum=quantum)
        source, files = bench.build(scale, seed)
        for path, data in files.items():
            kernel.vfs.register(path, data)
        from repro.minic import compile_source
        proc = kernel.spawn(compile_source(source, name=bench.name))
        executor.schedule_default(proc)
        pss: List[float] = []
        if sample_memory:
            executor.add_sampler(
                0.5, lambda _t, p=proc: pss.append(
                    p.mem.pss_bytes() if p.alive else 0.0))
        executor.run()
        if proc.exit_code != 0:
            raise RuntimeError(
                f"{bench.name} seed {seed} exited with {proc.exit_code}")
        wall = (proc.exit_time or executor.wall_time()) - proc.spawn_time
        result.inputs.append(InputResult(
            wall_time=wall,
            main_wall_time=wall,
            user_time=proc.user_time,
            sys_time=proc.sys_time,
            energy_joules=executor.total_energy_joules(wall=wall),
            pss_samples=pss,
        ))
    return result


def run_protected(bench: Benchmark, mode: str = "parallaft",
                  platform: Optional[PlatformConfig] = None,
                  config: Optional[ParallaftConfig] = None,
                  scale: int = 1, seed_base: int = 0, quantum: int = 2000,
                  sample_memory: bool = False,
                  trace_path: Optional[str] = None,
                  metrics_interval: Optional[float] = None,
                  metrics_callback: Optional[Callable] = None,
                  prom_path: Optional[str] = None,
                  collapsed_path: Optional[str] = None) -> BenchmarkResult:
    """Run a benchmark under Parallaft or the RAFT model.

    ``trace_path`` exports each input's event trace as Chrome trace_event
    JSON (Perfetto-loadable); multi-input benchmarks get a ``.seedN``
    suffix inserted before the extension.  ``metrics_interval`` turns on
    the virtual-time gauge sampler; ``metrics_callback(when, registry)``
    fires after every sample (this is how the ``--metrics`` live
    dashboard hooks in).  ``prom_path`` / ``collapsed_path`` export the
    end-of-run registry as Prometheus text and the phase profile as a
    collapsed-stack (flamegraph) file, seed-suffixed like ``trace_path``.
    """
    from repro.modes import get_mode
    detection = get_mode(mode)  # typed ConfigError for unknown names
    platform = platform or apple_m2()
    result = BenchmarkResult(bench.name, mode)
    seeds = bench.input_seeds()
    for seed in seeds:
        if config is not None:
            import copy
            run_config = copy.deepcopy(config)
        else:
            run_config = detection.make_config()
        source, files = bench.build(scale, seed)
        from repro.minic import compile_source
        runtime = Parallaft(compile_source(source, name=bench.name),
                            config=run_config, platform=platform,
                            files=files, seed=seed_base + seed,
                            quantum=quantum)
        if sample_memory:
            runtime.enable_memory_sampling(0.5)
        if metrics_interval is not None or metrics_callback is not None:
            runtime.enable_metrics_sampling(
                metrics_interval if metrics_interval is not None else 0.5,
                callback=metrics_callback)
        stats = runtime.run()
        if trace_path is not None:
            runtime.trace.write_chrome_trace(
                _trace_path_for_seed(trace_path, seed, len(seeds)))
        profile = getattr(stats, "phase_profile", None)
        if prom_path is not None or collapsed_path is not None:
            from repro.metrics import collapsed_stacks, prometheus_text
            if prom_path is not None:
                with open(_trace_path_for_seed(prom_path, seed,
                                               len(seeds)), "w") as f:
                    f.write(prometheus_text(runtime.metrics))
            if collapsed_path is not None and profile is not None:
                with open(_trace_path_for_seed(collapsed_path, seed,
                                               len(seeds)), "w") as f:
                    f.write(collapsed_stacks(profile))
        if stats.error_detected:
            raise RuntimeError(
                f"{bench.name} seed {seed} false positive: {stats.errors}")
        if stats.exit_code != 0:
            raise RuntimeError(
                f"{bench.name} seed {seed} exited with {stats.exit_code}")
        result.inputs.append(InputResult(
            wall_time=stats.all_wall_time,
            main_wall_time=stats.main_wall_time,
            user_time=stats.main_user_time,
            sys_time=stats.main_sys_time,
            energy_joules=stats.energy_joules,
            stats=stats,
            pss_samples=list(stats.pss_samples),
            metrics=runtime.metrics,
            phase_profile=profile,
        ))
    return result


def _trace_path_for_seed(path: str, seed: int, n_inputs: int) -> str:
    """``out.json`` -> ``out.seed1.json`` for multi-input benchmarks."""
    if n_inputs <= 1:
        return path
    root, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}.seed{seed}"
    return f"{root}.seed{seed}.{ext}"


def overhead_pct(protected: BenchmarkResult,
                 baseline: BenchmarkResult) -> float:
    """Wall-time overhead percentage vs baseline."""
    return (protected.wall_time / baseline.wall_time - 1.0) * 100.0


def energy_overhead_pct(protected: BenchmarkResult,
                        baseline: BenchmarkResult) -> float:
    return (protected.energy_joules / baseline.energy_joules - 1.0) * 100.0


def suite_geomean(overheads: Dict[str, float]) -> float:
    """Geometric-mean overhead across benchmarks, paper-style."""
    return geomean_overhead_pct(overheads.values())


def _run_campaign_cli(args) -> int:
    """``--campaign`` mode: one engine-routed fault campaign per
    benchmark, rendered as the injection-outcome table plus the fleet
    supervision table.  The printed report depends only on
    ``(seed-base, shards, plan)`` — the same flags reproduce it
    byte-for-byte whatever ``--workers`` count executed it, including a
    ``--resume`` after a crash."""
    from repro.faults import FaultInjector
    from repro.harness.report import render_fleet, render_injection
    from repro.minic import compile_source
    from repro.modes import get_mode
    from repro.sim import apple_m2
    from repro.workloads.registry import benchmark

    # A campaign runs under a detection mode; "baseline" has no checkers
    # to inject around, so the registry lookup rejects it too.
    detection = get_mode(args.mode)
    names = [n.strip() for n in args.bench.split(",")]
    campaigns = {}
    fleets = {}
    for name in names:
        bench = benchmark(name)
        source, files = bench.build(args.scale, args.seed_base)

        def config_factory():
            return detection.make_config(mem_budget_bytes=args.budget)

        journal = args.journal
        if journal is not None and len(names) > 1:
            root, dot, ext = journal.rpartition(".")
            journal = (f"{root}.{name}.{ext}" if dot
                       else f"{journal}.{name}")
        injector = FaultInjector(
            compile_source(source, name=bench.name),
            config_factory=config_factory, platform_factory=apple_m2,
            files=files, seed=args.seed_base, quantum=args.quantum)
        campaigns[name] = injector.run_campaign(
            injections_per_segment=args.injections,
            benchmark_name=name, max_segments=args.max_segments,
            shards=args.shards, workers=args.workers,
            journal_path=journal, resume=args.resume)
        fleets[name] = campaigns[name].fleet
    merged = render_injection(campaigns) + "\n"
    report = [merged.rstrip("\n")]
    for name in names:
        report.append(f"-- fleet: {name} --\n{render_fleet(fleets[name])}")
    print("\n\n".join(report))
    if args.report_out is not None:
        # Only the merged outcome table goes to the file: it depends on
        # nothing but (seed, shards, plan), so serial / fleet / resumed
        # runs of the same campaign write byte-identical reports.  The
        # fleet table (wall-clock, per-run supervision) stays on stdout.
        with open(args.report_out, "w", encoding="utf-8") as f:
            f.write(merged)
    return 0


def _positive_int(text: str) -> int:
    import argparse
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    import argparse
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.harness.runner --bench mcf --mem-sample``.

    Runs each requested benchmark under the requested mode and prints the
    measurement summary; with ``--mem-sample`` the runtime's PSS sampler
    is enabled and the memory columns (mean PSS, peak resident bytes) are
    populated.  ``--budget`` bounds the frame pool to exercise the
    pressure ladder from the command line.
    """
    import argparse

    from repro.modes import registered_modes
    from repro.workloads.registry import benchmark

    parser = argparse.ArgumentParser(
        prog="repro.harness.runner",
        description="Run benchmarks under baseline or a detection mode "
                    "(parallaft / raft / tmr).")
    parser.add_argument("--bench", required=True,
                        help="comma-separated benchmark names")
    parser.add_argument("--mode", default="parallaft",
                        choices=("baseline", *registered_modes()))
    parser.add_argument("--mem-sample", action="store_true",
                        help="sample PSS during the run and report "
                             "mean PSS / peak resident bytes")
    parser.add_argument("--budget", type=int, default=None, metavar="BYTES",
                        help="frame-pool budget in bytes (default unbounded)")
    parser.add_argument("--scale", type=_positive_int, default=1)
    parser.add_argument("--quantum", type=_positive_int, default=2000)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome trace JSON per input")
    parser.add_argument("--metrics", action="store_true",
                        help="live gauge dashboard during the run plus a "
                             "phase-attributed overhead table at the end")
    parser.add_argument("--metrics-interval", type=_positive_float,
                        default=0.5, metavar="SECONDS",
                        help="virtual-time gauge sampling period "
                             "(default 0.5)")
    parser.add_argument("--prom", default=None, metavar="PATH",
                        help="write the end-of-run metric registry as "
                             "Prometheus text, per input")
    parser.add_argument("--collapsed", default=None, metavar="PATH",
                        help="write the phase profile as a collapsed-stack "
                             "(flamegraph) file, per input")
    campaign = parser.add_argument_group(
        "campaign mode",
        "run a sharded fault-injection campaign through the campaign "
        "engine instead of a measurement run")
    campaign.add_argument("--campaign", action="store_true",
                          help="run a fault-injection campaign on each "
                               "benchmark and print the outcome + fleet "
                               "tables")
    campaign.add_argument("--shards", type=int, default=1, metavar="N",
                          help="logical shards (part of the campaign's "
                               "identity; resume refuses a mismatch)")
    campaign.add_argument("--workers", type=int, default=0, metavar="K",
                          help="worker processes (0 = serial in-process, "
                               "the determinism baseline)")
    campaign.add_argument("--journal", default=None, metavar="PATH",
                          help="durable JSONL journal (multi-benchmark "
                               "runs insert the benchmark name before "
                               "the extension)")
    campaign.add_argument("--resume", action="store_true",
                          help="resume from --journal, skipping "
                               "completed injections")
    campaign.add_argument("--injections", type=int, default=3, metavar="N",
                          help="injections per segment (default 3)")
    campaign.add_argument("--max-segments", type=_positive_int,
                          default=None, metavar="N",
                          help="sample at most N segments instead of "
                               "injecting into every one")
    campaign.add_argument("--report-out", default=None, metavar="PATH",
                          help="also write the campaign report to PATH")
    args = parser.parse_args(argv)

    if args.campaign:
        return _run_campaign_cli(args)

    from repro.harness.report import render_phase_breakdown, render_run_stats
    from repro.metrics import Dashboard

    profiles = {}
    for name in args.bench.split(","):
        bench = benchmark(name.strip())
        if args.mode == "baseline":
            result = run_baseline(bench, scale=args.scale,
                                  seed_base=args.seed_base,
                                  quantum=args.quantum,
                                  sample_memory=args.mem_sample)
        else:
            config = None
            if args.budget is not None:
                from repro.modes import get_mode
                config = get_mode(args.mode).make_config(
                    mem_budget_bytes=args.budget)
            dashboard = Dashboard() if args.metrics else None
            want_sampling = args.metrics or args.prom is not None
            result = run_protected(
                bench, mode=args.mode,
                config=config, scale=args.scale,
                seed_base=args.seed_base,
                quantum=args.quantum,
                sample_memory=args.mem_sample,
                trace_path=args.trace,
                metrics_interval=(args.metrics_interval if want_sampling
                                  else None),
                metrics_callback=(dashboard.update if dashboard else None),
                prom_path=args.prom,
                collapsed_path=args.collapsed)
            profile = result.phase_profile()
            if profile is not None:
                profiles[bench.name] = profile
        print(f"== {bench.name} ({result.mode}) ==")
        print(f"wall_time      {result.wall_time:.1f}")
        print(f"energy_joules  {result.energy_joules:.3f}")
        if args.mem_sample:
            from repro.harness.report import NA
            # "—", not 0: a run that produced no samples (e.g. it ended
            # before the first sampling tick) measured nothing.
            print(f"mean_pss       "
                  f"{f'{result.mean_pss():.0f}' if result.pss_samples else NA}")
        for run in result.inputs:
            if run.stats is not None:
                print(render_run_stats(run.stats))
    if args.metrics and profiles:
        print()
        print(render_phase_breakdown(profiles))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
