#!/usr/bin/env python3
"""Metrics demo: watch a protected run through the observability layer.

Runs one workload under full Parallaft and under the RAFT model with the
virtual-time metrics sampler on, then shows each surface of
`repro.metrics`:

  * the live dashboard line the `--metrics` runner flag prints,
  * the Fig. 6-style phase-attribution table — every simulated cycle
    charged to exactly one phase, with `—` marking phases a mode never
    executes (RAFT has no dirty-scan/compare machinery),
  * a Prometheus text export and a collapsed-stack (flamegraph) profile
    of the phase ledger,
  * the conservation check: the profiler's phase sum equals the
    executor's independently accumulated cycle total.

    python examples/metrics_demo.py
    python examples/metrics_demo.py --prom /tmp/run.prom \
        --collapsed /tmp/run.folded
"""

import argparse

from repro import Parallaft, ParallaftConfig, compile_source
from repro.harness.report import render_phase_breakdown
from repro.metrics import Dashboard, collapsed_stacks, prometheus_text
from repro.modes import get_mode
from repro.sim import apple_m2

WORKLOAD = """
global data[1024];
func main() {
    var i; var round;
    srand64(11);
    for (round = 0; round < 16; round = round + 1) {
        for (i = 0; i < 1024; i = i + 1) {
            data[i] = data[i] * 3 + round + i;
        }
        print_int(data[round] % 1000003);
    }
}
"""


def protected_run(mode):
    if mode == "raft":
        config = get_mode("raft").make_config()
    else:
        config = ParallaftConfig()
        config.slicing_period = 150_000_000
    runtime = Parallaft(compile_source(WORKLOAD), config=config,
                        platform=apple_m2())
    print(f"\n-- {mode}: live dashboard (virtual-time samples) --")
    runtime.enable_metrics_sampling(1.0, callback=Dashboard().update)
    stats = runtime.run()
    assert stats.exit_code == 0, stats.errors
    return runtime, stats


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prom", metavar="PATH",
                        help="write the Parallaft run's registry as "
                             "Prometheus text")
    parser.add_argument("--collapsed", metavar="PATH",
                        help="write the Parallaft run's phase profile as "
                             "collapsed stacks (flamegraph.pl input)")
    args = parser.parse_args()

    profiles = {}
    exports = None
    for mode in ("parallaft", "raft"):
        runtime, stats = protected_run(mode)
        profiles[mode] = stats.phase_profile
        if mode == "parallaft":
            exports = (runtime.metrics, stats.phase_profile)
        charged = runtime.executor.charged_cycles
        attributed = sum(stats.phase_profile.cycles.values())
        print(f"{mode}: executor charged {charged:.0f} cycles, "
              f"profiler attributed {attributed:.0f} "
              f"(drift {attributed - charged:+.2g})")

    print("\n-- phase-attributed overhead (Fig. 6 decomposition) --")
    print(render_phase_breakdown(profiles))

    registry, profile = exports
    if args.prom:
        with open(args.prom, "w") as f:
            f.write(prometheus_text(registry))
        print(f"\nwrote Prometheus export to {args.prom}")
    if args.collapsed:
        with open(args.collapsed, "w") as f:
            f.write(collapsed_stacks(profile))
        print(f"wrote collapsed stacks to {args.collapsed}")


if __name__ == "__main__":
    main()
