#!/usr/bin/env python3
"""Run an arbitrary program under Parallaft (artifact appendix A.7 style).

Takes a mini-C source file (or uses a built-in demo), a platform and a
checkpoint period, runs it under protection and dumps the statistics the
real artifact prints (timing.*, counter.*, hwmon.*).

    python examples/protect_binary.py [source.mc] [--platform apple_m2|intel_14700]
                                      [--period CYCLES] [--raft]
"""

import argparse
import sys

from repro import Parallaft, ParallaftConfig, compile_source, platform_by_name
from repro.modes import get_mode

DEMO = """
// Demo workload: hash a stream of pseudo-random records.
global buckets[512];

func main() {
    var i; var value; var slot;
    srand64(2024);
    for (i = 0; i < 8000; i = i + 1) {
        value = rand64();
        slot = value % 512;
        if (slot < 0) { slot = slot + 512; }
        buckets[slot] = buckets[slot] + 1;
    }
    value = 0;
    for (i = 0; i < 512; i = i + 1) {
        value = (value * 31 + buckets[i]) % 1000000007;
    }
    print_int(value);
}
"""


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("source", nargs="?", help="mini-C source file")
    parser.add_argument("--platform", default="apple_m2",
                        choices=["apple_m2", "intel_14700"])
    parser.add_argument("--period", type=float, default=625_000_000,
                        help="checkpoint period in cycles/instructions "
                             "(PARALLAFT_CHECKPOINT_PERIOD equivalent)")
    parser.add_argument("--raft", action="store_true",
                        help="run the RAFT model instead of Parallaft")
    args = parser.parse_args()

    source = open(args.source).read() if args.source else DEMO
    program = compile_source(source,
                             name=args.source or "demo")

    if args.raft:
        config = get_mode("raft").make_config()
    else:
        config = ParallaftConfig()
        config.slicing_period = args.period

    runtime = Parallaft(program, config=config,
                        platform=platform_by_name(args.platform))
    stats = runtime.run()

    print("--- program output ---")
    sys.stdout.write(stats.stdout)
    print("--- statistics ---")
    dump = stats.to_dict()
    dump["fixed_interval_slicer.nr_slices"] = stats.nr_slices
    dump["counter.checkpoint_count"] = stats.checkpoint_count
    dump["hwmon.macsmc_hwmon/total"] = f"{stats.energy_joules:.2f} J"
    for key in sorted(dump):
        print(f"{key}: {dump[key]}")
    if stats.error_detected:
        print("!! errors detected:", stats.errors)
        sys.exit(1)


if __name__ == "__main__":
    main()
