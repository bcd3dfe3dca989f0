#!/usr/bin/env python3
"""Checker scheduling and pacing on a heterogeneous processor (paper §4.5).

Runs a memory-intensive workload (whose checkers are several times slower
on little cores) and shows the scheduler/pacer in action: checkers fill the
little cluster, the oldest migrates to a big core when the cluster is full,
the DVFS pacer trims the little-core frequency to the measured demand, and
the energy bill is compared against the homogeneous RAFT model.

    python examples/heterogeneous_scheduling.py
"""

from repro import Parallaft, ParallaftConfig, compile_source
from repro.modes import get_mode
from repro.sim import apple_m2
from repro.workloads import benchmark


def run(bench_name, mode):
    bench = benchmark(bench_name)
    source, files = bench.build(1, 1)
    program = compile_source(source, name=bench_name)
    if mode == "raft":
        runtime = Parallaft(program, config=get_mode("raft").make_config(),
                            platform=apple_m2(), files=files)
    else:
        config = ParallaftConfig()
        config.slicing_period = 625_000_000  # paper-equivalent 5B cycles
        runtime = Parallaft(program, config=config, platform=apple_m2(),
                            files=files)
    stats = runtime.run()
    assert not stats.error_detected
    return stats


def main():
    name = "lbm"  # the paper's worst case: checkers ~50% on big cores
    print(f"workload: {name} (memory-intensive; slow on little cores)\n")

    stats = run(name, "parallaft")
    print("--- Parallaft (heterogeneous) ---")
    print(f"  wall time            {stats.all_wall_time:8.2f} s "
          f"(main alone: {stats.main_wall_time:.2f} s)")
    print(f"  energy               {stats.energy_joules:8.1f} J")
    print(f"  segments checked     {stats.segments_checked:8d}")
    print(f"  checker migrations   {stats.checker_migrations:8d} "
          "(little -> big when the little cluster fills, figure 4)")
    print(f"  checker work on big  {100 * stats.big_core_work_fraction:7.1f} %")
    if stats.pacer_freq_history:
        freqs = stats.pacer_freq_history
        print(f"  pacer frequency      {min(freqs) / 1e9:5.2f}-"
              f"{max(freqs) / 1e9:.2f} GHz across {len(freqs)} updates")

    raft = run(name, "raft")
    print("\n--- RAFT model (homogeneous big-core checker) ---")
    print(f"  wall time            {raft.all_wall_time:8.2f} s")
    print(f"  energy               {raft.energy_joules:8.1f} J")

    ratio = stats.energy_joules / raft.energy_joules
    print(f"\nParallaft used {100 * ratio:.0f}% of RAFT's energy on this "
          "workload.")
    print("(lbm is the paper's pathological case - on most workloads "
          "Parallaft's\n energy overhead is about half of RAFT's; try "
          "name='sjeng' above.)")


if __name__ == "__main__":
    main()
