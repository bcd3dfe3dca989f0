#!/usr/bin/env python3
"""Recovery demo: watch Parallaft repair a fault in the *main* process.

The paper's campaigns corrupt checkers — the main is the trusted copy.
This demo goes further: it flips a bit in the main itself, lets the
segment check fail, and shows the runtime diagnose the failure, roll the
main back to the last verified checkpoint, and re-execute — finishing
with output byte-identical to a fault-free run.

    python examples/recovery_demo.py
    python examples/recovery_demo.py --trace /tmp/recovery_trace.json
    python examples/recovery_demo.py --infra

``--trace`` exports the recovery run's event trace as Chrome trace_event
JSON (load it in Perfetto / about://tracing) and prints the tail of the
text timeline — rollback, console truncation and re-execution included.

``--infra`` attacks the *protector* instead of the program: one bit is
flipped in a stored record/replay log entry (``repro.faults.infra``
log-corrupt model).  Without hardening, the rotten record makes the
checker diverge, recovery wrongly blames the innocent main, and the
rollback re-draws ``getrandom`` entropy — the run ends "clean" with
silently different output.  With ``log_checksums`` on, the corruption is
caught at the record itself, reported as a typed ``log_integrity`` error,
and no rollback ever runs.
"""

import argparse

from repro import Parallaft, ParallaftConfig, abi, compile_source
from repro.faults import FaultInjector, Outcome, TARGET_MAIN, classify_run
from repro.faults.infra import (INFRA_LOG_CORRUPT, InfraFaultController,
                                InfraFaultSite, harden)
from repro.harness.report import render_timeline
from repro.sim import apple_m2
from repro.trace import InvariantChecker
from repro.trace import events as tev

WORKLOAD = """
global grid[256];

func main() {
    var i; var round; var total;
    srand64(42);
    for (round = 0; round < 30; round = round + 1) {
        for (i = 0; i < 256; i = i + 1) {
            grid[i] = grid[i] * 5 + round - i;
        }
        print_int(grid[round]);
    }
    total = 0;
    for (i = 0; i < 256; i = i + 1) { total = total + grid[i]; }
    print_int(total);
}
"""


# The --infra workload consumes kernel entropy each round: a *wrongful*
# rollback re-executes getrandom, draws fresh entropy, and finishes with
# silently different output — the escape the hardened arm must close.
INFRA_WORKLOAD = """
global grid[1024];
global ent[1];

func main() {
    var i; var round;
    for (round = 0; round < 12; round = round + 1) {
        getrandom(ent, 8);
        for (i = 0; i < 1024; i = i + 1) {
            grid[i] = grid[i] * 7 + round - i;
        }
        print_int((grid[round] + peek8(ent)) % 1000003);
    }
}
"""


def make_config(recovery=True):
    config = ParallaftConfig()
    config.slicing_period = 400_000_000
    config.enable_recovery = recovery
    return config


def make_infra_config(hardened):
    config = ParallaftConfig()
    config.slicing_period = 12_000_000_000
    config.enable_recovery = True
    if hardened:
        harden(config)
    return config


def run_infra_arm(site_kwargs, hardened):
    runtime = Parallaft(compile_source(INFRA_WORKLOAD),
                        config=make_infra_config(hardened),
                        platform=apple_m2())
    InfraFaultController(runtime, InfraFaultSite(**site_kwargs))
    return runtime.run(), runtime


def run_infra_demo():
    reference_rt = Parallaft(compile_source(INFRA_WORKLOAD),
                             config=make_infra_config(hardened=False),
                             platform=apple_m2())
    reference = reference_rt.run()
    print("fault-free run:")
    print(f"  output tail {reference.stdout.split()[-1]!r}, "
          f"{len(reference.stdout.splitlines())} lines")

    # Target the last entropy record of segment 1: its output_data is
    # still live at the end-of-segment check, and bit 9 (byte 1) never
    # reaches stdout, so the main's own output stays clean while the
    # checker's replay diverges.
    # A verified segment drops its log, so the ranks come from the trace:
    # this workload logs syscalls alone, one SYSCALL_RECORD per record.
    recorded = [event.payload["sysno"]
                for event in reference_rt.trace.events(tev.SYSCALL_RECORD)
                if event.segment == 1]
    rank = max(index for index, sysno in enumerate(recorded)
               if sysno == abi.SYS_GETRANDOM)
    site = dict(kind=INFRA_LOG_CORRUPT, segment_index=1, bit=9,
                record_rank=rank, field_rank=1)
    print(f"\ninfra fault: flip one bit in stored log record {rank} of "
          "segment 1 (a getrandom result)")

    print("\nunhardened arm — the protector trusts its own log:")
    soft, _ = run_infra_arm(site, hardened=False)
    outcome = classify_run(soft, reference)
    print(f"  errors surfaced      : {len(soft.errors)}")
    print(f"  rollbacks            : {soft.recovery_rollbacks} "
          "(recovery wrongly blamed the innocent main)")
    print(f"  output == reference  : {soft.stdout == reference.stdout}")
    print(f"  outcome              : {outcome.value} "
          "(silent data corruption — no error on the books)")
    assert outcome is Outcome.SDC
    assert not soft.errors and soft.recovery_rollbacks >= 1

    print("\nhardened arm — per-record checksums (log_checksums=True):")
    hard, hard_rt = run_infra_arm(site, hardened=True)
    error = hard.errors[0]
    integrity_fails = list(hard_rt.trace.events(tev.INTEGRITY_FAIL))
    print(f"  detected             : {error.kind} in segment "
          f"{error.segment_index}")
    print(f"  rollbacks            : {hard.recovery_rollbacks} "
          "(integrity failures never roll back)")
    print(f"  integrity_fail events: {len(integrity_fails)}")
    assert error.kind == "log_integrity"
    assert hard.recovery_rollbacks == 0 and integrity_fails
    InvariantChecker(recovery=True).assert_ok(hard_rt.trace)

    print("\nsame bit flip, opposite endings: unhardened it silently "
          "corrupts the output through a wrongful\nrollback; hardened it "
          "becomes a typed integrity error and the checkpoint stays "
          "untouched.")


def run_with_main_fault(recovery):
    runtime = Parallaft(compile_source(WORKLOAD),
                        config=make_config(recovery), platform=apple_m2())
    fired = [0]

    def flip_main_register(proc, role):
        if role == "main" and fired[0] == 0 and proc.user_time > 0.002:
            proc.cpu.regs.flip_bit("gpr", 8, 17)
            fired[0] += 1

    runtime.quantum_hooks.append(flip_main_register)
    return runtime.run(), runtime


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="export the recovery run's event trace as "
                             "Chrome trace_event JSON")
    parser.add_argument("--infra", action="store_true",
                        help="inject an infrastructure fault (log-corrupt) "
                             "instead of an application fault and show the "
                             "integrity-hardening detection")
    args = parser.parse_args(argv)
    if args.infra:
        return run_infra_demo()
    reference = Parallaft(compile_source(WORKLOAD),
                          config=make_config(recovery=False),
                          platform=apple_m2()).run()
    print("fault-free run:")
    print(f"  output tail {reference.stdout.split()[-1]!r}, "
          f"{len(reference.stdout.splitlines())} lines")

    print("\nsame workload, one bit flipped in the MAIN, recovery off:")
    detected, _ = run_with_main_fault(recovery=False)
    error = detected.errors[0]
    print(f"  detected: {error.kind} in segment {error.segment_index} "
          "-> run stops (paper behaviour)")

    print("\nsame fault, recovery on:")
    stats, runtime = run_with_main_fault(recovery=True)
    dump = stats.to_dict()
    print(f"  diagnostic re-checks : {dump['counter.recovery.retries']}")
    print(f"  rollbacks            : {dump['counter.recovery.rollbacks']}")
    print(f"  wasted checker cycles: "
          f"{dump['counter.recovery.wasted_cycles']:.3g}")
    matched = stats.stdout == reference.stdout
    print(f"  errors surfaced      : {len(stats.errors)}")
    print(f"  output == reference  : {matched}")
    assert matched and not stats.errors
    assert dump["counter.recovery.rollbacks"] >= 1

    if args.trace:
        InvariantChecker(recovery=True).assert_ok(runtime.trace)
        runtime.trace.write_chrome_trace(args.trace)
        print(f"\ntrace: {len(runtime.trace)} events -> {args.trace} "
              "(invariants OK; load in Perfetto)")
        print(render_timeline(runtime.trace, last=15))

    print("\nmini campaign (register+memory flips in the main, "
          "recovery on vs off):")
    for recovery in (True, False):
        injector = FaultInjector(compile_source(WORKLOAD),
                                 config_factory=lambda r=recovery:
                                     make_config(r),
                                 platform_factory=apple_m2, seed=7)
        campaign = injector.run_campaign(
            injections_per_segment=2, max_segments=2,
            benchmark_name="demo", target=TARGET_MAIN,
            verify_recovered_output=recovery)
        label = "recovery on " if recovery else "recovery off"
        parts = ", ".join(f"{o.value} {campaign.count(o)}"
                          for o in Outcome if campaign.count(o))
        print(f"  {label}: n={campaign.total}  {parts}")
        if recovery:
            assert all(r.outcome in (Outcome.BENIGN, Outcome.RECOVERED)
                       for r in campaign.injections)

    print("\nevery fault the control arm only *detects*, the recovery arm "
          "repairs — same output as if the fault never happened.")


if __name__ == "__main__":
    main()
