"""Whole-trace fingerprints of the runtime's teardown, stall and verdict
paths.

Usage: PYTHONPATH=src python scripts/trace_parity.py [scenario ...]

Runs a fixed set of small protected runs, each of which drives one
segment-teardown path (rollback, checker retry, TMR outvote and
mid-replay replica discard, TMR forward recovery, pressure shed/evict,
OOM shed), one stall cause (the live-segment cap, error containment,
RAFT record starvation; the pressure scenarios also stall the main on
pressure and block checkers on memory), the syscall and signal path
(record, replay, handled signals) or one fail-stop rung of the error
ladder (a FAILED segment the run continues past, an inconclusive TMR
vote, a corrupt log record, a rotten checkpoint, a lying comparator,
an evicted checkpoint), and prints one ``<scenario> <sha256>`` line per
run.  The hash covers the canonical JSON of ``stats.to_dict()``,
stdout, stderr, the phase profile (per-phase and per-segment cycle
ledgers, stall seconds) and every trace event's ``(ts, kind, pid,
role, core, segment, payload)`` in order, so two source trees that
print the same lines behave identically on these paths down to the
last event.  Each scenario asserts that it
still exercises its path, so the coverage cannot silently vanish.

The script only uses APIs that have been stable across refactors
(``Parallaft``, ``ParallaftConfig``, ``get_mode``, ``FaultSite``,
``InfraFaultController``, ``quantum_hooks``, ``compare_hooks``,
``evict_checkpoint``, ``Program.address_of``), so it can fingerprint
an older checkout too: point ``PYTHONPATH`` at that tree's ``src`` and
diff the output.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys

from repro import abi
from repro.core import Parallaft, ParallaftConfig
from repro.faults import (
    FaultSite,
    InfraFaultController,
    InfraFaultSite,
    harden,
)
from repro.minic import compile_source
from repro.modes import get_mode
from repro.sim import apple_m2
from repro.trace import events as tev

#: Large enough that no scenario drops an event.
TRACE_CAPACITY = 1 << 22
PAGE = 16384

RECOVERY_SOURCE = """
global data[128];
func main() {
    var i; var round; var total;
    srand64(11);
    for (round = 0; round < 30; round = round + 1) {
        for (i = 0; i < 128; i = i + 1) {
            data[i] = data[i] * 3 + round + i;
        }
        print_int(data[round]);
    }
    total = 0;
    for (i = 0; i < 128; i = i + 1) { total = total + data[i]; }
    print_int(total);
}
"""

RETRY_SOURCE = """
global data[256];
func main() {
    var i; var round; var total;
    for (round = 0; round < 40; round = round + 1) {
        for (i = 0; i < 256; i = i + 1) {
            data[i] = data[i] * 3 + round;
        }
    }
    total = 0;
    for (i = 0; i < 256; i = i + 1) { total = total + data[i]; }
    print_int(total);
}
"""

MODES_SOURCE = """
global data[512];
func main() {
    var i; var round; var acc;
    acc = 0;
    for (round = 0; round < 20; round = round + 1) {
        for (i = 0; i < 512; i = i + 1) {
            data[i] = data[i] * 3 + round + i;
            acc = acc + data[i];
        }
        print_int(acc % 1000003);
    }
}
"""

STARVATION_SOURCE = """
global acc;
func main() {
    var i; var j;
    for (i = 0; i < 25; i = i + 1) {
        acc = acc + getpid() % 3 + gettimeofday() % 5;
        for (j = 0; j < 1500; j = j + 1) { acc = acc + 1; }
    }
    print_int(acc % 1000003);
}
"""

#: getpid, 1 MB ``/dev/zero`` read and SIGUSR1-handler loops (the
#: §5.7 stress programs, shortened); ``sigaction``'s 99 is replaced by
#: the handler's address.
SYSCALLS_SOURCE = """
global hits;
func on_sig(sig) { hits = hits + 1; return 0; }
func main() {
    var i; var fd; var buf; var me;
    sigaction(10, 99);
    me = getpid();
    for (i = 0; i < 600; i = i + 1) { getpid(); }
    fd = open("/dev/zero");
    buf = mmap_anon(1048576);
    for (i = 0; i < 6; i = i + 1) { read(fd, buf, 1048576); }
    for (i = 0; i < 300; i = i + 1) { kill(me, 10); }
    print_int(hits);
}
"""

PRESSURE_SOURCE = """
global data[2048];
func main() {
    var i; var round;
    srand64(7);
    for (round = 0; round < 24; round = round + 1) {
        for (i = 0; i < 2048; i = i + 1) {
            data[i] = data[i] * 5 + round + i;
        }
        print_int(data[round] % 1000003);
    }
}
"""


def run(source, config, hook=None, program=None, platform=None,
        setup=None):
    """One protected run; ``hook(runtime)`` makes a quantum hook and
    ``setup(runtime)`` attaches anything else before the run starts."""
    config.trace_capacity = TRACE_CAPACITY
    runtime = Parallaft(program or compile_source(source), config=config,
                        platform=platform or apple_m2())
    if hook is not None:
        runtime.quantum_hooks.append(hook(runtime))
    if setup is not None:
        setup(runtime)
    stats = runtime.run()
    require(runtime.trace.dropped == 0, "the trace ring overflowed")
    return runtime, stats


def require(condition, what: str) -> None:
    """Fail the scenario when it no longer drives its path (a plain
    ``assert`` would vanish under ``python -O``)."""
    if not condition:
        raise RuntimeError(f"scenario lost its coverage: {what}")


def fingerprint(runtime, stats) -> str:
    digest = hashlib.sha256()

    def feed(obj):
        digest.update(json.dumps(obj, sort_keys=True, default=repr)
                      .encode())
        digest.update(b"\n")

    feed(stats.to_dict())
    feed([stats.stdout, stats.stderr])
    profile = stats.phase_profile
    feed([profile.cycles, profile.stall_seconds, profile.segment_cycles,
          profile.total_cycles])
    for e in runtime.trace:
        feed([e.ts, e.kind, e.pid, e.role, e.core, e.segment, e.payload])
    return digest.hexdigest()


def kinds(runtime, kind, **match):
    return [e for e in runtime.trace if e.kind == kind
            and all(e.payload.get(k) == v for k, v in match.items())]


# -- fault hooks -------------------------------------------------------------

def flip_once(role, after, file, index, bit):
    """Flip one register bit in the first ``role`` process past ``after``
    seconds of user time."""
    def make(runtime):
        fired = [False]

        def hook(proc, proc_role):
            if not fired[0] and proc_role == role \
                    and proc.user_time > after:
                proc.cpu.regs.flip_bit(file, index, bit)
                fired[0] = True
        return hook
    return make


def main_fault(segment_index, site, after_instructions=500):
    """Flip ``site`` in the main once it is ``after_instructions`` deep
    into segment ``segment_index``."""
    def make(runtime):
        fired = [False]

        def hook(proc, role):
            segment = runtime.current
            if fired[0] or role != "main" or segment is None \
                    or segment.index != segment_index:
                return
            progress = (proc.cpu.read_counter("instructions")
                        - segment.start_instructions)
            if progress >= after_instructions:
                fired[0] = site.apply(
                    proc, runtime.dirty_tracker.dirty_vpns(proc))
        return hook
    return make


def replica_fault(segment_index, site, replica_slot=0):
    """Flip ``site`` in one checker replica of segment ``segment_index``."""
    def make(runtime):
        fired = [False]

        def hook(proc, role):
            if fired[0] or role != "checker" \
                    or segment_index >= len(runtime.segments):
                return
            segment = runtime.segments[segment_index]
            replica = segment.replica_of(proc.pid)
            if replica is None \
                    or segment.replicas.index(replica) != replica_slot:
                return
            fired[0] = site.apply(proc,
                                  runtime.dirty_tracker.dirty_vpns(proc))
        return hook
    return make


# -- scenarios ---------------------------------------------------------------

def rollback():
    config = ParallaftConfig()
    config.slicing_period = 400_000_000
    config.enable_recovery = True
    runtime, stats = run(RECOVERY_SOURCE, config,
                         flip_once("main", 0.002, "gpr", 8, 17))
    require(stats.recovery_rollbacks >= 1 and not stats.errors,
            "a clean rollback")
    require(kinds(runtime, tev.SEGMENT_ROLLED_BACK), "rolled-back segments")
    return runtime, stats


def retry():
    config = ParallaftConfig()
    config.slicing_period = 500_000_000
    config.retry_failed_checkers = True
    runtime, stats = run(RETRY_SOURCE, config,
                         flip_once("checker", 0.001, "gpr", 8, 13))
    require(stats.checker_retries >= 1 and not stats.errors,
            "a checker fault absorbed by a retry")
    return runtime, stats


def tmr_config(**overrides):
    overrides.setdefault("slicing_period", 40_000_000)
    return get_mode("tmr").make_config(**overrides)


def tmr_outvote():
    site = FaultSite.register("gpr", 5, 12, target="checker")
    runtime, stats = run(MODES_SOURCE, tmr_config(),
                         replica_fault(2, site))
    require(kinds(runtime, tev.OUTVOTED, cause="registers")
            and not stats.errors, "a replica outvoted at the boundary")
    return runtime, stats


def tmr_absorb():
    site = FaultSite.register("gpr", 1, 40, target="checker")
    runtime, stats = run(MODES_SOURCE, tmr_config(), replica_fault(2, site))
    require(kinds(runtime, tev.OUTVOTED, cause="exception")
            and not stats.errors, "a replica discarded mid-replay")
    return runtime, stats


def tmr_forward():
    site = FaultSite.register("gpr", 8, 17)
    runtime, stats = run(MODES_SOURCE, tmr_config(), main_fault(2, site))
    require(stats.tmr_forward_recoveries == 1 and not stats.errors,
            "one forward recovery")
    require(kinds(runtime, tev.SEGMENT_ROLLED_BACK,
                  cause="forward_recovery"), "segments discarded forward")
    return runtime, stats


def pressure_config(budget):
    config = ParallaftConfig(mem_budget_bytes=budget)
    config.slicing_period = 150_000_000
    return config


@functools.lru_cache(maxsize=None)
def pressure_peak() -> float:
    """Peak resident bytes of the unbudgeted pressure workload."""
    _, stats = run(PRESSURE_SOURCE, pressure_config(None))
    return stats.peak_resident_bytes


def pressure(scale):
    def scenario():
        budget = int(pressure_peak() * scale)
        runtime, stats = run(PRESSURE_SOURCE, pressure_config(budget))
        require(stats.pressure_sheds > 0 and stats.pressure_evictions > 0
                and not stats.errors, "ladder sheds and evictions")
        return runtime, stats
    return scenario


def pressure_oom():
    runtime, stats = run(PRESSURE_SOURCE, pressure_config(8 * PAGE))
    require(kinds(runtime, tev.PRESSURE_SHED, cause="oom"), "OOM sheds")
    require(stats.oom_killed and not stats.errors, "a clean OOM")
    return runtime, stats


def tmr_pressure():
    config = get_mode("tmr").make_config(slicing_period=600_000_000,
                                         mem_budget_bytes=14 * PAGE)
    runtime, stats = run(PRESSURE_SOURCE, config)
    require(stats.pressure_sheds > 0 and stats.oom_killed
            and not stats.errors, "TMR sheds, then a clean OOM")
    require(kinds(runtime, tev.CHECKER_RETRY, cause="pressure_requeue"),
            "shed segments re-forked")
    return runtime, stats


def stall_cap():
    config = ParallaftConfig(slicing_period=20_000_000, max_live_segments=2)
    runtime, stats = run(MODES_SOURCE, config)
    require(kinds(runtime, tev.MAIN_STALL, reason=tev.STALL_CAP)
            and kinds(runtime, tev.MAIN_WAKE, reason=tev.STALL_CAP)
            and not stats.errors, "main stalls at the live-segment cap")
    return runtime, stats


def stall_containment():
    config = ParallaftConfig(slicing_period=20_000_000,
                             error_containment=True)
    runtime, stats = run(MODES_SOURCE, config)
    require(kinds(runtime, tev.SYSCALL_HELD)
            and kinds(runtime, tev.MAIN_STALL, reason=tev.STALL_CONTAINMENT)
            and kinds(runtime, tev.MAIN_WAKE, reason=tev.STALL_CONTAINMENT)
            and not stats.errors, "syscalls held for containment")
    return runtime, stats


def raft_starvation():
    runtime, stats = run(STARVATION_SOURCE, get_mode("raft").make_config())
    # The reason is spelled out: older trees have no constant for it.
    require(kinds(runtime, tev.CHECKER_STALL, reason="record_starvation")
            and kinds(runtime, tev.CHECKER_WAKE) and not stats.errors,
            "a RAFT checker starved of records")
    return runtime, stats


def syscalls():
    program = compile_source(SYSCALLS_SOURCE)
    handler = program.address_of("F_on_sig")
    for instr in program.instrs:
        if instr.imm == 99:
            instr.imm = handler
    # Unscaled, as the stress figure runs it: each simulated cycle is a
    # hardware cycle, so a 5,000-cycle period cuts several segments.
    platform = apple_m2()
    platform.cycle_scale = 1
    config = ParallaftConfig(slicing_period=5000)
    runtime, stats = run(None, config, program=program, platform=platform)
    require(stats.nr_slices >= 2 and not stats.errors, "several segments")
    require(stats.syscalls_recorded > 900
            and stats.syscalls_replayed == stats.syscalls_recorded,
            "every syscall recorded and replayed")
    require(kinds(runtime, tev.SYSCALL_RECORD, sysno=abi.SYS_READ)
            and stats.stdout.strip() == "300"
            and runtime.kernel.stats["signals_delivered"] == 600,
            "1 MB reads, and every SIGUSR1 handled by main and checker")
    return runtime, stats


def errors_of(stats, kind):
    return [e for e in stats.errors if e.kind == kind]


def failed():
    config = ParallaftConfig(stop_on_error=False)
    config.slicing_period = 400_000_000
    runtime, stats = run(RECOVERY_SOURCE, config,
                         flip_once("main", 0.002, "gpr", 8, 17))
    require(len(stats.errors) == 1 and errors_of(stats, "state_mismatch")
            and len(kinds(runtime, tev.SEGMENT_FAILED)) == 1
            and not kinds(runtime, tev.APP_TERMINATE),
            "one FAILED segment, and the run goes on")
    return runtime, stats


def vote_inconclusive():
    site = FaultSite.register("gpr", 8, 17)
    runtime, stats = run(MODES_SOURCE, tmr_config(max_forward_recoveries=0),
                         main_fault(2, site))
    require([e for e in errors_of(stats, "vote_inconclusive")
             if e.segment_index == 2], "a vote with no majority to adopt")
    return runtime, stats


def infra(kind, recovery=True):
    """A hardened run with one ``kind`` infrastructure fault in segment
    1; the paired application fault strikes 2,000 instructions in."""
    config = harden(ParallaftConfig(enable_recovery=recovery))
    config.slicing_period = 400_000_000
    return run(RECOVERY_SOURCE, config, setup=lambda rt: (
        InfraFaultController(rt, InfraFaultSite(kind, 1, when=0.5),
                             app_threshold=2000)))


def log_integrity():
    runtime, stats = infra("log-corrupt")
    require(len(kinds(runtime, tev.CHECKER_RETRY)) == 1
            and len(kinds(runtime, tev.INTEGRITY_FAIL, check="log")) == 2
            and errors_of(stats, "log_integrity")
            and not kinds(runtime, tev.ROLLBACK),
            "a corrupt record retried, then a fail-stop")
    return runtime, stats


def checkpoint_integrity():
    runtime, stats = infra("checkpoint-corrupt")
    require(kinds(runtime, tev.INTEGRITY_FAIL, check="checkpoint")
            and errors_of(stats, "infra_integrity")
            and not kinds(runtime, tev.ROLLBACK),
            "a rotten checkpoint refused")
    return runtime, stats


def digest_integrity():
    runtime, stats = infra("digest-corrupt", recovery=False)
    require(kinds(runtime, tev.INTEGRITY_FAIL, check="digest")
            and errors_of(stats, "infra_integrity"), "a lying comparator")
    return runtime, stats


def evicted():
    config = ParallaftConfig(enable_recovery=True)
    config.slicing_period = 500_000_000
    runtime, stats = run(
        RETRY_SOURCE, config, flip_once("checker", 0.001, "gpr", 8, 13),
        setup=lambda rt: rt.compare_hooks.append(rt.evict_checkpoint))
    require(errors_of(stats, "checkpoint_evicted"),
            "recovery refused for want of its checkpoint")
    return runtime, stats


SCENARIOS = {
    "rollback": rollback,
    "retry": retry,
    "tmr-outvote": tmr_outvote,
    "tmr-absorb": tmr_absorb,
    "tmr-forward": tmr_forward,
    "pressure-0.9": pressure(0.9),
    "pressure-0.7": pressure(0.7),
    "pressure-oom": pressure_oom,
    "tmr-pressure": tmr_pressure,
    "stall-cap": stall_cap,
    "stall-containment": stall_containment,
    "raft-starvation": raft_starvation,
    "syscalls": syscalls,
    "failed": failed,
    "vote-inconclusive": vote_inconclusive,
    "log-integrity": log_integrity,
    "checkpoint-integrity": checkpoint_integrity,
    "digest-integrity": digest_integrity,
    "evicted": evicted,
}


def main(argv) -> int:
    names = argv or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}; "
              f"known: {', '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    for name in names:
        runtime, stats = SCENARIOS[name]()
        print(f"{name} {fingerprint(runtime, stats)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
