"""Table 2: error containment, detection, and recovery capabilities.

Paper: Parallaft guarantees error detection (within the configurable
latency bound of max-segment-length x max-live-segments); RAFT does not
(its syscall-mismatch-only policy plus misspeculation recovery can hide an
error in the non-speculative process forever).  Neither system contains
errors in the sphere of replication or recovers (future work for
Parallaft, impossible for RAFT).

This bench demonstrates the *detection guarantee* row empirically: a
state-corrupting fault between two syscalls is detected by Parallaft's
periodic checkpoint comparison but sails past RAFT's syscall-only
comparison when it never reaches an output.
"""

from conftest import print_rows

from repro.core import Parallaft, ParallaftConfig
from repro.harness.figures import table2_capabilities
from repro.minic import compile_source
from repro.modes import get_mode
from repro.sim import apple_m2

# A fault in state that is live (compared at segment ends) but never
# escapes through a syscall: dead-end scratch data.
PROGRAM = """
global scratch[512];
global live[64];
func main() {
    var i; var round; var total;
    for (round = 0; round < 40; round = round + 1) {
        for (i = 0; i < 512; i = i + 1) {
            scratch[i] = scratch[i] + round;
        }
        for (i = 0; i < 64; i = i + 1) {
            live[i] = live[i] + scratch[i * 8];
        }
    }
    total = 0;
    for (i = 0; i < 64; i = i + 1) { total = total + i; }
    print_int(total);
}
"""


def _run(config, corrupt_scratch):
    runtime = Parallaft(compile_source(PROGRAM), config=config,
                        platform=apple_m2())
    fired = [False]

    def hook(proc, role):
        if role == "checker" and not fired[0] and proc.user_time > 0.002:
            from repro.isa.program import DATA_BASE
            # Flip a bit in `scratch` - state that never reaches a syscall.
            proc.mem.store_word(DATA_BASE + 128,
                                proc.mem.load_word(DATA_BASE + 128) ^ 1)
            fired[0] = True

    if corrupt_scratch:
        runtime.quantum_hooks.append(hook)
    stats = runtime.run()
    return fired[0], stats


def test_table2_detection_guarantee(benchmark):
    def experiment():
        config = ParallaftConfig()
        config.slicing_period = 400_000_000
        fired_p, parallaft_stats = _run(config, corrupt_scratch=True)
        fired_r, raft_stats = _run(get_mode("raft").make_config(),
                                   corrupt_scratch=True)
        return fired_p, parallaft_stats, fired_r, raft_stats

    fired_p, para, fired_r, raft = benchmark.pedantic(
        experiment, rounds=1, iterations=1)

    capabilities = table2_capabilities()
    rows = [f"{system:10s} " + "  ".join(f"{k}={v}" for k, v in caps.items())
            for system, caps in capabilities.items()]
    rows.append(f"measured: parallaft detected={para.error_detected} "
                f"raft detected={raft.error_detected}")
    print_rows("Table 2: capability matrix", rows,
               "Parallaft guarantees detection; RAFT does not")

    assert fired_p and fired_r, "corruption hooks must have fired"
    # Parallaft's periodic state comparison catches the silent corruption.
    assert para.error_detected
    assert para.errors[0].kind == "state_mismatch"
    # RAFT compares only at syscalls: the corrupted scratch state never
    # escapes, so the error goes undetected and the program "succeeds".
    assert not raft.error_detected
    assert raft.exit_code == 0
