"""Crash/resume integration tests for the campaign engine.

The contract under test: a sharded campaign interrupted by SIGKILL — of
a *worker* or of the *supervisor itself* — resumes from its JSONL
journal and produces a merged result byte-identical to an uninterrupted
serial run of the same plan.  (``attempts`` is execution history, not
campaign output, so comparisons cover task identity, disposition and
result payloads — exactly what the drivers merge and the reports
render.)
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.campaign import CampaignEngine, DISP_COMPLETED
from repro.core.journal import read_journal

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash/resume fleet tests need fork workers")

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Pid of the last process to start a ``slow_echo`` task; shared memory,
#: so forked workers write where the test reads.
TASK_PID = multiprocessing.Value("i", 0, lock=False)


def slow_echo(task):
    TASK_PID.value = os.getpid()
    time.sleep(0.05)
    return {"index": task.index, "shard": task.shard,
            "seed": task.seed % 997}


def merged(result):
    return [(r.task_id, r.disposition, r.result) for r in result.records]


class TestWorkerSigkill:
    def test_killed_worker_is_retried_to_the_serial_result(self):
        """SIGKILL one worker mid-task: the supervisor must charge the
        in-flight task an attempt, respawn the shard and still converge
        on the exact serial result."""
        baseline = CampaignEngine(slow_echo, [{"n": i} for i in range(10)],
                                  campaign_seed=6, shards=2).run()

        killed = threading.Event()
        TASK_PID.value = 0

        def killer():
            # Wait for a worker to start a task, so one is in flight.
            deadline = time.time() + 10.0
            while not killed.is_set() and time.time() < deadline:
                pid = TASK_PID.value
                if pid in {child.pid
                           for child in multiprocessing.active_children()}:
                    os.kill(pid, signal.SIGKILL)
                    killed.set()
                    return
                time.sleep(0.01)

        thread = threading.Thread(target=killer)
        thread.start()
        result = CampaignEngine(slow_echo, [{"n": i} for i in range(10)],
                                campaign_seed=6, shards=2, workers=2,
                                max_task_attempts=3, backoff_base=0.01,
                                backoff_cap=0.05).run()
        thread.join()
        assert killed.is_set(), "no worker appeared to kill"
        assert merged(result) == merged(baseline)
        assert result.registry.value("campaign.worker_crashes") >= 1
        assert result.registry.value("campaign.retries") >= 1


SUPERVISOR_SCRIPT = textwrap.dedent("""
    import sys, time
    sys.path.insert(0, {src!r})
    from repro.campaign import CampaignEngine

    def slow_echo(task):
        time.sleep(0.15)
        return {{"index": task.index, "shard": task.shard,
                 "seed": task.seed % 997}}

    CampaignEngine(slow_echo, [{{"n": i}} for i in range(12)],
                   campaign_seed=6, shards=3, workers=2,
                   journal_path={journal!r}).run()
""")


class TestSupervisorSigkill:
    def test_resume_after_supervisor_and_worker_die(self, tmp_path):
        """SIGKILL the whole process group — supervisor and its workers
        — mid-campaign, then resume from the journal: completed tasks
        are skipped and the merged result is byte-identical to an
        uninterrupted serial run."""
        journal = str(tmp_path / "j.jsonl")
        proc = subprocess.Popen(
            [sys.executable, "-c",
             SUPERVISOR_SCRIPT.format(src=SRC, journal=journal)],
            start_new_session=True)
        try:
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if os.path.exists(journal) \
                        and len(open(journal).read().splitlines()) >= 4:
                    break                     # header + a few tasks
                if proc.poll() is not None:
                    pytest.fail("campaign finished before it was killed")
                time.sleep(0.02)
            else:
                pytest.fail("journal never grew")
            os.killpg(proc.pid, signal.SIGKILL)
        finally:
            proc.wait()

        baseline = CampaignEngine(slow_echo, [{"n": i} for i in range(12)],
                                  campaign_seed=6, shards=3).run()
        resumed = CampaignEngine(slow_echo, [{"n": i} for i in range(12)],
                                 campaign_seed=6, shards=3, workers=2,
                                 journal_path=journal, resume=True).run()
        assert resumed.resumed_tasks >= 1
        assert merged(resumed) == merged(baseline)
        assert resumed.registry.value("campaign.resumed") >= 1
        # The repaired journal replays whole: header + every task (a
        # record journaled twice would double-count on the next resume).
        bodies = read_journal(journal)
        task_ids = [b["task_id"] for b in bodies if b.get("type") == "task"]
        assert sorted(task_ids) == sorted(
            r.task_id for r in resumed.records)


WORKLOAD = """
global data[64];
func main() {
    var i; var round; var total;
    for (round = 0; round < 12; round = round + 1) {
        for (i = 0; i < 64; i = i + 1) {
            data[i] = data[i] * 3 + round + i;
        }
    }
    total = 0;
    for (i = 0; i < 64; i = i + 1) { total = total + data[i]; }
    print_int(total);
}
"""


class TestInjectorCampaignResume:
    """The same contract through a real driver: a sharded FaultInjector
    fleet, interrupted and resumed, renders the same report bytes as an
    uninterrupted serial campaign."""

    def _injector(self):
        from repro.core import ParallaftConfig
        from repro.faults import FaultInjector
        from repro.minic import compile_source
        from repro.sim import apple_m2
        return FaultInjector(
            compile_source(WORKLOAD),
            config_factory=lambda: ParallaftConfig(
                slicing_period=600_000_000),
            platform_factory=apple_m2, seed=1)

    def _campaign(self, **kwargs):
        return self._injector().run_campaign(
            injections_per_segment=1, max_segments=2,
            benchmark_name="wl", shards=2, **kwargs)

    def test_interrupted_fleet_report_matches_serial(self, tmp_path):
        from repro.harness.report import render_injection
        journal = str(tmp_path / "wl.jsonl")
        serial = self._campaign()
        fleet = self._campaign(workers=2, journal_path=journal)
        # Interrupt: drop everything after the first completed task.
        lines = open(journal).read().splitlines(True)
        open(journal, "w").writelines(lines[:2])
        resumed = self._campaign(workers=2, journal_path=journal,
                                 resume=True)
        assert resumed.fleet.resumed_tasks == 1
        for campaign in (fleet, resumed):
            assert render_injection({"wl": campaign}) == \
                render_injection({"wl": serial})
            assert [r.to_dict() for r in campaign.injections] == \
                [r.to_dict() for r in serial.injections]
            assert campaign.missed == serial.missed
