"""Sharded, crash-resilient campaign engine with resumable fleets.

A campaign is a list of JSON-serializable task payloads plus a
``run_task`` callable.  The engine partitions the tasks into
deterministic logical shards, derives a splittable per-task seed
(:mod:`repro.campaign.seeds`) so any task is reproducible in isolation,
and executes the plan either **serially** (``workers=0``, in-process —
the determinism baseline every fleet run must reproduce byte-for-byte)
or as a **fleet** of forked worker processes, one shard at a time per
worker, under supervision:

* **heartbeats** — each worker beats on a side thread; a worker that
  stops beating (wedged, SIGSTOPped) past ``HEARTBEAT_TIMEOUT`` is
  killed and its shard retried;
* **straggler detection** — a task running far past the median completed
  task duration is flagged (``counter.campaign.stragglers``) without
  being killed, so slow-but-alive work is visible, not lost;
* **capped exponential backoff** — a shard whose worker died is
  respawned after ``min(backoff_cap, backoff_base * 2**(failures-1))``
  seconds, so a crash-looping environment cannot hot-spin the fleet;
* **poison-task quarantine** — a task that kills its worker
  ``max_task_attempts`` times is journaled with a typed ``QUARANTINED``
  disposition and excluded from further dispatch instead of wedging the
  shard forever.

Every finished task is streamed to a durable JSONL journal
(:mod:`repro.core.journal`: per-record seq + XXH3 checksums, flushed
after every record and never fsynced), so a campaign interrupted
by the death of a worker *or the supervisor itself* resumes from the
journal with completed tasks skipped — and, because task seeds depend
only on ``(campaign_seed, shard, index)``, the resumed fleet's merged
result is byte-identical to an uninterrupted serial run of the same
plan.  The shard count is part of the campaign's identity (recorded in
the journal header; resume refuses a mismatch).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.seeds import split_seed
from repro.common.errors import CampaignError
from repro.core.journal import JournalWriter, journal_checksum, read_journal
from repro.metrics import MetricRegistry

__all__ = [
    "CampaignEngine",
    "CampaignTask",
    "TaskRecord",
    "ShardOutcome",
    "FleetResult",
    "DISP_COMPLETED",
    "DISP_FAILED",
    "DISP_QUARANTINED",
    "JOURNAL_VERSION",
]

JOURNAL_VERSION = 1

#: Typed task dispositions, as journaled.
DISP_COMPLETED = "completed"
DISP_FAILED = "failed"
DISP_QUARANTINED = "quarantined"

#: Seconds between a worker's heartbeats.
HEARTBEAT_INTERVAL = 0.2
#: A worker silent for this many seconds is killed and its shard retried.
HEARTBEAT_TIMEOUT = 60.0
#: A task running longer than ``STRAGGLER_FACTOR`` times the median
#: completed-task duration (floored at ``STRAGGLER_MIN_SECONDS``) is
#: flagged as a straggler.
STRAGGLER_FACTOR = 4.0
STRAGGLER_MIN_SECONDS = 1.0


@dataclass(frozen=True)
class CampaignTask:
    """One unit of campaign work: coordinates, derived seed, payload."""

    task_id: str
    shard: int
    index: int
    seed: int
    payload: Dict[str, Any]


@dataclass
class TaskRecord:
    """The journaled outcome of one task."""

    task_id: str
    shard: int
    index: int
    disposition: str
    attempts: int
    result: Optional[Dict[str, Any]] = None
    detail: str = ""

    def body(self) -> Dict[str, Any]:
        return {"type": "task", "task_id": self.task_id,
                "shard": self.shard, "index": self.index,
                "disposition": self.disposition, "attempts": self.attempts,
                "result": self.result, "detail": self.detail}

    @classmethod
    def from_body(cls, body: Dict[str, Any]) -> "TaskRecord":
        return cls(task_id=body["task_id"], shard=body["shard"],
                   index=body["index"], disposition=body["disposition"],
                   attempts=body["attempts"], result=body.get("result"),
                   detail=body.get("detail", ""))


@dataclass
class ShardOutcome:
    """Per-shard fleet accounting for :func:`render_fleet`."""

    shard: int
    tasks: int = 0
    completed: int = 0
    resumed: int = 0            # skipped: already in the journal
    retries: int = 0            # task re-attempts (crash or in-task error)
    crashes: int = 0            # worker processes that died
    heartbeat_timeouts: int = 0
    stragglers: int = 0
    quarantined: int = 0
    failed: int = 0
    respawns: int = 0           # worker processes spawned beyond the first
    wall_time: float = 0.0      # real seconds a worker was active


@dataclass
class FleetResult:
    """Everything one engine run produced."""

    name: str
    records: List[TaskRecord]           # sorted by (shard, index)
    shards: List[ShardOutcome]          # sorted by shard
    registry: MetricRegistry
    wall_time: float = 0.0
    resumed_tasks: int = 0
    journal_path: Optional[str] = None

    def completed(self) -> List[TaskRecord]:
        return [r for r in self.records if r.disposition == DISP_COMPLETED]

    @property
    def quarantined(self) -> List[TaskRecord]:
        return [r for r in self.records
                if r.disposition == DISP_QUARANTINED]


class _ShardState:
    """Supervisor-side bookkeeping for one logical shard."""

    def __init__(self, shard: int):
        self.shard = shard
        self.pending: "OrderedDict[str, CampaignTask]" = OrderedDict()
        self.attempts: Dict[str, int] = {}
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.last_beat = 0.0
        self.spawned_at = 0.0
        self.current_task: Optional[str] = None
        self.current_started = 0.0
        self.failures = 0           # worker deaths / dirty exits, for backoff
        self.backoff_until = 0.0
        self.exited_clean = False
        self.ever_spawned = False
        self.outcome = ShardOutcome(shard=shard)
        self.flagged_stragglers: set = set()
        # File-transport cursor for the current worker epoch.
        self.segment_path = ""
        self.hb_path = ""
        self.segment_offset = 0
        self.segment_buf = ""
        self.hb_mtime = 0.0


def _worker_main(shard: int, tasks: List[CampaignTask],
                 run_task: Callable[[CampaignTask], Dict[str, Any]],
                 segment_path: str, hb_path: str,
                 heartbeat_interval: float,
                 metrics_snapshot: Optional[Callable[[], Dict[str, Any]]]
                 ) -> None:
    """Forked worker: run the shard's tasks, streaming results to a
    per-worker JSONL segment file.

    The transport is a *file*, not a queue, on purpose: every line is
    flushed synchronously before the next task runs, so a worker
    SIGKILLed mid-task leaves at worst a torn final line — which the
    supervisor's incremental reader simply has not consumed yet — never
    a wedged pipe or a lost in-flight marker.  Heartbeats are mtime
    touches of ``hb_path`` from a side thread, so a long-running task
    still beats while a SIGSTOPped worker visibly stops.
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                with open(hb_path, "w") as f:
                    f.write(f"{time.time()}\n")
            except OSError:
                return
    beater = threading.Thread(target=beat, daemon=True)
    beater.start()
    with open(segment_path, "a", encoding="utf-8") as out:
        def emit(doc: Dict[str, Any]) -> None:
            out.write(json.dumps(doc, sort_keys=True,
                                 separators=(",", ":")) + "\n")
            out.flush()

        for task in tasks:
            emit({"type": "start", "task_id": task.task_id})
            try:
                result = run_task(task)
            except BaseException as exc:  # noqa: BLE001 — report, don't die
                emit({"type": "fail", "task_id": task.task_id,
                      "detail": f"{type(exc).__name__}: {exc}"})
                continue
            emit({"type": "done", "task_id": task.task_id,
                  "result": result})
        if metrics_snapshot is not None:
            try:
                emit({"type": "metrics", "snapshot": metrics_snapshot()})
            except Exception as exc:  # noqa: BLE001
                emit({"type": "fail", "task_id": "__metrics__",
                      "detail": f"{type(exc).__name__}: {exc}"})
        emit({"type": "exit"})
    stop.set()


class CampaignEngine:
    """Plan, shard, execute, supervise, journal, resume, merge."""

    def __init__(self, run_task: Callable[[CampaignTask], Dict[str, Any]],
                 payloads: Sequence[Dict[str, Any]], *,
                 campaign_seed: int = 0,
                 shards: int = 1,
                 name: str = "campaign",
                 fingerprint_extra: Optional[Dict[str, Any]] = None,
                 seeds: Optional[Sequence[int]] = None,
                 journal_path: Optional[str] = None,
                 resume: bool = False,
                 workers: int = 0,
                 max_task_attempts: int = 3,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 metrics_snapshot: Optional[
                     Callable[[], Dict[str, Any]]] = None,
                 registry: Optional[MetricRegistry] = None):
        if shards < 1:
            raise CampaignError(f"shards must be >= 1, got {shards}")
        if max_task_attempts < 1:
            raise CampaignError("max_task_attempts must be >= 1")
        if seeds is not None and len(seeds) != len(payloads):
            raise CampaignError("seeds must parallel payloads")
        self.name = name
        self.campaign_seed = campaign_seed
        self.shards = shards
        self.journal_path = journal_path
        self.resume = resume
        self.workers = workers
        self.max_task_attempts = max_task_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.metrics_snapshot = metrics_snapshot
        self.run_task = run_task
        self.registry = registry if registry is not None else MetricRegistry()
        self.fingerprint_extra = fingerprint_extra or {}

        # Deterministic plan: global order -> round-robin shard, with the
        # per-shard index counting that shard's tasks.  Seeds derive from
        # (campaign_seed, shard, index) unless the driver supplied its
        # own (e.g. name-keyed pressure sweeps).
        self.tasks: List[CampaignTask] = []
        counts = [0] * shards
        for g, payload in enumerate(payloads):
            shard = g % shards
            index = counts[shard]
            counts[shard] += 1
            seed = (seeds[g] if seeds is not None
                    else split_seed(campaign_seed, shard, index))
            self.tasks.append(CampaignTask(
                task_id=f"s{shard}.t{index}", shard=shard, index=index,
                seed=seed, payload=dict(payload)))
        self._by_id = {t.task_id: t for t in self.tasks}

    # -- campaign identity -------------------------------------------------

    def fingerprint(self) -> str:
        doc = {"name": self.name, "campaign_seed": self.campaign_seed,
               "shards": self.shards, "task_count": len(self.tasks),
               "extra": self.fingerprint_extra}
        body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return f"{journal_checksum(0, {'fp': body}):#018x}"

    def _header(self) -> Dict[str, Any]:
        return {"type": "header", "version": JOURNAL_VERSION,
                "name": self.name, "campaign_seed": self.campaign_seed,
                "shards": self.shards, "task_count": len(self.tasks),
                "fingerprint": self.fingerprint()}

    # -- counters ----------------------------------------------------------

    def _count(self, what: str, amount: float = 1.0) -> None:
        self.registry.counter(f"campaign.{what}").inc(amount)

    # -- resume ------------------------------------------------------------

    def _load_journal(self) -> "OrderedDict[str, TaskRecord]":
        """Read a prior run's journal; returns its task records.

        Also truncates any torn final line so appending resumes on a
        clean record boundary, and re-merges journaled shard metric
        snapshots into the engine registry.
        """
        records: "OrderedDict[str, TaskRecord]" = OrderedDict()
        if not (self.resume and self.journal_path
                and os.path.exists(self.journal_path)):
            return records
        bodies = read_journal(self.journal_path)
        if not bodies:
            return records
        header = bodies[0]
        if header.get("type") != "header":
            raise CampaignError(
                f"journal {self.journal_path} does not start with a "
                f"campaign header")
        if header.get("fingerprint") != self.fingerprint():
            raise CampaignError(
                f"journal {self.journal_path} belongs to a different "
                f"campaign (seed/shards/task-count/spec mismatch): "
                f"journal {header.get('fingerprint')}, "
                f"spec {self.fingerprint()}")
        for body in bodies[1:]:
            if body.get("type") == "task":
                record = TaskRecord.from_body(body)
                if record.task_id not in self._by_id:
                    raise CampaignError(
                        f"journal task {record.task_id} is not in this "
                        f"campaign's plan")
                records[record.task_id] = record
            elif body.get("type") == "metrics":
                self.registry.merge(
                    MetricRegistry.from_snapshot(body["snapshot"]))
        # Drop a torn tail on disk too, so appended records start on a
        # fresh line.
        self._truncate_to_valid(len(bodies))
        self._journal_seq = len(bodies)
        return records

    def _truncate_to_valid(self, n_records: int) -> None:
        with open(self.journal_path, "rb") as f:
            raw = f.read()
        offset, seen = 0, 0
        while seen < n_records:
            offset = raw.index(b"\n", offset) + 1
            seen += 1
        if offset < len(raw):
            with open(self.journal_path, "r+b") as f:
                f.truncate(offset)

    # -- run ---------------------------------------------------------------

    def run(self) -> FleetResult:
        started = time.monotonic()
        self._count("tasks", len(self.tasks))
        self._journal_seq = 0
        done = self._load_journal()
        resumed_tasks = len(done)
        if resumed_tasks:
            self._count("resumed", resumed_tasks)

        self._writer: Optional[JournalWriter] = None
        if self.journal_path is not None:
            fresh = self._journal_seq == 0
            self._writer = JournalWriter(self.journal_path,
                                         start_seq=self._journal_seq)
            if fresh:
                self._writer.append(self._header())

        states: Dict[int, _ShardState] = {
            s: _ShardState(s) for s in range(self.shards)}
        for task in self.tasks:
            state = states[task.shard]
            state.outcome.tasks += 1
            if task.task_id in done:
                state.outcome.resumed += 1
            else:
                state.pending[task.task_id] = task
        records: Dict[str, TaskRecord] = dict(done)

        try:
            if self.workers <= 0:
                self._run_serial(states, records)
            else:
                self._run_fleet(states, records)
        finally:
            if self._writer is not None:
                self._writer.close()

        ordered = sorted(records.values(), key=lambda r: (r.shard, r.index))
        wall = time.monotonic() - started
        return FleetResult(
            name=self.name,
            records=ordered,
            shards=[states[s].outcome for s in sorted(states)],
            registry=self.registry,
            wall_time=wall,
            resumed_tasks=resumed_tasks,
            journal_path=self.journal_path)

    # -- record bookkeeping ------------------------------------------------

    def _record(self, state: _ShardState, record: TaskRecord,
                records: Dict[str, TaskRecord]) -> None:
        records[record.task_id] = record
        state.pending.pop(record.task_id, None)
        if record.disposition == DISP_COMPLETED:
            state.outcome.completed += 1
            self._count("completed")
        elif record.disposition == DISP_QUARANTINED:
            state.outcome.quarantined += 1
            self._count("quarantined")
        else:
            state.outcome.failed += 1
            self._count("failed")
        if self._writer is not None:
            self._writer.append(record.body())

    # -- serial path -------------------------------------------------------

    def _run_serial(self, states: Dict[int, _ShardState],
                    records: Dict[str, TaskRecord]) -> None:
        """In-process execution of the same sharded plan: the determinism
        baseline.  Task attempts retry in place (no backoff sleeps — the
        serial path is for tests, CI baselines and resume-merge)."""
        for shard in sorted(states):
            state = states[shard]
            t0 = time.monotonic()
            for task in list(state.pending.values()):
                attempts = 0
                while True:
                    attempts += 1
                    try:
                        result = self.run_task(task)
                    except Exception as exc:  # noqa: BLE001
                        if attempts >= self.max_task_attempts:
                            self._record(state, TaskRecord(
                                task.task_id, task.shard, task.index,
                                DISP_FAILED, attempts,
                                detail=f"{type(exc).__name__}: {exc}"),
                                records)
                            break
                        state.outcome.retries += 1
                        self._count("retries")
                        continue
                    self._record(state, TaskRecord(
                        task.task_id, task.shard, task.index,
                        DISP_COMPLETED, attempts, result=result), records)
                    break
            state.outcome.wall_time += time.monotonic() - t0
        if self.metrics_snapshot is not None:
            snapshot = self.metrics_snapshot()
            if self._writer is not None:
                self._writer.append({"type": "metrics", "shard": -1,
                                     "snapshot": snapshot})
            self.registry.merge(MetricRegistry.from_snapshot(snapshot))

    # -- fleet path --------------------------------------------------------

    def _run_fleet(self, states: Dict[int, _ShardState],
                   records: Dict[str, TaskRecord]) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            # No fork (e.g. some non-Linux hosts): closures in run_task
            # cannot cross a spawn boundary — degrade to serial.
            self._run_serial(states, records)
            return
        ctx = multiprocessing.get_context("fork")
        self._done_durations: List[float] = []
        scratch = tempfile.mkdtemp(prefix="repro-campaign-")
        active: Dict[int, _ShardState] = {}
        waiting = [states[s] for s in sorted(states) if states[s].pending]

        def spawn(state: _ShardState) -> None:
            epoch = state.outcome.respawns + (1 if state.ever_spawned else 0)
            state.segment_path = os.path.join(
                scratch, f"seg{state.shard}.{epoch}.jsonl")
            state.hb_path = os.path.join(
                scratch, f"hb{state.shard}.{epoch}")
            state.segment_offset = 0
            state.segment_buf = ""
            state.hb_mtime = 0.0
            tasks = list(state.pending.values())
            process = ctx.Process(
                target=_worker_main,
                args=(state.shard, tasks, self.run_task,
                      state.segment_path, state.hb_path,
                      HEARTBEAT_INTERVAL, self.metrics_snapshot))
            process.start()
            now = time.monotonic()
            state.process = process
            state.last_beat = now
            state.spawned_at = now
            state.current_task = None
            state.exited_clean = False
            if state.ever_spawned:
                state.outcome.respawns += 1
                self._count("respawns")
            state.ever_spawned = True
            active[state.shard] = state

        try:
            while waiting or active:
                now = time.monotonic()
                # Fill worker slots with shards whose backoff expired.
                for state in list(waiting):
                    if len(active) >= self.workers:
                        break
                    if state.backoff_until > now:
                        continue
                    waiting.remove(state)
                    spawn(state)
                drained = 0
                for state in list(active.values()):
                    drained += self._poll_segment(state, records)
                if not drained:
                    time.sleep(0.02)
                now = time.monotonic()
                # Liveness, heartbeat, straggler checks per active shard.
                for shard, state in list(active.items()):
                    process = state.process
                    if state.exited_clean:
                        process.join(timeout=1.0)
                        state.outcome.wall_time += now - state.spawned_at
                        del active[shard]
                        if state.pending:  # in-task failures left retries
                            self._backoff(state, waiting)
                        continue
                    if not process.is_alive():
                        # Final read: everything the worker flushed
                        # before dying is still on disk.
                        self._poll_segment(state, records)
                        process.join(timeout=1.0)
                        state.outcome.wall_time += now - state.spawned_at
                        del active[shard]
                        if state.exited_clean:
                            if state.pending:
                                self._backoff(state, waiting)
                        else:
                            self._crashed(state, records, waiting)
                        continue
                    if now - state.last_beat > HEARTBEAT_TIMEOUT:
                        state.outcome.heartbeat_timeouts += 1
                        self._count("heartbeat_timeouts")
                        process.kill()
                        process.join(timeout=5.0)
                        self._poll_segment(state, records)
                        state.outcome.wall_time += now - state.spawned_at
                        del active[shard]
                        self._crashed(state, records, waiting)
                        continue
                    self._check_straggler(state, now)
                if not active and waiting:
                    soonest = min(s.backoff_until for s in waiting)
                    delay = soonest - time.monotonic()
                    if delay > 0:
                        time.sleep(min(delay, self.backoff_cap))
        finally:
            for state in active.values():
                if state.process is not None and state.process.is_alive():
                    state.process.kill()
                    state.process.join(timeout=5.0)
            shutil.rmtree(scratch, ignore_errors=True)

    def _poll_segment(self, state: _ShardState,
                      records: Dict[str, TaskRecord]) -> int:
        """Incrementally consume a worker's segment file.

        Only complete (newline-terminated) lines are parsed; a torn tail
        stays buffered until the worker finishes the write — or forever,
        if the worker died mid-line, which is exactly the crash case the
        retry path covers.  Heartbeats are observed as mtime changes of
        the worker's beat file.
        """
        handled = 0
        try:
            hb_mtime = os.stat(state.hb_path).st_mtime
            if hb_mtime != state.hb_mtime:
                state.hb_mtime = hb_mtime
                state.last_beat = time.monotonic()
        except OSError:
            pass
        try:
            with open(state.segment_path, "r", encoding="utf-8") as f:
                f.seek(state.segment_offset)
                data = f.read()
        except OSError:
            return 0
        if not data:
            return 0
        state.segment_offset += len(data.encode("utf-8"))
        state.segment_buf += data
        while "\n" in state.segment_buf:
            line, state.segment_buf = state.segment_buf.split("\n", 1)
            if not line:
                continue
            try:
                message = json.loads(line)
            except ValueError:
                continue            # unreadable transport line: skip
            self._handle(state, message, records)
            handled += 1
        return handled

    def _handle(self, state: _ShardState, message: Dict[str, Any],
                records: Dict[str, TaskRecord]) -> None:
        kind = message.get("type")
        now = time.monotonic()
        state.last_beat = now
        if kind == "start":
            state.current_task = message.get("task_id")
            state.current_started = now
        elif kind == "done":
            task_id = message.get("task_id")
            if task_id not in state.pending:
                return              # duplicate after a retried shard
            attempts = state.attempts.get(task_id, 0) + 1
            task = state.pending[task_id]
            state.current_task = None
            self._done_durations.append(now - state.current_started)
            self._record(state, TaskRecord(
                task.task_id, task.shard, task.index, DISP_COMPLETED,
                attempts, result=message.get("result")), records)
        elif kind == "fail":
            task_id = message.get("task_id")
            state.current_task = None
            if task_id not in state.pending:
                return
            task = state.pending[task_id]
            attempts = state.attempts.get(task_id, 0) + 1
            state.attempts[task_id] = attempts
            if attempts >= self.max_task_attempts:
                self._record(state, TaskRecord(
                    task.task_id, task.shard, task.index, DISP_FAILED,
                    attempts, detail=message.get("detail", "")), records)
            else:
                state.outcome.retries += 1
                self._count("retries")
                # Left in pending: the shard's next respawn re-runs it.
        elif kind == "metrics":
            snapshot = message.get("snapshot", {})
            if self._writer is not None:
                self._writer.append({"type": "metrics",
                                     "shard": state.shard,
                                     "snapshot": snapshot})
            self.registry.merge(MetricRegistry.from_snapshot(snapshot))
        elif kind == "exit":
            state.exited_clean = True

    def _crashed(self, state: _ShardState,
                 records: Dict[str, TaskRecord], waiting: list) -> None:
        """A worker died without a clean exit: charge the in-flight task
        an attempt, quarantine it if poisoned, back the shard off."""
        state.outcome.crashes += 1
        self._count("worker_crashes")
        task_id = state.current_task
        state.current_task = None
        if task_id is not None and task_id in state.pending:
            attempts = state.attempts.get(task_id, 0) + 1
            state.attempts[task_id] = attempts
            if attempts >= self.max_task_attempts:
                task = state.pending[task_id]
                self._record(state, TaskRecord(
                    task.task_id, task.shard, task.index,
                    DISP_QUARANTINED, attempts,
                    detail=f"killed its worker {attempts} times"), records)
            else:
                state.outcome.retries += 1
                self._count("retries")
        if state.pending:
            self._backoff(state, waiting)

    def _backoff(self, state: _ShardState, waiting: list) -> None:
        state.failures += 1
        delay = min(self.backoff_cap,
                    self.backoff_base * (2 ** (state.failures - 1)))
        self._count("backoff_seconds", delay)
        state.backoff_until = time.monotonic() + delay
        waiting.append(state)

    def _check_straggler(self, state: _ShardState, now: float) -> None:
        if state.current_task is None \
                or state.current_task in state.flagged_stragglers:
            return
        durations = sorted(self._done_durations)
        median = durations[len(durations) // 2] if durations else 0.0
        threshold = STRAGGLER_FACTOR * max(median, STRAGGLER_MIN_SECONDS)
        if now - state.current_started > threshold:
            state.flagged_stragglers.add(state.current_task)
            state.outcome.stragglers += 1
            self._count("stragglers")
