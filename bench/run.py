"""Two-clock benchmark of the Parallaft reproduction.

The host clock is the seconds our Python takes; the simulated clock
gives the paper's overheads and detection outcomes, which must not move.
End-to-end metrics come from untraced runs only; per-layer numbers come
from a traced run that wraps each layer's entry point (``spans.py``).

One run of one workload (the command ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload fig5-memory --seed 0 --seconds 20 --trace 0

It repeats the workload's batch while the next batch still fits in
``--seconds`` (at least once), checks every item, and prints every
metric by name and unit; the last stdout line is one JSON object.  With
``--trace 1`` it runs untraced batches, alternating with batches that
run with the runtime's trace and metrics off, then one traced batch,
and reports the per-layer metrics instead.

The suite runs every workload ``--repeats`` times, each in a fresh
subprocess, plus one traced run each with ``--traced``::

    python3 bench/run.py [--seed S] [--repeats N] [--traced] [--out PATH]

Two suite results are compared metric by metric with::

    python3 bench/run.py --compare A.json B.json [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))

from spans import (  # noqa: E402
    InstructionCounter,
    Tracer,
    install,
    observation_off,
)
from workloads import PassResult, sim_metrics, workloads  # noqa: E402

#: Set-up is timed in this many fresh subprocesses; the median counts.
SETUP_REPEATS = 5

#: Untraced batches of a traced run, with the runtime's own trace and
#: metrics on (default) or off.  ABBA order, so a steady drift of the
#: host's speed cancels out of the comparison.
OBSERVE_ORDER = ("untraced", "observe-off", "observe-off", "untraced")

#: Program modules every workload needs, imported as part of set-up.
PROGRAM_MODULES = ("repro.harness", "repro.harness.figures",
                   "repro.modes.comparison", "repro.faults",
                   "repro.campaign")

#: The predicted layer separation: (workload, share, op, threshold).
#: A share is the layer's self time over the traced batch's wall time.
#: If a prediction fails, move benchmarks between the two fig5 halves
#: rather than loosening a threshold.
PREDICTIONS = (
    ("fig5-memory", "hashing.share", ">=", 0.30),
    ("syscall-stress", "hashing.share", "<=", 0.05),
    ("fig5-compute", "cpu.run.share", ">=", 0.60),
    ("syscall-stress", "cpu.run.share", "<=", 0.35),
    ("syscall-stress", "syscall_path.share", ">=", 0.40),
    ("fig5-memory", "syscall_path.share", "<=", 0.10),
    ("fig5-compute", "syscall_path.share", "<=", 0.10),
)

#: Span-derived per-layer metrics: span -> fields.  ``self_s`` is self
#: time, ``s`` inclusive time, ``calls`` the number of spans.
SPAN_FIELDS = {
    "hashing": ("self_s",),
    "comparator.compare": ("self_s", "calls"),
    "comparator.vote": ("calls",),
    "cpu.run": ("self_s", "calls"),
    "kernel.syscall": ("self_s", "calls"),
    "runtime.hooks": ("self_s", "calls"),
    "rr_log.append": ("s", "calls"),
    "rr_log.next": ("s", "calls"),
    "executor.step": ("self_s", "calls"),
    "trace.emit": ("s",),
    "kernel.fork": ("self_s", "calls"),
    "mem.fork": ("s", "calls"),
    "dirty_tracker": ("s",),
    "checker_sched.submit": ("s", "calls"),
    "runtime.run": ("calls",),
    "journal.append": ("s", "calls"),
    "minic.compile": ("s", "calls"),
}

#: The layers on the syscall path: the kernel entry, the runtime's
#: ptrace-style hooks and the executor loop that dispatches them.
SYSCALL_PATH = ("kernel.syscall", "runtime.hooks", "executor.step")


def load_spec() -> Dict:
    with open(SPEC, encoding="utf-8") as f:
        return json.load(f)


def require_program() -> None:
    """Put the checkout's ``src`` on the path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {src / 'repro'}; run from a "
                 f"checkout of the repository")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def setup(workload, seed: int):
    """Everything before the first timed call: imports, registry,
    workload generation."""
    import importlib
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    return workload.prepare(seed)


def time_setup(name: str, seed: int) -> List[float]:
    """Wall seconds from subprocess start to set-up done, per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-only",
                        "--workload", name, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


# ------------------------------------------------------------------ passes


@dataclass
class Pass:
    """One timed execution of a workload's batch."""

    kind: str
    wall: float
    instructions: float
    result: PassResult
    #: The process's peak resident set so far, in MB.
    peak_rss_mb: float = 0.0


def _no_label(_: str) -> None:
    pass


def timed_pass(workload, prepared, seed: int, kind: str,
               counter: Optional[InstructionCounter] = None,
               serial: bool = False, label=_no_label) -> Pass:
    before = counter.total if counter is not None else 0
    start = time.perf_counter()
    result = workload.run_pass(prepared, seed, label, serial=serial,
                               counter=counter)
    wall = time.perf_counter() - start
    instructions = 0.0
    if counter is not None:
        instructions = (counter.total - before
                        + result.host.get("worker_instructions", 0.0))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return Pass(kind, wall, instructions, result, rss)


def untraced_passes(workload, prepared, seed: int, seconds: float,
                    counter: InstructionCounter) -> List[Pass]:
    """Batches back to back while the next one, at the median batch
    time so far, still ends within ``seconds``; at least one."""
    passes: List[Pass] = []
    begun = time.perf_counter()
    while True:
        passes.append(timed_pass(workload, prepared, seed, "untraced",
                                 counter))
        elapsed = time.perf_counter() - begun
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            return passes


def share_metrics(tracer: Tracer, wall: float) -> Dict[str, float]:
    def self_s(span: str) -> float:
        return tracer.layer(span)[2]
    return {
        "hashing.share": self_s("hashing") / wall,
        "cpu.run.share": self_s("cpu.run") / wall,
        "syscall_path.share": sum(self_s(s) for s in SYSCALL_PATH) / wall,
    }


def layer_metrics(tracer: Tracer, passes: List[Pass]) -> Dict[str, float]:
    """Every per-layer metric; 0 where the workload has no such work."""
    def wall(kind: str) -> Optional[float]:
        walls = [p.wall for p in passes if p.kind == kind]
        return statistics.median(walls) if walls else None

    out: Dict[str, float] = {}
    for span, fields in SPAN_FIELDS.items():
        calls, inclusive, own = tracer.layer(span)
        values = {"calls": calls, "s": inclusive, "self_s": own}
        for f in fields:
            out[f"{span}.{f}"] = values[f]
    counts = tracer.counts

    _, hash_s, hash_self = tracer.layer("hashing")
    out["hashing.mb"] = counts["hashing.bytes"] / 1e6
    out["hashing.mb_per_s"] = (out["hashing.mb"] / hash_self
                               if hash_self else 0.0)
    out["hashing.comparator_frac"] = (
        counts["hashing.under_comparator_s"] / hash_s if hash_s else 0.0)
    out["comparator.pages"] = counts["comparator.pages"]
    out["comparator.sim_bytes"] = counts["comparator.sim_bytes"]
    out["cpu.instructions"] = counts["cpu.instructions"]
    cpu_self = out["cpu.run.self_s"]
    out["cpu.minstr_per_s"] = (counts["cpu.instructions"] / cpu_self / 1e6
                               if cpu_self else 0.0)
    out["trace.events"] = counts["trace.events"]
    out["dirty_tracker.pages"] = counts["dirty_tracker.pages"]
    injects = tracer.layer("faults.inject")[0]
    out["faults.fire_frac"] = (counts["faults.fired"] / injects
                               if injects else 0.0)

    untraced, serial, off = wall("untraced"), wall("serial"), wall(
        "observe-off")
    traced = next(p for p in passes if p.kind == "traced")
    first = next(p for p in passes if p.kind == "untraced")
    host = first.result.host
    workers = host.get("workers", 0)
    out["campaign.tasks_per_s"] = (first.result.attempted / untraced
                                   if workers else 0.0)
    out["campaign.worker_busy_frac"] = (
        host["shard_busy_s"] / (workers * host["fleet_wall_s"])
        if workers else 0.0)
    out["campaign.fleet_speedup"] = serial / untraced if serial else 0.0
    out["campaign.retries"] = host.get("retries", 0.0)

    out["observe.off_frac"] = 1.0 - off / untraced if off else 0.0
    # A fleet workload's traced batch is serial: compare like with like.
    out["bench.tracing_overhead_frac"] = (
        traced.wall / (serial or untraced) - 1.0)
    out.update(sim_metrics(traced.result))
    out.update(share_metrics(tracer, traced.wall))
    return out


def isolation_checks(name: str, metrics: Dict[str, float]) -> List[Dict]:
    checks = []
    for workload, share, op, threshold in PREDICTIONS:
        if workload != name:
            continue
        value = metrics[share]
        holds = value >= threshold if op == ">=" else value <= threshold
        checks.append({"workload": workload, "share": share, "op": op,
                       "threshold": threshold, "value": value,
                       "holds": holds})
    return checks


def isolation_line(check: Dict) -> str:
    return (f"  isolation: {check['share']} = {check['value']:.3f} "
            f"{check['op']} {check['threshold']}: "
            f"{'holds' if check['holds'] else 'FAILS'}")


# -------------------------------------------------------------- digests


def load_reference() -> Dict:
    if not REFERENCE.is_file():
        return {}
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)


def first_difference(a: Dict[str, str], b: Dict[str, str]) -> Optional[str]:
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return key
    return None


def check_reference(name: str, seed: int, parts: Dict[str, str],
                    digest: str) -> Dict:
    """Compare a run's digest with the committed reference, if any."""
    ref = load_reference().get(name, {}).get(str(seed))
    if ref is None:
        return {"status": "absent"}
    if ref["digest"] == digest:
        return {"status": "match"}
    key = first_difference(ref["parts"], parts)
    print(f"SIMULATED RESULTS MOVED: {name} seed {seed}: first differing "
          f"key {key!r}", flush=True)
    return {"status": "moved", "key": key}


# ------------------------------------------------------------------- run


def end_to_end_metrics(passes: List[Pass],
                       setup_runs: List[float]) -> Dict[str, float]:
    return {
        "sim_minstr_per_s": statistics.median(
            p.instructions / p.wall for p in passes) / 1e6,
        "setup_s": statistics.median(setup_runs),
        # Through the first batch only: later batches can grow the heap,
        # and how many run depends on the host's speed.
        "peak_rss_mb": passes[0].peak_rss_mb,
    }


def traced_run(workload, prepared, seed: int):
    """Untraced batches, then one traced batch.  Returns (passes,
    tracer, per-layer metrics).

    Where the results do not read the event trace, the untraced
    batches pair with batches that run with observation off
    (:data:`OBSERVE_ORDER`); a fleet workload adds one serial batch.
    """
    counter = InstructionCounter()
    passes: List[Pass] = []
    with counter.install():
        order = ("untraced",) if workload.reads_trace else OBSERVE_ORDER
        for kind in order:
            if kind == "untraced":
                passes.append(timed_pass(workload, prepared, seed, kind,
                                         counter))
            else:
                with observation_off():
                    passes.append(timed_pass(workload, prepared, seed, kind,
                                             counter))
        if workload.fleet:
            passes.append(timed_pass(workload, prepared, seed, "serial",
                                     counter, serial=True))
    tracer = Tracer()
    # Forked workers would not report their spans back, so a fleet
    # workload's traced batch runs serially.
    with install(tracer):
        passes.append(timed_pass(workload, prepared, seed, "traced",
                                 serial=workload.fleet, label=tracer.label))
    return passes, tracer, layer_metrics(tracer, passes)


def measure(workload, seed: int, seconds: float, trace: bool) -> Dict:
    """One benchmark run; returns the full record."""
    setup_runs = [] if trace else time_setup(workload.name, seed)
    prepared = setup(workload, seed)
    record: Dict = {"workload": workload.name, "seed": seed,
                    "trace": int(trace)}
    if trace:
        passes, tracer, metrics = traced_run(workload, prepared, seed)
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(str(OUT / f"{workload.name}.spans.jsonl"))
        record["spans"] = len(tracer)
        record["isolation"] = isolation_checks(workload.name, metrics)
    else:
        counter = InstructionCounter()
        with counter.install():
            passes = untraced_passes(workload, prepared, seed, seconds,
                                     counter)
        metrics = end_to_end_metrics(passes, setup_runs)
        record["setup_runs"] = setup_runs

    failures = [f for p in passes for f in p.result.failures]
    digests = {p.result.digest for p in passes}
    if len(digests) > 1:
        failures.append("simulated results differ between batches: "
                        + ", ".join(f"{p.kind}={p.result.digest[:12]}"
                                    for p in passes))
    first = passes[0].result
    record.update({
        "attempted": sum(p.result.attempted for p in passes),
        "failed": sum(p.result.failed for p in passes),
        "failures": failures,
        "correct": not failures,
        "metrics": metrics,
        "passes": [{"kind": p.kind, "wall_s": p.wall,
                    "instructions": p.instructions,
                    "digest": p.result.digest} for p in passes],
        "digest": first.digest,
        "parts": first.parts,
    })
    record["reference"] = check_reference(workload.name, seed, first.parts,
                                          first.digest)
    return record


def report_run(record: Dict, spec: Dict) -> None:
    """Human lines, then the one-line JSON result, last on stdout."""
    group = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    walls = ", ".join(f"{p['kind']} {p['wall_s']:.2f}s"
                      for p in record["passes"])
    print(f"{record['workload']} seed {record['seed']}: "
          f"{record['attempted']} items, {record['failed']} failed; "
          f"batches: {walls}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    for name, value in record["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    for check in record.get("isolation", []):
        print(isolation_line(check))
    print(f"  digest {record['digest'][:16]} "
          f"(reference: {record['reference']['status']})")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }
    print(json.dumps(result), flush=True)


# ------------------------------------------------------------------ suite


def quartiles(values: Sequence[float]) -> Dict:
    values = list(values)
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values)}


def child_run(name: str, seed: int, seconds: float, trace: bool,
              index: int) -> Dict:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}.seed{seed}.trace{int(trace)}.{index}.json"
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace)),
         "--result", str(path)],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0 or not path.is_file():
        raise SystemExit(f"bench: {name} run exited {proc.returncode}")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def summarize(runs: List[Dict], spec: Dict) -> Dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "runs": [{k: r[k] for k in ("metrics", "attempted", "failed",
                                    "digest", "passes", "setup_runs")}
                 for r in runs],
        "end_to_end": {
            m["name"]: dict(quartiles(r["metrics"][m["name"]]
                                      for r in runs), unit=m["unit"])
            for m in spec["end_to_end"]},
        # The batch's wall time is reported but carries no bound: on
        # modes-faults the work itself varies with the seed.
        "batch_wall_s": quartiles(
            statistics.median(p["wall_s"] for p in r["passes"])
            for r in runs),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 0.0,
        "failures": sorted({f for r in runs for f in r["failures"]}),
        "digest": runs[0]["digest"],
        "parts": runs[0]["parts"],
        "digests_agree": len({r["digest"] for r in runs}) == 1,
        "reference": runs[0]["reference"],
    }


def suite(args, spec: Dict) -> int:
    seconds = args.seconds or spec["run_seconds"]
    results: Dict = {
        "seed": args.seed, "repeats": args.repeats, "run_seconds": seconds,
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "workloads": {},
    }
    ok = True
    for name in workloads():
        runs = [child_run(name, args.seed, seconds, False, i)
                for i in range(args.repeats)]
        entry = summarize(runs, spec)
        if args.traced:
            traced = child_run(name, args.seed, seconds, True, 0)
            entry["traced"] = {k: traced[k] for k in (
                "metrics", "isolation", "digest", "failures", "spans",
                "passes")}
            entry["traced"]["digest_matches"] = (traced["digest"]
                                                 == entry["digest"])
            entry["failures"] += traced["failures"]
        results["workloads"][name] = entry
        ok &= print_workload(name, entry)
    if args.traced:
        print_layers(results["workloads"], spec)
    if args.update_reference:
        update_reference(results)
    out = Path(args.out) if args.out else OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1, sort_keys=True)
    print(f"results written to {out}")
    return 0 if ok else 1


def print_workload(name: str, entry: Dict) -> bool:
    print(f"== {name}: {entry['attempted']} items, fail_frac "
          f"{entry['fail_frac']:g} ==")
    rows = dict(entry["end_to_end"],
                batch_wall_s=dict(entry["batch_wall_s"], unit="s"))
    for metric, q in rows.items():
        print(f"  {metric:18s} median {q['median']:12.6g} {q['unit']:9s}"
              f" [q1 {q['q1']:.6g}, q3 {q['q3']:.6g}] n={q['n']}")
    for failure in entry["failures"]:
        print(f"  FAILED: {failure}")
    ok = not entry["failures"] and entry["digests_agree"]
    if not entry["digests_agree"]:
        print("  SIMULATED RESULTS MOVED between repeats of one seed")
    if entry["reference"]["status"] == "moved":
        print(f"  SIMULATED RESULTS MOVED from bench/reference.json: first "
              f"differing key {entry['reference']['key']!r}")
        ok = False
    traced = entry.get("traced")
    if traced is not None:
        if not traced["digest_matches"]:
            print("  SIMULATED RESULTS MOVED: traced digest differs from "
                  "untraced")
            ok = False
        for check in traced["isolation"]:
            ok &= check["holds"]
            print(isolation_line(check))
    print(f"  digest {entry['digest'][:16]} reference "
          f"{entry['reference']['status']}")
    return ok


def print_layers(entries: Dict[str, Dict], spec: Dict) -> None:
    names = [n for n in entries if "traced" in entries[n]]
    print("\nper-layer (one traced run each)")
    print(f"{'metric':34s} {'unit':9s} "
          + " ".join(f"{n:>15s}" for n in names))
    for m in spec["per_layer"]:
        print(f"{m['name']:34s} {m['unit']:9s} " + " ".join(
            f"{entries[n]['traced']['metrics'][m['name']]:15.6g}"
            for n in names))


def update_reference(results: Dict) -> None:
    reference = load_reference()
    for name, entry in results["workloads"].items():
        reference.setdefault(name, {})[str(results["seed"])] = {
            "digest": entry["digest"], "parts": entry["parts"]}
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------- compare


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    """better / same / worse / unresolved for B against parent A."""
    sign = 1.0 if better == "lower" else -1.0

    def rel_iqr(values):
        q = quartiles(values)
        return (q["q3"] - q["q1"]) / q["median"]

    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = sign * (mb - ma) / ma
    if max(rel_iqr(a), rel_iqr(b)) > bound:
        if all(sign * y < sign * x for y in b for x in a):
            return "better"
        if all(sign * y > sign * x for y in b for x in a):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    if -worse_by > rel_iqr(a) and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def compare(path_a: str, path_b: str, spec: Dict,
            out: Optional[str]) -> int:
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    rows, drift = [], []
    print(f"{'metric':18s} {'workload':15s} {'median A':>12s} "
          f"{'median B':>12s} {'change':>8s} {'IQR A':>10s} {'IQR B':>10s} "
          f"{'bound':>6s}  verdict")
    for name in [n for n in a["workloads"] if n in b["workloads"]]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in spec["end_to_end"]:
            qa, qb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            row = {"metric": m["name"], "workload": name,
                   "median_a": qa["median"], "median_b": qb["median"],
                   "change": qb["median"] / qa["median"] - 1.0,
                   "iqr_a": qa["q3"] - qa["q1"],
                   "iqr_b": qb["q3"] - qb["q1"], "bound": m["bound"],
                   "verdict": verdict(qa["values"], qb["values"],
                                      m["better"], m["bound"])}
            rows.append(row)
            print(f"{row['metric']:18s} {name:15s} {row['median_a']:12.6g} "
                  f"{row['median_b']:12.6g} {row['change']:+8.1%} "
                  f"{row['iqr_a']:10.4g} "
                  f"{row['iqr_b']:10.4g} {row['bound']:6.2f}  "
                  f"{row['verdict']}")
        if a["seed"] == b["seed"] and wa["digest"] != wb["digest"]:
            key = first_difference(wa["parts"], wb["parts"])
            drift.append({"workload": name, "key": key})
            print(f"SIMULATED RESULTS MOVED: {name}: first differing key "
                  f"{key!r}")
    if out:
        with open(out, "w", encoding="utf-8") as f:
            json.dump({"sets": [a, b], "comparison": rows,
                       "digest_drift": drift}, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if drift else 0


# ------------------------------------------------------------------- main


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Two-clock benchmark: host-time end-to-end metrics, "
                    "per-layer spans, simulated-result digests.")
    parser.add_argument("--workload", help="run one workload once "
                        f"(one of {', '.join(workloads())})")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "run instead of the end-to-end metrics")
    parser.add_argument("--result", help="also write the run's full "
                        "record (digest parts, failures) here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--repeats", type=int, default=5,
                        help="suite: untraced runs per workload")
    parser.add_argument("--traced", action="store_true",
                        help="suite: one extra traced run per workload")
    parser.add_argument("--out", help="suite/compare: results file "
                        "(default bench/out/results.json)")
    parser.add_argument("--update-reference", action="store_true",
                        help="suite: record these digests as the "
                             "reference for this seed")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two suite results files")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec, args.out)
    require_program()
    # Temporary files (campaign journals and worker transport) stay
    # inside the checkout.
    tempfile.tempdir = str(OUT / "tmp")
    os.makedirs(tempfile.tempdir, exist_ok=True)
    if args.workload is None:
        return suite(args, spec)
    if args.workload not in workloads():
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_only:
        setup(workloads()[args.workload], args.seed)
        return 0
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    record = measure(workloads()[args.workload], args.seed, seconds,
                     bool(args.trace))
    if args.result:
        with open(args.result, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    report_run(record, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
