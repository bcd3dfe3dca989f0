"""Checks of the benchmark itself, on tiny one-benchmark batches.

Run with ``PYTHONPATH=src python -m pytest bench/tests``; the repository's
own test run (``testpaths = tests``) does not collect these.
"""

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def tiny(*benchmarks: str) -> workloads.Fig5:
    return workloads.Fig5("tiny", benchmarks)


def bindings():
    """Every current binding of every wrapped entry point."""
    out = {}
    for layer in spans.LAYERS:
        module = importlib.import_module(layer.module)
        owner = (getattr(module, layer.owner) if layer.owner
                 else module)
        out[(layer.module, layer.owner, layer.attr)] = vars(owner)[
            layer.attr]
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for attr in ("run", "compile_source"):
                if attr in vars(module):
                    out[(name, None, attr)] = vars(module)[attr]
    return out


@pytest.fixture(scope="module")
def traced():
    workload = tiny("sphinx3")
    prepared = run.setup(workload, 0)
    before = bindings()
    passes, tracer, metrics = run.traced_run(workload, prepared, 0)
    return before, passes, tracer, metrics


def test_wrappers_removed_and_digest_unchanged(traced):
    before, passes, tracer, _ = traced
    after = bindings()
    assert after == before
    assert len(tracer) > 0
    kinds = [p.kind for p in passes]
    assert kinds == list(run.OBSERVE_ORDER) + ["traced"]
    assert len({p.result.digest for p in passes}) == 1
    assert all(p.result.failed == 0 for p in passes)


def test_metric_names_declared(traced):
    assert [w["name"] for w in SPEC["workloads"]] == list(
        workloads.workloads())
    _, passes, _, layer = traced
    e2e = run.end_to_end_metrics(passes[:1], [0.25])
    for group, emitted in (("end_to_end", e2e), ("per_layer", layer)):
        declared = [m["name"] for m in SPEC[group]]
        assert sorted(emitted) == sorted(declared), group
        assert all(NAME.match(name) and len(name) <= 64
                   for name in emitted)
    assert all(value > 0 for value in e2e.values())


def test_self_time_within_inclusive(traced):
    _, _, tracer, _ = traced
    for i in range(len(tracer)):
        inclusive = tracer.end[i] - tracer.start[i]
        assert -1e-9 <= tracer.self_time[i] <= inclusive
        parent = tracer.parent[i]
        if parent >= 0:
            assert tracer.start[parent] <= tracer.start[i]
            assert tracer.end[i] <= tracer.end[parent]


def test_raising_item_is_counted(monkeypatch):
    from repro.harness import runner
    original = runner.run_protected

    def flaky(bench, *args, **kwargs):
        if bench.name == "sphinx3":
            raise RuntimeError("injected item failure")
        return original(bench, *args, **kwargs)

    monkeypatch.setattr(runner, "run_protected", flaky)
    workload = tiny("sphinx3", "namd")
    result = workload.run_pass(workload.prepare(0), 0, lambda _: None)
    assert result.attempted == 2
    assert result.failed == 1
    assert "injected item failure" in result.failures[0]
    assert "namd/parallaft" in result.parts


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "syscall-stress", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
