"""Outside-in layer spans for the benchmark's traced run.

The program itself is not instrumented.  :func:`install` replaces the
public entry point of each layer (:data:`LAYERS`) with a timing wrapper,
by ``setattr`` on the owning class, or on every loaded module that bound
a module-level function, and returns a handle whose ``remove()`` puts
every original back.  Module functions need the module scan because
``from`` imports copy the binding: ``harness.figures`` binds
``compile_source`` when it is first imported.  A module first imported
while the wrappers are in place binds a wrapper; ``remove()`` finds and
restores those bindings too.

A span records its layer name, start, end, parent span and item id.  An
item is one protected program run (``Parallaft.run``) or, outside one,
the label the workload set (for example ``mcf:baseline``).
Self time is a span's duration minus the time its child spans cover.

Memory word access runs inside ``interpreter.run`` and is not wrapped:
a span per word would distort the very run it measures.

:class:`InstructionCounter` is the single wrapper untraced runs carry:
it sums ``Stop.executed`` over ``interpreter.run`` calls, one Python
call frame per scheduling quantum of up to 2,000 instructions.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class Layer(NamedTuple):
    """One wrapped entry point."""

    span: str
    module: str
    #: Class that owns the method; None for a module-level function.
    owner: Optional[str]
    attr: str
    #: ``tally(tracer, args, result, seconds)`` after a normal return.
    tally: Optional[Callable] = None


def _hashing(tracer: "Tracer", args, result, seconds: float) -> None:
    tracer.counts["hashing.bytes"] += len(args[1])
    if tracer.open_depth("comparator.compare"):
        tracer.counts["hashing.under_comparator_s"] += seconds


def _compare(tracer: "Tracer", args, result, seconds: float) -> None:
    tracer.counts["comparator.pages"] += result.pages_compared
    tracer.counts["comparator.sim_bytes"] += result.bytes_hashed


def _interpret(tracer: "Tracer", args, result, seconds: float) -> None:
    tracer.counts["cpu.instructions"] += result.executed


def _dirty(tracer: "Tracer", args, result, seconds: float) -> None:
    if isinstance(result, list):          # dirty_vpns, not begin_segment
        tracer.counts["dirty_tracker.pages"] += len(result)


def _emit(tracer: "Tracer", args, result, seconds: float) -> None:
    if result is not None:
        tracer.counts["trace.events"] += 1


def _inject(tracer: "Tracer", args, result, seconds: float) -> None:
    if result is not None:
        tracer.counts["faults.fired"] += 1


_RUNTIME = "repro.core.runtime"

#: Every layer boundary the traced run records, outermost first.
LAYERS: Tuple[Layer, ...] = (
    Layer("faults.inject", "repro.faults.injector", "FaultInjector",
          "inject_site", _inject),
    Layer("runtime.run", _RUNTIME, "Parallaft", "run"),
    Layer("minic.compile", "repro.minic.compiler", None, "compile_source"),
    Layer("journal.append", "repro.core.journal", "JournalWriter",
          "append"),
    Layer("executor.step", "repro.sim.executor", "Executor", "step"),
    Layer("cpu.run", "repro.cpu.interpreter", None, "run", _interpret),
    Layer("kernel.syscall", "repro.kernel.kernel", "Kernel",
          "handle_syscall"),
    Layer("kernel.fork", "repro.kernel.kernel", "Kernel", "fork"),
    Layer("mem.fork", "repro.mem.address_space", "AddressSpace", "fork"),
    Layer("runtime.hooks", _RUNTIME, "Parallaft", "on_syscall_entry"),
    Layer("runtime.hooks", _RUNTIME, "Parallaft", "on_syscall_exit"),
    Layer("runtime.hooks", _RUNTIME, "Parallaft", "on_stop"),
    Layer("runtime.hooks", _RUNTIME, "Parallaft", "on_signal"),
    Layer("runtime.hooks", _RUNTIME, "Parallaft", "on_quantum"),
    Layer("checker_sched.submit", "repro.core.checker_sched",
          "CheckerScheduler", "submit"),
    Layer("dirty_tracker", "repro.core.dirty_tracker", "DirtyPageTracker",
          "begin_segment", _dirty),
    Layer("dirty_tracker", "repro.core.dirty_tracker", "DirtyPageTracker",
          "dirty_vpns", _dirty),
    Layer("comparator.vote", "repro.core.comparator", "StateComparator",
          "vote"),
    Layer("comparator.compare", "repro.core.comparator", "StateComparator",
          "compare", _compare),
    Layer("hashing", "repro.hashing.xxh3", "Xxh3_64", "update", _hashing),
    Layer("rr_log.append", "repro.core.rr_log", "RrLog", "append"),
    Layer("rr_log.next", "repro.core.rr_log", "RrCursor", "next"),
    Layer("trace.emit", "repro.trace.buffer", "TraceBuffer", "emit", _emit),
)

#: The span whose every call is one item (a protected program run).
ITEM_SPAN = "runtime.run"


class Tracer:
    """In-memory span store with online self-time aggregation."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # One entry per span, in start order.
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.parent = array("l")
        self.item = array("l")
        # Per layer name, by name id.
        self.calls: List[int] = []
        self.inclusive: List[float] = []
        self.exclusive: List[float] = []
        self._depth: List[int] = []
        #: Work counted at the boundaries (bytes, pages, instructions...).
        self.counts: Dict[str, float] = defaultdict(float)
        self.item_labels: List[str] = ["-"]
        self._item = 0
        self._runs = 0
        self._stack: List[int] = []
        self._child: List[float] = []

    # -- items -----------------------------------------------------------

    def label(self, label: str) -> None:
        """Set the item id for spans outside any protected run."""
        self.item_labels.append(label)
        self._item = len(self.item_labels) - 1

    def _begin_run(self) -> int:
        outer = self._item
        self._runs += 1
        self.item_labels.append(
            f"{self.item_labels[outer].split('#')[0]}#run{self._runs}")
        self._item = len(self.item_labels) - 1
        return outer

    # -- spans -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.exclusive.append(0.0)
            self._depth.append(0)
        return self._name_ids[name]

    def open_depth(self, name: str) -> int:
        """How many spans of ``name`` are open right now."""
        name_id = self._name_ids.get(name)
        return 0 if name_id is None else self._depth[name_id]

    def _enter(self, name_id: int, now: float) -> int:
        index = len(self.start)
        self.span_name.append(name_id)
        self.start.append(now)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item)
        self._stack.append(index)
        self._child.append(0.0)
        self._depth[name_id] += 1
        return index

    def _exit(self, index: int, name_id: int, now: float) -> float:
        self._stack.pop()
        children = self._child.pop()
        duration = now - self.start[index]
        own = duration - children
        self.end[index] = now
        self.self_time[index] = own
        if self._child:
            self._child[-1] += duration
        self._depth[name_id] -= 1
        self.calls[name_id] += 1
        self.inclusive[name_id] += duration
        self.exclusive[name_id] += own
        return duration

    # -- results ---------------------------------------------------------

    def layer(self, name: str) -> Tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of one layer."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return 0, 0.0, 0.0
        return (self.calls[name_id], self.inclusive[name_id],
                self.exclusive[name_id])

    def __len__(self) -> int:
        return len(self.start)

    def write_jsonl(self, path: str) -> None:
        """A header object, then one JSON array per span in start order
        (a span's id is its line number after the header).  A traced
        batch makes about a million spans, so rows are positional and
        times are microseconds from the first span's start."""
        origin = self.start[0] if len(self.start) else 0.0
        names, labels = self.names, self.item_labels
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "fields": ["name", "start_us", "end_us", "parent", "item"],
                "origin_perf_counter_s": origin,
                "items": labels}) + "\n")
            for i in range(len(self.start)):
                out.write(f'["{names[self.span_name[i]]}",'
                          f'{(self.start[i] - origin) * 1e6:.1f},'
                          f'{(self.end[i] - origin) * 1e6:.1f},'
                          f'{self.parent[i]},{self.item[i]}]\n')


def _span_wrapper(tracer: Tracer, layer: Layer, fn: Callable) -> Callable:
    name_id = tracer.name_id(layer.span)
    tally = layer.tally
    clock = time.perf_counter
    enter, leave = tracer._enter, tracer._exit
    is_item = layer.span == ITEM_SPAN

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outer = tracer._begin_run() if is_item else None
        index = enter(name_id, clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = leave(index, name_id, clock())
            if outer is not None:
                tracer._item = outer
        if tally is not None:
            tally(tracer, args, result, seconds)
        return result

    return wrapper


class Installed:
    """Handle for installed wrappers; ``remove()`` restores the originals."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original), for bindings made while
        #: installed.
        self._originals: Dict[int, Tuple[object, object]] = {}

    def set(self, target: object, attr: str, value: object) -> None:
        original = getattr(target, attr)
        self._undo.append((target, attr, original))
        self._originals[id(value)] = (value, original)
        setattr(target, attr, value)

    def remove(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)
        # A repro module first imported while the wrappers were in place
        # bound a wrapper by ``from`` import; give it the original too.
        for name, module in _repro_modules():
            for attr, value in list(vars(module).items()):
                wrapper, original = self._originals.get(id(value),
                                                        (None, None))
                if value is wrapper:
                    setattr(module, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def _repro_modules():
    return [(name, module) for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


def _patch(installed: Installed, layer: Layer,
           make: Callable[[Callable], Callable]) -> None:
    module = importlib.import_module(layer.module)
    if layer.owner is not None:
        owner = getattr(module, layer.owner)
        installed.set(owner, layer.attr, make(vars(owner)[layer.attr]))
        return
    original = getattr(module, layer.attr)
    wrapped = make(original)
    # Every repro module that already bound the function by ``from``
    # import (``repro.cpu`` re-exports ``run``, the package root
    # ``compile_source``).
    for _, other in _repro_modules():
        if getattr(other, layer.attr, None) is original:
            installed.set(other, layer.attr, wrapped)


def install(tracer: Tracer) -> Installed:
    """Wrap every layer's entry point; returns the undo handle."""
    installed = Installed()
    try:
        for layer in LAYERS:
            _patch(installed, layer,
                   lambda fn, layer=layer: _span_wrapper(tracer, layer, fn))
    except BaseException:
        installed.remove()
        raise
    return installed


class InstructionCounter:
    """Sums simulated instructions over ``interpreter.run`` calls."""

    LAYER = Layer("cpu.run", "repro.cpu.interpreter", None, "run")

    def __init__(self) -> None:
        self.total = 0

    def install(self) -> Installed:
        installed = Installed()

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def run(proc, budget):
                stop = fn(proc, budget)
                self.total += stop.executed
                return stop
            return run

        _patch(installed, self.LAYER, make)
        return installed

    def snapshot(self) -> Dict[str, list]:
        """This process's count as a metric-registry snapshot: a forked
        campaign worker hands it to the supervisor, which sums them."""
        from repro.metrics import MetricRegistry
        registry = MetricRegistry()
        registry.counter("bench.sim_instructions").inc(self.total)
        registry.counter("bench.snapshots").inc()
        return registry.to_snapshot()


def observation_off() -> Installed:
    """Build every runtime with ``enable_trace`` and ``enable_metrics``
    off, whatever config its caller passes; ``remove()`` undoes it."""
    import dataclasses

    from repro.core import ParallaftConfig, runtime

    original = vars(runtime.Parallaft)["__init__"]

    @functools.wraps(original)
    def init(self, program, config=None, *args, **kwargs):
        config = dataclasses.replace(config or ParallaftConfig(),
                                     enable_trace=False,
                                     enable_metrics=False)
        original(self, program, config, *args, **kwargs)

    installed = Installed()
    installed.set(runtime.Parallaft, "__init__", init)
    return installed
