"""Bounded ring buffer of :class:`TraceEvent`, with exporters.

The buffer is the single sink for all runtime emission sites.  It is
deliberately cheap: when disabled, ``emit`` is never called (call sites guard
on ``trace.enabled``); when enabled, an emit is one dataclass construction
and a deque append.  The capacity bound makes the memory cost of tracing a
constant regardless of run length — old events are dropped (and counted)
once the ring is full.

Exports:

* :meth:`TraceBuffer.chrome_trace` — Chrome ``trace_event`` JSON object
  (load the written file in Perfetto / ``about://tracing``).  Events become
  ``ph: "i"`` instants on their process's track; per-segment duration spans
  (``ph: "X"``) are synthesized from SEGMENT_START → terminal pairs so the
  pipeline of in-flight segments is visible at a glance.
* :meth:`TraceBuffer.timeline` — compact greppable text, one event per line.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Deque, Iterator, List, Optional

from .events import (
    SEGMENT_START,
    SEGMENT_TERMINAL,
    TraceEvent,
)


class TraceBuffer:
    """Bounded in-memory event trace for one run."""

    def __init__(
        self,
        capacity: int = 1 << 16,
        enabled: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self.clock = clock
        self.dropped = 0
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def emit(
        self,
        kind: str,
        pid: Optional[int] = None,
        role: Optional[str] = None,
        core: Optional[str] = None,
        segment: Optional[int] = None,
        ts: Optional[float] = None,
        **payload: object,
    ) -> Optional[TraceEvent]:
        if not self.enabled:
            return None
        if ts is None:
            ts = self.clock() if self.clock is not None else 0.0
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1
        event = TraceEvent(ts, kind, pid, role, core, segment, payload)
        events.append(event)
        return event

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    # ------------------------------------------------------------------
    # Exporters

    def chrome_trace(self) -> dict:
        """Render as a Chrome ``trace_event`` JSON object.

        Timestamps are microseconds of virtual time.  Real pids keep their
        own process track; synthesized per-segment spans live on synthetic
        pid 0 ("segments") with the segment index folded onto 16 rows so
        the overlap between in-flight segments is visible.
        """
        trace_events: List[dict] = []
        seen_pids = {}
        open_segments = {}

        for event in self._events:
            if event.pid is not None and event.pid not in seen_pids:
                seen_pids[event.pid] = event.role or "proc"
            args = {"kind": event.kind}
            if event.segment is not None:
                args["segment"] = event.segment
            if event.core is not None:
                args["core"] = event.core
            args.update(event.payload)
            trace_events.append({
                "name": event.kind,
                "ph": "i",
                "s": "t",
                "ts": event.ts * 1e6,
                "pid": event.pid if event.pid is not None else 0,
                "tid": event.pid if event.pid is not None else 0,
                "cat": event.role or "runtime",
                "args": args,
            })
            if event.segment is not None:
                if event.kind == SEGMENT_START:
                    open_segments[event.segment] = event.ts
                elif event.kind in SEGMENT_TERMINAL:
                    start = open_segments.pop(event.segment, None)
                    if start is not None:
                        trace_events.append({
                            "name": f"segment {event.segment}",
                            "ph": "X",
                            "ts": start * 1e6,
                            "dur": max(event.ts - start, 0.0) * 1e6,
                            "pid": 0,
                            "tid": event.segment % 16,
                            "cat": "segment",
                            "args": {"segment": event.segment,
                                     "outcome": event.kind},
                        })

        metadata = [{
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "segments"},
        }]
        for pid, role in sorted(seen_pids.items()):
            metadata.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"{role} (pid {pid})"},
            })
        return {
            "traceEvents": metadata + trace_events,
            "displayTimeUnit": "ms",
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)

    def timeline(self, last: Optional[int] = None) -> str:
        """Compact text timeline, one event per line (optionally the tail)."""
        events = list(self._events)
        if last is not None:
            events = events[-last:]
        lines = [e.describe() for e in events]
        if self.dropped:
            lines.insert(0, f"... {self.dropped} earlier events dropped "
                            f"(capacity {self.capacity})")
        return "\n".join(lines)


#: Shared disabled sink: components default to this so tracing is a no-op
#: until a runtime wires in its own buffer.
NULL_TRACE = TraceBuffer(capacity=1, enabled=False)
