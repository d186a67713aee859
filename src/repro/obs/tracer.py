"""Process-local tracer: nestable spans, counters, pluggable sinks.

The tracer is the write side of the observability layer.  Instrumented code
asks for the process-local tracer with :func:`get_tracer` and emits

* **spans** — named, nestable time intervals (``with tracer.span("x"): ...``),
  timed on the monotonic clock;
* **counters** — named monotonically accumulated integers
  (``tracer.count("compact.relaxed_edges", 3)``).

Everything is fanned out to the attached sinks (:mod:`repro.obs.sinks`).
The default process tracer is *disabled*: every emit call returns after one
attribute check and :meth:`Tracer.span` hands back a shared no-op context
manager, so an un-traced run pays a few nanoseconds per instrumentation
site (measured by ``benchmarks/bench_obs_overhead.py``).

Thread model: the tracer is process-local and its span stack is per-thread,
so spans nest correctly under concurrency.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from .sinks import Sink

__all__ = [
    "Tracer",
    "SpanRecord",
    "get_tracer",
    "set_tracer",
    "activate",
]


class SpanRecord:
    """One finished span as handed to the sinks."""

    __slots__ = ("name", "start_ns", "duration_ns", "depth", "attrs")

    def __init__(
        self,
        name: str,
        start_ns: int,
        duration_ns: int,
        depth: int,
        attrs: Dict[str, Any],
    ) -> None:
        self.name = name
        self.start_ns = start_ns
        self.duration_ns = duration_ns
        self.depth = depth
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, start={self.start_ns},"
            f" dur={self.duration_ns}, depth={self.depth})"
        )


class _NullSpan:
    """Shared no-op context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _Span:
    """An open span; records itself to every sink when the block exits.

    Exception safe: the span closes (and the per-thread stack is restored)
    whether the block returns or raises; a raising block is marked with an
    ``error`` attribute carrying the exception class name.
    """

    __slots__ = ("_tracer", "name", "attrs", "_start_ns", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> "_Span":
        """Attach attributes to an open span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._depth = len(stack)
        stack.append(self)
        for sink in self._tracer.sinks:
            sink.on_span_start(self.name)
        self._start_ns = time.perf_counter_ns() - self._tracer.epoch_ns
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        end_ns = time.perf_counter_ns() - self._tracer.epoch_ns
        stack = self._tracer._stack()
        # Normal LIFO exit pops ourselves; be tolerant of a corrupted stack
        # (a span leaked across a generator) rather than raising in __exit__.
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - defensive
            stack.remove(self)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        record = SpanRecord(
            self.name, self._start_ns, end_ns - self._start_ns, self._depth, self.attrs
        )
        for sink in self._tracer.sinks:
            sink.on_span(record)
        return False


class Tracer:
    """Collects spans and counters and fans them out to sinks.

    ``enabled`` is the master switch: a disabled tracer never touches its
    sinks and never takes a timestamp.  Timestamps are nanoseconds on the
    monotonic clock (:func:`time.perf_counter_ns`) relative to
    :attr:`epoch_ns`, taken when the tracer is created.
    """

    def __init__(self, enabled: bool = True, sinks: Iterable[Sink] = ()) -> None:
        self.enabled = enabled
        self.sinks: List[Sink] = list(sinks)
        self.epoch_ns = time.perf_counter_ns()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _now_ns(self) -> int:
        return time.perf_counter_ns() - self.epoch_ns

    # ------------------------------------------------------------------
    def add_sink(self, sink: Sink) -> Sink:
        """Attach *sink*; returns it for chaining."""
        self.sinks.append(sink)
        return sink

    def span(self, name: str, **attrs: Any):
        """A context manager timing the enclosed block as span *name*."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def count(self, name: str, n: int = 1) -> None:
        """Add *n* to counter *name*."""
        if not self.enabled or n == 0:
            return
        ts = self._now_ns()
        for sink in self.sinks:
            sink.on_count(name, n, ts)

    def close(self) -> None:
        """Flush and close every sink (idempotent sinks required)."""
        for sink in self.sinks:
            sink.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, sinks={len(self.sinks)})"


#: The process tracer: disabled until someone installs a live one.
_PROCESS_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-local tracer (disabled by default)."""
    return _PROCESS_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install *tracer* as the process tracer; returns the previous one."""
    global _PROCESS_TRACER
    previous = _PROCESS_TRACER
    _PROCESS_TRACER = tracer
    return previous


class activate:
    """``with activate(tracer):`` — install a tracer for the block only."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc: Any) -> bool:
        assert self._previous is not None
        set_tracer(self._previous)
        return False

