"""Sinks: where the tracer's spans, counters and gauges end up.

Three built-ins cover the paper pipeline's needs:

* :class:`StatsSink` — in-memory aggregation (per-span call counts and
  total/min/max durations, counter totals, last gauge values) with a
  human-readable summary table — what ``repro stats`` prints;
* :class:`JsonlSink` — one JSON object per record, append-streamed to a
  file, for machine consumption of the raw event log;
* :class:`ChromeTraceSink` — Chrome trace-event JSON (the ``traceEvents``
  array format) loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing`` — what ``repro --trace out.json ...`` writes.

A sink is any object with the ``on_*`` callbacks plus ``close``;
:class:`Sink` is the no-op base class custom sinks can subclass.
"""

from __future__ import annotations

import io
import json
import os
import threading
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from .hist import LogHistogram

if TYPE_CHECKING:  # pragma: no cover - import cycle with .tracer
    from .tracer import SpanRecord

__all__ = [
    "Sink",
    "StatsSink",
    "SpanStats",
    "JsonlSink",
    "ChromeTraceSink",
    "validate_chrome_trace",
]


class Sink:
    """No-op base sink; subclass and override what you need."""

    def on_span_start(self, name: str) -> None:
        """A span began (its matching :meth:`on_span` may never arrive)."""

    def on_span(self, record: "SpanRecord") -> None:
        """A span finished."""

    def on_count(self, name: str, n: int, ts_ns: int) -> None:
        """Counter *name* was incremented by *n*."""

    def on_gauge(self, name: str, value: float, ts_ns: int) -> None:
        """Gauge *name* was set to *value*."""

    def on_event(self, name: str, ts_ns: int, attrs: Dict[str, Any]) -> None:
        """An instant event occurred."""

    def close(self) -> None:
        """Flush buffers / write files; must be idempotent."""


# ---------------------------------------------------------------------------
class SpanStats:
    """Aggregate of every finished span sharing one name.

    Alongside the scalar aggregates, each name keeps a
    :class:`~repro.obs.hist.LogHistogram` of durations so ``repro stats``
    can report p50/p90/p99 — the distribution shape scalars hide.
    """

    __slots__ = ("calls", "total_ns", "min_ns", "max_ns", "hist")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns = 0
        self.hist = LogHistogram()

    def add(self, duration_ns: int) -> None:
        self.calls += 1
        self.total_ns += duration_ns
        self.max_ns = max(self.max_ns, duration_ns)
        if self.min_ns is None or duration_ns < self.min_ns:
            self.min_ns = duration_ns
        self.hist.add(duration_ns)

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.calls if self.calls else 0.0

    def percentile_ns(self, q: float) -> float:
        """Estimated duration percentile in nanoseconds (0.0 if empty)."""
        return self.hist.percentile(q)


class StatsSink(Sink):
    """In-memory aggregation: the data behind ``repro stats``."""

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = {}
        self.counters: Dict[str, int] = {}
        #: How many ``count()`` calls fed each counter (vs the summed value)
        #: — the overhead bench uses this as the instrumentation hit count.
        self.counter_calls: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.events: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def on_span(self, record: "SpanRecord") -> None:
        stats = self.spans.get(record.name)
        if stats is None:
            stats = self.spans[record.name] = SpanStats()
        stats.add(record.duration_ns)

    def on_count(self, name: str, n: int, ts_ns: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n
        self.counter_calls[name] = self.counter_calls.get(name, 0) + 1

    def on_gauge(self, name: str, value: float, ts_ns: int) -> None:
        self.gauges[name] = value

    def on_event(self, name: str, ts_ns: int, attrs: Dict[str, Any]) -> None:
        self.events[name] = self.events.get(name, 0) + 1

    # ------------------------------------------------------------------
    def total_s(self, span_name: str) -> float:
        """Total seconds spent in spans named *span_name* (0.0 if none)."""
        stats = self.spans.get(span_name)
        return stats.total_ns / 1e9 if stats else 0.0

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        return self.counters.get(name, 0)

    #: ``format_table`` sort orders: a key on (name, SpanStats) per mode.
    _SPAN_SORTS = {
        "name": lambda item: item[0],
        "total": lambda item: (-item[1].total_ns, item[0]),
        "mean": lambda item: (-item[1].mean_ns, item[0]),
        "calls": lambda item: (-item[1].calls, item[0]),
        "max": lambda item: (-item[1].max_ns, item[0]),
    }

    def format_table(self, sort: str = "name", top: Optional[int] = None) -> str:
        """The aligned summary table ``repro stats`` prints.

        *sort* orders the span section by ``name`` (default), ``total``,
        ``mean``, ``calls`` or ``max`` (descending); *top* keeps only the
        first N spans and the N largest counters, with a trailing note for
        what was elided — `repro stats --sort total --top 10` makes a
        large trace readable.
        """
        try:
            span_key = self._SPAN_SORTS[sort]
        except KeyError:
            raise ValueError(
                f"unknown sort {sort!r} (one of {sorted(self._SPAN_SORTS)})"
            ) from None
        lines: List[str] = []
        if self.spans:
            name_w = max(len(name) for name in self.spans)
            name_w = max(name_w, len("span"))
            lines.append(
                f"{'span':<{name_w}} {'calls':>8} {'total ms':>10}"
                f" {'mean ms':>10} {'p50 ms':>10} {'p90 ms':>10}"
                f" {'p99 ms':>10} {'max ms':>10}"
            )
            ranked = sorted(self.spans.items(), key=span_key)
            shown = ranked if top is None else ranked[:top]
            for name, stats in shown:
                p50, p90, p99 = stats.hist.percentiles((50, 90, 99))
                lines.append(
                    f"{name:<{name_w}} {stats.calls:>8}"
                    f" {stats.total_ns / 1e6:>10.3f}"
                    f" {stats.mean_ns / 1e6:>10.4f}"
                    f" {p50 / 1e6:>10.4f}"
                    f" {p90 / 1e6:>10.4f}"
                    f" {p99 / 1e6:>10.4f}"
                    f" {stats.max_ns / 1e6:>10.3f}"
                )
            if len(shown) < len(ranked):
                lines.append(f"… {len(ranked) - len(shown)} more spans")
        if self.counters:
            if lines:
                lines.append("")
            name_w = max(len(name) for name in self.counters)
            name_w = max(name_w, len("counter"))
            lines.append(f"{'counter':<{name_w}} {'value':>12}")
            if sort == "name":
                ranked_counters = sorted(self.counters)
            else:
                ranked_counters = sorted(
                    self.counters, key=lambda name: (-self.counters[name], name)
                )
            shown_counters = (ranked_counters if top is None
                              else ranked_counters[:top])
            for name in shown_counters:
                lines.append(f"{name:<{name_w}} {self.counters[name]:>12}")
            if len(shown_counters) < len(ranked_counters):
                lines.append(
                    f"… {len(ranked_counters) - len(shown_counters)}"
                    " more counters"
                )
        if self.gauges:
            if lines:
                lines.append("")
            name_w = max(len(name) for name in self.gauges)
            name_w = max(name_w, len("gauge"))
            lines.append(f"{'gauge':<{name_w}} {'value':>12}")
            for name in sorted(self.gauges):
                lines.append(f"{name:<{name_w}} {self.gauges[name]:>12g}")
        if not lines:
            return "(no spans, counters or gauges recorded)"
        return "\n".join(lines)


# ---------------------------------------------------------------------------
class JsonlSink(Sink):
    """Raw event log: one JSON object per line.

    Record shapes: ``{"type": "span", "name", "ts_ns", "dur_ns", "depth",
    "attrs"}``, ``{"type": "count", "name", "n", "ts_ns"}``, ``{"type":
    "gauge", ...}``, ``{"type": "event", ...}``.
    """

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if isinstance(target, (str, Path)):
            self._file: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self._lock = threading.Lock()
        self._closed = False

    def _write(self, record: Dict[str, Any]) -> None:
        if self._closed:
            return
        line = json.dumps(record, default=str)
        with self._lock:
            self._file.write(line + "\n")

    def on_span(self, record: "SpanRecord") -> None:
        self._write(
            {
                "type": "span",
                "name": record.name,
                "ts_ns": record.start_ns,
                "dur_ns": record.duration_ns,
                "depth": record.depth,
                "attrs": record.attrs,
            }
        )

    def on_count(self, name: str, n: int, ts_ns: int) -> None:
        self._write({"type": "count", "name": name, "n": n, "ts_ns": ts_ns})

    def on_gauge(self, name: str, value: float, ts_ns: int) -> None:
        self._write({"type": "gauge", "name": name, "value": value, "ts_ns": ts_ns})

    def on_event(self, name: str, ts_ns: int, attrs: Dict[str, Any]) -> None:
        self._write({"type": "event", "name": name, "ts_ns": ts_ns, "attrs": attrs})

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns_file:
            self._file.close()


# ---------------------------------------------------------------------------
class ChromeTraceSink(Sink):
    """Chrome trace-event JSON, viewable in Perfetto.

    Spans become complete (``"ph": "X"``) events with microsecond ``ts`` /
    ``dur``; counters become cumulative counter (``"ph": "C"``) tracks;
    instants become ``"ph": "i"`` events.  The span name's dotted prefix
    (``compact`` in ``compact.step``) is used as the event category so
    Perfetto can filter per pipeline stage.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.events: List[Dict[str, Any]] = []
        self._pid = os.getpid()
        self._tid = threading.get_ident()
        self._counter_totals: Dict[str, int] = {}
        #: Interned sampled-stack frames: (parent id, label) -> frame id.
        self._frame_ids: Dict[Tuple[Optional[str], str], str] = {}
        self._stack_frames: Dict[str, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._spans_begun = 0
        self._spans_ended = 0
        #: Begin/end imbalance observed at :meth:`close` (0 = balanced).
        #: A positive value means that many spans never finished — their
        #: "X" events are missing from the written trace.
        self.unbalanced_spans = 0

    @staticmethod
    def _category(name: str) -> str:
        return name.split(".", 1)[0]

    def on_span_start(self, name: str) -> None:
        with self._lock:
            self._spans_begun += 1

    def on_span(self, record: "SpanRecord") -> None:
        event = {
            "name": record.name,
            "cat": self._category(record.name),
            "ph": "X",
            "ts": record.start_ns / 1000.0,
            "dur": record.duration_ns / 1000.0,
            "pid": self._pid,
            "tid": threading.get_ident(),
        }
        if record.attrs:
            event["args"] = {key: str(value) for key, value in record.attrs.items()}
        with self._lock:
            self._spans_ended += 1
            self.events.append(event)

    def on_count(self, name: str, n: int, ts_ns: int) -> None:
        with self._lock:
            total = self._counter_totals.get(name, 0) + n
            self._counter_totals[name] = total
            self.events.append(
                {
                    "name": name,
                    "cat": self._category(name),
                    "ph": "C",
                    "ts": ts_ns / 1000.0,
                    "pid": self._pid,
                    "tid": self._tid,
                    "args": {"value": total},
                }
            )

    def on_gauge(self, name: str, value: float, ts_ns: int) -> None:
        with self._lock:
            self.events.append(
                {
                    "name": name,
                    "cat": self._category(name),
                    "ph": "C",
                    "ts": ts_ns / 1000.0,
                    "pid": self._pid,
                    "tid": self._tid,
                    "args": {"value": value},
                }
            )

    def on_event(self, name: str, ts_ns: int, attrs: Dict[str, Any]) -> None:
        event = {
            "name": name,
            "cat": self._category(name),
            "ph": "i",
            "ts": ts_ns / 1000.0,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "s": "t",
        }
        if attrs:
            event["args"] = {key: str(value) for key, value in attrs.items()}
        with self._lock:
            self.events.append(event)

    # ------------------------------------------------------------------
    def add_sample(
        self,
        ts_ns: int,
        frames: Tuple[str, ...],
        tid: Optional[int] = None,
    ) -> None:
        """Record one sampled stack (outermost frame first) as a ``P`` event.

        Stacks are interned into the trace's global ``stackFrames`` table
        (each frame holds a ``parent`` id), so a profile attached by
        :class:`~repro.obs.profiler.SamplingProfiler` overlays the span
        timeline in Perfetto without repeating whole stacks per sample.
        """
        if not frames:
            return
        with self._lock:
            parent: Optional[str] = None
            for label in frames:
                key = (parent, label)
                frame_id = self._frame_ids.get(key)
                if frame_id is None:
                    frame_id = str(len(self._frame_ids) + 1)
                    self._frame_ids[key] = frame_id
                    entry: Dict[str, Any] = {
                        "name": label,
                        "category": label.rsplit(".", 1)[0],
                    }
                    if parent is not None:
                        entry["parent"] = parent
                    self._stack_frames[frame_id] = entry
                parent = frame_id
            self.events.append(
                {
                    "name": "sample",
                    "cat": "profile",
                    "ph": "P",
                    "ts": ts_ns / 1000.0,
                    "pid": self._pid,
                    "tid": tid if tid is not None else self._tid,
                    "sf": parent,
                }
            )

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """The trace as the Chrome trace-event object format."""
        with self._lock:
            events = sorted(self.events, key=lambda e: e["ts"])
            trace: Dict[str, Any] = {
                "traceEvents": events,
                "displayTimeUnit": "ms",
            }
            if self._stack_frames:
                trace["stackFrames"] = dict(self._stack_frames)
        return trace

    def write(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Serialize the trace to *path* (default: the constructor path)."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("ChromeTraceSink has no output path")
        target.write_text(
            json.dumps(self.to_json(), indent=None, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        return target

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with self._lock:
            self.unbalanced_spans = self._spans_begun - self._spans_ended
        if self.unbalanced_spans:
            from .logsetup import get_logger

            get_logger("obs").warning(
                "chrome trace %s: span begin/end imbalance of %d"
                " (%d begun, %d ended) — the written trace is missing"
                " events for spans that never finished",
                self.path if self.path is not None else "(unwritten)",
                self.unbalanced_spans,
                self._spans_begun,
                self._spans_ended,
            )
        if self.path is not None:
            self.write()


# ---------------------------------------------------------------------------
_VALID_PHASES = {
    "X", "B", "E", "C", "i", "I", "M", "b", "e", "n", "s", "t", "f", "P",
}


def validate_chrome_trace(data: Any) -> List[str]:
    """Structural validation against the Chrome trace-event format.

    Accepts the object format (``{"traceEvents": [...]}``) or the bare
    array format.  Returns a list of problems; an empty list means the
    trace is loadable by Perfetto / ``chrome://tracing``.
    """
    problems: List[str] = []
    stack_frames: Optional[Dict[str, Any]] = None
    if isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object lacks a 'traceEvents' list"]
        frames = data.get("stackFrames")
        if frames is not None:
            if not isinstance(frames, dict):
                return ["'stackFrames' must be an object"]
            stack_frames = frames
            for frame_id, frame in frames.items():
                if not isinstance(frame, dict) or "name" not in frame:
                    problems.append(f"stackFrames[{frame_id}]: missing 'name'")
                elif "parent" in frame and str(frame["parent"]) not in frames:
                    problems.append(
                        f"stackFrames[{frame_id}]: dangling parent"
                        f" {frame['parent']!r}"
                    )
    elif isinstance(data, list):
        events = data
    else:
        return [f"trace must be an object or array, got {type(data).__name__}"]

    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{where}: invalid phase {phase!r}")
        if not isinstance(event.get("name"), str) and phase != "M":
            problems.append(f"{where}: missing string 'name'")
        if not isinstance(event.get("ts"), (int, float)) and phase != "M":
            problems.append(f"{where}: missing numeric 'ts'")
        if "pid" not in event:
            problems.append(f"{where}: missing 'pid'")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'X' event needs a non-negative 'dur'")
        if phase == "P" and stack_frames is not None:
            sf = event.get("sf")
            if sf is not None and str(sf) not in stack_frames:
                problems.append(f"{where}: sample references unknown frame {sf!r}")
    return problems
