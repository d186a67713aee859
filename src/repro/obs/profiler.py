"""Zero-dependency sampling profiler: wall-clock stacks and memory peaks.

``SamplingProfiler`` is a ``threading``-based wall-clock stack sampler: a
daemon thread wakes every ``interval_s`` (default 5 ms), grabs every live
thread's Python stack via :func:`sys._current_frames` and accumulates
collapsed call stacks.  The sampler needs the GIL to wake, so while it
runs the interpreter's switch interval is lowered to ``interval_s`` when
that is shorter (and restored at stop); otherwise a busy main thread holds
the GIL for the whole default 5 ms and a 0.5 ms sampler takes one sample
per ~6 ms.  Its output is

* **folded stacks** (``frame;frame;frame count`` lines) — the format
  consumed by ``flamegraph.pl`` and importable into
  `speedscope <https://www.speedscope.app>`_,
* a **top-functions table** (self/total sample counts per function), and
* optional **sampled-stack events** streamed into a
  :class:`~repro.obs.sinks.ChromeTraceSink`, so profiles overlay the
  tracer's spans on the same timeline in Perfetto.

``mode="memory"`` swaps the wall-clock sampler for :mod:`tracemalloc`:
allocation tracebacks become the folded stacks (weighted by KiB still
allocated at stop) and the table lists the top allocation sites.

From the command line: ``repro --profile out.folded <command>``.

There is no always-on instrumentation: a profiler that was never started
costs nothing anywhere in the pipeline (the overhead bench records this as
zero added sites).
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle with .sinks
    from .sinks import ChromeTraceSink

__all__ = ["SamplingProfiler"]

#: Default sampling period: 5 ms ≈ 200 Hz, low enough to be invisible on
#: second-scale workloads, high enough for ~1k samples on the amplifier.
DEFAULT_INTERVAL_S = 0.005

_Stack = Tuple[str, ...]


def _frame_label(frame) -> str:
    """``module.qualname`` for one frame, safe for the folded format."""
    module = frame.f_globals.get("__name__", "?")
    label = f"{module}.{frame.f_code.co_qualname}"
    # The folded format delimits frames with ';' and the count with a space.
    return label.replace(";", ",").replace(" ", "_")


class SamplingProfiler:
    """Collect collapsed stacks from a live process.

    Parameters:

    * ``interval_s`` — wall-clock sampling period (``mode="wall"``).
    * ``mode`` — ``"wall"`` (stack sampler) or ``"memory"``
      (:mod:`tracemalloc` allocation tracebacks, weighted in KiB).
    * ``chrome_sink`` — optional :class:`ChromeTraceSink`; every wall
      sample is forwarded as a trace ``"P"`` event referencing a shared
      ``stackFrames`` table, so the profile overlays spans in Perfetto.
    * ``epoch_ns`` — timestamp origin for chrome events; pass the live
      tracer's ``epoch_ns`` so samples and spans share a timeline.

    Thread model: one daemon sampler thread; it samples every thread
    except itself.  ``start``/``stop`` are idempotent.
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        mode: str = "wall",
        chrome_sink: Optional["ChromeTraceSink"] = None,
        epoch_ns: Optional[int] = None,
        max_depth: int = 256,
    ) -> None:
        if mode not in ("wall", "memory"):
            raise ValueError(f"unknown profiler mode {mode!r}")
        self.interval_s = max(interval_s, 0.0001)
        self.mode = mode
        self.chrome_sink = chrome_sink
        self.epoch_ns = epoch_ns
        self.max_depth = max_depth
        #: collapsed stack -> sample count (wall) or KiB (memory).
        self.stacks: Dict[_Stack, float] = {}
        self.sample_count = 0
        self.duration_s = 0.0
        #: tracemalloc peak in KiB (memory mode only).
        self.peak_kib: Optional[float] = None
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._offset_ns = 0
        self._switch_interval: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None or (
            self.mode == "memory" and self._started_at is not None
        )

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        self._started_at = time.perf_counter()
        if self.mode == "memory":
            import tracemalloc

            tracemalloc.start(min(self.max_depth, 64))
            return self
        # Sample timestamps are relative to the tracer's epoch when given,
        # so "P" events line up with span "X" events on one timeline.
        self._offset_ns = (
            self.epoch_ns if self.epoch_ns is not None
            else time.perf_counter_ns()
        )
        self._stop_event.clear()
        if self.interval_s < sys.getswitchinterval():
            self._switch_interval = sys.getswitchinterval()
            sys.setswitchinterval(self.interval_s)
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._started_at is None:
            return self
        self.duration_s += time.perf_counter() - self._started_at
        self._started_at = None
        if self.mode == "memory":
            self._collect_memory()
            return self
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if self._switch_interval is not None:
            sys.setswitchinterval(self._switch_interval)
            self._switch_interval = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    def _sample_loop(self) -> None:
        own_id = threading.get_ident()
        stop_wait = self._stop_event.wait
        while not stop_wait(self.interval_s):
            now_ns = time.perf_counter_ns()
            frames = sys._current_frames()
            for thread_id, frame in frames.items():
                if thread_id == own_id:
                    continue
                stack: List[str] = []
                depth = 0
                while frame is not None and depth < self.max_depth:
                    stack.append(_frame_label(frame))
                    frame = frame.f_back
                    depth += 1
                if not stack:
                    continue
                stack.reverse()
                key = tuple(stack)
                self.stacks[key] = self.stacks.get(key, 0) + 1
                self.sample_count += 1
                if self.chrome_sink is not None:
                    self.chrome_sink.add_sample(
                        now_ns - self._offset_ns, key, tid=thread_id
                    )

    def _collect_memory(self) -> None:
        import tracemalloc

        _, peak = tracemalloc.get_traced_memory()
        self.peak_kib = peak / 1024.0
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        for stat in snapshot.statistics("traceback"):
            stack = tuple(
                # "<frozen runpy>"-style names carry spaces; the folded
                # format reserves both space and semicolon as separators.
                f"{Path(frame.filename).name}:{frame.lineno}"
                .replace(";", ",").replace(" ", "_")
                for frame in stat.traceback  # oldest frame first
            )
            if not stack:
                continue
            kib = stat.size / 1024.0
            self.stacks[stack] = self.stacks.get(stack, 0.0) + kib
            self.sample_count += 1

    # ------------------------------------------------------------------
    def folded(self) -> str:
        """Collapsed stacks, one ``frame;frame count`` line per stack.

        Counts are samples (wall mode) or KiB rounded up (memory mode).
        Lines are sorted for deterministic output; the result loads in
        ``flamegraph.pl`` and speedscope.
        """
        lines = []
        for stack in sorted(self.stacks):
            weight = self.stacks[stack]
            count = int(weight) if weight == int(weight) else max(1, round(weight))
            lines.append(";".join(stack) + f" {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_folded(self, path: Union[str, Path]) -> Path:
        target = Path(path)
        target.write_text(self.folded(), encoding="utf-8")
        return target

    # ------------------------------------------------------------------
    def totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per-frame ``(self_weight, total_weight)`` maps."""
        self_w: Dict[str, float] = {}
        total_w: Dict[str, float] = {}
        for stack, weight in self.stacks.items():
            self_w[stack[-1]] = self_w.get(stack[-1], 0) + weight
            for label in set(stack):
                total_w[label] = total_w.get(label, 0) + weight
        return self_w, total_w

    def top_table(self, top: int = 15) -> str:
        """Aligned top-functions table (by self weight, then total)."""
        self_w, total_w = self.totals()
        if not total_w:
            return "(no samples collected)"
        grand = sum(self_w.values()) or 1.0
        unit = "samples" if self.mode == "wall" else "KiB"
        ranked = sorted(
            total_w, key=lambda name: (-self_w.get(name, 0), -total_w[name], name)
        )[:top]
        name_w = max(len(name) for name in ranked)
        name_w = max(name_w, len("function"))
        lines = [
            f"{'function':<{name_w}} {'self%':>7} {'self':>10} {'total%':>7}"
            f" {'total':>10}",
        ]
        for name in ranked:
            own = self_w.get(name, 0)
            total = total_w[name]
            lines.append(
                f"{name:<{name_w}} {100.0 * own / grand:>6.1f}% {own:>10.0f}"
                f" {100.0 * total / grand:>6.1f}% {total:>10.0f}"
            )
        header = (
            f"{self.sample_count} {unit} over {self.duration_s:.2f}s"
            + (f" at {self.interval_s * 1e3:.1f} ms/sample"
               if self.mode == "wall" else
               (f", peak {self.peak_kib:.0f} KiB traced"
                if self.peak_kib is not None else ""))
        )
        return header + "\n" + "\n".join(lines)
