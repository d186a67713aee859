"""One workload in one fresh process: set up, run the closed loop, report.

Started by ``run.py``; prints one JSON object of raw measurements as its
last line.  Set-up time runs from ``--spawned-at`` (the parent's
``time.monotonic()`` just before the spawn, a clock shared by every
process) to the end of the untimed warm-up op, so it covers interpreter
start, imports, technology load, PLDL parse and translate, and input
construction.

With ``--trace 0`` every fourth op runs under the program's tracer (a
:class:`~repro.obs.StatsSink` and an in-memory
:class:`~repro.obs.ChromeTraceSink`, as ``repro --trace`` installs); the
other ops run untraced.  With ``--trace 1`` each input runs twice, once
untraced and once under the tracer with the benchmark's ``bench.*`` layer
spans installed, alternating which goes first.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import obs  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

#: In untraced runs, one op in this many runs with the program's tracer on.
TRACED_EVERY = 4
#: A kept Chrome trace stops growing past this many events.
TRACE_EVENT_CAP = 50_000


class Loop:
    """The closed loop's tallies."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Layout area of every op that passed its check, in op order.
        self.areas: List[float] = []
        self.gds_bytes = 0

    def run(self, inp: Any, tracer: Optional[obs.Tracer] = None,
            wrap: Optional[layers.Instrumentation] = None) -> float:
        """One op, timed; its check runs after the clock stops."""
        self.attempted += 1
        try:
            if tracer is None:
                start = time.perf_counter()
                out = self.workload.op(inp)
                elapsed = time.perf_counter() - start
            else:
                with obs.activate(tracer), wrap or contextlib.nullcontext():
                    start = time.perf_counter()
                    with tracer.span(layers.OP_SPAN):
                        out = self.workload.op(inp)
                    elapsed = time.perf_counter() - start
            area = self.workload.check(inp, out)
        except Exception as exc:  # a failed op is counted, not fatal
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{type(exc).__name__}: {exc}")
            return float("nan")
        self.areas.append(area)
        self.gds_bytes += len(out.gds)
        return elapsed


def _program_tracer() -> obs.Tracer:
    """The tracer ``repro --trace`` installs: stats plus a Chrome trace."""
    tracer = obs.Tracer(enabled=True)
    tracer.add_sink(obs.StatsSink())
    tracer.add_sink(obs.ChromeTraceSink())
    return tracer


def _more(count: int, ops: Optional[int], deadline: float) -> bool:
    if ops is not None:
        return count < ops
    return time.perf_counter() < deadline


def untraced_loop(loop: Loop, seconds: float, ops: Optional[int]) -> Dict[str, Any]:
    latencies: List[float] = []
    traced: List[float] = []
    deadline = time.perf_counter() + seconds
    count = 0
    while _more(count, ops, deadline):
        inp = loop.workload.next_input()
        if count % TRACED_EVERY == TRACED_EVERY - 1:
            traced.append(loop.run(inp, _program_tracer()))
        else:
            latencies.append(loop.run(inp))
        count += 1
    return {"latencies": latencies, "traced_latencies": traced}


def traced_loop(loop: Loop, seconds: float, ops: Optional[int],
                trace_out: Optional[str]) -> Dict[str, Any]:
    wrap = layers.Instrumentation(
        modules=[workloads], translated=loop.workload.translated_entities()
    )
    tracer = obs.Tracer(enabled=True)
    stats = tracer.add_sink(obs.StatsSink())
    layer_sink = tracer.add_sink(layers.LayerSink())
    kept = obs.ChromeTraceSink(trace_out)
    latencies: List[float] = []
    traced: List[float] = []
    deadline = time.perf_counter() + seconds
    count = 0
    while _more(count, ops, deadline):
        inp = loop.workload.next_input()
        # A fresh in-memory Chrome trace per op, as `repro --trace` pays
        # for one; the first ops' events are kept and written.
        chrome = kept if len(kept.events) < TRACE_EVENT_CAP else obs.ChromeTraceSink()
        tracer.sinks.append(chrome)
        for traced_first in ((False, True) if count % 2 else (True, False)):
            if traced_first:
                traced.append(loop.run(inp, tracer, wrap))
            else:
                latencies.append(loop.run(inp))
        tracer.sinks.remove(chrome)
        count += 1
    tracer.close()
    kept.close()
    metrics = layers.layer_metrics(layer_sink, stats, max(1, len(traced)))
    op_s = metrics["trace.op_s"][0]
    attributed = sum(metrics[name][0] for name in layers.SELF_TIMES)
    return {
        "latencies": latencies,
        "traced_latencies": traced,
        "layers": metrics,
        "self_time_sum_error": abs(attributed - op_s) / op_s if op_s else 1.0,
        "unattributed_share": metrics["unattributed_s"][0] / op_s if op_s else 1.0,
        "open_spans": len(layer_sink._open),
        "chrome_events": len(kept.events),
        "chrome_problems": obs.validate_chrome_trace(kept.to_json())[:5],
        "chrome_unbalanced": kept.unbalanced_spans,
        "top_spans": sorted(
            ((name, s.calls, s.total_ns / 1e9) for name, s in stats.spans.items()),
            key=lambda item: -item[2],
        )[:12],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run 1/20 of the nominal ops (at least 4), untimed")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    loop = Loop(workload)
    loop.run(workload.next_input())  # the untimed warm-up op, checked
    setup_s = time.monotonic() - args.spawned_at
    report: Dict[str, Any] = {"setup_s": setup_s}
    if not args.setup_only:
        ops = max(4, workload.nominal_ops // 20) if args.smoke else None
        gc.collect()
        if args.trace:
            report.update(traced_loop(loop, args.seconds, ops, args.trace_out))
        else:
            report.update(untraced_loop(loop, args.seconds, ops))
        areas = loop.areas[:workload.area_ops]
        report.update(
            attempted=loop.attempted,
            failed=loop.failed,
            failures=loop.failures,
            area_um2=sum(areas) / len(areas) if areas else 0.0,
            gds_bytes=loop.gds_bytes / len(loop.areas) if loop.areas else 0.0,
        )
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
