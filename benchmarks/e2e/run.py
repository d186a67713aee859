"""End-to-end benchmark of the module generator: four workloads, one command.

One workload (the last stdout line is the JSON result)::

    python3 benchmarks/e2e/run.py --workload amplifier --seed 0 --seconds 20 --trace 0

All four workloads, one after another, each in fresh processes::

    python3 benchmarks/e2e/run.py --seed 0 --out results.json
    python3 benchmarks/e2e/run.py --seed 0 --trace 1 --trace-dir traces/

Compare result files, alternating parent and change (A B A B ...)::

    python3 benchmarks/e2e/run.py --compare A.json B.json [A2.json B2.json ...]

Every metric is printed as ``workload metric value unit``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the
per-layer ones.  See README.md for the workloads, the metrics and the
comparison rule.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Fresh processes whose set-up times give the ``setup_s`` median.
SETUPS = 3
#: Comparing needs this many alternating pairs before a gain is claimed.
MIN_PAIRS = 10
#: ``failed_frac`` is judged exactly; it is not in BENCHMARK.json because
#: a metric there must never read 0.
FAILED_FRAC = {"name": "failed_frac", "unit": "fraction", "better": "lower", "bound": 0.0}


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


def workload_names() -> List[str]:
    return [workload["name"] for workload in load_benchmark()["workloads"]]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------
def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool, setup_only: bool = False,
                 trace_out: Optional[Path] = None) -> Dict[str, Any]:
    """Run ``worker.py`` in a fresh process; returns its JSON report."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    command += ["--spawned-at", repr(time.monotonic())]
    budget = 120 if smoke or setup_only else seconds + 120
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=budget)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} worker exited with {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> int:
    """The highest percentile with at least ten samples beyond it, but
    never below the median (with under 20 samples no higher one has)."""
    return max(50, math.floor(100 * (1 - 10 / n))) if n else 50


def nearest_rank(sorted_values: Sequence[float], percentile: int) -> float:
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def _finite(values: Sequence[float]) -> List[float]:
    return sorted(v for v in values if not math.isnan(v))


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(setups: List[float], main: Dict[str, Any]) -> Tuple[Dict, Dict]:
    """End-to-end metrics (and facts about them) from the raw reports."""
    latencies = _finite(main["latencies"])
    traced = _finite(main["traced_latencies"])
    percentile = tail_percentile(len(latencies))
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(len(latencies) / sum(latencies), "ops/s"),
        "op_p50_s": _metric(statistics.median(latencies), "s"),
        "op_tail_s": _metric(nearest_rank(latencies, percentile), "s"),
        "peak_rss_mb": _metric(main["peak_rss_kb"] / 1024, "MB"),
        "layout_area_um2": _metric(main["area_um2"], "um2"),
        "traced_op_p50_s": _metric(statistics.median(traced), "s"),
    }
    info = {"n": len(latencies), "tail_percentile": percentile,
            "traced_n": len(traced), "setups_s": setups}
    return metrics, info


def per_layer(main: Dict[str, Any]) -> Tuple[Dict, Dict]:
    """Per-layer metrics (and trace facts) from a traced worker's report."""
    metrics = {name: _metric(value, unit) for name, (value, unit) in main["layers"].items()}
    untraced = statistics.median(_finite(main["latencies"]))
    traced = statistics.median(_finite(main["traced_latencies"]))
    metrics["trace_overhead_pct"] = _metric(100 * (traced / untraced - 1), "%")
    metrics["io.gds_bytes"] = _metric(main["gds_bytes"], "bytes/op")
    info = {key: main[key] for key in (
        "self_time_sum_error", "unattributed_share", "chrome_events",
        "chrome_problems", "top_spans")}
    info["traced_n"] = len(main["traced_latencies"])
    return metrics, info


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool = False, trace_out: Optional[Path] = None) -> Dict[str, Any]:
    """One workload: set-up probes, then the measured worker.  A smoke run
    sets up once."""
    if trace:
        main = spawn_worker(workload, seed, seconds, 1, smoke, trace_out=trace_out)
        metrics, info = per_layer(main)
        correct = (
            main["failed"] == 0
            and main["open_spans"] == 0
            and not main["chrome_problems"]
            and main["chrome_unbalanced"] == 0
            and info["self_time_sum_error"] < 0.02
        )
    else:
        probes = [spawn_worker(workload, seed, seconds, 0, smoke, setup_only=True)
                  for _ in range(0 if smoke else SETUPS - 1)]
        main = spawn_worker(workload, seed, seconds, 0, smoke)
        metrics, info = end_to_end([p["setup_s"] for p in probes] + [main["setup_s"]], main)
        correct = main["failed"] == 0
    info["failures"] = main["failures"]
    info["peak_rss_kb"] = main["peak_rss_kb"]
    info["layout_area_um2"] = main["area_um2"]
    return {
        "correct": correct,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
        "info": info,
    }


def print_metrics(workload: str, result: Dict[str, Any]) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    info = result["info"]
    if "tail_percentile" in info:
        print(f"{workload} # op_tail_s is p{info['tail_percentile']} of"
              f" n={info['n']} untraced ops; traced_op_p50_s of n={info['traced_n']}")
    print(f"{workload} # attempted={result['attempted']} failed={result['failed']}"
          f" correct={result['correct']}")
    for failure in info["failures"]:
        print(f"{workload} # failure: {failure}")


# ---------------------------------------------------------------------------
# the run ledger
# ---------------------------------------------------------------------------
def ledger_append(workload: str, result: Dict[str, Any], argv: List[str],
                  wall_s: float) -> None:
    """Record one workload's results as ``bench:e2e.<workload>``."""
    from repro.obs.ledger import (
        Ledger, RunRecord, current_git_sha, ledger_enabled, resolve_ledger_dir,
    )

    if not ledger_enabled():
        return
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["failed_frac"] = result["failed"] / result["attempted"]
    record = RunRecord(
        f"bench:e2e.{workload}", kind="bench", argv=argv,
        git_sha=current_git_sha(ROOT), status=0 if result["correct"] else 1,
        wall_s=wall_s, peak_rss_kb=result["info"]["peak_rss_kb"], metrics=metrics,
    )
    with Ledger(resolve_ledger_dir()) as ledger:
        ledger.try_append(record)


# ---------------------------------------------------------------------------
# comparing
# ---------------------------------------------------------------------------
def _iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """improved / unchanged / worse / unresolved, and the relative change
    (positive = worse) of the change's median against the parent's."""
    sign = 1.0 if better == "lower" else -1.0
    base, new = statistics.median(parent), statistics.median(change)
    if base:
        worse_by = sign * (new - base) / abs(base) + 0.0  # no "-0.00%"
    else:
        worse_by = 0.0 if new == base else math.copysign(math.inf, sign * (new - base))
    spread = _iqr(parent) / abs(base) if base else 0.0
    every_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if spread > bound and not every_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = min(len(parent), len(change))
    if pairs >= MIN_PAIRS:
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
        if wins >= 0.9 * pairs and abs(new - base) > _iqr(parent):
            return "improved", worse_by
        return "unchanged", worse_by
    if worse_by < -bound:
        return "improved", worse_by
    return "unchanged", worse_by


def _value(result: Dict[str, Any], name: str) -> Optional[float]:
    if name == "failed_frac":
        return result["failed"] / result["attempted"]
    metric = result["metrics"].get(name)
    return None if metric is None else metric["value"]


def compare(paths: Sequence[str]) -> int:
    """Print one verdict row per (workload, end-to-end metric); exit status
    1 on any "worse" row."""
    if len(paths) < 2 or len(paths) % 2:
        print("--compare needs an even number of files: A B [A B ...]", file=sys.stderr)
        return 2
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as stream:
            runs.append(json.load(stream)["workloads"])
    parents, changes = runs[0::2], runs[1::2]
    specs = load_benchmark()["end_to_end"] + [FAILED_FRAC]
    worst = 0
    print(f"{'workload':<13} {'metric':<16} {'parent':>12} {'change':>12}"
          f" {'worse by':>9} {'bound':>6}  verdict  ({len(parents)} pairs)")
    for workload in workload_names():
        for spec in specs:
            a = [_value(run[workload], spec["name"]) for run in parents if workload in run]
            b = [_value(run[workload], spec["name"]) for run in changes if workload in run]
            a = [v for v in a if v is not None]
            b = [v for v in b if v is not None]
            if not a or not b:
                continue
            outcome, worse_by = verdict(a, b, spec["better"], spec["bound"])
            if outcome == "worse":
                worst = 1
            print(f"{workload:<13} {spec['name']:<16} {statistics.median(a):>12.6g}"
                  f" {statistics.median(b):>12.6g} {100 * worse_by:>8.2f}%"
                  f" {100 * spec['bound']:>5.0f}%  {outcome}")
    return worst


# ---------------------------------------------------------------------------
# layer table
# ---------------------------------------------------------------------------
def layer_table(run: Dict[str, Any], results: Dict[str, Dict[str, Any]]) -> str:
    """Per-layer metrics, one column per workload, plus the trace summary."""
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(n) for n in names)
    lines = [
        f"seed {run['seed']}, {run['seconds']:g} s per workload, nproc {run['nproc']},"
        f" Python {run['python']}",
        "",
        f"{'metric (per op)':<{width}} {'unit':<8}" + "".join(f" {w:>13}" for w in results),
    ]
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        lines.append(f"{name:<{width}} {unit:<8}" + "".join(
            f" {r['metrics'][name]['value']:>13.6g}" for r in results.values()))
    lines.append("")
    for workload, result in results.items():
        info = result["info"]
        lines.append(
            f"{workload}: {info['traced_n']} traced ops; self times + unattributed"
            f" differ from op time by {100 * info['self_time_sum_error']:.4f}%;"
            f" unattributed {100 * info['unattributed_share']:.2f}% of op time"
        )
        lines.append(
            f"  Chrome trace: {info['chrome_events']} events,"
            f" validate_chrome_trace problems: {len(info['chrome_problems'])};"
            " top spans by total time (name, calls, s):"
        )
        for name, calls, total in info["top_spans"][:8]:
            lines.append(f"    {name:<28} {calls:>8} {total:>10.4f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the module generator.")
    parser.add_argument("--workload", choices=workload_names(),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each measured loop (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="with --trace 1: write Chrome traces and layers.txt here")
    parser.add_argument("--smoke", action="store_true",
                        help="fixed op counts (1/20 of a full run), one set-up")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the results of every workload run as JSON")
    parser.add_argument("--compare", nargs="+", metavar="FILE",
                        help="compare result files, alternating parent and change")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(args.compare)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    names = [args.workload] if args.workload else workload_names()
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)

    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        trace_out = (args.trace_dir / f"{name}.trace.json"
                     if args.trace and args.trace_dir is not None else None)
        start = time.perf_counter()
        result = run_workload(name, args.seed, seconds, args.trace, args.smoke,
                              trace_out=trace_out)
        results[name] = result
        print_metrics(name, result)
        sys.stdout.flush()
        if not args.workload and not args.trace and not args.smoke:
            ledger_append(name, result, sys.argv[1:], time.perf_counter() - start)

    run = {"seed": args.seed, "seconds": seconds, "trace": args.trace,
           "smoke": args.smoke, "nproc": os.cpu_count(),
           "python": platform.python_version()}
    if args.trace and args.trace_dir is not None:
        (args.trace_dir / "layers.txt").write_text(layer_table(run, results),
                                                   encoding="utf-8")
    if args.out is not None:
        args.out.write_text(json.dumps(dict(run, workloads=results), indent=1) + "\n",
                            encoding="utf-8")
    if args.workload:
        # The result line reports correctness itself; exit 0 once printed.
        result = results[args.workload]
        print(json.dumps({
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"],
        }))
        return 0
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
