"""``repro perf``: history, comparison and regression checks over the ledger.

Four verbs over the :mod:`repro.obs.ledger` store:

* ``repro perf log`` — list recorded runs (newest first);
* ``repro perf show <run>`` — one run's full metric snapshot;
* ``repro perf diff <a> <b>`` — compare two runs metric by metric;
* ``repro perf check --baseline <dir>`` — exit non-zero when a tracked
  metric of a command's newest run regresses against the committed
  ``BENCH_*.json`` reports in *dir*.

A run reference is a ledger row id (``17``), ``last`` (newest run),
``last~2`` (two back) or ``last:bench:BENCH_compact`` (newest run of one
command).  Each ``BENCH_<x>.json`` in the baseline directory is the
baseline of ledger command ``bench:BENCH_<x>``, its flattened numeric
leaves the baseline metrics.

The rule: for each command, the newest run regresses on a tracked metric
when ``fresh - baseline > floor``.  The default patterns are the
deterministic counters CI gates, which are exact on any machine, so the
default ``floor`` of 0 fails on any increase.  Timings are not judged
here: a timing A/B needs alternating runs of both sides, which is what
``benchmarks/e2e/run.py --compare`` does.
"""

from __future__ import annotations

import fnmatch
import json
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from .ledger import Ledger, RunRecord, flatten_metrics

__all__ = [
    "DEFAULT_TRACKED",
    "load_baseline_dir",
    "resolve_run",
    "perf_log",
    "perf_show",
    "perf_diff",
    "perf_check",
]

#: Metric patterns checked by default: the deterministic pair-scan,
#: link-rebuild and order-search compaction counters.
DEFAULT_TRACKED = ("*pairs_scanned", "*rebuild_calls", "*tree_compacts")


def _matches(metric: str, patterns: Sequence[str]) -> bool:
    return any(fnmatch.fnmatchcase(metric, pattern) for pattern in patterns)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


# ---------------------------------------------------------------------------
def load_baseline_dir(path: Path) -> Dict[str, Dict[str, float]]:
    """Committed ``BENCH_*.json`` reports as ``{command: {metric: value}}``.

    Each ``BENCH_<x>.json`` becomes the baseline for ledger command
    ``bench:BENCH_<x>`` — the name the benchmark producers append under.
    """
    baseline: Dict[str, Dict[str, float]] = {}
    for report in sorted(path.glob("BENCH_*.json")):
        try:
            payload = json.loads(report.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        metrics = flatten_metrics(payload)
        if metrics:
            baseline[f"bench:{report.stem}"] = metrics
    return baseline


def resolve_run(ledger: Ledger, ref: str) -> RunRecord:
    """A run reference (id, ``last``, ``last~N``, ``last:<command>[~N]``)."""
    if ref.isdigit():
        record = ledger.get(int(ref))
        if record is None:
            raise SystemExit(f"error: no ledger run #{ref}")
        return record
    if ref == "last" or ref.startswith(("last~", "last:")):
        command: Optional[str] = None
        offset = 0
        spec = ref[4:]
        if spec.startswith(":"):
            spec = spec[1:]
            if "~" in spec:
                command, _, tail = spec.rpartition("~")
                offset = int(tail)
            else:
                command = spec
        elif spec.startswith("~"):
            offset = int(spec[1:])
        record = ledger.last(command=command, offset=offset)
        if record is None:
            raise SystemExit(f"error: no ledger run matching {ref!r}")
        return record
    raise SystemExit(
        f"error: unknown run reference {ref!r} (expected a run id, 'last',"
        " 'last~N' or 'last:<command>')"
    )


def _describe(record: RunRecord) -> str:
    return f"run #{record.rowid} {record.command} ({record.ts})"


# ---------------------------------------------------------------------------
def perf_log(
    ledger: Ledger,
    limit: int = 20,
    command: Optional[str] = None,
    kind: Optional[str] = None,
) -> str:
    records = ledger.runs(command=command, kind=kind, limit=limit)
    if not records:
        return f"(ledger at {ledger.root} has no matching runs)"
    lines = [
        f"{'id':>5} {'when':<20} {'kind':<6} {'command':<26} {'tech':<18}"
        f" {'sha':<12} {'wall s':>9} {'rss MiB':>8}"
    ]
    for record in records:
        rss = (f"{record.peak_rss_kb / 1024:.0f}"
               if record.peak_rss_kb is not None else "—")
        wall = f"{record.wall_s:.3f}" if record.wall_s is not None else "—"
        lines.append(
            f"{record.rowid:>5} {record.ts:<20} {record.kind:<6}"
            f" {record.command:<26} {record.tech or '—':<18}"
            f" {record.git_sha or '—':<12} {wall:>9} {rss:>8}"
        )
    return "\n".join(lines)


def perf_show(ledger: Ledger, ref: str) -> str:
    record = resolve_run(ledger, ref)
    lines = [
        f"run #{record.rowid}  {record.command}  ({record.kind})",
        f"  when     {record.ts}",
        f"  argv     {' '.join(record.argv) or '—'}",
        f"  tech     {record.tech or '—'}",
        f"  git      {record.git_sha or '—'}",
        f"  status   {record.status}",
    ]
    metrics = record.all_metrics()
    if metrics:
        name_w = max(len(name) for name in metrics)
        lines.append("  metrics:")
        for name in sorted(metrics):
            lines.append(f"    {name:<{name_w}} {_fmt(metrics[name]):>14}")
    return "\n".join(lines)


def perf_diff(
    ledger: Ledger,
    ref_a: str,
    ref_b: str,
    patterns: Sequence[str] = ("*",),
) -> str:
    record_a = resolve_run(ledger, ref_a)
    record_b = resolve_run(ledger, ref_b)
    metrics_a, metrics_b = record_a.all_metrics(), record_b.all_metrics()
    shared = sorted(
        name for name in metrics_a
        if name in metrics_b and _matches(name, patterns)
    )
    lines = [f"A: {_describe(record_a)}", f"B: {_describe(record_b)}"]
    if not shared:
        lines.append("(no shared metrics)")
        return "\n".join(lines)
    name_w = max(max(len(name) for name in shared), len("metric"))
    lines.append(
        f"{'metric':<{name_w}} {'A':>14} {'B':>14} {'delta':>14} {'%':>8}"
    )
    for name in shared:
        a, b = metrics_a[name], metrics_b[name]
        delta = b - a
        pct = f"{100.0 * delta / a:+.1f}%" if a else "—"
        lines.append(
            f"{name:<{name_w}} {_fmt(a):>14} {_fmt(b):>14}"
            f" {_fmt(delta):>14} {pct:>8}"
        )
    only_a = sum(1 for name in metrics_a if name not in metrics_b)
    only_b = sum(1 for name in metrics_b if name not in metrics_a)
    if only_a or only_b:
        lines.append(f"({only_a} metrics only in A, {only_b} only in B)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
def perf_check(
    ledger: Ledger,
    baseline_dir: str,
    commands: Optional[Sequence[str]] = None,
    floor: float = 0.0,
    patterns: Optional[Sequence[str]] = None,
) -> Tuple[int, str]:
    """Compare each command's newest run with the committed reports.

    Returns ``(status, report)``: 0 = clean, 1 = at least one regression,
    2 = a misconfigured check — nothing compared, or an explicit pattern
    that matched no compared metric (a misspelled gate must not pass
    silently).  *patterns* ``None`` means :data:`DEFAULT_TRACKED`.
    """
    path = Path(baseline_dir)
    baseline = load_baseline_dir(path) if path.is_dir() else {}
    if not baseline:
        return 2, f"error: baseline {baseline_dir!r} is empty or unknown"
    if commands:
        baseline = {cmd: baseline[cmd] for cmd in commands if cmd in baseline}
        if not baseline:
            return 2, f"error: none of {list(commands)} appear in {path}"

    tracked_patterns = DEFAULT_TRACKED if patterns is None else tuple(patterns)
    lines = [f"perf check: newest run per command against {path}"
             f" (floor={floor:g})"]
    regressions = checked = 0
    compared: set = set()
    newest = ledger.newest(list(baseline))
    for command in sorted(baseline):
        record = newest.get(command)
        if record is None:
            lines.append(f"  {command}: no runs in the ledger — skipped")
            continue
        fresh_metrics = record.all_metrics()
        tracked = sorted(
            metric for metric in baseline[command]
            if metric in fresh_metrics and _matches(metric, tracked_patterns)
        )
        if not tracked:
            lines.append(f"  {command}: no tracked metrics in common")
            continue
        lines.append(f"  {command} (run #{record.rowid}):")
        compared.update(tracked)
        checked += len(tracked)
        for metric in tracked:
            base, fresh = baseline[command][metric], fresh_metrics[metric]
            delta = fresh - base
            pct = f"{100.0 * delta / base:+.1f}%" if base else f"{delta:+g}"
            if delta > floor:
                regressions += 1
                verdict = "REGRESSED"
            elif delta < -floor:
                verdict = "improved"
            else:
                verdict = "ok"
            lines.append(
                f"    {metric:<42} {_fmt(base):>14} ->"
                f" {_fmt(fresh):>14}  {pct:>8}  [{verdict}]"
            )
    if not compared:
        lines.append("error: nothing was compared — ledger runs or metric"
                     " patterns do not match the baseline")
        return 2, "\n".join(lines)
    lines.append(f"{checked} metric(s) checked, {regressions} regression(s)")
    unmatched = [
        pattern for pattern in tracked_patterns
        if not any(fnmatch.fnmatchcase(metric, pattern) for metric in compared)
    ]
    if patterns is not None and unmatched:
        lines.append(
            "error: --metric pattern(s) matched no compared metric: "
            + ", ".join(unmatched)
        )
        return 2, "\n".join(lines)
    return (1 if regressions else 0), "\n".join(lines)
