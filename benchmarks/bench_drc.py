"""T-DRC — perf: sweep-indexed DRC checker vs the all-pairs reference.

After connectivity extraction was indexed, the DRC checker became the
dominant hotspot of the amplifier build (``check_spacing`` /
``_Components`` ≈ 60% of sampled time).  :class:`repro.drc.index.DrcIndex`
replaces the quadratic component loop with sweep-fed union-find and the
all-pairs spacing scan with rule-radius dilated candidate sweeps, behind
``run_drc(obj, use_index=True)``.

This bench races brute vs indexed full DRC over

* the full BiCMOS amplifier layout (the paper's flagship module),
* a compactor-packed contact row (the stretched tier-1 workload), and
* seeded random rect soups at two sizes (the unstructured worst case);

asserts the violation lists are identical and that the index performs at
least 10x fewer pair tests on the amplifier, and writes
``benchmarks/results/BENCH_drc.json``.  CI runs the smoke variant
(``BENCH_SMOKE=1``: single repeat; the workloads stay identical so the
deterministic ``drc.pairs_scanned`` counters diff exactly against the
committed JSON) and fails the build when they regress.
"""

import json
import os
import random
import time
from pathlib import Path

from repro.amplifier import build_amplifier
from repro.compact import Compactor
from repro.db import LayoutObject
from repro.drc import run_drc
from repro.geometry import Direction, Rect
from repro.library import contact_row
from repro.obs import StatsSink, Tracer, activate

RESULTS_DIR = Path(__file__).parent / "results"
SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))

#: Workload sizes.  Identical in smoke mode — the counters must diff
#: exactly against the committed baseline; only the repeat count shrinks.
ROW_CELLS = 96
SOUP_SIZES = (250, 700)
SOUP_SEED = 96
REPEATS = 1 if SMOKE else 3

COUNTERS = (
    ("pairs_scanned", "drc.pairs_scanned"),
    ("candidates", "drc.candidates"),
    ("index_builds", "drc.index_builds"),
    ("violations", "drc.violations.total"),
)


def _traced(fn, repeats=REPEATS):
    """Run *fn* under fresh tracers; returns (result, timing+counter entry).

    Wall time is the minimum over *repeats* runs; the counters are
    deterministic, so any run's values serve.
    """
    entry = None
    for _ in range(repeats):
        tracer = Tracer(enabled=True)
        stats = StatsSink()
        tracer.add_sink(stats)
        with activate(tracer):
            start = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - start
        if entry is None or wall < entry["wall_s"]:
            entry = {"wall_s": wall}
            for name, counter in COUNTERS:
                entry[name] = stats.counter(counter)
    return result, entry


def _signature(violations):
    return [
        (
            v.kind,
            v.message,
            v.where,
            tuple((r.x1, r.y1, r.x2, r.y2, r.layer, r.net) for r in v.rects),
        )
        for v in violations
    ]


def _packed_row(tech, count):
    """A successively packed contact row — the tier-1 compactor workload."""
    compactor = Compactor()
    main = LayoutObject("row", tech)
    for index in range(count):
        obj = contact_row(
            tech, "pdiff", w=8.0, net=f"n{index % 6}", name=f"r{index}"
        )
        obj.translate(index * 20000, 0)
        compactor.compact(
            main, obj, Direction.WEST if index % 2 else Direction.SOUTH
        )
    return main


def _random_soup(tech, size):
    """Seeded unstructured rect soup over the full layer table."""
    rng = random.Random(SOUP_SEED + size)
    layers = [layer.name for layer in tech.layers]
    obj = LayoutObject(f"soup{size}", tech)
    for _ in range(size):
        x = rng.randrange(-60_000, 60_000)
        y = rng.randrange(-60_000, 60_000)
        w = rng.randrange(200, 6_000)
        h = rng.randrange(200, 6_000)
        obj.add_rect(
            Rect(
                x, y, x + w, y + h,
                rng.choice(layers),
                rng.choice(["a", "b", "c", None]),
            )
        )
    return obj


def _race(label, obj, lines, report):
    # The amplifier builder's rect order varies run-to-run (hash-order
    # wiring); geometry and violations are stable, but early-break scan
    # counts are order-sensitive.  Normalise so the counters diff exactly
    # against the committed baseline on any machine.
    obj.rects.sort(key=lambda r: (r.layer, r.x1, r.y1, r.x2, r.y2, r.net or ""))
    obj.invalidate_index()
    brute, brute_entry = _traced(
        lambda: run_drc(obj, include_latchup=False, use_index=False)
    )
    indexed, on_entry = _traced(
        lambda: run_drc(obj, include_latchup=False, use_index=True)
    )
    assert _signature(indexed) == _signature(brute)  # identical violations
    entry = {
        "rects": len(obj.nonempty_rects),
        "violations": len(brute),
        "brute": brute_entry,
        "indexed": on_entry,
        "pairs_ratio": brute_entry["pairs_scanned"]
        / max(1, on_entry["pairs_scanned"]),
        "speedup": brute_entry["wall_s"] / max(1e-9, on_entry["wall_s"]),
    }
    report[label] = entry
    lines.append(
        f"  {label}: {entry['rects']} rects, {entry['violations']} violations —"
        f" pairs {brute_entry['pairs_scanned']} -> {on_entry['pairs_scanned']}"
        f" ({entry['pairs_ratio']:.1f}x fewer),"
        f" drc {brute_entry['wall_s'] * 1e3:7.1f} ->"
        f" {on_entry['wall_s'] * 1e3:7.1f} ms ({entry['speedup']:.1f}x)"
    )
    return entry


def test_drc_index_speedup(tech, record, benchmark, ledger_append):
    report = {"smoke": SMOKE, "row_cells": ROW_CELLS, "soup_sizes": list(SOUP_SIZES)}
    lines = ["T-DRC — full design-rule check, brute vs indexed:"]

    # ----------------------------------------------------------- amplifier
    amp = build_amplifier(tech)
    amp_entry = _race("amplifier", amp, lines, report)
    # Acceptance: >= 10x fewer pair tests on the real module; one shared
    # index build serves all checks.
    assert amp_entry["pairs_ratio"] >= 10.0, amp_entry
    assert amp_entry["indexed"]["index_builds"] == 1, amp_entry

    # -------------------------------------------------------- stretched row
    # The packed row is the adversarial shape for a sweep: every cell abuts
    # its neighbours, so far more rects sit within rule radius than in the
    # amplifier — gate a deterministic floor on the ratio.
    row = _packed_row(tech, ROW_CELLS)
    row_entry = _race("packed_row", row, lines, report)
    assert row_entry["pairs_ratio"] >= 5.0, row_entry

    # --------------------------------------------------------- random soups
    for size in SOUP_SIZES:
        _race(f"soup{size}", _random_soup(tech, size), lines, report)

    benchmark(lambda: run_drc(amp, include_latchup=False, use_index=True))

    lines += [
        "shape vs paper: identical violation lists either way — the index",
        "only changes how fast rules are checked, never what they flag.",
    ]

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_drc.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    record("t_drc", lines)
    ledger_append("BENCH_drc", report)
