"""T-INDEX — perf: the incremental frontier index on the compactor hot path.

The successive compactor's per-step scans (frontier pruning, constraint
candidate gathering, auto-connect resident lookup, bridge blocking) used to
be rebuilt from ``main.rects`` on every step and every shrink round.  The
compactor now reads them from each layout object's rect store
(:mod:`repro.db.store`), which is updated incrementally as rects merge,
stretch and shrink.  This bench races the from-scratch
:class:`repro.verify.reference.ScanCompactor` ("unindexed") against
``Compactor`` ("indexed") over

* the full BiCMOS amplifier build (the paper's flagship module), and
* a successive row packing stretched 10x past its tier-1 size, where the
  per-step rescans' quadratic growth dominates;

asserts the outputs are identical, and writes
``benchmarks/results/BENCH_compact.json``.  CI runs the smoke variant
(``BENCH_SMOKE=1``: base row size only) and fails the build when the
indexed ``compact.pairs_scanned`` counters regress against the committed
JSON — the counters are deterministic, so any increase is a real loss of
pruning, not noise.
"""

import json
import os
import time
from pathlib import Path

from repro.amplifier import build_amplifier
from repro.compact import Compactor
from repro.db import LayoutObject
from repro.geometry import Direction
from repro.library import contact_row
from repro.obs import StatsSink, Tracer, activate
from repro.verify.reference import ScanCompactor

RESULTS_DIR = Path(__file__).parent / "results"
SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))

#: Row-packing sizes: the tier-1 base and its 10x stretch (full mode only).
BASE_ROW = 12
STRETCH = 10
ROW_SIZES = (
    (BASE_ROW, BASE_ROW * 2)
    if SMOKE
    else (BASE_ROW, BASE_ROW * 2, BASE_ROW * 5, BASE_ROW * STRETCH)
)

COUNTERS = (
    ("pairs_scanned", "compact.pairs_scanned"),
    ("frontier_dropped", "compact.frontier_dropped"),
    ("window_dropped", "compact.index_window_dropped"),
    ("sweeps", "compact.index_sweeps"),
    ("sweep_hits", "compact.index_sweep_hits"),
    ("rebuilds", "db.store_builds"),
)


def _traced(fn, repeats=3):
    """Run *fn* under fresh tracers; returns (result, timing+counter entry).

    Wall and compact times are the minimum over *repeats* runs (single-shot
    millisecond timings are at the mercy of GC pauses and scheduler noise);
    the counters are deterministic, so any run's values serve.
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
            entry = {"wall_s": wall, "compact_s": stats.total_s("compact.step")}
            for name, counter in COUNTERS:
                entry[name] = stats.counter(counter)
    return result, entry


def _signature(obj):
    return [
        (r.x1, r.y1, r.x2, r.y2, r.layer, r.net, r.no_overlap)
        for r in obj.rects
    ]


def _row_objects(tech, count):
    objects = []
    for index in range(count):
        obj = contact_row(
            tech, "pdiff", w=8.0, net=f"n{index % 6}", name=f"r{index}"
        )
        obj.translate(index * 20000, 0)
        objects.append(obj)
    return objects


def _pack_row(tech, objects, compactor):
    main = LayoutObject("row", tech)
    for index, obj in enumerate(objects):
        compactor.compact(
            main, obj, Direction.WEST if index % 2 else Direction.SOUTH
        )
    return main


def test_frontier_index_speedup(tech, record, benchmark, ledger_append):
    report = {"smoke": SMOKE, "stretch_factor": STRETCH}
    lines = ["T-INDEX — incremental frontier index, off vs on:"]

    # ---------------------------------------------------------------- rows
    sizes = {}
    for count in ROW_SIZES:
        objects = _row_objects(tech, count)
        off, off_entry = _traced(
            lambda: _pack_row(tech, [o.copy() for o in objects], ScanCompactor())
        )
        on, on_entry = _traced(
            lambda: _pack_row(tech, [o.copy() for o in objects], Compactor())
        )
        assert _signature(off) == _signature(on)  # byte-identical packing
        entry = {
            "unindexed": off_entry,
            "indexed": on_entry,
            "speedup": off_entry["compact_s"] / on_entry["compact_s"],
            "pairs_ratio": off_entry["pairs_scanned"]
            / max(1, on_entry["pairs_scanned"]),
        }
        sizes[str(count)] = entry
        lines.append(
            f"  row n={count}: compact {off_entry['compact_s'] * 1e3:8.1f} ->"
            f" {on_entry['compact_s'] * 1e3:8.1f} ms"
            f" ({entry['speedup']:.2f}x), pairs"
            f" {off_entry['pairs_scanned']} -> {on_entry['pairs_scanned']}"
            f" ({entry['pairs_ratio']:.1f}x fewer)"
        )
        # The pruning win is deterministic in both modes: the index must
        # scan several times fewer candidate pairs than the naive rescan,
        # and at least 5x fewer once the row outgrows the tier-1 base.
        floor = 3.0 if count == BASE_ROW else 5.0
        assert entry["pairs_ratio"] >= floor, entry
    report["row"] = {"sizes": sizes}

    benchmark(lambda: _pack_row(tech, _row_objects(tech, BASE_ROW), Compactor()))

    # ----------------------------------------------------------- amplifier
    amp_repeats = 1 if SMOKE else 3
    amp_off, off_entry = _traced(
        lambda: build_amplifier(tech, compactor=ScanCompactor()),
        repeats=amp_repeats,
    )
    amp_on, on_entry = _traced(
        lambda: build_amplifier(tech, compactor=Compactor()),
        repeats=amp_repeats,
    )
    assert _signature(amp_off) == _signature(amp_on)
    report["amplifier"] = {
        "unindexed": off_entry,
        "indexed": on_entry,
        "compact_speedup": off_entry["compact_s"] / on_entry["compact_s"],
        "pairs_ratio": off_entry["pairs_scanned"]
        / max(1, on_entry["pairs_scanned"]),
    }
    lines.append(
        f"  amplifier: compact {off_entry['compact_s'] * 1e3:8.1f} ->"
        f" {on_entry['compact_s'] * 1e3:8.1f} ms"
        f" ({report['amplifier']['compact_speedup']:.2f}x),"
        f" pairs {off_entry['pairs_scanned']} -> {on_entry['pairs_scanned']}"
    )

    if not SMOKE:
        headline = sizes[str(BASE_ROW * STRETCH)]["speedup"]
        report["headline_stretch_speedup"] = headline
        lines.append(
            f"  headline: {headline:.2f}x compact_s at the 10x-stretched row"
        )

    lines += [
        "shape vs paper: identical geometry either way — the index only",
        "changes how fast 'only outer edges' are found, never which ones.",
    ]

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_compact.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    record("t_frontier_index", lines)
    ledger_append("BENCH_compact", report)

    if not SMOKE:
        # Acceptance: >= 5x compact_s at the stretched size, identical output.
        assert report["headline_stretch_speedup"] >= 5.0, report
