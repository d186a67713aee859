"""T-NETS — perf: indexed connectivity extraction vs the all-pairs reference.

:func:`repro.verify.reference.extract_connectivity_brute` tests every conducting
rect pair — on the profiled amplifier build that made ``extract_
connectivity`` the top hotspot, repeated once per net by the global router
and again by the verification oracles.  The :class:`~repro.db.netindex.
ConnectivityIndex` replaces the quadratic loops with per-layer interval
sweeps and shares one cached extraction across every per-net query.

This bench races brute vs indexed over

* the full BiCMOS amplifier layout (the paper's flagship module), and
* a synthetic dense metal grid — the same-layer all-pairs worst case;

asserts the component partitions are identical and that the index tests
at least 10x fewer pairs on the amplifier, and writes
``benchmarks/results/BENCH_nets.json``.  CI runs the smoke variant
(``BENCH_SMOKE=1``: single repeat; the workloads stay identical so the
deterministic ``nets.pairs_scanned`` counters diff exactly against the
committed JSON) and fails the build when they regress.
"""

import json
import os
import time
from pathlib import Path

from repro.amplifier import build_amplifier
from repro.db.netindex import ConnectivityIndex
from repro.geometry import Rect
from repro.obs import StatsSink, Tracer, activate
from repro.verify.reference import extract_connectivity_brute

RESULTS_DIR = Path(__file__).parent / "results"
SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))

#: Dense-grid side length: n² rects on one layer (brute is O(n⁴) pairs).
#: Identical in smoke mode — the counters must diff exactly against the
#: committed baseline; only the repeat count shrinks.
GRID_SIDE = 32
REPEATS = 1 if SMOKE else 3

COUNTERS = (
    ("pairs_scanned", "nets.pairs_scanned"),
    ("extractions", "nets.extractions"),
    ("cache_hits", "nets.cache_hits"),
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


def _signature(components):
    return [
        [(r.x1, r.y1, r.x2, r.y2, r.layer, r.net) for r in component]
        for component in components
    ]


def _dense_grid(side):
    """side × side metal tiles; tiles touch along rows, rows carry nets.

    Every rect shares a layer with every other, so the brute pass tests
    all ~(side²)²/2 pairs while the sweep only tests x-adjacent ones.
    """
    rects = []
    for y in range(side):
        for x in range(side):
            rects.append(
                Rect(
                    x * 1000, y * 1500, x * 1000 + 1000, y * 1500 + 1000,
                    "metal1", f"row{y}",
                )
            )
    return rects


def _race(label, rects, tech, lines, report):
    brute, brute_entry = _traced(lambda: extract_connectivity_brute(rects, tech))
    indexed, on_entry = _traced(
        lambda: ConnectivityIndex(rects, tech).components()
    )
    assert _signature(indexed) == _signature(brute)  # identical partitions
    entry = {
        "rects": len(rects),
        "components": len(brute),
        "brute": brute_entry,
        "indexed": on_entry,
        "pairs_ratio": brute_entry["pairs_scanned"]
        / max(1, on_entry["pairs_scanned"]),
        "speedup": brute_entry["wall_s"] / max(1e-9, on_entry["wall_s"]),
    }
    report[label] = entry
    lines.append(
        f"  {label}: {len(rects)} rects, {len(brute)} components —"
        f" pairs {brute_entry['pairs_scanned']} -> {on_entry['pairs_scanned']}"
        f" ({entry['pairs_ratio']:.1f}x fewer),"
        f" extract {brute_entry['wall_s'] * 1e3:7.1f} ->"
        f" {on_entry['wall_s'] * 1e3:7.1f} ms ({entry['speedup']:.1f}x)"
    )
    return entry


def test_connectivity_index_speedup(tech, record, benchmark, ledger_append):
    report = {"smoke": SMOKE, "grid_side": GRID_SIDE}
    lines = ["T-NETS — connectivity extraction, brute vs indexed:"]

    # ----------------------------------------------------------- amplifier
    amp = build_amplifier(tech)
    amp_entry = _race("amplifier", amp.rects, tech, lines, report)
    # Acceptance: the index tests >= 10x fewer pairs on the real module.
    assert amp_entry["pairs_ratio"] >= 10.0, amp_entry

    # ---------------------------------------------------------- dense grid
    grid_entry = _race("grid", _dense_grid(GRID_SIDE), tech, lines, report)
    assert grid_entry["pairs_ratio"] >= 10.0, grid_entry

    # ------------------------------------------------- shared-index router
    # The router's per-net queries ride one extraction + appends; count it.
    _, routed_entry = _traced(lambda: build_amplifier(tech), repeats=1)
    report["routed_build"] = routed_entry
    lines.append(
        f"  routed build: {routed_entry['extractions']} extraction(s),"
        f" {routed_entry['cache_hits']} cache hits,"
        f" {routed_entry['pairs_scanned']} pairs scanned"
    )
    assert routed_entry["extractions"] == 1, routed_entry

    benchmark(lambda: ConnectivityIndex(amp.rects, tech).components())

    lines += [
        "shape vs paper: identical net partitions either way — the index",
        "only changes how fast connectivity is found, never what connects.",
    ]

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_nets.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    record("t_nets", lines)
    ledger_append("BENCH_nets", report)
