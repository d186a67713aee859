"""T-TREE — perf: shared-prefix tree vs replay-based exhaustive order search.

Sec. 2.4 finds the best compaction order by trying "all different
variations".  The replay oracle (:mod:`repro.verify.reference`) recompacts
every permutation from scratch (O(n!*n) compaction steps);
:class:`~repro.opt.OrderOptimizer` shares each order prefix, replays the
subtree of a prefix that compacts to an already searched partial layout
(its transposition table), and prunes subtrees by the area lower bound:
one compaction step per child of each distinct state it expands.  The
table reports ``tree_states`` (distinct states expanded) and
``tree_transposed`` (prefixes answered from the table) beside
``tree_compacts``; CI gates ``tree_compacts`` exactly.  This bench
races the two on a heterogeneous module of transistor-like devices
(diffusion + poly + metal straps) at 4-7 objects and writes
``benchmarks/results/BENCH_optimizer.json``.  Each engine runs under a
:class:`repro.obs.Tracer`, so every entry carries a per-stage split
(compaction vs candidate rating vs tree bookkeeping) from the obs timers.

Above the exhaustive limit (6) the optimizer anneals.  The
``above_limit`` rows run 12 committed inputs — 7-10 devices from a seeded
shuffle of :data:`SHAPES`, seeds 0-2 — and assert that the annealer scores
no worse than the beam search it replaced (:data:`BEAM_BEST`).  Their
``tree_compacts`` is the annealer's compaction count, gated like the rest.

Run ``BENCH_SMOKE=1 pytest benchmarks/bench_order_tree.py`` for the quick
CI variant (4-5 objects and the three 7-device inputs, no headline-speedup
assertion).
"""

import json
import os
import random
import time
from pathlib import Path

from repro.compact import Compactor
from repro.db import LayoutObject
from repro.geometry import Direction, Rect
from repro.obs import StatsSink, Tracer, activate
from repro.opt import OrderOptimizer, Step
from repro.verify.reference import ReplayOrderOptimizer

RESULTS_DIR = Path(__file__).parent / "results"
SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))

# Heterogeneous footprints (w, h, direction): tall strips interleaved with
# wide bars so a bad early placement inflates the bounding box immediately —
# the regime branch-and-bound is built for.
SHAPES = [
    (1500, 28000, Direction.WEST),
    (24000, 1500, Direction.SOUTH),
    (3000, 9000, Direction.WEST),
    (11000, 2000, Direction.SOUTH),
    (2500, 14000, Direction.WEST),
    (20000, 3000, Direction.SOUTH),
    (4000, 4000, Direction.WEST),
    (9000, 2500, Direction.SOUTH),
    (6000, 1800, Direction.SOUTH),
    (2000, 18000, Direction.WEST),
]

#: Largest module measured; both engines stay exhaustive up to it.
MAX_STEPS = 7

#: Best score per above-limit input ``(steps, seed)`` of the width-4 beam
#: search that ran above the exhaustive limit before the annealer.
BEAM_BEST = {
    (7, 0): 592.8, (7, 1): 700.8, (7, 2): 585.6,
    (8, 0): 817.6, (8, 1): 759.2, (8, 2): 529.2,
    (9, 0): 876.0, (9, 1): 817.6, (9, 2): 700.8,
    (10, 0): 817.6, (10, 1): 817.6, (10, 2): 817.6,
}


def device(tech, name, w, h, net):
    """A transistor-like footprint: diffusion body, poly gate, metal strap."""
    obj = LayoutObject(name, tech)
    obj.add_rect(Rect(0, 0, w, h, "ndiff", None))
    obj.add_rect(Rect(w // 3, -600, w // 3 + 600, h + 600, "poly", net + "_g"))
    obj.add_rect(Rect(0, h // 3, w, h // 3 + 800, "metal1", net))
    return obj


def make_steps(tech, count):
    return [
        Step(device(tech, f"dev{i}", w, h, f"n{i}"), direction)
        for i, (w, h, direction) in enumerate(SHAPES[:count])
    ]


def above_limit_steps(tech, count, seed):
    """The first *count* of a seeded shuffle of all :data:`SHAPES`."""
    picks = list(range(len(SHAPES)))
    random.Random(seed).shuffle(picks)
    steps = []
    for i in picks[:count]:
        w, h, direction = SHAPES[i]
        steps.append(Step(device(tech, f"dev{i}", w, h, f"n{i}"), direction))
    return steps


def _timed(optimize, name, tech, steps):
    """Run one engine under a fresh tracer; returns (wall_s, result, stages).

    The per-stage split comes from the obs timers: ``compact_s`` is time in
    :meth:`Compactor.compact` steps (``compact.step`` spans), ``rating_s``
    is candidate evaluation (``opt.rate`` spans), and ``bookkeeping_s`` is
    the remainder — snapshots, state keys, permutation walking.
    """
    tracer = Tracer(enabled=True)
    stats = StatsSink()
    tracer.add_sink(stats)
    with activate(tracer):
        start = time.perf_counter()
        result = optimize(name, tech, steps)
        wall = time.perf_counter() - start
    compact_s = stats.total_s("compact.step")
    rating_s = stats.total_s("opt.rate")
    stages = {
        "compact_s": compact_s,
        "rating_s": rating_s,
        "bookkeeping_s": max(0.0, wall - compact_s - rating_s),
        "snapshots": stats.counter("opt.tree.snapshots"),
        "states": stats.counter("opt.nodes_expanded"),
    }
    return wall, result, stages


def test_order_tree_scaling(tech, record, ledger_append):
    sizes = range(4, 6) if SMOKE else range(4, MAX_STEPS + 1)
    report = {"module": "heterogeneous device row", "smoke": SMOKE, "sizes": {}}
    lines = ["T-TREE — replay oracle vs OrderOptimizer (shared-prefix tree):"]

    headline = None
    for count in sizes:
        steps = make_steps(tech, count)
        entry = {}

        replay_opt = ReplayOrderOptimizer(compactor=Compactor())
        entry["replay_s"], replay, entry["replay_stages"] = _timed(
            replay_opt.optimize, "m", tech, steps
        )
        entry["replay_compacts"] = replay_opt.compactor.calls

        entry["tree_s"], tree, entry["tree_stages"] = _timed(
            OrderOptimizer(
                compactor=Compactor(), exhaustive_limit=MAX_STEPS
            ).optimize,
            "m", tech, steps,
        )
        entry["tree_compacts"] = tree.compact_calls
        entry["tree_states"] = entry["tree_stages"]["states"]
        entry["tree_transposed"] = tree.transposed
        entry["tree_orders_evaluated"] = tree.evaluated
        entry["tree_orders_pruned"] = tree.pruned

        # Both engines must agree exactly — same best order, same score.
        assert tree.best_order == replay.best_order
        assert tree.best_score == replay.best_score
        entry["best_order"] = list(tree.best_order)
        entry["best_score"] = tree.best_score
        entry["speedup"] = entry["replay_s"] / entry["tree_s"]
        if count == 7:
            headline = entry["speedup"]
        report["sizes"][str(count)] = entry

        stages = entry["tree_stages"]
        lines.append(
            f"  n={count}: replay {entry['replay_s']:7.3f}s"
            f" ({entry['replay_compacts']}c)"
            f"  tree {entry['tree_s']:7.3f}s"
            f" ({entry['tree_compacts']}c, {entry['tree_states']} states,"
            f" {entry['tree_transposed']} transposed,"
            f" skip {entry['tree_orders_pruned']})"
            f"  {entry['speedup']:5.2f}x"
            f"  [tree split: compact {stages['compact_s']:.2f}s"
            f" rate {stages['rating_s']:.2f}s"
            f" tree {stages['bookkeeping_s']:.2f}s]"
        )

    if headline is not None:
        report["headline_speedup_n7"] = headline
        lines.append(f"  headline: tree {headline:.2f}x replay at n=7")
    lines.append("shape vs paper: identical optima to Sec. 2.4's exhaustive")
    lines.append("sweep; the tree pays one compaction step per child of each")
    lines.append("distinct state, replays transposed prefixes from its table,")
    lines.append("and the bound prunes most permutations outright.")

    lines.append("above the exhaustive limit: annealer vs the former beam(4):")
    report["above_limit"] = {}
    strictly_better = 0
    for count, seed in sorted(BEAM_BEST):
        if SMOKE and count > 7:
            continue
        start = time.perf_counter()
        result = OrderOptimizer(compactor=Compactor()).optimize(
            "m", tech, above_limit_steps(tech, count, seed)
        )
        wall = time.perf_counter() - start
        beam = BEAM_BEST[count, seed]
        assert result.best_score <= beam, (count, seed, result.best_score)
        strictly_better += result.best_score < beam
        report["above_limit"][f"n{count}_seed{seed}"] = {
            "anneal_s": wall,
            "tree_compacts": result.compact_calls,
            "orders_evaluated": result.evaluated,
            "best_score": result.best_score,
            "beam_best_score": beam,
        }
        lines.append(
            f"  n={count} seed {seed}: anneal {result.best_score:6.1f}"
            f" ({result.compact_calls}c, {result.evaluated} orders,"
            f" {wall:.2f}s)  beam {beam:6.1f}"
        )

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_optimizer.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    record("t_order_tree", lines)
    ledger_append("BENCH_optimizer", report)

    if not SMOKE:
        # Acceptance: >= 3x over replay at n=7 with identical best order,
        # and the annealer strictly beats the beam on at least 10 of 12.
        assert headline >= 3.0, f"tree speedup {headline:.2f}x < 3x"
        assert strictly_better >= 10, strictly_better
