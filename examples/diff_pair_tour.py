#!/usr/bin/env python3
"""The Fig. 6/7 differential pair, plus compaction-order optimization.

Builds the paper's simple MOS differential pair from its hierarchical
source, shows the Fig. 5 compactor features, and runs the Sec. 2.4
order-optimization over a small module.

Run:  python examples/diff_pair_tour.py
"""

from pathlib import Path

from repro import Environment
from repro.compact import Compactor
from repro.db import net_is_connected
from repro.geometry import Direction
from repro.library import DIFF_PAIR_SOURCE, DeviceNets, contact_row, patterned_row, strap_net
from repro.opt import Step

OUT = Path(__file__).parent / "output"


def main():
    OUT.mkdir(exist_ok=True)
    env = Environment()

    # ------------------------------------------------------------------
    print("Fig. 6/7 — the simple MOS differential pair from its source:")
    env.load(DIFF_PAIR_SOURCE)
    pair = env.build("DiffPair", W=10.0, L=1.0)
    gates = [r for r in pair.rects_on("poly") if r.height > r.width]
    print(f"  transistors: {len(gates)}, size "
          f"{pair.width / 1000:.1f} × {pair.height / 1000:.1f} µm, "
          f"DRC violations: {len(env.drc(pair, include_latchup=False))}")
    env.write_svg(pair, OUT / "diff_pair.svg", scale=0.04)

    # ------------------------------------------------------------------
    print("\nFig. 5a/5b — auto-connection and variable edges:")
    for variable in (False, True):
        compactor = Compactor(variable_edges=variable)
        row = patterned_row(
            env.tech, 10.0, 1.0, "AA", {"A": DeviceNets("g", "d")},
            source_net="s", gate_side="south", compactor=compactor,
        )
        strap_net(row, "s", Direction.SOUTH, compactor=compactor)
        label = "variable" if variable else "fixed   "
        print(
            f"  {label} edges: area {row.area() / 1e6:7.1f} µm², "
            f"source connected: {net_is_connected(row.rects, env.tech, 's')}"
        )

    # ------------------------------------------------------------------
    print("\nSec. 2.4 — compaction-order optimization (24 orders, branch and bound):")
    steps = [
        Step(contact_row(env.tech, "pdiff", w=4.0, net="a", name="a"), Direction.WEST),
        Step(contact_row(env.tech, "pdiff", w=14.0, net="b", name="b"), Direction.SOUTH),
        Step(contact_row(env.tech, "pdiff", w=8.0, net="c", name="c"), Direction.WEST),
        Step(contact_row(env.tech, "poly", w=2.0, length=12.0, net="d", name="d"),
             Direction.SOUTH),
    ]
    result = env.optimize_order("module", steps)
    scores = sorted(result.scores.values())
    print(f"  rated {result.evaluated} orders, {result.pruned} pruned by the area bound;"
          f" best {scores[0]:.1f} µm², worst rated {scores[-1]:.1f} µm²"
          f" ({scores[-1] / scores[0]:.2f}x)")
    print(f"  best order: {result.best_order}")
    env.write_svg(result.best, OUT / "optimized_module.svg", scale=0.04)
    print(f"\nSVGs written to {OUT}/")


if __name__ == "__main__":
    main()
