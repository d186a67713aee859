"""Differential testing: successive compaction vs. the constraint graph.

The paper argues successive compaction reaches the same packing quality as
the classical full-graph method while being much faster.  This harness
turns that claim into a machine-checkable property: seeded random object
sets run through both :class:`repro.compact.Compactor` and
:class:`repro.baselines.GraphCompactor`, and every trial must satisfy

* both results pass all invariant oracles (DRC-clean, connectivity kept,
  no_overlap respected, bbox bounded);
* both merge the same nets (identical net partitions);
* the bounding-box areas agree within a stated bound.

Each trial additionally races the successive compactor against the
from-scratch :class:`repro.verify.reference.ScanCompactor`: the indexed and
scanning compactors must produce *byte-identical* geometry (same rects,
same order, same flags) with every feature enabled — variable edges,
auto-connect, frontier pruning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..baselines import GraphCompactor
from ..compact import Compactor
from ..db import LayoutObject
from ..db.netindex import ConnectivityIndex
from ..geometry import Direction, Rect
from ..library import contact_row, mos_transistor
from ..obs import get_tracer
from ..route import path
from ..tech import Technology
from .oracles import LayoutSnapshot, OracleViolation, check_layout
from .reference import ScanCompactor


@dataclass
class TrialReport:
    """Outcome of one differential trial."""

    trial: int
    seed: str
    direction: str
    objects: int
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def random_object_set(
    tech: Technology, rng: random.Random, count: int, direction: Direction
) -> List[LayoutObject]:
    """Build *count* random DRC-clean objects spread against *direction*.

    Each object carries unique net labels, so a correct compaction merges no
    nets at all — any merge the partition check finds is a short both
    compactors must agree on.  Placement leaves a generous pitch along the
    compaction axis so every object approaches the pile from outside it.
    """
    dbu = tech.dbu_per_micron
    objects: List[LayoutObject] = []
    pitch = 80 * dbu
    for index in range(count):
        kind = rng.randrange(4)
        if kind == 0:
            obj = contact_row(
                tech, "poly",
                w=float(rng.randint(1, 3)),
                length=float(rng.randint(8, 16)),
                net=f"n{index}", name=f"row{index}",
            )
        elif kind == 1 and tech.has_layer("pdiff"):
            obj = contact_row(
                tech, "pdiff",
                w=float(rng.randint(4, 8)),
                net=f"n{index}", name=f"diff{index}",
            )
        elif kind == 2 and tech.has_layer("pdiff"):
            obj = mos_transistor(
                tech,
                w=float(rng.randint(4, 10)),
                length=1.0,
                gate_net=f"g{index}",
                source_net=f"s{index}",
                drain_net=f"d{index}",
                name=f"mos{index}",
            )
        else:
            obj = LayoutObject(f"wire{index}", tech)
            leg = rng.randint(6, 14) * dbu
            path(
                obj, "metal1",
                [(0, 0), (leg, 0), (leg, leg)],
                net=f"m{index}",
            )
            if rng.random() < 0.3:
                # A parasitic-protection plate: forbids overlap with any
                # conducting layer that has no explicit SPACE rule to metal1.
                for seq in obj.store().seqs_on("metal1"):
                    obj.tag_rect(seq, obj.rects[seq].net, no_overlap=True)
        jitter = rng.randint(-4, 4) * dbu
        dx = -direction.dx * index * pitch + abs(direction.dy) * jitter
        dy = -direction.dy * index * pitch + abs(direction.dx) * jitter
        obj.translate(dx, dy)
        objects.append(obj)
    return objects


def _net_partition(obj: LayoutObject) -> Set[Tuple[str, ...]]:
    """Partition of labelled nets into electrically connected groups."""
    parent: Dict[str, str] = {}

    def find(net: str) -> str:
        parent.setdefault(net, net)
        while parent[net] != net:
            parent[net] = parent[parent[net]]
            net = parent[net]
        return net

    rects = obj.nonempty_rects
    for rect in rects:
        if rect.net is not None:
            find(rect.net)
    for component in ConnectivityIndex(rects, obj.tech).components():
        nets = sorted({r.net for r in component if r.net is not None})
        for other in nets[1:]:
            parent[find(other)] = find(nets[0])
    groups: Dict[str, List[str]] = {}
    for net in parent:
        groups.setdefault(find(net), []).append(net)
    return {tuple(sorted(members)) for members in groups.values()}


def run_trial(
    tech: Technology,
    trial: int,
    seed: int,
    include_latchup: bool = False,
    area_bound: float = 1.5,
) -> TrialReport:
    """One seeded differential trial; deterministic for a (seed, trial) pair."""
    trial_seed = f"{seed}:{trial}"
    rng = random.Random(trial_seed)
    direction = rng.choice(list(Direction))
    count = rng.randint(2, 4)
    objects = random_object_set(tech, rng, count, direction)
    report = TrialReport(trial, trial_seed, direction.name, count)

    snapshot = LayoutSnapshot.capture(objects, tech)

    successive = LayoutObject("successive", tech)
    compactor = Compactor(variable_edges=False, auto_connect=False)
    for obj in objects:
        compactor.compact(successive, obj.copy(), direction)

    graph = GraphCompactor(tech).compact(
        [obj.copy() for obj in objects], direction
    )

    for label, result in (("successive", successive), ("graph", graph)):
        for violation in check_layout(
            snapshot, result, include_latchup=include_latchup,
            direction=direction,
        ):
            report.problems.append(f"{label}: {violation}")

    parts = (_net_partition(successive), _net_partition(graph))
    if parts[0] != parts[1]:
        report.problems.append(
            f"net partitions differ: successive={sorted(parts[0])}"
            f" graph={sorted(parts[1])}"
        )

    areas = (successive.area(), graph.area())
    if min(areas) > 0 and max(areas) > area_bound * min(areas):
        report.problems.append(
            f"bbox areas diverge beyond {area_bound}×:"
            f" successive={areas[0]} graph={areas[1]}"
        )

    report.problems.extend(_race_index_modes(tech, objects, direction))
    return report


def _rect_signature(obj: LayoutObject) -> List[Tuple]:
    """Order-sensitive content signature: any divergence shows up here."""
    return [
        (r.x1, r.y1, r.x2, r.y2, r.layer, r.net, r.no_overlap)
        for r in obj.rects
    ]


def _race_index_modes(
    tech: Technology, objects: Sequence[LayoutObject], direction: Direction
) -> List[str]:
    """Indexed vs from-scratch successive compaction must match byte for byte.

    Runs with every feature on (variable edges, auto-connect, frontier
    pruning) so the incremental index is exercised through merges, stretches
    and shrinks — the exact mutations it tracks incrementally.
    """
    results = []
    for compactor in (ScanCompactor(), Compactor()):
        main = LayoutObject("main", tech)
        for obj in objects:
            compactor.compact(main, obj.copy(), direction)
        results.append(_rect_signature(main))
    if results[0] != results[1]:
        diverging = sum(1 for a, b in zip(*results) if a != b) + abs(
            len(results[0]) - len(results[1])
        )
        return [
            "indexed compactor diverges from ScanCompactor"
            f" ({diverging} rect(s) differ)"
        ]
    return []


def run_differential(
    tech: Technology,
    trials: int = 50,
    seed: int = 0,
    include_latchup: bool = False,
    area_bound: float = 1.5,
) -> List[TrialReport]:
    """Run *trials* seeded trials; returns every report (failed or not)."""
    tracer = get_tracer()
    reports: List[TrialReport] = []
    with tracer.span("verify.differential", trials=trials, seed=seed):
        for trial in range(trials):
            report = run_trial(
                tech, trial, seed,
                include_latchup=include_latchup,
                area_bound=area_bound,
            )
            tracer.count("verify.differential.trials")
            if not report.ok:
                tracer.count("verify.differential.failures")
            reports.append(report)
    return reports
