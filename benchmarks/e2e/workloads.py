"""The four workloads of the end-to-end generator benchmark.

Each workload is built from a seed (that is its set-up) and then offers:

* :meth:`Workload.next_input` — the next op's input, a pure function of the
  seed and the number of inputs drawn before, so the program only ever
  sees generated inputs;
* :meth:`Workload.op` — one closed-loop operation through the public API,
  returning an :class:`Output`;
* :meth:`Workload.check` — the output check, run off the clock.  It returns
  the op's layout area in µm² or raises :class:`CheckFailed`.

Inputs come from ``random.Random`` seeded with a string, which does not
depend on ``PYTHONHASHSEED``.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.amplifier import GLOBAL_NETS, build_amplifier, measure_amplifier
from repro.compact import Compactor
from repro.core import Environment
from repro.db import ConnectivityIndex, LayoutObject, capacitance_report
from repro.drc import run_drc
from repro.geometry import Direction, Rect
from repro.io import dumps_gds
from repro.lang import Interpreter, Runtime, parse, translate
from repro.library.dsl_sources import DSL_LIBRARY
from repro.opt import OrderOptimizer, Rating, Step
from repro.tech import generic_bicmos_1u, generic_cmos_05u

#: sha256 of the amplifier's GDS stream.  The amplifier has no parameters,
#: so every op must reproduce exactly these bytes.
AMPLIFIER_GDS_SHA256 = (
    "0aa292270ee08ebc6d8188700e986c068bef98fbe884100b4c010c169afc2328"
)


class CheckFailed(Exception):
    """An op's output failed its workload's check."""


@dataclass
class Output:
    """What one op produced: the layout, its GDS stream, anything else the
    check needs."""

    layout: LayoutObject
    gds: bytes = b""
    extra: Any = None


def _rng(workload: str, seed: int, stream: str = "") -> random.Random:
    return random.Random(f"e2e:{workload}:{seed}:{stream}")


def _area_um2(obj: LayoutObject) -> float:
    return obj.area() / obj.tech.dbu_per_micron ** 2


class Workload:
    """Base class: a seeded stream of inputs plus op and check."""

    name = ""
    #: Ops in a full run at the reference speed; ``--smoke`` runs 1/20.
    nominal_ops = 0
    #: ``layout_area_um2`` averages the first this many ops: a whole number
    #: of input cycles, so the mean repeats for a seed however long a run is.
    area_ops = 1

    def next_input(self) -> Any:
        raise NotImplementedError

    def op(self, inp: Any) -> Output:
        raise NotImplementedError

    def check(self, inp: Any, out: Output) -> float:
        raise NotImplementedError

    def translated_entities(self) -> List[Tuple[Dict[str, Any], str]]:
        """(namespace, entity name) of every translated PLDL function."""
        return []


# ---------------------------------------------------------------------------
class Amplifier(Workload):
    """Build, measure and stream out the paper's BiCMOS amplifier."""

    name = "amplifier"
    nominal_ops = 50

    def __init__(self, seed: int) -> None:
        self.tech = generic_bicmos_1u()

    def next_input(self) -> None:
        return None  # no parameters: the workload is seed-invariant

    def op(self, inp: None) -> Output:
        amp = build_amplifier(self.tech)
        report = measure_amplifier(amp)
        return Output(amp, dumps_gds(amp), report)

    def check(self, inp: None, out: Output) -> float:
        if out.extra.drc_violations:
            raise CheckFailed(f"{out.extra.drc_violations} DRC violations")
        connectivity = ConnectivityIndex(out.layout.rects, self.tech)
        split = [net for net in GLOBAL_NETS if not connectivity.net_is_connected(net)]
        if split:
            raise CheckFailed(f"global nets not connected: {split}")
        digest = hashlib.sha256(out.gds).hexdigest()
        if digest != AMPLIFIER_GDS_SHA256:
            raise CheckFailed(f"GDS sha256 {digest} != pinned hash")
        return out.extra.area_um2


# ---------------------------------------------------------------------------
def _steps(lo: float, hi: float, step: float) -> List[float]:
    count = round((hi - lo) / step)
    return [round(lo + i * step, 6) for i in range(count + 1)]


_MOS_W = _steps(4.0, 16.0, 0.2)
_MOS_L = _steps(1.0, 2.0, 0.2)
_MOS = [dict(W=w, L=length) for w in _MOS_W for length in _MOS_L]

#: Parameter grid per DSL_LIBRARY entity.  Transistor widths start at 4 µm:
#: W=2.0 devices fail the extension rules on the BiCMOS technology, which
#: is a library defect of its own, not something this benchmark measures.
PLDL_GRID: Dict[str, List[Dict[str, Any]]] = {
    "ContactRow": [
        dict(layer=layer, W=w, L=length)
        for layer in ("poly", "pdiff", "ndiff")
        for w in (1.0, 1.5, 2.0, 3.0, 4.0)
        for length in _steps(4.0, 32.0, 2.0)
    ],
    "DiffPair": _MOS,
    "Transistor": _MOS,
    "Mirror": _MOS,
    "GuardedTransistor": _MOS,
    "Interdigitated": [
        dict(point, N=float(n)) for point in _MOS for n in range(2, 9)
    ],
    "Serpentine": [
        dict(W=w, LSEG=seg, NSEG=float(n))
        for w in _steps(1.0, 3.0, 0.5)
        for seg in _steps(10.0, 30.0, 2.5)
        for n in range(2, 9)
    ],
}

#: The parameter that sets each entity's size, and so its cost.
SIZE_PARAM = {
    "ContactRow": "L", "DiffPair": "W", "Transistor": "W", "Mirror": "W",
    "GuardedTransistor": "W", "Interdigitated": "N", "Serpentine": "NSEG",
}

PLDL_TECHS = {"bicmos_1u": generic_bicmos_1u, "cmos_05u": generic_cmos_05u}
PATHS = ("interp", "translated")


def balanced_walk(grid: List[Dict[str, Any]], key: str, rng: random.Random) -> List[int]:
    """A seeded order of every grid index that takes each value of *key*
    once per round, so any stretch of the walk has the grid's cost mix."""
    groups: Dict[Any, List[int]] = {}
    for index, point in enumerate(grid):
        groups.setdefault(point[key], []).append(index)
    for members in groups.values():
        rng.shuffle(members)
    order: List[int] = []
    while len(order) < len(grid):
        for value in rng.sample(sorted(groups), len(groups)):
            if groups[value]:
                order.append(groups[value].pop())
    return order


def rect_multiset(obj: LayoutObject) -> List[Tuple]:
    """The sorted (layer, net, coordinates) multiset of a layout."""
    return sorted(
        (r.layer, r.net or "", r.x1, r.y1, r.x2, r.y2) for r in obj.nonempty_rects
    )


class PldlCells(Workload):
    """Many small PLDL builds over both technologies and both paths.

    Inputs are stratified so that the mix of cells does not depend on the
    seed: every cycle visits each (technology, entity) stratum once in a
    seeded order, each stratum walks its grid in a seeded
    :func:`balanced_walk` over the entity's :data:`SIZE_PARAM`, and the
    path alternates within a stratum.  No point repeats until its
    stratum's grid is used up.
    """

    name = "pldl_cells"
    nominal_ops = 2500
    area_ops = 1260  # 90 cycles of the 14 strata

    def __init__(self, seed: int) -> None:
        self.techs = {name: make() for name, make in PLDL_TECHS.items()}
        self.strata = [(t, e) for t in sorted(self.techs) for e in sorted(DSL_LIBRARY)]
        self.interpreters: Dict[Tuple[str, str], Interpreter] = {}
        self.runtimes = {name: Runtime(tech) for name, tech in self.techs.items()}
        self._namespaces: Dict[str, Dict[str, Any]] = {}
        self._entities: Dict[str, List[str]] = {}
        for entity, source in DSL_LIBRARY.items():
            for tech_name, tech in self.techs.items():
                interp = Interpreter(tech)
                interp.load(source)
                self.interpreters[tech_name, entity] = interp
            namespace: Dict[str, Any] = {}
            exec(compile(translate(source), f"<pldl {entity}>", "exec"), namespace)
            self._namespaces[entity] = namespace
            self._entities[entity] = [e.name for e in parse(source).entities]
        rng = _rng(self.name, seed)
        self._orders = {s: balanced_walk(PLDL_GRID[s[1]], SIZE_PARAM[s[1]], rng)
                        for s in self.strata}
        self._first_path = {s: rng.randrange(2) for s in self.strata}
        self._cycle_rng = _rng(self.name, seed, "cycles")
        self._cycle: List[Tuple[str, str]] = []
        self._drawn = {s: 0 for s in self.strata}

    def translated_entities(self) -> List[Tuple[Dict[str, Any], str]]:
        return [
            (self._namespaces[entity], name)
            for entity in sorted(self._entities)
            for name in self._entities[entity]
        ]

    def next_input(self) -> Tuple[str, str, str, Dict[str, Any]]:
        if not self._cycle:
            self._cycle = self._cycle_rng.sample(self.strata, len(self.strata))
        stratum = self._cycle.pop()
        drawn = self._drawn[stratum]
        self._drawn[stratum] = drawn + 1
        order = self._orders[stratum]
        point = PLDL_GRID[stratum[1]][order[drawn % len(order)]]
        path = PATHS[(self._first_path[stratum] + drawn) % 2]
        return stratum[0], stratum[1], path, point

    def build(self, tech_name: str, entity: str, path: str,
              point: Dict[str, Any]) -> LayoutObject:
        if path == "interp":
            return self.interpreters[tech_name, entity].call(entity, **point)
        namespace = self._namespaces[entity]
        return namespace[entity](self.runtimes[tech_name], **point)

    def op(self, inp: Tuple[str, str, str, Dict[str, Any]]) -> Output:
        tech_name, entity, path, point = inp
        cell = self.build(tech_name, entity, path, point)
        violations = run_drc(cell, include_latchup=entity == "GuardedTransistor")
        return Output(cell, dumps_gds(cell), violations)

    def check(self, inp: Tuple[str, str, str, Dict[str, Any]], out: Output) -> float:
        tech_name, entity, path, point = inp
        if out.extra:
            raise CheckFailed(f"{entity}{point} on {tech_name}: {len(out.extra)}"
                              " DRC violations")
        if out.layout.is_empty():
            raise CheckFailed(f"{entity}{point} on {tech_name}: empty layout")
        other = PATHS[1 - PATHS.index(path)]
        twin = self.build(tech_name, entity, other, point)
        if rect_multiset(twin) != rect_multiset(out.layout):
            raise CheckFailed(f"{entity}{point} on {tech_name}: {path} and"
                              f" {other} paths differ")
        return _area_um2(out.layout)


# ---------------------------------------------------------------------------
#: Footprints (w, h, direction) of the order-search devices: tall strips and
#: wide bars, so a bad early placement inflates the bounding box at once.
SHAPES = [
    (1500, 28000, Direction.WEST),
    (24000, 1500, Direction.SOUTH),
    (3000, 9000, Direction.WEST),
    (11000, 2000, Direction.SOUTH),
    (2500, 14000, Direction.WEST),
    (20000, 3000, Direction.SOUTH),
    (4000, 4000, Direction.WEST),
    (9000, 2500, Direction.SOUTH),
]

#: Devices per search: every engine is still exhaustive at 6.
ORDER_DEVICES = 6


def device(tech, name: str, w: int, h: int, net: str) -> LayoutObject:
    """A transistor-like footprint: diffusion body, poly gate, metal strap."""
    obj = LayoutObject(name, tech)
    obj.add_rect(Rect(0, 0, w, h, "ndiff", None))
    obj.add_rect(Rect(w // 3, -600, w // 3 + 600, h + 600, "poly", net + "_g"))
    obj.add_rect(Rect(0, h // 3, w, h // 3 + 800, "metal1", net))
    return obj


#: Footprint subsets of one cycle, and how often each footprint appears.
SUBSETS = list(itertools.combinations(range(len(SHAPES)), ORDER_DEVICES))
APPEARANCES = sum(1 for subset in SUBSETS if 0 in subset)
#: Log-spaced scale factors in [0.8, 1.25], one per appearance.
SCALES = [0.8 * (1.25 / 0.8) ** (i / (APPEARANCES - 1)) for i in range(APPEARANCES)]


def _scaled(size: int, factor: float) -> int:
    return max(100, round(size * factor / 100) * 100)


class OrderSearch(Workload):
    """Exhaustive compaction-order search over six seeded devices.

    Every cycle of 28 ops uses each 6-of-8 footprint subset once, in a
    seeded order, with the step order seeded per op.  Each footprint
    dimension takes every factor of :data:`SCALES` once per cycle, in a
    seeded order, so a cycle's total size does not depend on the seed.
    """

    name = "order_search"
    nominal_ops = 40
    area_ops = len(SUBSETS)

    def __init__(self, seed: int) -> None:
        self.tech = generic_bicmos_1u()
        self.env = Environment(self.tech)
        self._rng = _rng(self.name, seed)
        self._subsets: List[Tuple[int, ...]] = []
        self._scales: Dict[Tuple[int, int], List[float]] = {}

    def next_input(self) -> List[Step]:
        if not self._subsets:
            self._subsets = self._rng.sample(SUBSETS, len(SUBSETS))
            self._scales = {(shape, axis): self._rng.sample(SCALES, len(SCALES))
                            for shape in range(len(SHAPES)) for axis in (0, 1)}
        chosen = list(self._subsets.pop())
        self._rng.shuffle(chosen)
        steps = []
        for i, shape in enumerate(chosen):
            w, h, direction = SHAPES[shape]
            obj = device(self.tech, f"dev{i}", _scaled(w, self._scales[shape, 0].pop()),
                         _scaled(h, self._scales[shape, 1].pop()), f"n{i}")
            steps.append(Step(obj, direction))
        return steps

    def op(self, inp: List[Step]) -> Output:
        result = self.env.optimize_order("m", inp)
        return Output(result.best, extra=result)

    def check(self, inp: List[Step], out: Output) -> float:
        result = out.extra
        if sorted(result.best_order) != list(range(len(inp))):
            raise CheckFailed(f"best_order {result.best_order} is no permutation")
        rating = Rating()
        if rating.evaluate(result.best) != result.best_score:
            raise CheckFailed("best_score does not rate the returned layout")
        naive = OrderOptimizer(Compactor()).run_order("m", self.tech, inp,
                                                      range(len(inp)))
        if result.best_score > rating.evaluate(naive):
            raise CheckFailed("best order is worse than the input order")
        return _area_um2(out.layout)


# ---------------------------------------------------------------------------
class ChipDrc(Workload):
    """Sign-off of a fresh 2x2 amplifier chip: DRC, nets, parasitics, GDS."""

    name = "chip_drc"
    nominal_ops = 20
    area_ops = 10
    TILES = 2

    def __init__(self, seed: int) -> None:
        self.tech = generic_bicmos_1u()
        self.amp = build_amplifier(self.tech)
        self.amp.normalize()
        self.tile_components = len(ConnectivityIndex(self.amp.rects, self.tech).components())
        self._rng = _rng(self.name, seed)

    def next_input(self) -> Tuple[int, int]:
        lo, hi = self.tech.um(20.0), self.tech.um(40.0)
        return self._rng.randrange(lo, hi + 1, 100), self._rng.randrange(lo, hi + 1, 100)

    def op(self, inp: Tuple[int, int]) -> Output:
        gap_x, gap_y = inp
        pitch_x, pitch_y = self.amp.width + gap_x, self.amp.height + gap_y
        chip = LayoutObject("Chip", self.tech)
        for row in range(self.TILES):
            for col in range(self.TILES):
                tile = self.amp.copy(f"tile{row}{col}")
                tile.translate(col * pitch_x, row * pitch_y)
                chip.merge(tile)
        violations = run_drc(chip)
        components = ConnectivityIndex(chip.rects, self.tech).components()
        capacitance_report(chip.rects, self.tech)
        return Output(chip, dumps_gds(chip), (violations, len(components)))

    def check(self, inp: Tuple[int, int], out: Output) -> float:
        violations, components = out.extra
        if violations:
            raise CheckFailed(f"{len(violations)} DRC violations")
        expected = self.TILES ** 2 * self.tile_components
        if components != expected:
            raise CheckFailed(f"{components} connected components, expected {expected}")
        return _area_um2(out.layout)


WORKLOADS = {w.name: w for w in (Amplifier, PldlCells, OrderSearch, ChipDrc)}
