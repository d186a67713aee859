"""Axis-aligned rectangles — the only geometric primitive in the database.

The paper keeps the layout data structure efficient by converting every
polygon into "simple rectangular structures" (Sec. 2.1).  A :class:`Rect`
carries, besides its integer coordinates and layer:

* a *potential* (net name) — edges on the same potential are ignored during
  compaction and merged afterwards (Sec. 2.3, Fig. 5a);
* per-edge *fixed/variable* flags — a variable edge may be moved inward by the
  compactor to produce a denser layout (Sec. 2.3, Fig. 5b);
* a *no_overlap* property — "a special property for every rectangle can avoid
  undesired overlaps (parasitic capacitances)" (Sec. 2.3).

All coordinates are integers in database units (dbu); the technology file
defines the dbu-per-micron scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from .direction import Axis, Direction


@dataclass
class EdgeProperty:
    """Mutable per-edge attributes of a rectangle.

    ``variable`` marks an edge the compactor may move inward ("shrink") when
    it is the critical edge blocking a compaction step.  ``min_coord`` /
    ``max_coord`` bound that movement; ``None`` means the owning object's
    rebuild logic decides the limit.
    """

    variable: bool = False
    min_coord: Optional[int] = None
    max_coord: Optional[int] = None

    def copy(self) -> "EdgeProperty":
        """Return an independent copy."""
        return EdgeProperty(self.variable, self.min_coord, self.max_coord)


class Rect:
    """An axis-aligned rectangle on a layer.

    Coordinates are canonical: ``x1 <= x2`` and ``y1 <= y2`` always hold;
    the constructor normalises swapped corners.  Degenerate (zero-area)
    rectangles are permitted — they arise transiently during subtraction —
    but most algorithms filter them out via :meth:`is_empty`.
    """

    __slots__ = ("x1", "y1", "x2", "y2", "layer", "net", "no_overlap", "_edges",
                 "prov")

    def __init__(
        self,
        x1: int,
        y1: int,
        x2: int,
        y2: int,
        layer: str,
        net: Optional[str] = None,
        no_overlap: bool = False,
        edges: Optional[Dict[Direction, EdgeProperty]] = None,
        prov: Optional[object] = None,
    ) -> None:
        if x2 < x1:
            x1, x2 = x2, x1
        if y2 < y1:
            y1, y2 = y2, y1
        self.x1 = int(x1)
        self.y1 = int(y1)
        self.x2 = int(x2)
        self.y2 = int(y2)
        self.layer = layer
        self.net = net
        self.no_overlap = no_overlap
        self._edges: Dict[Direction, EdgeProperty] = edges if edges is not None else {}
        #: Optional obs.Provenance record; never affects geometry or output.
        self.prov = prov

    # ------------------------------------------------------------------
    # basic metrics
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Horizontal extent."""
        return self.x2 - self.x1

    @property
    def height(self) -> int:
        """Vertical extent."""
        return self.y2 - self.y1

    @property
    def area(self) -> int:
        """Enclosed area in dbu²."""
        return self.width * self.height

    @property
    def center(self) -> Tuple[int, int]:
        """Integer centre point (floor of the true centre)."""
        return ((self.x1 + self.x2) // 2, (self.y1 + self.y2) // 2)

    @property
    def is_empty(self) -> bool:
        """True when the rectangle has zero area."""
        return self.x1 >= self.x2 or self.y1 >= self.y2

    def short_side(self) -> int:
        """Length of the shorter side (used by width rules)."""
        return min(self.width, self.height)

    # ------------------------------------------------------------------
    # edge access
    # ------------------------------------------------------------------
    def edge(self, direction: Direction) -> EdgeProperty:
        """Return (creating lazily) the property record of an edge."""
        prop = self._edges.get(direction)
        if prop is None:
            prop = EdgeProperty()
            self._edges[direction] = prop
        return prop

    def edge_coord(self, direction: Direction) -> int:
        """Coordinate of the edge facing *direction*."""
        if direction is Direction.NORTH:
            return self.y2
        if direction is Direction.SOUTH:
            return self.y1
        if direction is Direction.EAST:
            return self.x2
        return self.x1

    def set_variable(self, *directions: Direction) -> "Rect":
        """Mark edges as variable; with no arguments, mark all four."""
        targets: Iterable[Direction] = directions or tuple(Direction)
        for direction in targets:
            self.edge(direction).variable = True
        return self

    def set_fixed(self, *directions: Direction) -> "Rect":
        """Mark edges as fixed; with no arguments, mark all four."""
        targets: Iterable[Direction] = directions or tuple(Direction)
        for direction in targets:
            self.edge(direction).variable = False
        return self

    def edge_variable(self, direction: Direction) -> bool:
        """True when the edge facing *direction* is marked variable."""
        prop = self._edges.get(direction)
        return bool(prop and prop.variable)

    def edge_state(self) -> Tuple[Tuple[str, bool, Optional[int], Optional[int]], ...]:
        """Hashable summary of the non-default edge properties.

        ``()`` for a rect whose edges are all fixed and unbounded, however
        many default records :meth:`edge` created lazily; otherwise one
        ``(direction name, variable, min_coord, max_coord)`` per edge that
        differs from the default, in :class:`Direction` order.
        """
        edges = self._edges
        if not edges:
            return ()
        return tuple(
            (direction.name, prop.variable, prop.min_coord, prop.max_coord)
            for direction in Direction
            if (prop := edges.get(direction)) is not None
            and (prop.variable or prop.min_coord is not None
                 or prop.max_coord is not None)
        )

    # ------------------------------------------------------------------
    # spatial predicates
    # ------------------------------------------------------------------
    def intersects(self, other: "Rect") -> bool:
        """True when interiors overlap (edge-touching does not count)."""
        return (
            self.x1 < other.x2
            and other.x1 < self.x2
            and self.y1 < other.y2
            and other.y1 < self.y2
        )

    def touches_or_intersects(self, other: "Rect") -> bool:
        """True when the closed rectangles share at least a point."""
        return (
            self.x1 <= other.x2
            and other.x1 <= self.x2
            and self.y1 <= other.y2
            and other.y1 <= self.y2
        )

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """Overlapping region, or ``None`` when interiors are disjoint."""
        x1 = max(self.x1, other.x1)
        y1 = max(self.y1, other.y1)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x1 >= x2 or y1 >= y2:
            return None
        return Rect(x1, y1, x2, y2, self.layer, self.net)

    def contains(self, other: "Rect") -> bool:
        """True when *other* lies completely inside (or on) this rect."""
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    def contains_point(self, x: int, y: int) -> bool:
        """True when (x, y) lies inside or on the boundary."""
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def span(self, axis: Axis) -> Tuple[int, int]:
        """Interval covered along *axis*."""
        if axis is Axis.HORIZONTAL:
            return (self.x1, self.x2)
        return (self.y1, self.y2)

    def spans_overlap(self, other: "Rect", axis: Axis, margin: int = 0) -> bool:
        """True when projections onto *axis*, grown by *margin*, overlap."""
        a1, a2 = self.span(axis)
        b1, b2 = other.span(axis)
        return a1 - margin < b2 and b1 - margin < a2

    def distance(self, other: "Rect") -> int:
        """Chebyshev-style separation: max of per-axis gaps, 0 if touching."""
        dx = max(self.x1 - other.x2, other.x1 - self.x2, 0)
        dy = max(self.y1 - other.y2, other.y1 - self.y2, 0)
        return max(dx, dy)

    # ------------------------------------------------------------------
    # constructive operations
    # ------------------------------------------------------------------
    def translate(self, dx: int, dy: int) -> "Rect":
        """Move in place (edge-movement bounds move along); returns self."""
        self.x1 += dx
        self.x2 += dx
        self.y1 += dy
        self.y2 += dy
        for direction, prop in self._edges.items():
            shift = dx if direction.axis is Axis.HORIZONTAL else dy
            if prop.min_coord is not None:
                prop.min_coord += shift
            if prop.max_coord is not None:
                prop.max_coord += shift
        return self

    def translated(self, dx: int, dy: int) -> "Rect":
        """Return a moved copy."""
        return self.copy().translate(dx, dy)

    def grown(self, margin: int) -> "Rect":
        """Return a copy expanded by *margin* on every side."""
        return Rect(
            self.x1 - margin,
            self.y1 - margin,
            self.x2 + margin,
            self.y2 + margin,
            self.layer,
            self.net,
            self.no_overlap,
        )

    def copy(self) -> "Rect":
        """Deep copy including edge properties (shares the provenance record).

        Coordinates are copied verbatim: a rect written inverted (and so
        empty) stays inverted, where the constructor would swap its corners.
        """
        twin = Rect.__new__(Rect)
        twin.x1, twin.y1, twin.x2, twin.y2 = self.x1, self.y1, self.x2, self.y2
        twin.layer = self.layer
        twin.net = self.net
        twin.no_overlap = self.no_overlap
        twin._edges = {d: p.copy() for d, p in self._edges.items()}
        twin.prov = self.prov
        return twin

    def merged(self, other: "Rect") -> "Rect":
        """Bounding box of both rects on this rect's layer/net."""
        return Rect(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
            self.layer,
            self.net,
            self.no_overlap,
        )

    def as_tuple(self) -> Tuple[int, int, int, int]:
        """(x1, y1, x2, y2)."""
        return (self.x1, self.y1, self.x2, self.y2)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return (
            self.as_tuple() == other.as_tuple()
            and self.layer == other.layer
            and self.net == other.net
        )

    def __hash__(self) -> int:
        return hash((self.as_tuple(), self.layer, self.net))

    def __repr__(self) -> str:
        net = f" net={self.net!r}" if self.net else ""
        return f"Rect({self.x1}, {self.y1}, {self.x2}, {self.y2}, {self.layer!r}{net})"


@dataclass(frozen=True)
class Point:
    """An integer lattice point (used by routers)."""

    x: int
    y: int

    def translated(self, dx: int, dy: int) -> "Point":
        """Return a moved copy."""
        return Point(self.x + dx, self.y + dy)


def bounding_box(rects: Iterable[Rect]) -> Optional[Rect]:
    """Bounding box of a rect collection on the pseudo-layer ``"bbox"``.

    Returns ``None`` for an empty collection.
    """
    rects = [r for r in rects if not r.is_empty]
    if not rects:
        return None
    return Rect(
        min(r.x1 for r in rects),
        min(r.y1 for r in rects),
        max(r.x2 for r in rects),
        max(r.y2 for r in rects),
        "bbox",
    )
