"""Rebuild links: the dependency records behind variable-edge optimization.

Sec. 2.3: "If an edge is variable and defines the minimum distance between the
two objects, the compactor tries to move it ... The objects affected by the
movement are rebuilt automatically" — e.g. in Fig. 5b the metal1 rectangle of
a contact row is shrunk and "the array of contact-rectangles was recalculated".

Primitives register a link for every geometric dependency they create:

* :class:`InsideLink` — an inner rectangle must stay inside one or more outer
  rectangles with per-outer margins (INBOX).
* :class:`ArrayLink` — a maximal equidistant grid of cut rectangles inside the
  intersection of its outer rectangles (ARRAY).

When the compactor moves an edge, the owning :class:`~repro.db.object.
LayoutObject` re-solves the affected links, clamping inner rectangles and
re-placing arrays.  The solve is seeded: it starts from the moved rect's
links plus the object's *pending* links (appended, mirrored, or restored
by an ALT rollback) and follows a rect-id -> link adjacency from there,
rebuilding links in the index order and passes of a full fixpoint over all
links — so a rebuild must depend only on the link's own rects.  Cuts a
growing array creates are added to the owner's rects by the solver.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry import Direction, Rect
from ..obs.provenance import get_recorder


class Link:
    """Base class for geometric dependency records."""

    def rebuild(self) -> None:
        """Re-satisfy the dependency after one of its rects changed."""
        raise NotImplementedError

    def involved_rects(self) -> List[Rect]:
        """Every rect referenced (for copy remapping)."""
        raise NotImplementedError

    def remapped(self, mapping: Dict[int, Rect]) -> "Link":
        """Return a copy with rect references swapped per ``id`` mapping."""
        raise NotImplementedError


class InsideLink(Link):
    """*inner* must lie inside every *outer* shrunk by its margin.

    Rebuilding clamps the inner rectangle; it never grows outers (growth
    happens once, at primitive-construction time).
    """

    def __init__(self, inner: Rect, outers: Sequence[Tuple[Rect, int]]) -> None:
        self.inner = inner
        self.outers = list(outers)
        #: Edges exempted from clamping — set when the compactor's
        #: auto-connection stretches the inner past its construction-time
        #: enclosure (a connected wire legitimately leaves its row).
        self.released: set = set()

    def rebuild(self) -> None:
        """Clamp the inner rect into the margin-shrunk outer intersection."""
        for outer, margin in self.outers:
            if Direction.WEST not in self.released and self.inner.x1 < outer.x1 + margin:
                self.inner.x1 = outer.x1 + margin
            if Direction.EAST not in self.released and self.inner.x2 > outer.x2 - margin:
                self.inner.x2 = outer.x2 - margin
            if Direction.SOUTH not in self.released and self.inner.y1 < outer.y1 + margin:
                self.inner.y1 = outer.y1 + margin
            if Direction.NORTH not in self.released and self.inner.y2 > outer.y2 - margin:
                self.inner.y2 = outer.y2 - margin

    def release(self, direction: Direction) -> None:
        """Permanently exempt one inner edge from enclosure clamping."""
        self.released.add(direction)

    def inner_bound(self, direction: Direction) -> int:
        """Tightest coordinate the inner's *direction* edge may reach."""
        bounds = [
            outer.edge_coord(direction) - direction.dx * margin - direction.dy * margin
            for outer, margin in self.outers
        ]
        return min(bounds) if direction.is_positive else max(bounds)

    def involved_rects(self) -> List[Rect]:
        return [self.inner] + [outer for outer, _ in self.outers]

    def remapped(self, mapping: Dict[int, Rect]) -> "InsideLink":
        link = InsideLink(
            mapping.get(id(self.inner), self.inner),
            [(mapping.get(id(o), o), m) for o, m in self.outers],
        )
        link.released = set(self.released)
        return link


class ArrayLink(Link):
    """A maximal, equidistant array of square cuts inside its outers.

    The placement reproduces ARRAY's contract: "The maximum number of
    rectangles which fits horizontally and vertically into the structure is
    calculated according to the necessary overlap and the contacts are placed
    equidistantly" (Sec. 2.2).
    """

    def __init__(
        self,
        cut_layer: str,
        cut_size: int,
        cut_space: int,
        outers: Sequence[Tuple[Rect, int]],
        net: Optional[str] = None,
    ) -> None:
        if cut_size <= 0:
            raise ValueError("cut size must be positive")
        if cut_space < 0:
            raise ValueError("cut spacing must be non-negative")
        self.cut_layer = cut_layer
        self.cut_size = cut_size
        self.cut_space = cut_space
        self.outers = list(outers)
        self.net = net
        self.rects: List[Rect] = []
        #: Creation-time obs.Provenance of the array (set by the ARRAY
        #: primitive when recording); rebuild() stamps new cuts with a
        #: "rebuild" lineage derived from it.
        self.prov = None

    # ------------------------------------------------------------------
    def region(self) -> Optional[Rect]:
        """Intersection of all outers shrunk by their margins."""
        if not self.outers:
            return None
        x1 = max(o.x1 + m for o, m in self.outers)
        y1 = max(o.y1 + m for o, m in self.outers)
        x2 = min(o.x2 - m for o, m in self.outers)
        y2 = min(o.y2 - m for o, m in self.outers)
        if x2 < x1 or y2 < y1:
            return None
        return Rect(x1, y1, x2, y2, self.cut_layer, self.net)

    def min_region_extent(self) -> int:
        """Smallest region side still admitting one cut."""
        return self.cut_size

    def count(self, extent: int) -> int:
        """Maximum cuts along one axis of the given extent."""
        if extent < self.cut_size:
            return 0
        return 1 + (extent - self.cut_size) // (self.cut_size + self.cut_space)

    def rebuild(self) -> None:
        """Re-place the cut grid; mutates :attr:`rects` in place.

        Existing rect objects are reused where possible so identity held by
        the owning object's rect list stays valid; surplus rects are emptied.
        Extra cuts are appended; the owner's link solver adds them to its
        rect list.
        """
        region = self.region()
        placements: List[Tuple[int, int]] = []
        if region is not None:
            xs = self._positions(region.x1, region.x2)
            ys = self._positions(region.y1, region.y2)
            placements = [(x, y) for y in ys for x in xs]

        derived = None
        for index, (x, y) in enumerate(placements):
            if index < len(self.rects):
                rect = self.rects[index]
                rect.x1, rect.y1 = x, y
                rect.x2, rect.y2 = x + self.cut_size, y + self.cut_size
            else:
                if derived is None and self.prov is not None:
                    derived = self.prov.derived("rebuild", self.prov)
                self.rects.append(
                    Rect(x, y, x + self.cut_size, y + self.cut_size,
                         self.cut_layer, self.net, prov=derived)
                )
        # Collapse any surplus rects to empty so they vanish from output.
        for rect in self.rects[len(placements):]:
            rect.x2, rect.y2 = rect.x1, rect.y1

    def _positions(self, lo: int, hi: int) -> List[int]:
        """Equidistant edge-to-edge cut origins along one axis."""
        extent = hi - lo
        n = self.count(extent)
        if n <= 0:
            return []
        if n == 1:
            return [lo + (extent - self.cut_size) // 2]
        span = extent - self.cut_size
        return [lo + round(i * span / (n - 1)) for i in range(n)]

    def stamp_provenance(self) -> None:
        """Record the creation context on the link and its current cuts.

        Array cuts bypass :meth:`LayoutObject.add_rect`, so every builder
        that creates an :class:`ArrayLink` calls this right after the
        creating :meth:`rebuild`; later rebuilds then derive "rebuild"
        lineage from the remembered record.  No-op when recording is off.
        """
        recorder = get_recorder()
        if not recorder.enabled:
            return
        self.prov = recorder.current()
        for rect in self.rects:
            if rect.prov is None:
                recorder.stamp(rect)

    def involved_rects(self) -> List[Rect]:
        return list(self.rects) + [outer for outer, _ in self.outers]

    def remapped(self, mapping: Dict[int, Rect]) -> "ArrayLink":
        link = ArrayLink(
            self.cut_layer,
            self.cut_size,
            self.cut_space,
            [(mapping.get(id(o), o), m) for o, m in self.outers],
            self.net,
        )
        link.rects = [mapping.get(id(r), r) for r in self.rects]
        link.prov = self.prov
        return link
