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

A link addresses its rects by *seq*, their position in the owning
:class:`~repro.db.object.LayoutObject`'s ``rects``, so a copy of a link is a
copy of its numbers (``merge`` shifts them by the parent's length).
:meth:`Link.rebuild` reads the rects and writes them through the owner
(``set_rect``; a growing array appends its new cuts to the owner), which
keeps the owner's rect store exact.  When the compactor moves an edge, the
owner re-solves the affected links.  The solve is seeded: it starts from
the moved rect's links plus the object's *pending* links (appended,
mirrored, or restored by an ALT rollback) and follows a seq -> link
adjacency from there, rebuilding links in the index order and passes of a
full fixpoint over all links — so a rebuild must depend only on the link's
own rects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..geometry import Direction, Rect

if TYPE_CHECKING:
    from .object import LayoutObject


class Link:
    """Base class for geometric dependency records."""

    def rebuild(self, obj: "LayoutObject") -> None:
        """Re-satisfy the dependency in *obj* after one of its rects changed."""
        raise NotImplementedError

    def involved_seqs(self) -> List[int]:
        """The seq of every rect the link reads or writes."""
        raise NotImplementedError

    def copy(self, shift: int = 0) -> "Link":
        """An independent copy whose seqs are *shift* further on."""
        raise NotImplementedError


class InsideLink(Link):
    """Rect *inner* must lie inside every *outer* shrunk by its margin.

    Rebuilding clamps the inner rectangle; it never grows outers (growth
    happens once, at primitive-construction time).
    """

    def __init__(self, inner: int, outers: Sequence[Tuple[int, int]]) -> None:
        self.inner = inner
        self.outers = list(outers)
        #: Edges exempted from clamping — set when the compactor's
        #: auto-connection stretches the inner past its construction-time
        #: enclosure (a connected wire legitimately leaves its row).
        self.released: set = set()

    def rebuild(self, obj: "LayoutObject") -> None:
        """Clamp the inner rect into the margin-shrunk outer intersection."""
        rects = obj.rects
        inner = rects[self.inner]
        x1, y1, x2, y2 = inner.x1, inner.y1, inner.x2, inner.y2
        released = self.released
        for seq, margin in self.outers:
            outer = rects[seq]
            if Direction.WEST not in released and x1 < outer.x1 + margin:
                x1 = outer.x1 + margin
            if Direction.EAST not in released and x2 > outer.x2 - margin:
                x2 = outer.x2 - margin
            if Direction.SOUTH not in released and y1 < outer.y1 + margin:
                y1 = outer.y1 + margin
            if Direction.NORTH not in released and y2 > outer.y2 - margin:
                y2 = outer.y2 - margin
        obj.set_rect(self.inner, x1, y1, x2, y2)

    def release(self, direction: Direction) -> None:
        """Permanently exempt one inner edge from enclosure clamping."""
        self.released.add(direction)

    def involved_seqs(self) -> List[int]:
        return [self.inner] + [seq for seq, _ in self.outers]

    def copy(self, shift: int = 0) -> "InsideLink":
        link = InsideLink(
            self.inner + shift, [(seq + shift, m) for seq, m in self.outers]
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
        outers: Sequence[Tuple[int, int]],
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
        #: Seqs of the cuts placed so far (collapsed ones included).
        self.cuts: List[int] = []
        #: Creation-time obs.Provenance of the array (set by
        #: LayoutObject.add_array when recording); rebuild() stamps new
        #: cuts with a "rebuild" lineage derived from it.
        self.prov = None

    # ------------------------------------------------------------------
    def region(self, rects: Sequence[Rect]) -> Optional[Rect]:
        """Intersection of all outers (seqs into *rects*) shrunk by their
        margins."""
        if not self.outers:
            return None
        outers = [(rects[seq], m) for seq, m in self.outers]
        x1 = max(o.x1 + m for o, m in outers)
        y1 = max(o.y1 + m for o, m in outers)
        x2 = min(o.x2 - m for o, m in outers)
        y2 = min(o.y2 - m for o, m in outers)
        if x2 < x1 or y2 < y1:
            return None
        return Rect(x1, y1, x2, y2, self.cut_layer, self.net)

    def count(self, extent: int) -> int:
        """Maximum cuts along one axis of the given extent."""
        if extent < self.cut_size:
            return 0
        return 1 + (extent - self.cut_size) // (self.cut_size + self.cut_space)

    def rebuild(self, obj: "LayoutObject") -> None:
        """Re-place the cut grid in *obj*.

        Existing cuts are moved first, extra cuts are appended to *obj*,
        and surplus cuts collapse to empty so they vanish from output.
        """
        region = self.region(obj.rects)
        placements: List[Tuple[int, int]] = []
        if region is not None:
            xs = self._positions(region.x1, region.x2)
            ys = self._positions(region.y1, region.y2)
            placements = [(x, y) for y in ys for x in xs]

        cuts, size = self.cuts, self.cut_size
        derived = None
        for index, (x, y) in enumerate(placements):
            if index < len(cuts):
                obj.set_rect(cuts[index], x, y, x + size, y + size)
            else:
                if derived is None and self.prov is not None:
                    derived = self.prov.derived("rebuild", self.prov)
                cuts.append(obj._append(
                    Rect(x, y, x + size, y + size, self.cut_layer, self.net,
                         prov=derived)
                ))
        rects = obj.rects
        for seq in cuts[len(placements):]:
            rect = rects[seq]
            obj.set_rect(seq, rect.x1, rect.y1, rect.x1, rect.y1)

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

    def involved_seqs(self) -> List[int]:
        return self.cuts + [seq for seq, _ in self.outers]

    def copy(self, shift: int = 0) -> "ArrayLink":
        link = ArrayLink(
            self.cut_layer,
            self.cut_size,
            self.cut_space,
            [(seq + shift, m) for seq, m in self.outers],
            self.net,
        )
        link.cuts = [seq + shift for seq in self.cuts]
        link.prov = self.prov
        return link
