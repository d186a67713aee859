"""The hierarchical layout object — the environment's working data structure.

A :class:`LayoutObject` is what a PLDL entity builds: a bag of rectangles
plus the rebuild links recorded by the primitives that created them.  Objects
are constructed stand-alone and then *compacted into* a parent object
(Sec. 2.3); merging flattens the child's geometry into the parent, which is
why "only outer edges of the main object have to be kept in the data
structure".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..geometry import Direction, Rect, Transform, bounding_box, union_area
from ..obs.provenance import get_recorder
from ..tech import Technology
from ..tech.layer import LayerKind
from .links import ArrayLink, InsideLink, Link


class Label:
    """A text annotation (exported to GDS as a text element)."""

    def __init__(self, text: str, x: int, y: int, layer: str) -> None:
        self.text = text
        self.x = x
        self.y = y
        self.layer = layer

    def copy(self) -> "Label":
        """Return an independent copy."""
        return Label(self.text, self.x, self.y, self.layer)

    def __repr__(self) -> str:
        return f"Label({self.text!r}, {self.x}, {self.y}, {self.layer!r})"


class LayoutObject:
    """A named, technology-bound collection of rectangles and rebuild links."""

    def __init__(self, name: str, tech: Technology) -> None:
        self.name = name
        self.tech = tech
        self.rects: List[Rect] = []
        self.links: List[Link] = []
        self.labels: List[Label] = []
        #: Lazily built incremental spatial index (compact.index).  Never
        #: affects results — only how fast the compactor finds them.
        self._index = None

    # ------------------------------------------------------------------
    # spatial index
    # ------------------------------------------------------------------
    def frontier_index(self):
        """The object's incremental frontier index, built/synced on demand.

        Appends since the last query are folded in incrementally; a
        replaced rect list or an explicit :meth:`invalidate_index` triggers
        a full rebuild.  See :class:`repro.compact.index.FrontierIndex`.
        """
        if self._index is None:
            from ..compact.index import FrontierIndex

            self._index = FrontierIndex(self)
        self._index.sync()
        return self._index

    def invalidate_index(self) -> None:
        """Force a full index rebuild on the next query.

        Required after mutating rect coordinates, nets, layers or
        ``no_overlap`` flags directly instead of through this object's
        methods.
        """
        if self._index is not None:
            self._index.mark_dirty()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_rect(self, rect: Rect) -> Rect:
        """Append a rectangle (validating its layer) and return it."""
        self.tech.layer(rect.layer)
        recorder = get_recorder()
        if recorder.enabled and rect.prov is None:
            recorder.stamp(rect)
        self.rects.append(rect)
        return rect

    def add_link(self, link: Link) -> Link:
        """Register a rebuild link."""
        self.links.append(link)
        return link

    def add_label(self, text: str, x: int, y: int, layer: str) -> Label:
        """Attach a text label."""
        label = Label(text, x, y, layer)
        self.labels.append(label)
        return label

    def merge(self, other: "LayoutObject") -> List[Rect]:
        """Copy *other*'s geometry, links and labels into this object.

        Returns the newly added rect objects (in *other*'s rect order) so the
        caller — typically the compactor — can keep tracking them.
        """
        mapping: Dict[int, Rect] = {}
        added: List[Rect] = []
        for rect in other.rects:
            clone = rect.copy()
            mapping[id(rect)] = clone
            self.rects.append(clone)
            added.append(clone)
        for link in other.links:
            self.links.append(link.remapped(mapping))
        for label in other.labels:
            self.labels.append(label.copy())
        return added

    def copy(self, name: Optional[str] = None) -> "LayoutObject":
        """Deep copy — the PLDL statement ``trans2 = trans1``."""
        clone = self.snapshot()
        if name is not None:
            clone.name = name
        return clone

    def snapshot(self) -> "LayoutObject":
        """Deep copy tuned for state caching (the order optimizer's trees).

        Equivalent to :meth:`copy` but skips object construction overhead and
        layer re-validation: rects, links and labels are cloned directly with
        link references remapped.  The search tree snapshots one object per
        visited order prefix, so this is a hot path.
        """
        clone = LayoutObject.__new__(LayoutObject)
        clone.name = self.name
        clone.tech = self.tech
        mapping: Dict[int, Rect] = {}
        rects: List[Rect] = []
        for rect in self.rects:
            twin = rect.copy()
            mapping[id(rect)] = twin
            rects.append(twin)
        clone.rects = rects
        clone.links = [link.remapped(mapping) for link in self.links]
        clone.labels = [label.copy() for label in self.labels]
        # Carry the spatial index (with its warm frontier caches) across the
        # snapshot: rect positions are preserved, so the clone's index is
        # this one with every rect reference remapped.  The search-tree
        # optimizer snapshots one layout per visited order prefix; without
        # this the clone would re-sweep every layer on its first step.
        index = self._index
        clone._index = (
            index.clone_into(clone, mapping)
            if index is not None and index.in_sync()
            else None
        )
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nonempty_rects(self) -> List[Rect]:
        """All rects with positive area (empty ones are collapsed array cuts)."""
        return [r for r in self.rects if not r.is_empty]

    def rects_on(self, layer: str) -> List[Rect]:
        """Non-empty rects on *layer*."""
        return [r for r in self.nonempty_rects if r.layer == layer]

    def rects_on_net(self, net: str) -> List[Rect]:
        """Non-empty rects assigned to *net*."""
        return [r for r in self.nonempty_rects if r.net == net]

    def nets(self) -> Set[str]:
        """All net names present."""
        return {r.net for r in self.nonempty_rects if r.net}

    def layers(self) -> Set[str]:
        """All layers with geometry."""
        return {r.layer for r in self.nonempty_rects}

    def bbox(self) -> Optional[Rect]:
        """Bounding box over all non-empty rects, or None when empty.

        Served from the :class:`~repro.compact.index.FrontierIndex` cache
        when one is attached and current (the compactor queries the bbox
        after every step); otherwise a from-scratch scan.
        """
        index = self._index
        if index is not None and index.in_sync():
            return index.bbox()
        return bounding_box(self.nonempty_rects)

    @property
    def width(self) -> int:
        """Bounding-box width (0 when empty)."""
        box = self.bbox()
        return box.width if box else 0

    @property
    def height(self) -> int:
        """Bounding-box height (0 when empty)."""
        box = self.bbox()
        return box.height if box else 0

    def area(self) -> int:
        """Bounding-box area — the primary term of the rating function."""
        box = self.bbox()
        return box.area if box else 0

    def drawn_area(self) -> int:
        """Union area of the drawn geometry (overlaps counted once)."""
        return union_area(self.nonempty_rects)

    def is_empty(self) -> bool:
        """True when the object holds no non-empty geometry.

        Served from the index's exact non-empty count when one is attached
        and current; otherwise a rect scan.
        """
        index = self._index
        if index is not None and index.in_sync():
            return index.is_empty()
        return not self.nonempty_rects

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def translate(self, dx: int, dy: int) -> "LayoutObject":
        """Move every rect and label; returns self."""
        for rect in self.rects:
            rect.translate(dx, dy)
        for label in self.labels:
            label.x += dx
            label.y += dy
        if self._index is not None:
            # A uniform shift preserves every sorted order and sweep result.
            self._index.note_translate(dx, dy)
        return self

    def apply_transform(self, transform: Transform) -> "LayoutObject":
        """Apply an orthogonal transform in place; returns self.

        Rect objects are mutated (not replaced) so links remain valid.
        """
        for rect in self.rects:
            image = transform.apply_rect(rect)
            rect.x1, rect.y1, rect.x2, rect.y2 = image.as_tuple()
            rect._edges = image._edges
        for label in self.labels:
            label.x, label.y = transform.apply_point(label.x, label.y)
        self.invalidate_index()
        return self

    def mirror_x(self, axis_y: int = 0) -> "LayoutObject":
        """Mirror about the horizontal line y = axis_y."""
        return self.apply_transform(Transform.mirror_about_x(axis_y))

    def mirror_y(self, axis_x: int = 0) -> "LayoutObject":
        """Mirror about the vertical line x = axis_x."""
        return self.apply_transform(Transform.mirror_about_y(axis_x))

    def normalize(self) -> "LayoutObject":
        """Translate so the bounding box's lower-left corner sits at (0, 0)."""
        box = self.bbox()
        if box is not None:
            self.translate(-box.x1, -box.y1)
        return self

    def set_net(self, net: str, layer: Optional[str] = None) -> "LayoutObject":
        """Assign *net* to every rect (optionally restricted to *layer*)."""
        for rect in self.rects:
            if layer is None or rect.layer == layer:
                rect.net = net
        self.invalidate_index()
        return self

    def rename_nets(self, mapping: Dict[str, str]) -> "LayoutObject":
        """Rename nets per *mapping*; used when mirroring matched halves.

        Swaps are supported (``{"a": "b", "b": "a"}``) — the mapping is
        applied simultaneously, not sequentially.
        """
        for rect in self.rects:
            if rect.net in mapping:
                rect.net = mapping[rect.net]
        for link in self.links:
            net = getattr(link, "net", None)
            if net in mapping:
                link.net = mapping[net]
        self.invalidate_index()
        return self

    # ------------------------------------------------------------------
    # variable-edge machinery (Sec. 2.3 / Fig. 5b)
    # ------------------------------------------------------------------
    def _min_dimension(self, rect: Rect) -> int:
        """Smallest legal extent of *rect* along either axis."""
        cut = self.tech.rules.cut_size(rect.layer)
        if cut is not None:
            return cut
        width = self.tech.rules.width(rect.layer)
        return width if width is not None else 0

    def shrink_limit(self, rect: Rect, direction: Direction) -> int:
        """Furthest coordinate the edge facing *direction* may move inward.

        For NORTH/EAST edges the result is a lower bound on the coordinate;
        for SOUTH/WEST edges an upper bound.  The limit honours the rect's
        own minimum width, explicit edge bounds, and — through the rebuild
        links — the survival of enclosed rects and at least one array cut.
        """
        return self._shrink_limit(rect, direction, frozenset())

    def _shrink_limit(self, rect: Rect, direction: Direction, visiting: frozenset) -> int:
        sign = 1 if direction.is_positive else -1
        key = (id(rect), direction)
        if key in visiting:
            return rect.edge_coord(direction)
        visiting = visiting | {key}

        bounds: List[int] = []
        # The rect itself must keep its minimum extent.
        opposite = rect.edge_coord(direction.opposite)
        bounds.append(opposite + sign * self._min_dimension(rect))

        # Explicit per-edge bounds.
        prop = rect.edge(direction)
        if sign > 0 and prop.min_coord is not None:
            bounds.append(prop.min_coord)
        if sign < 0 and prop.max_coord is not None:
            bounds.append(prop.max_coord)

        for link in self.links:
            if isinstance(link, InsideLink):
                for outer, margin in link.outers:
                    if outer is rect:
                        inner_limit = self._shrink_limit(link.inner, direction, visiting)
                        bounds.append(inner_limit + sign * margin)
            elif isinstance(link, ArrayLink):
                for outer, margin in link.outers:
                    if outer is rect:
                        far = self._array_far_side(link, direction, rect)
                        bounds.append(far + sign * (link.cut_size + margin))

        return max(bounds) if sign > 0 else min(bounds)

    def _array_far_side(self, link: ArrayLink, direction: Direction, moving: Rect) -> int:
        """Region boundary opposite the moving edge of an array's outers."""
        other = direction.opposite
        coords = [
            outer.edge_coord(other) - other.dx * margin - other.dy * margin
            for outer, margin in link.outers
        ]
        # The region's far side is the tightest of the outers' far edges.
        return max(coords) if direction.is_positive else min(coords)

    def move_edge(self, rect: Rect, direction: Direction, coord: int) -> int:
        """Move an edge inward to *coord* (clamped to the shrink limit).

        Dependent links are rebuilt.  Returns the coordinate actually set.
        """
        limit = self.shrink_limit(rect, direction)
        if direction.is_positive:
            coord = max(coord, limit)
            coord = min(coord, rect.edge_coord(direction))
        else:
            coord = min(coord, limit)
            coord = max(coord, rect.edge_coord(direction))
        rect.set_edge_coord(direction, coord)
        self._rebuild_links_tracked(rect)
        return coord

    def move_stretch(self, rect: Rect, direction: Direction, coord: int) -> None:
        """Move an edge *outward* to *coord* (auto-connection stretch).

        Any enclosure clamp on that edge is released first so rebuilds do not
        pull the stretched wire back; dependent arrays are then recomputed
        (a longer wire may admit more cuts).
        """
        current = rect.edge_coord(direction)
        outward = coord > current if direction.is_positive else coord < current
        if not outward:
            return
        for link in self.links:
            if isinstance(link, InsideLink) and link.inner is rect:
                link.release(direction)
        rect.set_edge_coord(direction, coord)
        self._rebuild_links_tracked(rect)

    def rebuild_links(self) -> None:
        """Re-solve every link to a fixpoint (bounded passes).

        Callers typically mutated rect coordinates directly beforehand
        (primitive construction), so any live index is conservatively
        invalidated; the compactor's edge moves go through the tracked
        variant instead, which updates the index precisely.
        """
        self._solve_links()
        self.invalidate_index()

    def _rebuild_links_tracked(self, moved: Rect) -> None:
        """Re-solve links after an edge move, keeping the index current."""
        if self._index is None:
            self._solve_links()
            return
        changed = self._solve_links(collect=True)
        changed.add(id(moved))
        self._index.note_changed_ids(changed)

    def _solve_links(self, collect: bool = False) -> Optional[Set[int]]:
        """Fixpoint link solve; optionally return ids of rects that moved."""
        changed: Optional[Set[int]] = set() if collect else None
        for _ in range(len(self.links) + 2):
            before = {}
            for link in self.links:
                for r in link.involved_rects():
                    before[id(r)] = r.as_tuple()
            for link in self.links:
                link.rebuild()
            stable = True
            for link in self.links:
                for r in link.involved_rects():
                    rid = id(r)
                    if before.get(rid) != r.as_tuple():
                        stable = False
                        if changed is not None:
                            changed.add(rid)
            if stable:
                break
        return changed

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"LayoutObject({self.name!r}, rects={len(self.nonempty_rects)},"
            f" bbox={self.bbox()!r})"
        )
