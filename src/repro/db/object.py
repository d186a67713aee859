"""The hierarchical layout object — the environment's working data structure.

A :class:`LayoutObject` is what a PLDL entity builds: a bag of rectangles
plus the rebuild links recorded by the primitives that created them.  Objects
are constructed stand-alone and then *compacted into* a parent object
(Sec. 2.3); merging flattens the child's geometry into the parent, which is
why "only outer edges of the main object have to be kept in the data
structure".

Link solving is incremental.  "The objects affected by the movement are
rebuilt automatically" (Sec. 2.3): after an edge move the object rebuilds
only the links reachable from the moved rect, through a rect-id -> link
adjacency, plus its *pending* links — those that may be unsatisfied
because they were appended (``add_link``, ``merge``), mirrored
(``apply_transform``; array placement rounds, so it is not mirror
invariant) or arrived in a replaced ``links`` list (the ALT rollback).
Links are taken in the same index order and pass structure as a full
fixpoint over every link, so the result is identical to that fixpoint
(kept as :func:`repro.verify.reference.solve_links_fixpoint`).

Geometric queries are served by the object's one :class:`~repro.db.store.
RectStore`, built on the first query and kept exact by the write methods
here.  Code that sets a rect's coordinates, net, layer or ``no_overlap``
flag directly must call :meth:`LayoutObject.invalidate_index` afterwards.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set

from ..geometry import Direction, Rect, Transform, union_area
from ..obs import get_tracer
from ..obs.provenance import get_recorder
from ..tech import Technology
from ..tech.layer import LayerKind
from .links import ArrayLink, InsideLink, Link
from .store import RectStore


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
        #: The rect store (repro.db.store), built on the first query.
        self._store: Optional[RectStore] = None
        #: Link-solver state, valid for the ``links`` list in _links_ref:
        #: how many of its links it covers, the indices that may be
        #: unsatisfied, and a lazily built rect id -> link indices map.
        self._links_ref: Optional[List[Link]] = None
        self._links_known = 0
        self._pending: Set[int] = set()
        self._adjacency: Optional[Dict[int, List[int]]] = None

    # ------------------------------------------------------------------
    # rect store
    # ------------------------------------------------------------------
    def store(self) -> RectStore:
        """The object's rect store, current with :attr:`rects`."""
        store = self._current_store()
        if store is None:
            store = self._store = RectStore(self.rects)
        store.sync()
        return store

    def _current_store(self) -> Optional[RectStore]:
        """The store unless :attr:`rects` was replaced or shortened under it
        (a stale store is dropped)."""
        store = self._store
        if store is not None and (
            store.rects is not self.rects or store.tracked > len(self.rects)
        ):
            store = self._store = None
        return store

    def invalidate_index(self) -> None:
        """Drop the rect store; the next query rebuilds it.

        Required after setting rect coordinates, nets, layers or
        ``no_overlap`` flags directly instead of through this object's
        methods.
        """
        self._store = None

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
        # Same links in the same order: the pending indices carry over; the
        # id-keyed adjacency is rebuilt lazily for the new rects.
        clone._links_ref = clone.links
        clone._links_known = self._links_known if self._links_ref is self.links else 0
        clone._pending = set(self._pending)
        clone._adjacency = None
        # Rect positions are preserved, so the store (with its cached views)
        # carries over: the order optimizer's search tree snapshots one
        # layout per visited prefix and resumes without re-sweeping.
        store = self._current_store()
        clone._store = store.copy(rects) if store is not None else None
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def nonempty_rects(self) -> List[Rect]:
        """All rects with positive area (empty ones are collapsed array cuts)."""
        return [r for r in self.rects if not r.is_empty]

    def rects_on(self, layer: str) -> List[Rect]:
        """Non-empty rects on *layer*, in rect-list order."""
        rects = self.rects
        return [rects[seq] for seq in self.store().seqs_on(layer)]

    def rects_on_net(self, net: str) -> List[Rect]:
        """Non-empty rects assigned to *net*, in rect-list order."""
        rects = self.rects
        return [rects[seq] for seq in self.store().seqs_on_net(net)]

    def nets(self) -> Set[str]:
        """All net names present."""
        return self.store().nets()

    def layers(self) -> Set[str]:
        """All layers with geometry."""
        return set(self.store().layers())

    def bbox(self) -> Optional[Rect]:
        """Bounding box over all non-empty rects, or None when empty."""
        return self.store().bbox()

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
        """True when the object holds no non-empty geometry."""
        return not self.store().nonempty

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
        store = self._current_store()
        if store is not None:
            # A uniform shift preserves every sorted order and sweep result.
            store.note_translate(dx, dy)
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
        # Array placement rounds, so a mirrored array is off its fixpoint.
        self._pending.update(range(self._links_known))
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
        """Re-solve every link (the seeded solver, seeded with all of them).

        Callers typically set rect coordinates directly beforehand
        (primitive construction), so the store is dropped; the compactor's
        edge moves go through the tracked variant instead, which keeps the
        store exact.
        """
        self._solve_links(None)
        self.invalidate_index()

    def _rebuild_links_tracked(self, moved: Rect) -> None:
        """Re-solve the links an edge move reaches, keeping the store exact."""
        changed = self._solve_links(moved)
        store = self._current_store()
        if store is not None:
            changed.add(id(moved))
            store.note_changed(changed)

    def _link_adjacency(self) -> Dict[int, List[int]]:
        """Sync the solver state with ``self.links``; return the adjacency.

        A replaced or shortened list makes every link pending; links
        appended since the last sync become pending and join the map.
        """
        links = self.links
        if self._links_ref is not links or self._links_known > len(links):
            self._links_ref = links
            self._links_known = 0
            self._pending = set()
            self._adjacency = None
        known = self._links_known
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = self._adjacency = {}
            start = 0
        else:
            start = known
        for index in range(start, len(links)):
            for rect in links[index].involved_rects():
                adjacency.setdefault(id(rect), []).append(index)
        self._pending.update(range(known, len(links)))
        self._links_known = len(links)
        return adjacency

    def _solve_links(self, moved: Optional[Rect]) -> Set[int]:
        """Seeded worklist solve; returns the ids of every rect it changed.

        Seeds are the pending links plus the links on *moved* (every link
        when *moved* is None).  Indices pop from a heap in passes: when
        link *i* changes a rect, each link *j* on it is queued in this pass
        if ``j > i`` and for the next pass otherwise.  That is exactly the
        non-no-op subset of a full fixpoint's rebuilds, with its
        ``len(links) + 2`` pass cap and its stop on a pass that leaves
        every rect as it found it.  Array cuts a rebuild creates join
        ``self.rects``.
        """
        links = self.links
        adjacency = self._link_adjacency()
        pending = self._pending
        if moved is None:
            seeds = set(range(len(links)))
        else:
            seeds = pending | set(adjacency.get(id(moved), ()))
        pending.clear()
        changed: Set[int] = set()
        if not seeds:
            return changed
        queue = sorted(seeds)
        rebuilds = 0
        for _ in range(len(links) + 2):
            queued = set(queue)
            following: Set[int] = set()
            first: Dict[int, tuple] = {}  # pass-start tuple per changed rect
            while queue:
                i = heapq.heappop(queue)
                link = links[i]
                involved = link.involved_rects()
                before = [rect.as_tuple() for rect in involved]
                cuts = len(link.rects) if isinstance(link, ArrayLink) else None
                link.rebuild()
                rebuilds += 1
                for rect, old in zip(involved, before):
                    if rect.as_tuple() == old:
                        continue
                    rid = id(rect)
                    changed.add(rid)
                    if rid not in first:
                        first[rid] = (rect, old)
                    for j in adjacency.get(rid, (i,)):
                        if j <= i:
                            following.add(j)
                        elif j not in queued:
                            queued.add(j)
                            heapq.heappush(queue, j)
                if cuts is not None and len(link.rects) > cuts:
                    # A grown array: its new cuts join the layout.
                    for rect in link.rects[cuts:]:
                        rid = id(rect)
                        self.rects.append(rect)
                        adjacency[rid] = [i]
                        changed.add(rid)
                        first[rid] = (rect, None)
                    following.add(i)
            if all(rect.as_tuple() == old for rect, old in first.values()):
                pending.update(following)
                break
            queue = sorted(following)
            if not queue:
                break
        else:
            pending.update(queue)
        get_tracer().count("links.rebuild_calls", rebuilds)
        return changed

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"LayoutObject({self.name!r}, rects={len(self.nonempty_rects)},"
            f" bbox={self.bbox()!r})"
        )
