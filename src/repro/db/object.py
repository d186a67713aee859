"""The hierarchical layout object — the environment's working data structure.

A :class:`LayoutObject` is what a PLDL entity builds: a bag of rectangles
plus the rebuild links recorded by the primitives that created them.  Objects
are constructed stand-alone and then *compacted into* a parent object
(Sec. 2.3); merging flattens the child's geometry into the parent, which is
why "only outer edges of the main object have to be kept in the data
structure".

A rect is addressed by its *seq*, its position in ``rects``.  Every rect
write goes through the object — ``set_rect`` for coordinates, ``tag_rect``
for a net or ``no_overlap`` — and keeps the object's one
:class:`~repro.db.store.RectStore`, which serves every geometric query,
exact in place.

Link solving is incremental.  "The objects affected by the movement are
rebuilt automatically" (Sec. 2.3): after an edge move the object rebuilds
only the links reachable from the moved rect, through a seq -> link
adjacency, plus its *pending* links — those that may be unsatisfied
because they were appended (``add_link``, ``merge``), mirrored
(``apply_transform``; array placement rounds, so it is not mirror
invariant) or restored by an ALT rollback (``restore``).  Links are taken
in the same index order and pass structure as a full fixpoint over every
link, so the result is identical to that fixpoint (kept as
:func:`repro.verify.reference.solve_links_fixpoint`).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..geometry import Direction, Rect, Transform, union_area
from ..obs import get_tracer
from ..obs.provenance import get_recorder
from ..tech import Technology
from ..tech.layer import LayerKind
from .links import ArrayLink, InsideLink, Link
from .store import RectStore

#: Rect coordinate index of the edge facing each direction (x1, y1, x2, y2).
_EDGE_INDEX = {Direction.WEST: 0, Direction.SOUTH: 1, Direction.EAST: 2, Direction.NORTH: 3}



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
        #: Link-solver state: how many of ``links`` it has indexed, the
        #: indices that may be unsatisfied, and a lazily built
        #: seq -> link indices map.
        self._links_known = 0
        self._pending: Set[int] = set()
        self._adjacency: Optional[Dict[int, List[int]]] = None
        #: While the solver runs, every write as (seq, old coordinates),
        #: old None for an append.
        self._writes: Optional[List[Tuple[int, Optional[tuple]]]] = None

    # ------------------------------------------------------------------
    # rect store and rect writes
    # ------------------------------------------------------------------
    def store(self) -> RectStore:
        """The object's rect store, current with :attr:`rects`."""
        store = self._store
        if store is None:
            store = self._store = RectStore(self.rects)
        store.sync()
        return store

    def invalidate_index(self) -> None:
        """Drop the rect store; the next query rebuilds it.

        Only for code that edits :attr:`rects` by hand (a test removing a
        rect); every write through this object's methods keeps the store
        exact.
        """
        self._store = None

    def set_rect(self, seq: int, x1: int, y1: int, x2: int, y2: int) -> None:
        """Set rect *seq*'s coordinates verbatim (x2 < x1 leaves it empty).

        The one coordinate write: the store follows in place, and the
        link solver sees the write.  Unchanged coordinates are a no-op.
        """
        rect = self.rects[seq]
        if rect.x1 == x1 and rect.y1 == y1 and rect.x2 == x2 and rect.y2 == y2:
            return
        if self._writes is not None:
            self._writes.append((seq, (rect.x1, rect.y1, rect.x2, rect.y2)))
        rect.x1, rect.y1, rect.x2, rect.y2 = x1, y1, x2, y2
        if self._store is not None:
            self._store.note_set(seq)

    def tag_rect(
        self, seq: int, net: Optional[str], no_overlap: Optional[bool] = None
    ) -> None:
        """Set rect *seq*'s net, and its ``no_overlap`` flag when given."""
        rect = self.rects[seq]
        old_net = rect.net
        rect.net = net
        if no_overlap is not None:
            rect.no_overlap = no_overlap
        if self._store is not None:
            self._store.note_tags(seq, old_net)

    def _append(self, rect: Rect) -> int:
        """Append *rect* as is; returns its seq."""
        seq = len(self.rects)
        self.rects.append(rect)
        if self._writes is not None:
            self._writes.append((seq, None))
        return seq

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_rect(self, rect: Rect) -> Rect:
        """Append a rectangle (validating its layer) and return it."""
        self.tech.layer(rect.layer)
        recorder = get_recorder()
        if recorder.enabled and rect.prov is None:
            recorder.stamp(rect)
        self._append(rect)
        return rect

    def add_link(self, link: Link) -> Link:
        """Register a rebuild link."""
        self.links.append(link)
        return link

    def add_array(
        self,
        cut_layer: str,
        cut_size: int,
        cut_space: int,
        outers: Sequence[Tuple[int, int]],
        net: Optional[str] = None,
    ) -> Optional[ArrayLink]:
        """Fill the *outers* ((seq, margin) pairs) with a maximal cut array
        and register its link; returns it, or None (nothing added) when no
        cut fits."""
        link = ArrayLink(cut_layer, cut_size, cut_space, outers, net)
        link.rebuild(self)
        if not link.cuts:
            return None
        recorder = get_recorder()
        if recorder.enabled:
            # Later rebuilds derive "rebuild" lineage from this record.
            link.prov = recorder.current()
            for seq in link.cuts:
                recorder.stamp(self.rects[seq])
        return self.add_link(link)

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
        shift = len(self.rects)
        added = [rect.copy() for rect in other.rects]
        self.rects.extend(added)
        self.links.extend(link.copy(shift) for link in other.links)
        self.labels.extend(label.copy() for label in other.labels)
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
        layer re-validation: rects, links and labels are copied directly.
        The search tree snapshots one object per visited order prefix, so
        this is a hot path.
        """
        clone = LayoutObject.__new__(LayoutObject)
        clone.name = self.name
        clone.tech = self.tech
        clone.rects = [rect.copy() for rect in self.rects]
        clone.links = [link.copy() for link in self.links]
        clone.labels = [label.copy() for label in self.labels]
        # Same links in the same order: the pending indices carry over; the
        # adjacency is rebuilt lazily.
        clone._links_known = self._links_known
        clone._pending = set(self._pending)
        clone._adjacency = None
        clone._writes = None
        # Rect positions are preserved, so the store (with its cached views)
        # carries over: the order optimizer's search tree snapshots one
        # layout per visited prefix and resumes without re-sweeping.
        store = self._store
        clone._store = store.copy(clone.rects) if store is not None else None
        return clone

    def restore(self, snapshot: "LayoutObject") -> None:
        """Roll back to *snapshot*, a copy of this object taken earlier (the
        ALT rollback): the object takes over its rects, links, labels and
        store, and every link becomes pending, as after a merge."""
        self.rects = snapshot.rects
        self.links = snapshot.links
        self.labels = snapshot.labels
        self._store = snapshot._store
        self._links_known, self._pending, self._adjacency = 0, set(), None

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
        if self._store is not None:
            # A uniform shift preserves every sorted order and sweep result.
            self._store.note_translate(dx, dy)
        return self

    def apply_transform(self, transform: Transform) -> "LayoutObject":
        """Apply an orthogonal transform in place; returns self."""
        for seq, rect in enumerate(self.rects):
            image = transform.apply_rect(rect)
            rect._edges = image._edges
            self.set_rect(seq, image.x1, image.y1, image.x2, image.y2)
        for label in self.labels:
            label.x, label.y = transform.apply_point(label.x, label.y)
        # Array placement rounds, so a mirrored array is off its fixpoint.
        self._pending.update(range(self._links_known))
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
        for seq, rect in enumerate(self.rects):
            if layer is None or rect.layer == layer:
                self.tag_rect(seq, net)
        return self

    def rename_nets(self, mapping: Dict[str, str]) -> "LayoutObject":
        """Rename nets per *mapping*; used when mirroring matched halves.

        Swaps are supported (``{"a": "b", "b": "a"}``) — the mapping is
        applied simultaneously, not sequentially.
        """
        for seq, rect in enumerate(self.rects):
            if rect.net in mapping:
                self.tag_rect(seq, mapping[rect.net])
        for link in self.links:
            net = getattr(link, "net", None)
            if net in mapping:
                link.net = mapping[net]
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

    def shrink_limit(self, seq: int, direction: Direction) -> int:
        """Furthest coordinate rect *seq*'s edge facing *direction* may move
        inward.

        For NORTH/EAST edges the result is a lower bound on the coordinate;
        for SOUTH/WEST edges an upper bound.  The limit honours the rect's
        own minimum width, explicit edge bounds, and — through the rebuild
        links — the survival of enclosed rects and at least one array cut.
        """
        return self._shrink_limit(seq, direction, frozenset())

    def _shrink_limit(self, seq: int, direction: Direction, visiting: frozenset) -> int:
        rect = self.rects[seq]
        sign = 1 if direction.is_positive else -1
        key = (seq, direction)
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
                    if outer == seq:
                        inner_limit = self._shrink_limit(link.inner, direction, visiting)
                        bounds.append(inner_limit + sign * margin)
            elif isinstance(link, ArrayLink):
                for outer, margin in link.outers:
                    if outer == seq:
                        far = self._array_far_side(link, direction)
                        bounds.append(far + sign * (link.cut_size + margin))

        return max(bounds) if sign > 0 else min(bounds)

    def _array_far_side(self, link: ArrayLink, direction: Direction) -> int:
        """Region boundary opposite the moving edge of an array's outers."""
        other = direction.opposite
        coords = [
            self.rects[outer].edge_coord(other) - other.dx * margin - other.dy * margin
            for outer, margin in link.outers
        ]
        # The region's far side is the tightest of the outers' far edges.
        return max(coords) if direction.is_positive else min(coords)

    def _set_edge(self, seq: int, direction: Direction, coord: int) -> None:
        box = list(self.rects[seq].as_tuple())
        box[_EDGE_INDEX[direction]] = coord
        self.set_rect(seq, *box)

    def move_edge(self, seq: int, direction: Direction, coord: int) -> int:
        """Move rect *seq*'s edge inward to *coord* (clamped to the shrink
        limit).

        Dependent links are rebuilt.  Returns the coordinate actually set.
        """
        limit = self.shrink_limit(seq, direction)
        current = self.rects[seq].edge_coord(direction)
        if direction.is_positive:
            coord = min(max(coord, limit), current)
        else:
            coord = max(min(coord, limit), current)
        self._set_edge(seq, direction, coord)
        self._solve_links(seq)
        return coord

    def move_stretch(self, seq: int, direction: Direction, coord: int) -> None:
        """Move rect *seq*'s edge *outward* to *coord* (auto-connection
        stretch).

        Any enclosure clamp on that edge is released first so rebuilds do not
        pull the stretched wire back; dependent arrays are then recomputed
        (a longer wire may admit more cuts).
        """
        current = self.rects[seq].edge_coord(direction)
        outward = coord > current if direction.is_positive else coord < current
        if not outward:
            return
        for link in self.links:
            if isinstance(link, InsideLink) and link.inner == seq:
                link.release(direction)
        self._set_edge(seq, direction, coord)
        self._solve_links(seq)

    def rebuild_links(self) -> None:
        """Re-solve every link (the seeded solver, seeded with all of them)."""
        self._solve_links(None)

    def _link_adjacency(self) -> Dict[int, List[int]]:
        """Sync the solver state with ``self.links``; return the adjacency.

        Links appended since the last sync become pending and join the map.
        """
        links = self.links
        known = self._links_known
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = self._adjacency = {}
            start = 0
        else:
            start = known
        for index in range(start, len(links)):
            for seq in links[index].involved_seqs():
                adjacency.setdefault(seq, []).append(index)
        self._pending.update(range(known, len(links)))
        self._links_known = len(links)
        return adjacency

    def _solve_links(self, moved: Optional[int]) -> None:
        """Seeded worklist solve.

        Seeds are the pending links plus the links on rect *moved* (every
        link when *moved* is None).  Indices pop from a heap in passes:
        when link *i* writes a rect, each link *j* on it is queued in this
        pass if ``j > i`` and for the next pass otherwise (a cut the
        rebuild appends belongs to link *i* alone).  That is exactly the
        non-no-op subset of a full fixpoint's rebuilds, with its
        ``len(links) + 2`` pass cap and its stop on a pass that leaves
        every rect as it found it.
        """
        links = self.links
        adjacency = self._link_adjacency()
        pending = self._pending
        if moved is None:
            seeds = set(range(len(links)))
        else:
            seeds = pending | set(adjacency.get(moved, ()))
        pending.clear()
        if not seeds:
            return
        queue = sorted(seeds)
        rebuilds = 0
        rects = self.rects
        writes = self._writes = []
        for _ in range(len(links) + 2):
            queued = set(queue)
            following: Set[int] = set()
            first: Dict[int, Optional[tuple]] = {}  # pass-start tuple per written seq
            while queue:
                i = heapq.heappop(queue)
                links[i].rebuild(self)
                rebuilds += 1
                for seq, old in writes:
                    if seq not in first:
                        first[seq] = old
                    if old is None:
                        adjacency[seq] = [i]
                    for j in adjacency[seq]:
                        if j <= i:
                            following.add(j)
                        elif j not in queued:
                            queued.add(j)
                            heapq.heappush(queue, j)
                writes.clear()
            if all(rects[seq].as_tuple() == old for seq, old in first.items()):
                pending.update(following)
                break
            queue = sorted(following)
            if not queue:
                break
        else:
            pending.update(queue)
        self._writes = None
        get_tracer().count("links.rebuild_calls", rebuilds)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"LayoutObject({self.name!r}, rects={len(self.nonempty_rects)},"
            f" bbox={self.bbox()!r})"
        )
