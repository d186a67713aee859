"""The rect store: one per-layer index over a layout object's rects.

It answers every geometric question about one
:class:`~repro.db.LayoutObject`: the compactor's (:mod:`repro.compact.
index`), the design-rule checker's (:class:`repro.drc.DrcIndex`) and the
object's own ``bbox``, ``is_empty``, ``rects_on``, ``rects_on_net``,
``nets`` and ``layers``.  A rect is addressed by its *seq*, its position
in ``rects``; rects are only appended, so a seq never moves.  Each layer's
:class:`Bucket` carries a *version* that any change to a member bumps;
views derived from a layer (frontier survivors, DRC's x1 order) live in
one cache, stamped with that version, and are reused until it moves.

One staleness rule: ``LayoutObject`` methods keep the store exact, and a
replaced or shortened ``rects`` list is detected.  Any other write — a
rect's coordinates, net, layer or ``no_overlap`` set directly — must be
followed by :meth:`LayoutObject.invalidate_index`, which drops the store.
``tests/test_store.py`` checks every query and view against a store
rebuilt from scratch after each step of random write sequences.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from ..geometry import Rect
from ..obs import get_tracer

__all__ = ["Bucket", "RectStore"]


def _grow(box: Optional[List[int]], rect: Rect) -> List[int]:
    """Grow the ``[x1, y1, x2, y2]`` *box* over *rect* (None starts one)."""
    if box is None:
        return [rect.x1, rect.y1, rect.x2, rect.y2]
    if rect.x1 < box[0]:
        box[0] = rect.x1
    if rect.y1 < box[1]:
        box[1] = rect.y1
    if rect.x2 > box[2]:
        box[2] = rect.x2
    if rect.y2 > box[3]:
        box[3] = rect.y2
    return box


def _shift(box: Optional[List[int]], dx: int, dy: int) -> None:
    if box is not None:
        box[0] += dx
        box[1] += dy
        box[2] += dx
        box[3] += dy


class Bucket:
    """The rects of one layer, by seq, and what its views depend on."""

    __slots__ = ("seqs", "nets", "envelope", "version")

    def __init__(self) -> None:
        #: Member seqs in seq order (empty rects included).
        self.seqs: List[int] = []
        #: Every net ever seen on the layer (grow-only).
        self.nets: Set[str] = set()
        #: Grow-only box over every coordinate any member occupied since
        #: it was first asked for (None until then; see RectStore.envelope).
        self.envelope: Optional[List[int]] = None
        #: Bumped by every change to a member; stamps the cached views.
        self.version = 0

    def copy(self) -> "Bucket":
        twin = Bucket.__new__(Bucket)
        twin.seqs = self.seqs.copy()
        twin.nets = self.nets.copy()
        twin.envelope = None if self.envelope is None else self.envelope.copy()
        twin.version = self.version
        return twin


class RectStore:
    """Per-layer buckets over one rect list; built by ``LayoutObject.store()``."""

    __slots__ = (
        "rects", "tracked", "buckets", "net_seqs", "live", "nonempty",
        "_bbox", "_where", "views",
    )

    def __init__(self, rects: List[Rect]) -> None:
        #: The owner's rect list this store mirrors (seq = position).
        self.rects = rects
        #: How many rects of the list are folded in.
        self.tracked = 0
        #: layer -> Bucket, in first-added order.
        self.buckets: Dict[str, Bucket] = {}
        #: (net, layer) -> seqs in seq order (empty rects included).
        self.net_seqs: Dict[Tuple[str, str], List[int]] = {}
        #: seq -> the rect has positive area.
        self.live: List[bool] = []
        self.nonempty = 0
        #: Exact box of the non-empty rects; None until asked for and
        #: after a change that may shrink it (see :meth:`bbox`).
        self._bbox: Optional[List[int]] = None
        #: id(rect) -> seq, built on the first change notification.
        self._where: Optional[Dict[int, int]] = None
        #: (layer, key) -> (bucket version, view).
        self.views: Dict[Tuple[str, Hashable], Tuple[int, tuple]] = {}
        get_tracer().count("db.store_builds")

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Fold in the rects appended since the last call."""
        rects = self.rects
        buckets, net_seqs, live, where = (
            self.buckets, self.net_seqs, self.live, self._where
        )
        box, nonempty = self._bbox, self.nonempty
        for seq in range(self.tracked, len(rects)):
            rect = rects[seq]
            layer = rect.layer
            bucket = buckets.get(layer)
            if bucket is None:
                bucket = buckets[layer] = Bucket()
            bucket.seqs.append(seq)
            bucket.version += 1
            if bucket.envelope is not None:
                _grow(bucket.envelope, rect)
            if rect.net is not None:
                bucket.nets.add(rect.net)
                net_seqs.setdefault((rect.net, layer), []).append(seq)
            if where is not None:
                where[id(rect)] = seq
            if rect.x1 < rect.x2 and rect.y1 < rect.y2:
                live.append(True)
                nonempty += 1
                if box is not None:
                    _grow(box, rect)
            else:
                live.append(False)
        self.nonempty = nonempty
        self.tracked = len(rects)

    def note_translate(self, dx: int, dy: int) -> None:
        """Every rect moved by (dx, dy): views stay valid, boxes shift."""
        for bucket in self.buckets.values():
            _shift(bucket.envelope, dx, dy)
        _shift(self._bbox, dx, dy)

    def note_changed(self, rect_ids: Iterable[int]) -> None:
        """The coordinates of these rects changed.

        Rects appended since the last :meth:`sync` are skipped: the next
        sync folds them in as they are then.
        """
        where = self._where
        rects = self.rects
        if where is None:
            where = self._where = {
                id(rects[seq]): seq for seq in range(self.tracked)
            }
        live = self.live
        buckets = self.buckets
        self._bbox = None  # a member may have shrunk: recomputed on demand
        for rid in rect_ids:
            seq = where.get(rid)
            if seq is None:
                continue
            rect = rects[seq]
            bucket = buckets[rect.layer]
            bucket.version += 1
            if bucket.envelope is not None:
                _grow(bucket.envelope, rect)
            now = not rect.is_empty
            if now != live[seq]:
                live[seq] = now
                self.nonempty += 1 if now else -1

    def copy(self, rects: List[Rect]) -> "RectStore":
        """This store over *rects*, a position-preserving copy of the list.

        Views are shared: they are immutable and keyed by version.
        """
        twin = RectStore.__new__(RectStore)
        twin.rects = rects
        twin.tracked = self.tracked
        twin.buckets = {layer: b.copy() for layer, b in self.buckets.items()}
        twin.net_seqs = {key: seqs.copy() for key, seqs in self.net_seqs.items()}
        twin.live = self.live.copy()
        twin.nonempty = self.nonempty
        twin._bbox = None if self._bbox is None else self._bbox.copy()
        twin._where = None
        twin.views = self.views.copy()
        return twin

    # ------------------------------------------------------------------
    # the view cache
    # ------------------------------------------------------------------
    def cached(self, layer: str, key: Hashable) -> Optional[tuple]:
        """The view (layer, key) if derived from the layer as it is now."""
        entry = self.views.get((layer, key))
        if entry is not None and entry[0] == self.buckets[layer].version:
            return entry[1]
        return None

    def cache(self, layer: str, key: Hashable, view: tuple) -> tuple:
        """Remember *view* for the layer's current version; returns it."""
        self.views[(layer, key)] = (self.buckets[layer].version, view)
        return view

    def by_x1(self, layer: str) -> tuple:
        """The layer's non-empty seqs stably sorted by x1 (the sweep order)."""
        order = self.cached(layer, "x1")
        if order is None:
            rects = self.rects
            order = self.cache(layer, "x1", tuple(
                sorted(self.seqs_on(layer), key=lambda seq: rects[seq].x1)
            ))
        return order

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def bbox(self) -> Optional[Rect]:
        """Exact bounding box of the non-empty rects, or None."""
        if not self.nonempty:
            return None
        box = self._bbox
        if box is None:
            for rect in compress(self.rects, self.live):
                box = _grow(box, rect)
            self._bbox = box
        return Rect(box[0], box[1], box[2], box[3], "bbox")

    def envelope(self, layer: str) -> List[int]:
        """A box covering every rect on *layer* (grow-only once built)."""
        bucket = self.buckets[layer]
        if bucket.envelope is None:
            rects = self.rects
            for seq in bucket.seqs:
                bucket.envelope = _grow(bucket.envelope, rects[seq])
        return bucket.envelope

    def live_seqs(self) -> List[int]:
        """Seqs of every non-empty rect, in seq order."""
        return list(compress(range(len(self.live)), self.live))

    def seqs_on(self, layer: str) -> List[int]:
        """Seqs of the non-empty rects on *layer*, in seq order."""
        bucket = self.buckets.get(layer)
        if bucket is None:
            return []
        live = self.live
        return [seq for seq in bucket.seqs if live[seq]]

    def layers(self) -> List[str]:
        """Layers with a non-empty rect, ordered by their earliest one."""
        live = self.live
        firsts = []
        for layer, bucket in self.buckets.items():
            seq = next((seq for seq in bucket.seqs if live[seq]), None)
            if seq is not None:
                firsts.append((seq, layer))
        firsts.sort()
        return [layer for _, layer in firsts]

    def seqs_on_net(self, net: str) -> List[int]:
        """Seqs of the non-empty rects on *net*, in seq order."""
        live = self.live
        return sorted(
            seq
            for (owner, _), seqs in self.net_seqs.items() if owner == net
            for seq in seqs if live[seq]
        )

    def nets(self) -> Set[str]:
        """Nets (non-empty names) carried by a non-empty rect."""
        live = self.live
        return {
            net for (net, _), seqs in self.net_seqs.items()
            if net and any(live[seq] for seq in seqs)
        }
