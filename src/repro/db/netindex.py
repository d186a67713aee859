"""Indexed, shared connectivity extraction.

:func:`repro.verify.reference.extract_connectivity_brute` answers "which
rects are electrically one node?" by testing every conducting rect pair.
On the profiled amplifier build that was the top hotspot, repeated once
*per net* by the global router and again by the verification oracles.
The :class:`ConnectivityIndex` removes both multipliers:

* **the rect store's buckets** — the index holds a
  :class:`~repro.db.store.RectStore` over its rect list, and its
  union-find is indexed by the store's seqs.  Each interaction (same-layer
  touching, each declared overlap junction, each cut↔plate layer pair)
  is one call of the shared :mod:`repro.geometry.sweep` kernel, which
  only tests pairs whose x-ranges can interact;
* **one fold** — :meth:`ConnectivityIndex._fold` unions every interaction
  of the rects from one seq on.  The first build is the fold from seq 0;
  rects appended to the list later (the global router laying wires) are
  folded in by the same code, never by re-extracting;
* **cached components** — :meth:`components`, :meth:`net_is_connected`
  and :meth:`connected_components_by_net` answer from one extraction.

Exactness contract: :meth:`components` returns *the same partition in the
same order* as the all-pairs reference — groups ordered by their first
member, members in source order (``tests/test_netindex.py``).

Staleness: only **appends** to the list are tracked; a list that got
shorter, or whose last tracked position holds another rect (shortened,
then re-extended between queries), rebuilds the store on the next query.
After mutating already-indexed rects, build a fresh index.

Deterministic counters (gated exactly by ``repro perf check``):
``nets.pairs_scanned`` (pair tests; the reference counts them too),
``nets.cache_hits`` (queries served from the cached components) and
``nets.extractions`` (store builds: one per index unless shortened).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence

from ..geometry import Rect
from ..geometry.sweep import pairs_across, pairs_within
from ..obs import get_tracer
from ..tech import Technology
from ..tech.layer import LayerKind
from .nets import DisjointSet
from .store import RectStore

__all__ = ["ConnectivityIndex"]

#: Layer kinds: no rect conducts, every rect does, only labelled rects do.
_INERT, _WIRE, _DIFFUSION = 0, 1, 2


def _plate_layers(tech: Technology, cut_layer: str) -> List[str]:
    """Distinct layers a cut layer joins, first-seen order (``contact``
    lists ``metal1`` once per diffusion it lands on; one sweep suffices)."""
    return list(dict.fromkeys(
        plate for bottom, top in tech.connected_layers(cut_layer)
        for plate in (bottom, top)
    ))


class ConnectivityIndex:
    """Shared, incrementally maintained connectivity over one rect list."""

    __slots__ = (
        "tech", "_source", "_store", "_last", "_dsu", "_kinds",
        "_components", "_by_net", "extractions",
    )

    def __init__(self, rects: Sequence[Rect], tech: Technology) -> None:
        self.tech = tech
        self._source = rects
        #: The store over *rects*; built on the first query.
        self._store: Optional[RectStore] = None
        #: The last rect the store folded in (None while it holds none).
        self._last: Optional[Rect] = None
        #: Union-find over the store's seqs (non-conducting seqs stay alone).
        self._dsu = DisjointSet(0)
        #: layer -> _INERT, _WIRE or _DIFFUSION, looked up once per layer.
        self._kinds: Dict[str, int] = {}
        self._components: Optional[List[List[Rect]]] = None
        self._by_net: Optional[Dict[str, List[List[Rect]]]] = None
        self.extractions = 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Catch up with the source list (appends are folded in)."""
        source, store = self._source, self._store
        if (
            store is None
            or store.tracked > len(source)
            or (store.tracked and source[store.tracked - 1] is not self._last)
        ):
            store = self._store = RectStore(source)
            self._dsu = DisjointSet(0)
            self.extractions += 1
            get_tracer().count("nets.extractions")
        elif store.tracked == len(source):
            return
        first = store.tracked
        store.sync()
        self._last = source[-1] if source else None
        self._fold(first)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def components(self) -> List[List[Rect]]:
        """Connected components, identical to the reference extraction:
        groups ordered by first member, members in source order."""
        self.sync()
        if self._components is not None:
            get_tracer().count("nets.cache_hits")
            return self._components
        store = self._store
        rects, kinds, find = store.rects, self._kinds, self._dsu.find
        groups: Dict[int, List[Rect]] = {}
        for seq in store.live_seqs():
            rect = rects[seq]
            kind = kinds[rect.layer]
            if kind == _WIRE or (kind == _DIFFUSION and rect.net is not None):
                groups.setdefault(find(seq), []).append(rect)
        self._components = list(groups.values())
        return self._components

    def net_is_connected(self, net: str) -> bool:
        """True when every non-empty rect labelled *net* is one component.

        Nets with at most one labelled rect are trivially connected; a
        labelled rect on a non-conducting layer can never join a component,
        so its net is split by definition.
        """
        self.sync()
        store = self._store
        seqs = store.seqs_on_net(net)
        if len(seqs) <= 1:
            return True
        rects, kinds = store.rects, self._kinds
        if any(kinds[rects[seq].layer] == _INERT for seq in seqs):
            return False
        find = self._dsu.find
        root = find(seqs[0])
        return all(find(seq) == root for seq in seqs)

    def connected_components_by_net(self) -> Dict[str, List[List[Rect]]]:
        """net -> components containing at least one rect of that net.

        One pass over the cached components; the component lists are shared
        with :meth:`components` (do not mutate them).
        """
        self.sync()
        if self._by_net is not None:
            get_tracer().count("nets.cache_hits")
            return self._by_net
        by_net: Dict[str, List[List[Rect]]] = {}
        for component in self.components():
            seen: set = set()
            for rect in component:
                net = rect.net
                if net is not None and net not in seen:
                    seen.add(net)
                    by_net.setdefault(net, []).append(component)
        self._by_net = by_net
        return by_net

    def _fold(self, first: int) -> None:
        """Union every interaction of a conducting rect with seq >= *first*.

        Per layer, the new rects sweep among themselves and against the old
        ones; on diffusion each net sweeps alone (crossing gates split an
        active region electrically), read from the store's ``(net, layer)``
        buckets.  Each junction and cut↔plate layer pair sweeps new ×
        (old + new) one way and old × new the other.  The seq order is the
        source order, so every sweep sees its events in one fixed order.
        """
        store, tech, kinds = self._store, self.tech, self._kinds
        rects, live = store.rects, store.live
        self._dsu.grow(len(rects) - first)
        self._components = self._by_net = None
        union = self._dsu.union

        def swept(found) -> int:
            for i, j in found[0]:
                union(i, j)
            return found[1]  # the pairs the sweep tested

        def across(a: List[int], b: List[int], grow: int = 0) -> int:
            return swept(pairs_across(rects, a, b, grow)) if a and b else 0

        def split(seqs: List[int], labelled: bool = False) -> List[List[int]]:
            """[old, new] conducting seqs of a seq-ordered list."""
            cut = bisect_left(seqs, first)
            return [
                [seq for seq in part
                 if live[seq] and (not labelled or rects[seq].net is not None)]
                for part in (seqs[:cut], seqs[cut:])
            ]

        olds: Dict[str, List[int]] = {}
        new: Dict[str, List[int]] = {}
        for layer, bucket in store.buckets.items():
            kind = kinds.get(layer)
            if kind is None:
                info = tech.layer(layer)
                kind = kinds[layer] = (
                    _INERT if not info.conducting
                    else _DIFFUSION if info.kind is LayerKind.DIFFUSION
                    else _WIRE
                )
            if kind != _INERT:
                olds[layer], added = split(bucket.seqs, kind == _DIFFUSION)
                if added:
                    new[layer] = added

        scanned = 0
        for layer, added in new.items():
            halves = [(olds[layer], added)]
            if kinds[layer] == _DIFFUSION:
                halves = [
                    split(store.net_seqs[(net, layer)])
                    for net in dict.fromkeys(rects[seq].net for seq in added)
                ]
            for old, group in halves:
                order = sorted(group, key=lambda seq: rects[seq].x1)
                scanned += swept(pairs_within(rects, order, 1))
                scanned += across(group, old, 1)

        layer_pairs = [
            (layer_a, layer_b)
            for layer_a, layer_b in tech.overlap_connections()
            if layer_a != layer_b
        ]
        for cut_layer in olds:
            layer_pairs.extend(
                (cut_layer, plate) for plate in _plate_layers(tech, cut_layer)
            )
        for layer_a, layer_b in layer_pairs:
            new_a, new_b = new.get(layer_a, []), new.get(layer_b, [])
            if new_a:
                scanned += across(new_a, olds.get(layer_b, []) + new_b)
            if new_b:
                scanned += across(olds.get(layer_a, []), new_b)
        get_tracer().count("nets.pairs_scanned", scanned)
