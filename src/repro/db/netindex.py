"""Indexed, shared connectivity extraction.

:func:`repro.verify.reference.extract_connectivity_brute` answers "which
rects are electrically one node?" by testing every conducting rect pair — three
quadratic loops (same-layer touching, declared diffused junctions, cut
joins) feeding a union-find.  On the profiled amplifier build that was the
top hotspot: ~5.8M ``Rect.intersects`` calls, repeated once *per net* by
the global router and once per net again by the verification oracles.

The :class:`ConnectivityIndex` removes both multipliers:

* **per-layer sweep candidate generation** — rects are bucketed by layer
  (seq-ordered, the same idiom as :class:`repro.db.store.RectStore`);
  each interaction (same-layer touching, each declared
  overlap junction, each cut↔plate layer pair — once, though a cut layer
  may reach one plate through several connections) runs one call of the
  shared :mod:`repro.geometry.sweep` kernel, which only tests pairs whose
  x-ranges can interact, instead of all pairs;
* **a cached-components layer** — one index owns one union-find over one
  rect list; :meth:`components`, :meth:`net_is_connected` and
  :meth:`connected_components_by_net` all answer from the same cached
  extraction, so N per-net queries cost one build, not N;
* **incremental appends** — rects appended to the source list after the
  build (the global router laying wires) are folded in with the same
  kernel, sweeping the new rects against each other and against the
  existing layer buckets, never by re-extracting.

Exactness contract: :meth:`components` returns *the same partition in the
same order* as the all-pairs reference — groups ordered by their first
member, members in source order.  ``tests/test_netindex.py`` pins the
equivalence with a Hypothesis property over random rect soups and with
diffusion/cut-semantics cases mirrored against the reference.

Staleness: only **appends** to the source list are tracked; truncating it
triggers a full rebuild on the next query.  After mutating coordinates,
nets, layers or emptiness of already-indexed rects, build a fresh index.

Deterministic counters (gated exactly by ``repro perf check``):

* ``nets.pairs_scanned`` — geometric pair tests performed (the reference
  counts here too, so indexed-vs-reference ratios are directly comparable);
* ``nets.candidates`` — candidate pairs the index's sweeps generated;
* ``nets.cache_hits`` — queries served from the cached components;
* ``nets.extractions`` — full builds (one per index unless truncated).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry import Rect
from ..geometry.sweep import pairs_across, pairs_within
from ..obs import get_tracer
from ..tech import Technology
from ..tech.layer import LayerKind

__all__ = ["ConnectivityIndex"]


def _plate_layers(tech: Technology, cut_layer: str) -> List[str]:
    """Distinct layers a cut layer joins, first-seen order (``contact``
    lists ``metal1`` once per diffusion it lands on; one sweep suffices)."""
    plates = dict.fromkeys(
        plate for bottom, top in tech.connected_layers(cut_layer)
        for plate in (bottom, top)
    )
    return list(plates)


class ConnectivityIndex:
    """Shared, incrementally maintained connectivity over one rect list."""

    __slots__ = (
        "tech", "_source", "_tracked", "_built", "_conducting", "_dsu",
        "_buckets", "_diffusion_layers", "_net_counts", "_net_members",
        "_components", "_by_net", "extractions",
    )

    def __init__(self, rects: Sequence[Rect], tech: Technology) -> None:
        self.tech = tech
        self._source = rects
        self._tracked = 0
        self._built = False
        #: Conducting rects in source order (the union-find's index space).
        self._conducting: List[Rect] = []
        self._dsu: Optional["DisjointSet"] = None
        #: layer -> conducting indices in source order.
        self._buckets: Dict[str, List[int]] = {}
        #: Layer names whose kind is DIFFUSION (same-net-only merging).
        self._diffusion_layers: set = set()
        #: net -> count of non-empty labelled rects (conducting or not);
        #: the denominator of :meth:`net_is_connected`.
        self._net_counts: Dict[str, int] = {}
        #: net -> conducting indices labelled with that net.
        self._net_members: Dict[str, List[int]] = {}
        self._components: Optional[List[List[Rect]]] = None
        self._by_net: Optional[Dict[str, List[List[Rect]]]] = None
        self.extractions = 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Catch up with the source list (appends are incremental)."""
        rects = self._source
        if not self._built or self._tracked > len(rects):
            self._build()
            return
        if self._tracked < len(rects):
            self._append(rects[self._tracked:])
            self._tracked = len(rects)

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
        dsu = self._dsu
        groups: Dict[int, List[Rect]] = {}
        for index, rect in enumerate(self._conducting):
            groups.setdefault(dsu.find(index), []).append(rect)
        self._components = list(groups.values())
        return self._components

    def net_is_connected(self, net: str) -> bool:
        """True when every non-empty rect labelled *net* is one component.

        Matches :func:`repro.db.nets.net_is_connected`: nets with at most
        one labelled rect are trivially connected; a labelled rect on a
        non-conducting layer can never join a component, so its net is
        split by definition.
        """
        self.sync()
        labelled = self._net_counts.get(net, 0)
        if labelled <= 1:
            return True
        members = self._net_members.get(net, ())
        if len(members) != labelled:
            return False  # some labelled rect sits on a non-conducting layer
        find = self._dsu.find
        root = find(members[0])
        for index in members[1:]:
            if find(index) != root:
                return False
        return True

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

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def _layer_info(self) -> Dict[str, Tuple[bool, bool]]:
        """layer name -> (conducting, is_diffusion), memoized per build."""
        info: Dict[str, Tuple[bool, bool]] = {}
        for rect in self._source:
            name = rect.layer
            if name not in info:
                layer = self.tech.layer(name)
                info[name] = (layer.conducting, layer.kind is LayerKind.DIFFUSION)
        return info

    def _build(self) -> None:
        from .nets import DisjointSet

        tracer = get_tracer()
        rects = self._source
        self._conducting = []
        self._buckets = {}
        self._diffusion_layers = set()
        self._net_counts = {}
        self._net_members = {}
        self._components = None
        self._by_net = None

        info = self._layer_info()
        conducting = self._conducting
        buckets = self._buckets
        for rect in rects:
            if rect.is_empty:
                continue
            if rect.net is not None:
                self._net_counts[rect.net] = self._net_counts.get(rect.net, 0) + 1
            conducts, diffusion = info[rect.layer]
            if not conducts or (diffusion and rect.net is None):
                continue
            index = len(conducting)
            conducting.append(rect)
            buckets.setdefault(rect.layer, []).append(index)
            if diffusion:
                self._diffusion_layers.add(rect.layer)
            if rect.net is not None:
                self._net_members.setdefault(rect.net, []).append(index)

        self._dsu = DisjointSet(len(conducting))
        union_all = self._union_all
        scanned = 0

        # Same-layer touching (same-net-only on diffusion: crossing gates
        # split an active region electrically, so each net sweeps alone).
        for layer, indices in buckets.items():
            groups = [indices]
            if layer in self._diffusion_layers:
                groups = list(self._split_by_net(indices).values())
            for group in groups:
                scanned += union_all(pairs_within(conducting, self._by_x1(group), 1))

        # Declared diffused junctions: overlap connects directly.
        for layer_a, layer_b in self.tech.overlap_connections():
            if layer_a == layer_b:
                continue
            a_bucket = buckets.get(layer_a)
            b_bucket = buckets.get(layer_b)
            if a_bucket and b_bucket:
                scanned += union_all(pairs_across(conducting, a_bucket, b_bucket))

        # Cross-layer through cuts: a cut rect joins everything it overlaps
        # on the layer pair(s) it connects.
        for layer, indices in buckets.items():
            for plate_layer in _plate_layers(self.tech, layer):
                plate_bucket = buckets.get(plate_layer)
                if plate_bucket:
                    scanned += union_all(
                        pairs_across(conducting, indices, plate_bucket)
                    )

        self._built = True
        self._tracked = len(rects)
        self.extractions += 1
        tracer.count("nets.extractions")
        tracer.count("nets.candidates", scanned)
        tracer.count("nets.pairs_scanned", scanned)

    def _by_x1(self, indices: List[int]) -> List[int]:
        """*indices* in the sweep order: by ``x1``, ties in source order."""
        conducting = self._conducting
        return sorted(indices, key=lambda index: conducting[index].x1)

    def _split_by_net(self, indices: List[int]) -> Dict[Optional[str], List[int]]:
        by_net: Dict[Optional[str], List[int]] = {}
        for index in indices:
            by_net.setdefault(self._conducting[index].net, []).append(index)
        return by_net

    def _union_all(self, found: Tuple[List[Tuple[int, int]], int]) -> int:
        """Union every pair a sweep found; returns the pairs it tested."""
        pairs, tested = found
        union = self._dsu.union
        for i, j in pairs:
            union(i, j)
        return tested

    # ------------------------------------------------------------------
    # incremental appends
    # ------------------------------------------------------------------
    def _append(self, fresh: Sequence[Rect]) -> None:
        """Fold appended rects in with sweep-kernel calls per layer pair.

        The new conducting rects of each layer sweep among themselves and
        against the layer's existing bucket; each junction and cut↔plate
        pair sweeps new against old in both directions and new against new
        once.  Layers are visited in bucket order, then first-appended
        order, so the pair counts are deterministic.
        """
        tracer = get_tracer()
        conducting = self._conducting
        buckets = self._buckets
        new: Dict[str, List[int]] = {}
        for rect in fresh:
            if rect.is_empty:
                continue
            if rect.net is not None:
                self._net_counts[rect.net] = self._net_counts.get(rect.net, 0) + 1
            layer = self.tech.layer(rect.layer)
            diffusion = layer.kind is LayerKind.DIFFUSION
            if not layer.conducting or (diffusion and rect.net is None):
                continue
            index = self._dsu.grow()
            conducting.append(rect)
            new.setdefault(rect.layer, []).append(index)
            if diffusion:
                self._diffusion_layers.add(rect.layer)
            if rect.net is not None:
                self._net_members.setdefault(rect.net, []).append(index)
        if not new:
            return

        union_all = self._union_all
        scanned = 0

        def across(a: List[int], b: List[int], grow: int = 0) -> int:
            if not a or not b:
                return 0
            return union_all(pairs_across(conducting, a, b, grow))

        # Same-layer touching (same-net only on diffusion).
        for layer, added in new.items():
            old = buckets.get(layer, [])
            groups = [(added, old)]
            if layer in self._diffusion_layers:
                groups = [
                    (group, [j for j in old if conducting[j].net == net])
                    for net, group in self._split_by_net(added).items()
                ]
            for group, partners in groups:
                scanned += union_all(pairs_within(conducting, self._by_x1(group), 1))
                scanned += across(group, partners, 1)

        # Declared diffused junctions, then cuts over their plate layers:
        # new × (old + new) one way, old × new the other.
        layer_pairs = [
            (layer_a, layer_b)
            for layer_a, layer_b in self.tech.overlap_connections()
            if layer_a != layer_b
        ]
        appended_layers = [layer for layer in new if layer not in buckets]
        for cut_layer in list(buckets) + appended_layers:
            layer_pairs.extend(
                (cut_layer, plate) for plate in _plate_layers(self.tech, cut_layer)
            )
        for layer_a, layer_b in layer_pairs:
            new_a, new_b = new.get(layer_a, []), new.get(layer_b, [])
            if not (new_a or new_b):
                continue
            old_a, old_b = buckets.get(layer_a, []), buckets.get(layer_b, [])
            scanned += across(new_a, old_b + new_b)
            scanned += across(old_a, new_b)

        for layer, added in new.items():
            buckets.setdefault(layer, []).extend(added)
        self._components = None
        self._by_net = None
        tracer.count("nets.candidates", scanned)
        tracer.count("nets.pairs_scanned", scanned)
