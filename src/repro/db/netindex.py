"""Indexed, shared connectivity extraction.

:func:`repro.verify.reference.extract_connectivity_brute` answers "which
rects are electrically one node?" by testing every conducting rect pair — three
quadratic loops (same-layer touching, declared diffused junctions, cut
joins) feeding a union-find.  On the profiled amplifier build that was the
top hotspot: ~5.8M ``Rect.intersects`` calls, repeated once *per net* by
the global router and once per net again by the verification oracles.

The :class:`ConnectivityIndex` removes both multipliers:

* **per-layer sweep candidate generation** — rects are bucketed by layer
  (seq-ordered, the same idiom as :class:`repro.compact.index.
  FrontierIndex`); each interaction (same-layer touching, each declared
  overlap junction, each cut↔plate layer pair — once, though a cut layer
  may reach one plate through several connections) runs one call of the
  shared :mod:`repro.geometry.sweep` kernel, which only tests pairs whose
  x-ranges can interact, instead of all pairs;
* **a cached-components layer** — one index owns one union-find over one
  rect list; :meth:`components`, :meth:`net_is_connected` and
  :meth:`connected_components_by_net` all answer from the same cached
  extraction, so N per-net queries cost one build, not N;
* **incremental appends** — rects appended to the source list after the
  build (the global router laying wires) are folded in by querying the
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

        def by_x1(indices: List[int]) -> List[int]:
            return sorted(indices, key=lambda index: conducting[index].x1)

        # Same-layer touching (same-net-only on diffusion: crossing gates
        # split an active region electrically, so each net sweeps alone).
        for layer, indices in buckets.items():
            if layer in self._diffusion_layers:
                by_net: Dict[str, List[int]] = {}
                for index in indices:
                    by_net.setdefault(conducting[index].net, []).append(index)
                for group in by_net.values():
                    scanned += union_all(pairs_within(conducting, by_x1(group), 1))
            else:
                scanned += union_all(pairs_within(conducting, by_x1(indices), 1))

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
        """Fold appended rects in by querying the existing layer buckets."""
        tracer = get_tracer()
        tech = self.tech
        conducting = self._conducting
        buckets = self._buckets
        dsu = self._dsu
        scanned = 0
        added_conducting = False
        for rect in fresh:
            if rect.is_empty:
                continue
            if rect.net is not None:
                self._net_counts[rect.net] = self._net_counts.get(rect.net, 0) + 1
            layer = tech.layer(rect.layer)
            diffusion = layer.kind is LayerKind.DIFFUSION
            if not layer.conducting or (diffusion and rect.net is None):
                continue
            index = dsu.grow()
            conducting.append(rect)
            added_conducting = True
            if diffusion:
                self._diffusion_layers.add(rect.layer)
            if rect.net is not None:
                self._net_members.setdefault(rect.net, []).append(index)

            x1 = rect.x1
            y1 = rect.y1
            x2 = rect.x2
            y2 = rect.y2

            # Same-layer touching (same-net only on diffusion).
            for j in buckets.get(rect.layer, ()):
                other = conducting[j]
                scanned += 1
                if diffusion and other.net != rect.net:
                    continue
                if (other.x1 <= x2 and x1 <= other.x2
                        and other.y1 <= y2 and y1 <= other.y2):
                    dsu.union(index, j)

            # Declared diffused junctions touching this rect's layer.
            for layer_a, layer_b in tech.overlap_connections():
                if layer_a == layer_b:
                    continue
                partner = None
                if layer_a == rect.layer:
                    partner = layer_b
                elif layer_b == rect.layer:
                    partner = layer_a
                if partner is None:
                    continue
                for j in buckets.get(partner, ()):
                    other = conducting[j]
                    scanned += 1
                    if (other.x1 < x2 and x1 < other.x2
                            and other.y1 < y2 and y1 < other.y2):
                        dsu.union(index, j)

            # This rect as a cut over its plate layers...
            plate_layers = _plate_layers(tech, rect.layer)
            # ... and as a plate under existing cut rects.
            cut_layers = [
                cut_layer
                for cut_layer in buckets
                if any(
                    rect.layer in pair
                    for pair in tech.connected_layers(cut_layer)
                )
            ]
            for partner in plate_layers + cut_layers:
                for j in buckets.get(partner, ()):
                    other = conducting[j]
                    scanned += 1
                    if (other.x1 < x2 and x1 < other.x2
                            and other.y1 < y2 and y1 < other.y2):
                        dsu.union(index, j)

            # Enter the buckets only after the scans: a rect never pairs
            # with itself, and fresh rects pair with each other exactly
            # once (the earlier one is already bucketed).
            buckets.setdefault(rect.layer, []).append(index)

        if added_conducting:
            self._components = None
            self._by_net = None
        tracer.count("nets.candidates", scanned)
        tracer.count("nets.pairs_scanned", scanned)
