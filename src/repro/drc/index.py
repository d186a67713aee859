"""Sweep-indexed spatial acceleration for the design-rule checker.

:mod:`repro.drc.checker` verifies constructively-fulfilled rules
independently.  Testing every rect pair (the all-pairs reference checks in
:mod:`repro.verify.reference`) made the checker ~60% of the profiled
amplifier build once connectivity extraction was indexed.  The
:class:`DrcIndex` reads the object's :class:`~repro.db.store.RectStore`:
its per-layer buckets and each layer's x1 order, a view the store caches
until the layer changes.  Rects are addressed by *seq*, their position in
``obj.rects``; the seq order of the non-empty rects is their source order.
Every sweep is a call to the shared kernel :mod:`repro.geometry.sweep`:

* **sweep-fed connected components** — one touching sweep per layer
  (:func:`~repro.geometry.sweep.pairs_within`, ``reach=1``) unions
  touching rects into a union-by-size :class:`~repro.db.nets.DisjointSet`,
  producing the identical partition to the reference's quadratic
  same-layer loop; the same pairs record the same-layer touching adjacency
  that serves ``check_widths``' absorbed-stub scan;
* **rule-radius dilated candidate generation** — for every registered
  SPACE rule (:attr:`repro.tech.Technology.space_rules`) a sweep dilated
  by that rule's value emits exactly the pairs whose per-axis gaps are
  inside the rule, instead of all O(n²) pairs; the touching subset of the
  cross-layer pairs gives the component-touch sets that answer the
  gate-attachment exemption queries;
* **two-bucket strict-overlap sweeps** —
  :func:`~repro.geometry.sweep.pairs_across`, with side A optionally grown
  by a margin, serves two checks: for every (POLY layer, DIFFUSION layer)
  pair with EXTEND rules it finds which gates overlap which diffusion
  components, and for every (cut layer, conductor layer) pair it finds the
  conductors whose interiors overlap each enclosure-grown cut.

Exactness contract: every indexed check in :mod:`repro.drc.checker`
returns *the identical violation list* (kind, message, location, rect
identity, order) as its reference counterpart — candidates are evaluated
in ascending (i, j) seq order, which is the reference's rect order, with
the same predicates, and the component partition matches the reference's
exactly.  ``tests/test_drc_index.py`` pins this with Hypothesis
properties over random rect soups across all builtin technologies and
with the golden-cell matrix.

The index is a snapshot of the layout when it is constructed, and
``run_drc`` builds a fresh one per call.  After mutating the layout (every
rect write goes through the layout object, which keeps its store exact),
build a new index.

Deterministic counters (gated exactly by ``repro perf check``):

* ``drc.pairs_scanned`` — geometric pair tests performed (the reference
  checks count here too, so indexed-vs-reference ratios are comparable);
* ``drc.candidates`` — spacing candidate pairs the dilated sweeps emitted;
* ``drc.index_builds`` — index builds (one per ``run_drc``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..db.nets import DisjointSet
from ..geometry import Rect
from ..geometry.sweep import pairs_across, pairs_within
from ..obs import get_tracer
from ..tech.layer import LayerKind

__all__ = ["DrcIndex"]


class DrcIndex:
    """Snapshot sweep index shared by every check of one DRC run."""

    __slots__ = (
        "tech", "rects", "live", "_x1", "_roots", "_members", "_touchers",
        "_spacing_candidates", "_cross_touch", "_gate_overlaps", "_enclosures",
    )

    def __init__(self, obj) -> None:
        tracer = get_tracer()
        store = obj.store()
        self.tech = obj.tech
        #: The layout's rects, addressed by seq (empty ones included).
        self.rects: List[Rect] = store.rects.copy()
        rects = self.rects
        #: Seqs of the non-empty rects in source order — what the checks visit.
        self.live: List[int] = store.live_seqs()
        #: layer -> its non-empty seqs in stable x1 order (the store's
        #: cached view; every sweep walks these).
        self._x1: Dict[str, Sequence[int]] = {
            layer: store.by_x1(layer) for layer in store.layers()
        }
        #: seq -> same-layer seqs it touches/overlaps (adjacency recorded
        #: by the component sweeps; serves the absorbed-stub scan).
        self._touchers: Dict[int, List[int]] = {}
        self._spacing_candidates: Optional[List[Tuple[int, int]]] = None
        #: seq -> roots of other-layer components it touches (complete for
        #: every layer pair with a positive SPACE rule).
        self._cross_touch: Dict[int, Set[int]] = {}
        self._gate_overlaps: Optional[Dict[int, List[Tuple[str, int]]]] = None
        #: (cut layer, conductor layer, margin) -> cut seq -> conductor
        #: seqs whose interiors overlap the margin-grown cut.
        self._enclosures: Dict[Tuple[str, str, int], Dict[int, List[int]]] = {}

        # Connected components: one touching sweep per layer, recording
        # the touching adjacency as a side effect.
        dsu = DisjointSet(len(rects))
        touchers = self._touchers
        scanned = 0
        for order in self._x1.values():
            pairs, tested = pairs_within(rects, order, 1)
            scanned += tested
            for i, j in pairs:
                dsu.union(i, j)
                touchers.setdefault(i, []).append(j)
                touchers.setdefault(j, []).append(i)
        #: seq -> component root (empty rects are their own roots).
        self._roots: List[int] = [dsu.find(seq) for seq in range(len(rects))]
        #: component root -> member seqs in source order.
        self._members: Dict[int, List[int]] = {}
        for seq in self.live:
            self._members.setdefault(self._roots[seq], []).append(seq)
        tracer.count("drc.index_builds")
        tracer.count("drc.pairs_scanned", scanned)

    # ------------------------------------------------------------------
    # queries (component layer)
    # ------------------------------------------------------------------
    def component(self, index: int) -> int:
        """Component id of the rect with seq *index* (same partition as the
        reference)."""
        return self._roots[index]

    def same_component(self, i: int, j: int) -> bool:
        """True when the two rects belong to one merged shape."""
        return self._roots[i] == self._roots[j]

    def members(self, comp: int) -> List[Rect]:
        """All rects of a component, in source order."""
        return [self.rects[i] for i in self._members[comp]]

    def component_nets(self, comp: int) -> Set[Optional[str]]:
        """Nets present in a component."""
        return {member.net for member in self.members(comp)}

    def layers(self) -> List[str]:
        """Layers carrying at least one non-empty rect."""
        return list(self._x1)

    def indices_on(self, layer: str) -> Sequence[int]:
        """Seqs of the non-empty rects on *layer*, in source order."""
        return sorted(self._x1.get(layer, ()))

    def same_layer_touchers(self, index: int) -> Sequence[int]:
        """Indices of same-layer rects touching/overlapping rect *index*.

        Intersecting neighbours are a subset of touching neighbours, so the
        absorbed-thin-stub scan of ``check_widths`` only re-tests these.
        """
        return self._touchers.get(index, ())

    # ------------------------------------------------------------------
    # queries (spacing layer)
    # ------------------------------------------------------------------
    def spacing_candidates(self) -> List[Tuple[int, int]]:
        """All (i, j) pairs (i < j) that can violate a spacing rule.

        Sorted ascending so evaluation emits violations in the exact order
        of the reference all-pairs loop.  Complete: a pair whose per-axis
        gaps are both inside its layer pair's SPACE rule is always
        generated.
        """
        if self._spacing_candidates is None:
            self._build_spacing()
        return self._spacing_candidates

    def touches_component(self, index: int, comp: int) -> bool:
        """True when rect *index* touches any member of cross-layer *comp*.

        Answers from the touch sets the spacing sweeps recorded; valid for
        the (rect, component) combinations spacing evaluation asks about —
        i.e. layer pairs carrying a positive SPACE rule.
        """
        if self._spacing_candidates is None:
            self._build_spacing()
        return comp in self._cross_touch.get(index, ())

    # ------------------------------------------------------------------
    # queries (extension layer)
    # ------------------------------------------------------------------
    def gate_overlaps(self) -> Dict[int, List[Tuple[str, int]]]:
        """Gate seq -> the diffusion groups its rect overlaps.

        Only (POLY-kind layer, DIFFUSION-kind layer) pairs that carry both
        EXTEND rules are swept — exactly the pairs ``check_extensions``
        tests.  Gates come in seq order, each gate's groups as
        :meth:`diffusion_groups` keys in that method's order.
        """
        if self._gate_overlaps is None:
            self._build_gate_overlaps()
        return self._gate_overlaps

    # ------------------------------------------------------------------
    # queries (enclosure layer)
    # ------------------------------------------------------------------
    def enclosure_candidates(
        self, cut_layer: str, layer: str, margin: int
    ) -> Dict[int, List[int]]:
        """Cut index -> *layer* conductors overlapping the grown cut.

        For every rect on *cut_layer* grown by *margin* (as
        :meth:`Rect.grown` grows it), the indices of the *layer* rects
        whose interiors overlap it, in source order — exactly the
        candidates the reference filters out of a full layer scan.  Cuts
        without any overlapping conductor are absent.  Computed by one
        strict-overlap sweep on first use and cached for the index's
        lifetime.
        """
        key = (cut_layer, layer, margin)
        found = self._enclosures.get(key)
        if found is None:
            found = self._build_enclosures(cut_layer, layer, margin)
            self._enclosures[key] = found
        return found

    def diffusion_groups(self) -> Dict[Tuple[str, int], List[Rect]]:
        """(diffusion layer, component) -> member rects, in first-member
        order — the grouping ``check_extensions`` iterates."""
        groups: Dict[Tuple[str, int], List[Rect]] = {}
        diffusion = {
            layer.name
            for layer in self.tech.layers
            if layer.kind is LayerKind.DIFFUSION
        }
        rects = self.rects
        for seq in self.live:
            rect = rects[seq]
            if rect.layer in diffusion:
                groups.setdefault((rect.layer, self._roots[seq]), []).append(rect)
        return groups

    # ------------------------------------------------------------------
    # spacing candidates + cross-layer touch sets (lazy)
    # ------------------------------------------------------------------
    def _build_spacing(self) -> None:
        tracer = get_tracer()
        rects = self.rects
        roots = self._roots
        cross_touch = self._cross_touch
        candidates: List[Tuple[int, int]] = []
        scanned = 0
        if self.tech.max_space_radius > 0:
            for layer_a, layer_b, rule in self.tech.space_rules:
                if rule <= 0:
                    # 0 < gap < 0 is unsatisfiable: the pair can never
                    # violate, and the reference's touch exemptions only
                    # matter for pairs that could.
                    continue
                a_bucket = self._x1.get(layer_a, ())
                if layer_a == layer_b:
                    if a_bucket and len(a_bucket) > 1:
                        pairs, tested = pairs_within(rects, a_bucket, rule)
                        scanned += tested
                        candidates.extend(
                            (i, j) if i < j else (j, i) for i, j in pairs
                        )
                    continue
                b_bucket = self._x1.get(layer_b, ())
                if not a_bucket or not b_bucket:
                    continue
                pairs, tested = pairs_across(rects, a_bucket, b_bucket, rule)
                scanned += tested
                for i, j in pairs:
                    candidates.append((i, j) if i < j else (j, i))
                    # Touching pairs have zero gaps, so they are always
                    # candidates of a positive rule: the touch sets are
                    # complete for the gate-attachment exemption queries.
                    if rects[i].touches_or_intersects(rects[j]):
                        cross_touch.setdefault(i, set()).add(roots[j])
                        cross_touch.setdefault(j, set()).add(roots[i])
        candidates.sort()
        self._spacing_candidates = candidates
        tracer.count("drc.pairs_scanned", scanned)
        tracer.count("drc.candidates", len(candidates))

    # ------------------------------------------------------------------
    # gate/body overlaps and cut enclosures (lazy)
    # ------------------------------------------------------------------
    def _build_gate_overlaps(self) -> None:
        rules = self.tech.rules
        roots = self._roots
        overlaps: Dict[int, Set[int]] = {}
        scanned = 0
        poly_layers = [
            layer.name for layer in self.tech.layers
            if layer.kind is LayerKind.POLY
        ]
        diffusion_layers = [
            layer.name for layer in self.tech.layers
            if layer.kind is LayerKind.DIFFUSION
        ]
        for gate_layer in poly_layers:
            gate_bucket = self._x1.get(gate_layer, ())
            if not gate_bucket:
                continue
            for body_layer in diffusion_layers:
                if (
                    rules.extend(gate_layer, body_layer) is None
                    or rules.extend(body_layer, gate_layer) is None
                ):
                    continue
                body_bucket = self._x1.get(body_layer, ())
                if body_bucket:
                    pairs, tested = pairs_across(self.rects, gate_bucket, body_bucket)
                    scanned += tested
                    for gate, body in pairs:
                        overlaps.setdefault(gate, set()).add(roots[body])
        # A component lies on one layer; diffusion_groups() orders the
        # groups by their first member.
        first = self._members
        rects = self.rects
        self._gate_overlaps = {
            gate: [
                (rects[first[root][0]].layer, root)
                for root in sorted(overlaps[gate], key=lambda root: first[root][0])
            ]
            for gate in sorted(overlaps)
        }
        get_tracer().count("drc.pairs_scanned", scanned)

    def _build_enclosures(
        self, cut_layer: str, layer: str, margin: int
    ) -> Dict[int, List[int]]:
        found: Dict[int, List[int]] = {}
        cut_bucket = self._x1.get(cut_layer, ())
        conductor_bucket = self._x1.get(layer, ())
        if not cut_bucket or not conductor_bucket:
            return found
        pairs, scanned = pairs_across(self.rects, cut_bucket, conductor_bucket, margin)
        for cut, conductor in pairs:
            found.setdefault(cut, []).append(conductor)
        for conductors in found.values():
            conductors.sort()
        get_tracer().count("drc.pairs_scanned", scanned)
        return found
