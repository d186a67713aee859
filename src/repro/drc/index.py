"""Sweep-indexed spatial acceleration for the design-rule checker.

:mod:`repro.drc.checker` verifies constructively-fulfilled rules
independently, so its reference implementations are deliberately naive:
``check_spacing_brute`` tests every rect pair and ``_Components`` unions
every same-layer pair — on the profiled amplifier build the checker was
~60% of sampled time once connectivity extraction was indexed.  The
:class:`DrcIndex` gives the checker the same sweep treatment as
:class:`repro.db.netindex.ConnectivityIndex`:

* **seq-ordered layer buckets** — every non-empty rect is bucketed by
  layer in source order; ``check_enclosures`` visits the cut buckets
  instead of filtering the whole rect list;
* **sweep-fed connected components** — per-layer closed-interval x-sweeps
  union touching rects into a union-by-size :class:`~repro.db.nets.
  DisjointSet`, replacing ``_Components``' quadratic same-layer loop while
  producing the *identical partition*; the same sweep records the
  same-layer touching adjacency that serves ``check_widths``'
  absorbed-stub scan;
* **rule-radius dilated candidate generation** — for every registered
  SPACE rule (:meth:`repro.tech.Technology.space_rules`) an interval sweep
  dilated by that rule's value emits exactly the pairs whose per-axis gaps
  are inside the rule, instead of all O(n²) pairs; the cross-layer sweeps
  double as the source of the component-touch sets that answer the
  gate-attachment exemption queries;
* **two-bucket strict-overlap sweeps** — one strict-interval x-sweep
  between two layer buckets, with side A optionally grown by a margin,
  serves two checks: for every (POLY layer, DIFFUSION layer) pair with
  EXTEND rules it finds which gates overlap which diffusion components,
  replacing ``check_extensions``' gate × component member loops; for
  every (cut layer, conductor layer) pair it finds the conductors whose
  interiors overlap each enclosure-grown cut, replacing the full
  conductor-layer scan per cut of ``_enclosed_by_any``.

Exactness contract: every indexed check in :mod:`repro.drc.checker`
returns *the identical violation list* (kind, message, location, rect
identity, order) as its brute counterpart — candidates are evaluated in
ascending (i, j) rect order with the same predicates, and the component
partition matches ``_Components`` exactly.  ``tests/test_drc_index.py``
pins this with Hypothesis properties over random rect soups across all
builtin technologies and with the golden-cell matrix.

Staleness: the index captures ``obj.nonempty_rects`` at build time.
Appending or removing rects is caught by :meth:`sync` (full rebuild — the
checker is one-shot per layout, unlike the connectivity index there is no
append fast path to preserve); code that mutates coordinates, layers,
nets or emptiness of already-indexed rects must call :meth:`invalidate`.

Deterministic counters (gated exactly by ``repro perf check``):

* ``drc.pairs_scanned`` — geometric pair tests performed (the brute
  checks count here too, so indexed-vs-brute ratios are comparable);
* ``drc.candidates`` — spacing candidate pairs the dilated sweeps emitted;
* ``drc.index_builds`` — full index builds (one per ``run_drc``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..db.nets import DisjointSet
from ..geometry import Rect
from ..obs import get_tracer
from ..tech.layer import LayerKind

__all__ = ["DrcIndex"]


class DrcIndex:
    """Per-layout sweep index shared by every check of one DRC run."""

    __slots__ = (
        "obj", "tech", "rects", "_tracked", "_built", "_buckets",
        "_sorted_buckets", "_dsu", "_roots", "_members", "_touchers",
        "_spacing_candidates", "_cross_touch", "_gate_overlaps",
        "_enclosures", "builds",
    )

    def __init__(self, obj) -> None:
        self.obj = obj
        self.tech = obj.tech
        self.rects: List[Rect] = []
        self._tracked = -1
        self._built = False
        #: layer -> rect indices in source order.
        self._buckets: Dict[str, List[int]] = {}
        #: layer -> rect indices stably sorted by x1 (shared by all sweeps).
        self._sorted_buckets: Dict[str, List[int]] = {}
        self._dsu: Optional[DisjointSet] = None
        #: rect index -> component root (post-union find of every index).
        self._roots: List[int] = []
        #: component root -> member rect indices in source order.
        self._members: Dict[int, List[int]] = {}
        #: rect index -> same-layer indices it touches/overlaps (adjacency
        #: recorded by the component sweeps; serves the absorbed-stub scan).
        self._touchers: Dict[int, List[int]] = {}
        self._spacing_candidates: Optional[List[Tuple[int, int]]] = None
        #: rect index -> roots of other-layer components it touches
        #: (complete for every layer pair with a positive SPACE rule).
        self._cross_touch: Dict[int, Set[int]] = {}
        self._gate_overlaps: Optional[Set[Tuple[int, int]]] = None
        #: (cut layer, conductor layer, margin) -> cut index -> conductor
        #: indices whose interiors overlap the margin-grown cut.
        self._enclosures: Dict[Tuple[str, str, int], Dict[int, List[int]]] = {}
        self.builds = 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Force a full rebuild on the next query.

        Required after mutating coordinates, nets, layers or emptiness of
        rects that were already indexed; rect-list growth or truncation is
        detected automatically.
        """
        self._built = False

    def sync(self) -> None:
        """Rebuild when the source object's rect list changed shape."""
        if not self._built or self._tracked != len(self.obj.rects):
            self._build()

    # ------------------------------------------------------------------
    # queries (component layer)
    # ------------------------------------------------------------------
    def component(self, index: int) -> int:
        """Component id of rect *index* (same partition as ``_Components``)."""
        self.sync()
        return self._roots[index]

    def same_component(self, i: int, j: int) -> bool:
        """True when the two rects belong to one merged shape."""
        self.sync()
        return self._roots[i] == self._roots[j]

    def members(self, comp: int) -> List[Rect]:
        """All rects of a component, in source order."""
        self.sync()
        return [self.rects[i] for i in self._members[comp]]

    def component_nets(self, comp: int) -> Set[Optional[str]]:
        """Nets present in a component."""
        return {member.net for member in self.members(comp)}

    def layers(self) -> List[str]:
        """Layers carrying at least one non-empty rect."""
        self.sync()
        return list(self._buckets)

    def indices_on(self, layer: str) -> Sequence[int]:
        """Indices of the non-empty rects on *layer*, in source order."""
        self.sync()
        return self._buckets.get(layer, ())

    def same_layer_touchers(self, index: int) -> Sequence[int]:
        """Indices of same-layer rects touching/overlapping rect *index*.

        Intersecting neighbours are a subset of touching neighbours, so the
        absorbed-thin-stub scan of ``check_widths`` only re-tests these.
        """
        self.sync()
        return self._touchers.get(index, ())

    # ------------------------------------------------------------------
    # queries (spacing layer)
    # ------------------------------------------------------------------
    def spacing_candidates(self) -> List[Tuple[int, int]]:
        """All (i, j) pairs (i < j) that can violate a spacing rule.

        Sorted ascending so evaluation emits violations in the exact order
        of the brute all-pairs loop.  Complete: a pair whose per-axis gaps
        are both inside its layer pair's SPACE rule is always generated.
        """
        self.sync()
        if self._spacing_candidates is None:
            self._build_spacing()
        return self._spacing_candidates

    def touches_component(self, index: int, comp: int) -> bool:
        """True when rect *index* touches any member of cross-layer *comp*.

        Answers from the touch sets the spacing sweeps recorded; valid for
        the (rect, component) combinations spacing evaluation asks about —
        i.e. layer pairs carrying a positive SPACE rule.
        """
        self.sync()
        if self._spacing_candidates is None:
            self._build_spacing()
        return comp in self._cross_touch.get(index, ())

    # ------------------------------------------------------------------
    # queries (extension layer)
    # ------------------------------------------------------------------
    def gate_overlaps(self, gate: int, comp: int) -> bool:
        """True when gate rect *gate* overlaps diffusion component *comp*.

        Valid for (POLY-kind layer, DIFFUSION-kind layer) pairs that carry
        both EXTEND rules — exactly the pairs ``check_extensions`` tests.
        """
        self.sync()
        if self._gate_overlaps is None:
            self._build_gate_overlaps()
        return (gate, comp) in self._gate_overlaps

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
        candidates ``_enclosed_by_any`` filters out of a full layer scan.
        Cuts without any overlapping conductor are absent.  Computed by one
        strict-overlap sweep on first use and cached for the index's
        lifetime.
        """
        self.sync()
        key = (cut_layer, layer, margin)
        found = self._enclosures.get(key)
        if found is None:
            found = self._build_enclosures(cut_layer, layer, margin)
            self._enclosures[key] = found
        return found

    def diffusion_groups(self) -> Dict[Tuple[str, int], List[Rect]]:
        """(diffusion layer, component) -> member rects, in first-member
        order — the grouping ``check_extensions`` iterates."""
        self.sync()
        groups: Dict[Tuple[str, int], List[Rect]] = {}
        diffusion = {
            layer.name
            for layer in self.tech.layers
            if layer.kind is LayerKind.DIFFUSION
        }
        for index, rect in enumerate(self.rects):
            if rect.layer in diffusion:
                groups.setdefault((rect.layer, self._roots[index]), []).append(rect)
        return groups

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def _build(self) -> None:
        tracer = get_tracer()
        self._tracked = len(self.obj.rects)
        self.rects = self.obj.nonempty_rects
        rects = self.rects
        self._buckets = {}
        self._sorted_buckets = {}
        self._touchers = {}
        self._spacing_candidates = None
        self._cross_touch = {}
        self._gate_overlaps = None
        self._enclosures = {}

        buckets = self._buckets
        for index, rect in enumerate(rects):
            buckets.setdefault(rect.layer, []).append(index)
        for layer, indices in buckets.items():
            self._sorted_buckets[layer] = sorted(
                indices, key=lambda index: rects[index].x1
            )

        # Connected components: one closed-interval sweep per layer bucket,
        # recording the touching adjacency as a side effect.
        dsu = DisjointSet(len(rects))
        self._dsu = dsu
        scanned = 0
        for layer in buckets:
            scanned += self._sweep_components(layer)
        self._roots = [dsu.find(index) for index in range(len(rects))]
        members: Dict[int, List[int]] = {}
        for index, root in enumerate(self._roots):
            members.setdefault(root, []).append(index)
        self._members = members

        self._built = True
        self.builds += 1
        tracer.count("drc.index_builds")
        tracer.count("drc.pairs_scanned", scanned)

    def _sweep_components(self, layer: str) -> int:
        """Closed-interval x-sweep over one layer bucket; unions touching
        pairs and records their adjacency.  Returns pairs tested."""
        rects = self.rects
        union = self._dsu.union
        touchers = self._touchers
        active: List[int] = []
        scanned = 0
        for i in self._sorted_buckets[layer]:
            rect = rects[i]
            x1 = rect.x1
            y1 = rect.y1
            y2 = rect.y2
            keep: List[int] = []
            for j in active:
                other = rects[j]
                if other.x2 < x1:
                    continue
                keep.append(j)
                scanned += 1
                if other.y1 <= y2 and y1 <= other.y2:
                    union(i, j)
                    touchers.setdefault(i, []).append(j)
                    touchers.setdefault(j, []).append(i)
            keep.append(i)
            active = keep
        return scanned

    # ------------------------------------------------------------------
    # spacing candidates + cross-layer touch sets (lazy)
    # ------------------------------------------------------------------
    def _build_spacing(self) -> None:
        tracer = get_tracer()
        candidates: List[Tuple[int, int]] = []
        scanned = 0
        if self.tech.max_space_radius() > 0:
            buckets = self._sorted_buckets
            for layer_a, layer_b, rule in self.tech.space_rules():
                if rule <= 0:
                    # 0 < gap < 0 is unsatisfiable: the pair can never
                    # violate, and the brute path's touch exemptions only
                    # matter for pairs that could.
                    continue
                if layer_a == layer_b:
                    bucket = buckets.get(layer_a)
                    if bucket and len(bucket) > 1:
                        scanned += self._sweep_same_layer(bucket, rule, candidates)
                else:
                    a_bucket = buckets.get(layer_a)
                    b_bucket = buckets.get(layer_b)
                    if a_bucket and b_bucket:
                        scanned += self._sweep_cross_layer(
                            a_bucket, b_bucket, rule, candidates
                        )
        candidates.sort()
        self._spacing_candidates = candidates
        tracer.count("drc.pairs_scanned", scanned)
        tracer.count("drc.candidates", len(candidates))

    def _sweep_same_layer(
        self, bucket: List[int], rule: int, out: List[Tuple[int, int]]
    ) -> int:
        """Dilated closed sweep: emits pairs with both axis gaps < rule."""
        rects = self.rects
        active: List[int] = []
        scanned = 0
        for i in bucket:
            rect = rects[i]
            window = rect.x1 - rule
            y_lo = rect.y1 - rule
            y_hi = rect.y2 + rule
            keep: List[int] = []
            for j in active:
                other = rects[j]
                if other.x2 <= window:
                    continue
                keep.append(j)
                scanned += 1
                if other.y1 < y_hi and y_lo < other.y2:
                    out.append((i, j) if i < j else (j, i))
            keep.append(i)
            active = keep
        return scanned

    def _sweep_cross_layer(
        self,
        a_bucket: List[int],
        b_bucket: List[int],
        rule: int,
        out: List[Tuple[int, int]],
    ) -> int:
        """Dilated two-bucket sweep; also records component touch sets.

        Touching pairs have zero gaps, so they are always candidates of a
        positive rule — which is what makes the recorded touch sets
        complete for the gate-attachment exemption queries.
        """
        rects = self.rects
        roots = self._roots
        cross_touch = self._cross_touch
        events = sorted(
            [(rects[i].x1, 0, i) for i in a_bucket]
            + [(rects[i].x1, 1, i) for i in b_bucket]
        )
        actives: List[List[int]] = [[], []]
        scanned = 0
        for x1, side, i in events:
            rect = rects[i]
            window = x1 - rule
            y_lo = rect.y1 - rule
            y_hi = rect.y2 + rule
            keep: List[int] = []
            for j in actives[1 - side]:
                other = rects[j]
                if other.x2 <= window:
                    continue
                keep.append(j)
                scanned += 1
                if other.y1 < y_hi and y_lo < other.y2:
                    out.append((i, j) if i < j else (j, i))
                    if (
                        other.x1 <= rect.x2
                        and rect.x1 <= other.x2
                        and other.y1 <= rect.y2
                        and rect.y1 <= other.y2
                    ):
                        cross_touch.setdefault(i, set()).add(roots[j])
                        cross_touch.setdefault(j, set()).add(roots[i])
            actives[1 - side] = keep
            actives[side].append(i)
        return scanned

    # ------------------------------------------------------------------
    # gate/body overlaps and cut enclosures (lazy)
    # ------------------------------------------------------------------
    def _build_gate_overlaps(self) -> None:
        tracer = get_tracer()
        rules = self.tech.rules
        roots = self._roots
        overlaps: Set[Tuple[int, int]] = set()
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
            gate_bucket = self._sorted_buckets.get(gate_layer)
            if not gate_bucket:
                continue
            for body_layer in diffusion_layers:
                if (
                    rules.extend(gate_layer, body_layer) is None
                    or rules.extend(body_layer, gate_layer) is None
                ):
                    continue
                body_bucket = self._sorted_buckets.get(body_layer)
                if body_bucket:
                    pairs: List[Tuple[int, int]] = []
                    scanned += self._sweep_overlaps(gate_bucket, body_bucket, pairs)
                    overlaps.update((gate, roots[body]) for gate, body in pairs)
        self._gate_overlaps = overlaps
        tracer.count("drc.pairs_scanned", scanned)

    def _build_enclosures(
        self, cut_layer: str, layer: str, margin: int
    ) -> Dict[int, List[int]]:
        found: Dict[int, List[int]] = {}
        cut_bucket = self._sorted_buckets.get(cut_layer)
        conductor_bucket = self._sorted_buckets.get(layer)
        if not cut_bucket or not conductor_bucket:
            return found
        pairs: List[Tuple[int, int]] = []
        scanned = self._sweep_overlaps(cut_bucket, conductor_bucket, pairs, margin)
        for cut, conductor in pairs:
            found.setdefault(cut, []).append(conductor)
        for conductors in found.values():
            conductors.sort()
        get_tracer().count("drc.pairs_scanned", scanned)
        return found

    def _sweep_overlaps(
        self,
        a_bucket: List[int],
        b_bucket: List[int],
        out: List[Tuple[int, int]],
        margin: int = 0,
    ) -> int:
        """Strict-interval two-bucket sweep; returns pairs tested.

        Appends ``(a, b)`` to *out* for every A rect, grown by *margin*,
        whose interior overlaps a B rect's.  At equal left edges A events
        come first, which keeps the strict test exact even for a
        zero-width grown box.
        """
        rects = self.rects
        events = []
        for i in a_bucket:
            rect = rects[i]
            x1, x2 = rect.x1 - margin, rect.x2 + margin
            y1, y2 = rect.y1 - margin, rect.y2 + margin
            if margin < 0:  # normalised the way Rect.grown normalises
                x1, x2 = min(x1, x2), max(x1, x2)
                y1, y2 = min(y1, y2), max(y1, y2)
            events.append((x1, 0, i, x2, y1, y2))
        for i in b_bucket:
            rect = rects[i]
            events.append((rect.x1, 1, i, rect.x2, rect.y1, rect.y2))
        events.sort()
        # Per side, the (x1, side, index, x2, y1, y2) events still open.
        actives: List[List[Tuple[int, ...]]] = [[], []]
        scanned = 0
        for event in events:
            x1, side, i, _, y1, y2 = event
            keep = []
            for other in actives[1 - side]:
                if other[3] <= x1:
                    continue
                keep.append(other)
                scanned += 1
                if other[4] < y2 and y1 < other[5]:
                    out.append((i, other[2]) if side == 0 else (other[2], i))
            actives[1 - side] = keep
            actives[side].append(event)
        return scanned
