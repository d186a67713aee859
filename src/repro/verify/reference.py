"""Reference implementations kept as test oracles.

Each engine here is the plain, slow version of a fast path in production.
The equivalence suites and the benchmarks race the two.  Nothing outside
``repro.verify`` imports this module — not ``repro.opt``, ``repro.core``,
``repro.cli``, ``repro.drc``, ``repro.db`` or ``repro.compact``;
``tests/test_reference_boundary.py`` enforces this.

* :class:`ReplayOrderOptimizer` — the Sec. 2.4 order search as the paper
  describes it: every permutation is recompacted from an empty layout
  (O(n!·n) compaction steps).  Up to its exhaustive limit,
  :class:`repro.opt.OrderOptimizer` must return the same ``best_order``,
  ``best_score`` and geometry, and every score it records must equal the
  score recorded here.
* :func:`check_state_keys` — the soundness of
  :func:`repro.opt.order.state_key`, by replay: prefixes with one key
  must give identical geometry and score under every completion, since
  the tree search replays one's subtree for the other.
* :func:`solve_links_fixpoint` — the Sec. 2.3 link rebuild as a fixpoint:
  every link of the object is rebuilt, in index order, pass after pass.
  :class:`repro.db.LayoutObject`'s seeded solver, which rebuilds only the
  links an edge move reaches, must leave every rect where this leaves it.
* ``check_*_brute``, :data:`CHECKS_BRUTE` and :func:`run_drc_brute` — the
  design-rule checks over all rect pairs, with quadratic same-layer
  components (``_Components``) and a full layer scan per cut
  (``_enclosed_by_any``).  :func:`repro.drc.run_drc` and every
  :class:`repro.drc.DrcIndex`-served check must return the identical
  violation list.
* :func:`extract_connectivity_brute` — connectivity over all conducting
  rect pairs; :class:`repro.db.ConnectivityIndex` must return the same
  partition in the same order.
* :class:`ScanCompactor` — the successive compactor with every per-step
  scan redone from ``main.rects``, through :func:`frontier_filter` and
  :func:`gather_constraints`; :class:`repro.compact.Compactor`, which
  reads the main object's rect store, must produce identical geometry.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..compact import (
    Compactor,
    PairConstraint,
    gather_constraints_grouped,
    layer_frontier,
)
from ..db import ArrayLink, DisjointSet, LayoutObject
from ..drc.checker import (
    _check_areas,
    _check_crossing,
    _check_shorts,
    _cross_layer_spacing_violation,
    _cut_roles,
    _cut_size_violation,
    _enclosure_violation,
    _run_checks,
    _same_layer_spacing_violation,
    _width_violation,
)
from ..drc.violations import Violation
from ..geometry import Direction, Rect, bounding_box, covered_by
from ..obs import get_tracer
from ..opt import OrderResult, Rating, Step
from ..opt.order import state_key
from ..tech import Technology
from ..tech.layer import LayerKind

__all__ = [
    "CHECKS_BRUTE",
    "ReplayOrderOptimizer",
    "ScanCompactor",
    "check_areas_brute",
    "check_enclosures_brute",
    "check_extensions_brute",
    "check_shorts_brute",
    "check_spacing_brute",
    "check_state_keys",
    "check_widths_brute",
    "extract_connectivity_brute",
    "frontier_filter",
    "gather_constraints",
    "replay",
    "run_drc_brute",
    "solve_links_fixpoint",
]


def solve_links_fixpoint(obj: LayoutObject) -> Set[int]:
    """Rebuild every link of *obj* until a pass changes nothing.

    At most ``len(obj.links) + 2`` passes; array cuts a rebuild creates
    join ``obj.rects``.  Returns the ids of the rects whose tuple differs
    across some pass.
    """
    changed: Set[int] = set()
    for _ in range(len(obj.links) + 2):
        before = {}
        for link in obj.links:
            for rect in link.involved_rects():
                before[id(rect)] = rect.as_tuple()
        for link in obj.links:
            cuts = len(link.rects) if isinstance(link, ArrayLink) else 0
            link.rebuild()
            if isinstance(link, ArrayLink):
                obj.rects.extend(link.rects[cuts:])
        stable = True
        for link in obj.links:
            for rect in link.involved_rects():
                rid = id(rect)
                if before.get(rid) != rect.as_tuple():
                    stable = False
                    changed.add(rid)
        if stable:
            break
    obj.invalidate_index()
    return changed


def replay(
    name: str,
    tech: Technology,
    steps: Sequence[Step],
    order: Iterable[int],
    compactor: Optional[Compactor] = None,
) -> LayoutObject:
    """Compact fresh copies of *steps* in *order* into an empty object."""
    compactor = compactor if compactor is not None else Compactor()
    main = LayoutObject(name, tech)
    for index in order:
        step = steps[index].fresh()
        compactor.compact(main, step.obj, step.direction, step.ignore)
    return main


def check_state_keys(
    tech: Technology, steps: Sequence[Step], rating: Optional[Rating] = None
) -> int:
    """Assert that equal state keys mean equal futures; count the merges.

    Replays every prefix of *steps* from an empty layout and groups the
    prefixes by the production :func:`~repro.opt.order.state_key`.
    Within a group, every completion of every member must give the same
    rect multiset and the same *rating* score.  Returns how many prefixes
    share their key with an earlier one: the transpositions a search over
    the whole tree could merge.

    The key is checked on any input, linked ones too, although the search
    merges only the inputs :func:`~repro.opt.order.transposable`
    admits.  A rating that weights the capacitance of a net drawn by
    several steps may fail on score: that sum depends on rect order.
    """
    steps = list(steps)
    count = len(steps)
    if count > 5:
        # Every completion of every prefix: n!·(n+1) full replays.
        raise ValueError(f"check_state_keys takes at most 5 steps, not {count}")
    rating = rating if rating is not None else Rating()
    groups: Dict[object, List[Tuple[int, ...]]] = {}
    for depth in range(count + 1):
        for prefix in itertools.permutations(range(count), depth):
            key = state_key(prefix, replay("m", tech, steps, prefix))
            groups.setdefault(key, []).append(prefix)
    merged = 0
    for members in groups.values():
        merged += len(members) - 1
        if len(members) < 2:
            continue
        rest = [i for i in range(count) if i not in members[0]]
        for suffix in itertools.permutations(rest):
            outcomes = {}
            for prefix in members:
                final = replay("m", tech, steps, prefix + suffix)
                rects = Counter(
                    (r.layer, r.net, r.x1, r.y1, r.x2, r.y2, r.no_overlap)
                    for r in final.rects
                )
                outcomes[prefix + suffix] = (rects, rating.evaluate(final))
            first, *others = outcomes.items()
            for order, outcome in others:
                if outcome != first[1]:
                    raise AssertionError(
                        f"orders {first[0]} and {order} continue one state key"
                        " but differ in geometry or score"
                    )
    return merged


class ReplayOrderOptimizer:
    """Exhaustive order search by full replay.

    Every permutation is replayed in lexicographic order and the first
    strictly better score wins, so ties go to the lexicographically
    smallest order; ``scores`` holds all n! orders.
    """

    def __init__(
        self,
        compactor: Optional[Compactor] = None,
        rating: Optional[Rating] = None,
    ) -> None:
        self.compactor = compactor if compactor is not None else Compactor()
        self.rating = rating if rating is not None else Rating()

    def optimize(
        self, name: str, tech: Technology, steps: Sequence[Step]
    ) -> OrderResult:
        steps = list(steps)
        if not steps:
            raise ValueError("no compaction steps to optimize")
        tracer = get_tracer()
        best: Optional[LayoutObject] = None
        best_order: Tuple[int, ...] = ()
        best_score = float("inf")
        scores: Dict[Tuple[int, ...], float] = {}
        for order in itertools.permutations(range(len(steps))):
            candidate = replay(name, tech, steps, order, self.compactor)
            with tracer.span("opt.rate"):
                score = scores[order] = self.rating.evaluate(candidate)
            tracer.count("opt.trials")
            if score < best_score:
                best, best_order, best_score = candidate, order, score
        assert best is not None
        return OrderResult(best, best_order, best_score, len(scores), scores)


# ======================================================================
# design-rule checks
# ======================================================================
class _Components:
    """Per-layer connected components of touching rects (reference path).

    The quadratic same-layer loop is intentional: this is the oracle the
    sweep-fed :class:`DrcIndex` components are checked against.
    """

    def __init__(self, rects: Sequence[Rect]) -> None:
        self.rects = list(rects)
        self._comp_of: Dict[int, int] = {}
        by_layer: Dict[str, List[int]] = {}
        for index, rect in enumerate(self.rects):
            by_layer.setdefault(rect.layer, []).append(index)
        dsu = DisjointSet(len(self.rects))
        scanned = 0
        for indices in by_layer.values():
            for pos, i in enumerate(indices):
                for j in indices[pos + 1:]:
                    scanned += 1
                    if self.rects[i].touches_or_intersects(self.rects[j]):
                        dsu.union(i, j)
        get_tracer().count("drc.pairs_scanned", scanned)
        for index in range(len(self.rects)):
            self._comp_of[index] = dsu.find(index)
        self._members: Dict[int, List[int]] = {}
        for index, comp in self._comp_of.items():
            self._members.setdefault(comp, []).append(index)

    def component(self, index: int) -> int:
        """Component id of rect *index*."""
        return self._comp_of[index]

    def members(self, comp: int) -> List[Rect]:
        """All rects of a component."""
        return [self.rects[i] for i in self._members[comp]]

    def touches_component(self, rect: Rect, comp: int) -> bool:
        """True when *rect* touches/overlaps any member of *comp*."""
        tested = 0
        hit = False
        for member in self.members(comp):
            tested += 1
            if rect.touches_or_intersects(member):
                hit = True
                break
        get_tracer().count("drc.pairs_scanned", tested)
        return hit

    def component_nets(self, comp: int) -> Set[Optional[str]]:
        """Nets present in a component."""
        return {member.net for member in self.members(comp)}


def check_widths_brute(obj: LayoutObject) -> List[Violation]:
    """Minimum width (and exact cut size) per rect — all-pairs reference."""
    violations: List[Violation] = []
    scanned = 0
    for rect in obj.nonempty_rects:
        cut = obj.tech.rules.cut_size(rect.layer)
        if cut is not None:
            if rect.width != cut or rect.height != cut:
                violations.append(_cut_size_violation(rect, cut))
            continue
        rule = obj.tech.rules.width(rect.layer)
        if rule is not None and rect.short_side() < rule:
            # A short rect overlapping a rule-sized same-layer neighbour is
            # part of a wider merged shape (e.g. a stub ending on a via
            # pad); only isolated thin shapes violate the rule.
            absorbed = False
            for other in obj.nonempty_rects:
                scanned += 1
                if (
                    other is not rect
                    and other.layer == rect.layer
                    and other.short_side() >= rule
                    and other.intersects(rect)
                ):
                    absorbed = True
                    break
            if absorbed:
                continue
            violations.append(_width_violation(rect, rule))
    get_tracer().count("drc.pairs_scanned", scanned)
    return violations


def check_spacing_brute(obj: LayoutObject) -> List[Violation]:
    """Pairwise spacing between merged shapes — all-pairs reference.

    Same-component pairs are one shape; same-net components may merge; a
    gate-layer rect crossing a diffusion component is functionally attached
    to it, so the cross-layer spacing rule does not apply to that pair.
    """
    violations: List[Violation] = []
    rects = obj.nonempty_rects
    comps = _Components(rects)
    tracer = get_tracer()
    scanned = 0
    for i, a in enumerate(rects):
        for j in range(i + 1, len(rects)):
            b = rects[j]
            scanned += 1
            rule = obj.tech.min_space(a.layer, b.layer)
            if rule is None:
                continue
            if a.layer == b.layer:
                if comps.component(i) == comps.component(j):
                    continue
                if a.net is not None and a.net == b.net:
                    continue
                gap = a.distance(b)
                if 0 < gap < rule:
                    violations.append(_same_layer_spacing_violation(a, b, gap, rule))
                continue
            # Cross-layer: intentional stacking touches; a rect functionally
            # attached to the other's component is exempt.
            if a.touches_or_intersects(b):
                continue
            if comps.touches_component(a, comps.component(j)):
                continue
            if comps.touches_component(b, comps.component(i)):
                continue
            gap = a.distance(b)
            if 0 < gap < rule:
                violations.append(_cross_layer_spacing_violation(a, b, gap, rule))
    tracer.count("drc.pairs_scanned", scanned)
    return violations


def check_enclosures_brute(obj: LayoutObject) -> List[Violation]:
    """Cut-enclosure check — reference path (scans the full rect list)."""
    rects = obj.nonempty_rects
    _Components(rects)  # kept: the reference path pays the component build
    violations: List[Violation] = []
    scanned = 0
    for cut in rects:
        roles = _cut_roles(obj.tech, cut.layer)
        if not roles:
            continue
        for role, candidates in roles:
            enclosed, tested = _enclosed_by_any(obj, obj.rects_on, cut, candidates)
            scanned += tested
            if not enclosed:
                violations.append(_enclosure_violation(cut, role, candidates))
    get_tracer().count("drc.pairs_scanned", scanned)
    return violations


def _enclosed_by_any(
    obj: LayoutObject, rects_on, cut: Rect, layers: Sequence[str]
) -> Tuple[bool, int]:
    """``(enclosed, pairs tested)`` — the caller batches the counter."""
    scanned = 0
    # Sorted: *layers* arrives as a set, and the early return makes the
    # pairs_scanned counter order-sensitive — CI diffs it exactly.
    for layer in sorted(layers):
        margin = obj.tech.enclosure_or_zero(layer, cut.layer)
        grown = cut.grown(margin)
        on_layer = rects_on(layer)
        scanned += len(on_layer)
        candidates = [r for r in on_layer if r.intersects(grown)]
        if candidates and covered_by([grown], candidates):
            return True, scanned
    return False, scanned


def check_extensions_brute(obj: LayoutObject) -> List[Violation]:
    """Transistor-formation check — all-pairs reference.

    For every (gate-layer, body-layer) pair with EXTEND rules: a gate rect
    overlapping a diffusion component must fully cross the *local* body rect
    along one axis with its endcap, and the component must provide the
    source/drain extension on the other axis (evaluated on the component's
    bounding box — sound for the convex diffusion regions the primitives
    build).
    """
    violations: List[Violation] = []
    rules = obj.tech.rules
    rects = obj.nonempty_rects
    comps = _Components(rects)
    tracer = get_tracer()

    # Group diffusion rects by (layer, component).
    body_components: Dict[Tuple[str, int], List[Rect]] = {}
    for index, rect in enumerate(rects):
        if obj.tech.layer(rect.layer).kind is LayerKind.DIFFUSION:
            body_components.setdefault(
                (rect.layer, comps.component(index)), []
            ).append(rect)

    scanned = 0
    for gate in rects:
        if obj.tech.layer(gate.layer).kind is not LayerKind.POLY:
            continue
        for (body_layer, comp), members in body_components.items():
            endcap = rules.extend(gate.layer, body_layer)
            sd_ext = rules.extend(body_layer, gate.layer)
            if endcap is None or sd_ext is None:
                continue
            overlapping = False
            for member in members:
                scanned += 1
                if gate.intersects(member):
                    overlapping = True
                    break
            if not overlapping:
                continue
            box = bounding_box(members)
            assert box is not None
            violations.extend(_check_crossing(gate, box, endcap, sd_ext))
    tracer.count("drc.pairs_scanned", scanned)
    return violations


def check_areas_brute(obj: LayoutObject) -> List[Violation]:
    """Minimum area per merged shape — reference path."""
    rects = obj.nonempty_rects
    comps = _Components(rects)
    return _check_areas(obj, enumerate(rects), comps.component, comps.members)


def check_shorts_brute(obj: LayoutObject) -> List[Violation]:
    """Net-short check — reference path."""
    rects = obj.nonempty_rects
    comps = _Components(rects)
    return _check_shorts(
        obj, enumerate(rects), comps.component, comps.component_nets, comps.members
    )


#: The reference checks, in :data:`repro.drc.CHECKS` order; each accepts
#: (obj,).
CHECKS_BRUTE = (
    ("width", check_widths_brute),
    ("spacing", check_spacing_brute),
    ("enclosure", check_enclosures_brute),
    ("extension", check_extensions_brute),
    ("area", check_areas_brute),
    ("short", check_shorts_brute),
)


def run_drc_brute(obj: LayoutObject, include_latchup: bool = True) -> List[Violation]:
    """:func:`repro.drc.run_drc` with the all-pairs reference checks."""
    return _run_checks(obj, CHECKS_BRUTE, include_latchup)


# ======================================================================
# connectivity
# ======================================================================
def extract_connectivity_brute(
    rects: Sequence[Rect], tech: Technology
) -> List[List[Rect]]:
    """Reference all-pairs extraction (see :func:`extract_connectivity`).

    Quadratic in the conducting rect count; kept as the oracle the indexed
    path is verified and benchmarked against.  Counts every pair test on
    the ``nets.pairs_scanned`` tracer counter.
    """
    def is_diffusion(rect: Rect) -> bool:
        return tech.layer(rect.layer).kind is LayerKind.DIFFUSION

    conducting = [
        r
        for r in rects
        if not r.is_empty
        and tech.layer(r.layer).conducting
        and not (is_diffusion(r) and r.net is None)
    ]
    dsu = DisjointSet(len(conducting))
    scanned = 0

    by_layer: Dict[str, List[int]] = {}
    for index, rect in enumerate(conducting):
        by_layer.setdefault(rect.layer, []).append(index)

    # Same-layer touching (same-net only on diffusion: crossing gates split
    # an active region electrically).
    for indices in by_layer.values():
        for pos, i in enumerate(indices):
            for j in indices[pos + 1:]:
                a, b = conducting[i], conducting[j]
                scanned += 1
                if is_diffusion(a) and a.net != b.net:
                    continue
                if a.touches_or_intersects(b):
                    dsu.union(i, j)

    # Declared diffused junctions: overlapping shapes connect directly.
    for i, a in enumerate(conducting):
        for j in range(i + 1, len(conducting)):
            b = conducting[j]
            scanned += 1
            if a.layer != b.layer and tech.overlap_connected(a.layer, b.layer):
                if a.intersects(b):
                    dsu.union(i, j)

    # Cross-layer through cuts.
    for cut_index, cut in enumerate(conducting):
        for bottom, top in tech.connected_layers(cut.layer):
            scanned += len(by_layer.get(bottom, [])) + len(by_layer.get(top, []))
            bottoms = [
                i for i in by_layer.get(bottom, []) if conducting[i].intersects(cut)
            ]
            tops = [i for i in by_layer.get(top, []) if conducting[i].intersects(cut)]
            for i in bottoms + tops:
                dsu.union(cut_index, i)

    get_tracer().count("nets.pairs_scanned", scanned)

    groups: Dict[int, List[Rect]] = {}
    for index, rect in enumerate(conducting):
        groups.setdefault(dsu.find(index), []).append(rect)
    return list(groups.values())


# ======================================================================
# successive compaction
# ======================================================================
def frontier_filter(
    rects: Sequence[Rect],
    direction: Direction,
    arrival_nets: FrozenSet[str] = frozenset(),
) -> List[Rect]:
    """Drop fixed rects fully shadowed behind nearer same-layer geometry:
    one :func:`~repro.compact.layer_frontier` sweep per layer, layers in
    first-occurrence order.  :func:`repro.compact.frontier_groups` must
    return the same rects in the same order."""
    by_layer: Dict[str, List[int]] = {}
    for seq, rect in enumerate(rects):
        if not rect.is_empty:
            by_layer.setdefault(rect.layer, []).append(seq)
    return [
        rects[seq]
        for seqs in by_layer.values()
        for seq in layer_frontier(rects, seqs, direction, arrival_nets)
    ]


def gather_constraints(
    tech: Technology,
    moving_rects: Sequence[Rect],
    fixed_rects: Sequence[Rect],
    direction: Direction,
    ignore_layers: Iterable[str] = (),
) -> List[PairConstraint]:
    """All active pair constraints, ungrouped: the all-pairs product of
    :func:`~repro.compact.required_spacing` and
    :func:`~repro.compact.pair_travel`, in pair order, computed by
    :func:`~repro.compact.gather_constraints_grouped` over runs of one
    layer."""
    live = (rect for rect in fixed_rects if not rect.is_empty)
    groups = [(layer, list(run)) for layer, run in
              itertools.groupby(live, key=lambda rect: rect.layer)]
    return gather_constraints_grouped(
        tech, moving_rects, groups, direction, ignore_layers
    )


class ScanCompactor(Compactor):
    """:class:`~repro.compact.Compactor` with every per-step scan from scratch.

    Each shrink round re-buckets ``main.rects`` through
    :func:`frontier_filter` and :func:`gather_constraints`; auto-connect
    scans the full rect list for residents and for bridge blockers.  ``frontier=False``
    also drops the outer-edge pruning (the ablation).  The production
    compactor, which reads the main object's rect store, must leave every
    rect where this leaves it.
    """

    def __init__(
        self,
        variable_edges: bool = True,
        auto_connect: bool = True,
        frontier: bool = True,
    ) -> None:
        super().__init__(variable_edges, auto_connect)
        self.frontier = frontier

    def _constraints(
        self,
        main: LayoutObject,
        obj: LayoutObject,
        direction: Direction,
        ignore: Tuple[str, ...],
    ) -> List[PairConstraint]:
        moving = obj.nonempty_rects
        fixed = main.nonempty_rects
        tracer = get_tracer()
        if self.frontier:
            arrival_nets = frozenset(
                rect.net for rect in moving if rect.net is not None
            )
            before = len(fixed)
            fixed = frontier_filter(fixed, direction, arrival_nets)
            tracer.count("compact.frontier_dropped", before - len(fixed))
        constraints = gather_constraints(main.tech, moving, fixed, direction, ignore)
        tracer.count("compact.constraints", len(constraints))
        return constraints

    def _residents(
        self, main: LayoutObject, new_rects: Sequence[Rect]
    ) -> Dict[Tuple[str, str], List[Rect]]:
        new_ids = set(map(id, new_rects))
        residents: Dict[Tuple[str, str], List[Rect]] = {}
        for rect in main.nonempty_rects:
            if id(rect) not in new_ids and rect.net is not None:
                residents.setdefault((rect.net, rect.layer), []).append(rect)
        return residents

    def _bridge_blocked(self, main: LayoutObject, bridge: Rect, net: str) -> bool:
        """The rule questions of every foreign-net rect, one rect at a time."""
        tech = main.tech
        bridge_layer = bridge.layer
        for rect in main.nonempty_rects:
            if tech.connectable(rect.layer, bridge_layer) and rect.net == net:
                continue
            spacing = tech.min_space(bridge_layer, rect.layer)
            if rect.layer == bridge_layer:
                spacing = spacing or 0  # same layer: may touch, not overlap
            elif bridge.intersects(rect) and (
                tech.rules.extend(bridge_layer, rect.layer) is not None
                or tech.rules.extend(rect.layer, bridge_layer) is not None
            ):
                return True  # overlap would form a device
            if spacing is not None and bridge.grown(spacing).intersects(rect):
                return True
        return False
