"""Geometric design-rule checks: width, spacing, enclosure, extension, area.

The environment fulfils rules constructively (primitives + compactor); this
checker verifies results independently.  Checks are *component-based*:
same-layer rects that touch or overlap form one merged shape (that is how
the rectangle database represents polygons), so spacing applies between
components, and transistor-extension rules apply between a gate and the
whole diffusion component it crosses.

Every check exists twice:

* ``check_*_brute`` — the original all-pairs reference implementation.
  Deliberately naive and obviously correct; it is the oracle the indexed
  path is tested against (``tests/test_drc_index.py``) and stays reachable
  through ``run_drc(obj, use_index=False)``.
* ``check_*`` — the production path, served by the sweep-indexed
  :class:`repro.drc.index.DrcIndex` (candidate generation within the
  applicable spacing rules instead of O(n²), sweep-fed union-find
  components).  Each accepts an optional prebuilt index so one ``run_drc``
  shares a single build across all checks; called bare, it builds its own.

The contract between the two paths is *byte identity*: same violations,
same messages, same rect objects, same order.  Both paths count the
geometric pair tests they perform into the deterministic
``drc.pairs_scanned`` counter, so indexed-vs-brute ratios are directly
comparable (mirroring ``nets.pairs_scanned``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..db import DisjointSet, LayoutObject
from ..geometry import Rect, bounding_box
from ..obs import get_logger, get_tracer
from ..tech import Technology
from .index import DrcIndex
from .latchup import check_latchup
from .violations import Violation

log = get_logger("drc")


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


def _ensure_index(obj: LayoutObject, index: Optional[DrcIndex]) -> DrcIndex:
    if index is None:
        index = DrcIndex(obj)
    index.sync()
    return index


# ======================================================================
# width / cut size
# ======================================================================
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


def check_widths(
    obj: LayoutObject, index: Optional[DrcIndex] = None
) -> List[Violation]:
    """Minimum width (and exact cut size) per rect.

    The absorbed-thin-stub scan is served from the index's same-layer
    touching adjacency (overlap implies touch), instead of a full rect-list
    pass per thin rect.
    """
    index = _ensure_index(obj, index)
    violations: List[Violation] = []
    rects = index.rects
    scanned = 0
    for i, rect in enumerate(rects):
        cut = obj.tech.rules.cut_size(rect.layer)
        if cut is not None:
            if rect.width != cut or rect.height != cut:
                violations.append(_cut_size_violation(rect, cut))
            continue
        rule = obj.tech.rules.width(rect.layer)
        if rule is not None and rect.short_side() < rule:
            absorbed = False
            for j in index.same_layer_touchers(i):
                other = rects[j]
                scanned += 1
                if other.short_side() >= rule and other.intersects(rect):
                    absorbed = True
                    break
            if absorbed:
                continue
            violations.append(_width_violation(rect, rule))
    get_tracer().count("drc.pairs_scanned", scanned)
    return violations


def _cut_size_violation(rect: Rect, cut: int) -> Violation:
    return Violation(
        "width",
        f"cut on {rect.layer!r} must be exactly {cut} dbu square,"
        f" found {rect.width}×{rect.height}",
        rect.center,
        (rect,),
    )


def _width_violation(rect: Rect, rule: int) -> Violation:
    return Violation(
        "width",
        f"{rect.layer!r} shape is {rect.short_side()} dbu wide,"
        f" rule requires {rule}",
        rect.center,
        (rect,),
    )


# ======================================================================
# spacing
# ======================================================================
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


def check_spacing(
    obj: LayoutObject, index: Optional[DrcIndex] = None
) -> List[Violation]:
    """Pairwise spacing between merged shapes, sweep-indexed.

    Evaluates only the candidate pairs the rule-radius dilated sweeps
    generated (pairs whose per-axis gaps are inside their layer pair's
    SPACE rule), in ascending (i, j) order — the same order and predicates
    as the brute all-pairs loop, hence the identical violation list.
    """
    index = _ensure_index(obj, index)
    violations: List[Violation] = []
    rects = index.rects
    candidates = index.spacing_candidates()
    get_tracer().count("drc.pairs_scanned", len(candidates))
    for i, j in candidates:
        a = rects[i]
        b = rects[j]
        rule = obj.tech.min_space(a.layer, b.layer)
        if a.layer == b.layer:
            if index.same_component(i, j):
                continue
            if a.net is not None and a.net == b.net:
                continue
            gap = a.distance(b)
            if 0 < gap < rule:
                violations.append(_same_layer_spacing_violation(a, b, gap, rule))
            continue
        if a.touches_or_intersects(b):
            continue
        if index.touches_component(i, index.component(j)):
            continue
        if index.touches_component(j, index.component(i)):
            continue
        gap = a.distance(b)
        if 0 < gap < rule:
            violations.append(_cross_layer_spacing_violation(a, b, gap, rule))
    return violations


def _same_layer_spacing_violation(a: Rect, b: Rect, gap: int, rule: int) -> Violation:
    return Violation(
        "spacing",
        f"{a.layer!r} gap {gap} dbu < rule {rule}",
        a.center,
        (a, b),
    )


def _cross_layer_spacing_violation(a: Rect, b: Rect, gap: int, rule: int) -> Violation:
    return Violation(
        "spacing",
        f"{a.layer!r}/{b.layer!r} gap {gap} dbu < rule {rule}",
        a.center,
        (a, b),
    )


# ======================================================================
# enclosure
# ======================================================================
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


def check_enclosures(
    obj: LayoutObject, index: Optional[DrcIndex] = None
) -> List[Violation]:
    """Every cut must sit inside a bottom and a top conductor with margin.

    Enclosure is evaluated against merged shapes: the margin-grown cut must
    be covered by the union of one component's rects, not necessarily by a
    single rect.  Each cut's candidate conductors come from the index's
    swept :meth:`DrcIndex.enclosure_candidates` instead of a full layer
    scan; cuts are visited in source order and conductor layers in sorted
    order with the same early exit, so the violation list is identical to
    the reference's.
    """
    from ..geometry import covered_by

    index = _ensure_index(obj, index)
    tech = obj.tech
    rects = index.rects
    # cut layer -> [(role, role layers, [(margin, cut -> candidates)])],
    # conductor layers sorted as _enclosed_by_any visits them.
    plans = {}
    for cut_layer in index.layers():
        roles = _cut_roles(tech, cut_layer)
        if not roles:
            continue
        plan = []
        for role, layers in roles:
            conductors = []
            for conductor in sorted(layers):
                margin = tech.enclosure_or_zero(conductor, cut_layer)
                conductors.append(
                    (margin, index.enclosure_candidates(cut_layer, conductor, margin))
                )
            plan.append((role, layers, conductors))
        plans[cut_layer] = plan
    violations: List[Violation] = []
    cuts = sorted(i for cut_layer in plans for i in index.indices_on(cut_layer))
    for i in cuts:
        cut = rects[i]
        for role, layers, conductors in plans[cut.layer]:
            for margin, candidates_of in conductors:
                candidates = candidates_of.get(i)
                if candidates and covered_by(
                    [cut.grown(margin)], [rects[j] for j in candidates]
                ):
                    break
            else:
                violations.append(_enclosure_violation(cut, role, layers))
    return violations


def _cut_roles(
    tech: Technology, cut_layer: str
) -> Optional[List[Tuple[str, Set[str]]]]:
    """``[("bottom", layers), ("top", layers)]`` a cut on *cut_layer* must
    be enclosed by, or ``None`` for a non-cut or unconnected layer."""
    if tech.rules.cut_size(cut_layer) is None:
        return None
    pairs = tech.connected_layers(cut_layer)
    if not pairs:
        return None
    return [
        ("bottom", {bottom for bottom, _ in pairs}),
        ("top", {top for _, top in pairs}),
    ]


def _enclosure_violation(cut: Rect, role: str, layers: Set[str]) -> Violation:
    return Violation(
        "enclosure",
        f"cut on {cut.layer!r} lacks a {role} conductor"
        f" ({'/'.join(sorted(layers))}) with rule enclosure",
        cut.center,
        (cut,),
    )


def _enclosed_by_any(
    obj: LayoutObject, rects_on, cut: Rect, layers: Sequence[str]
) -> Tuple[bool, int]:
    """``(enclosed, pairs tested)`` — the caller batches the counter."""
    from ..geometry import covered_by

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


# ======================================================================
# extension (transistor formation)
# ======================================================================
def check_extensions_brute(obj: LayoutObject) -> List[Violation]:
    """Transistor-formation check — all-pairs reference.

    For every (gate-layer, body-layer) pair with EXTEND rules: a gate rect
    overlapping a diffusion component must fully cross the *local* body rect
    along one axis with its endcap, and the component must provide the
    source/drain extension on the other axis (evaluated on the component's
    bounding box — sound for the convex diffusion regions the primitives
    build).
    """
    from ..tech.layer import LayerKind

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


def check_extensions(
    obj: LayoutObject, index: Optional[DrcIndex] = None
) -> List[Violation]:
    """Transistor formation rules against merged diffusion shapes.

    Gate/body overlap membership comes from the index's strict-interval
    gate-over-diffusion sweeps instead of gate × component-member loops.
    """
    from ..tech.layer import LayerKind

    index = _ensure_index(obj, index)
    violations: List[Violation] = []
    rules = obj.tech.rules
    rects = index.rects
    body_components = index.diffusion_groups()

    for gate_index, gate in enumerate(rects):
        if obj.tech.layer(gate.layer).kind is not LayerKind.POLY:
            continue
        for (body_layer, comp), members in body_components.items():
            endcap = rules.extend(gate.layer, body_layer)
            sd_ext = rules.extend(body_layer, gate.layer)
            if endcap is None or sd_ext is None:
                continue
            if not index.gate_overlaps(gate_index, comp):
                continue
            box = bounding_box(members)
            assert box is not None
            violations.extend(_check_crossing(gate, box, endcap, sd_ext))
    return violations


def _check_crossing(
    gate: Rect, body: Rect, endcap: int, sd_ext: int
) -> List[Violation]:
    crosses_vertically = gate.y1 <= body.y1 and gate.y2 >= body.y2
    crosses_horizontally = gate.x1 <= body.x1 and gate.x2 >= body.x2
    problems: List[str] = []
    if crosses_vertically:
        if gate.y1 > body.y1 - endcap or gate.y2 < body.y2 + endcap:
            problems.append(f"gate endcap < {endcap} dbu")
        if body.x1 > gate.x1 - sd_ext or body.x2 < gate.x2 + sd_ext:
            problems.append(f"source/drain extension < {sd_ext} dbu")
    elif crosses_horizontally:
        if gate.x1 > body.x1 - endcap or gate.x2 < body.x2 + endcap:
            problems.append(f"gate endcap < {endcap} dbu")
        if body.y1 > gate.y1 - sd_ext or body.y2 < gate.y2 + sd_ext:
            problems.append(f"source/drain extension < {sd_ext} dbu")
    else:
        problems.append(
            f"{gate.layer!r} overlaps {body.layer!r} without crossing it"
            " (partial gate)"
        )
    return [
        Violation("extension", problem, gate.center, (gate, body))
        for problem in problems
    ]


# ======================================================================
# area
# ======================================================================
def check_areas_brute(obj: LayoutObject) -> List[Violation]:
    """Minimum area per merged shape — reference path."""
    rects = obj.nonempty_rects
    comps = _Components(rects)
    return _check_areas(obj, rects, comps.component, comps.members)


def check_areas(
    obj: LayoutObject, index: Optional[DrcIndex] = None
) -> List[Violation]:
    """Minimum area per merged shape (union area of each component)."""
    index = _ensure_index(obj, index)
    return _check_areas(obj, index.rects, index.component, index.members)


def _check_areas(obj: LayoutObject, rects, component, members_of) -> List[Violation]:
    from ..geometry import union_area

    violations: List[Violation] = []
    seen: Set[int] = set()
    for index, rect in enumerate(rects):
        rule = obj.tech.rules.area(rect.layer)
        if rule is None:
            continue
        comp = component(index)
        if comp in seen:
            continue
        seen.add(comp)
        members = [m for m in members_of(comp) if m.layer == rect.layer]
        if union_area(members) < rule:
            violations.append(
                Violation(
                    "area",
                    f"{rect.layer!r} shape area {union_area(members)} dbu²"
                    f" < rule {rule}",
                    rect.center,
                    tuple(members),
                )
            )
    return violations


# ======================================================================
# shorts
# ======================================================================
def check_shorts_brute(obj: LayoutObject) -> List[Violation]:
    """Net-short check — reference path."""
    rects = obj.nonempty_rects
    comps = _Components(rects)
    return _check_shorts(obj, rects, comps.component, comps.component_nets, comps.members)


def check_shorts(
    obj: LayoutObject, index: Optional[DrcIndex] = None
) -> List[Violation]:
    """Two different nets inside one merged shape are a short.

    Applies to unambiguous conductor layers (metal, poly, cuts); diffusion
    components legitimately carry several nets (the source and drain of one
    device share an active region through the channel).
    """
    index = _ensure_index(obj, index)
    return _check_shorts(
        obj, index.rects, index.component, index.component_nets, index.members
    )


def _check_shorts(
    obj: LayoutObject, rects, component, nets_of, members_of
) -> List[Violation]:
    from ..tech.layer import LayerKind

    violations: List[Violation] = []
    reported: Set[int] = set()
    for index, rect in enumerate(rects):
        kind = obj.tech.layer(rect.layer).kind
        if kind not in (LayerKind.METAL, LayerKind.POLY, LayerKind.CUT):
            continue
        comp = component(index)
        if comp in reported:
            continue
        nets = nets_of(comp) - {None}
        if len(nets) > 1:
            reported.add(comp)
            violations.append(
                Violation(
                    "short",
                    f"merged {rect.layer!r} shape carries nets"
                    f" {sorted(nets)}",
                    rect.center,
                    tuple(members_of(comp)),
                )
            )
    return violations


#: The indexed checks run_drc executes, in order: (rule class, check
#: function).  Each accepts (obj, index=None).
CHECKS = (
    ("width", check_widths),
    ("spacing", check_spacing),
    ("enclosure", check_enclosures),
    ("extension", check_extensions),
    ("area", check_areas),
    ("short", check_shorts),
)

#: The brute reference checks, same order; each accepts (obj,).
CHECKS_BRUTE = (
    ("width", check_widths_brute),
    ("spacing", check_spacing_brute),
    ("enclosure", check_enclosures_brute),
    ("extension", check_extensions_brute),
    ("area", check_areas_brute),
    ("short", check_shorts_brute),
)


def run_drc(
    obj: LayoutObject,
    include_latchup: bool = True,
    use_index: bool = True,
) -> List[Violation]:
    """Run every check; returns the combined violation list.

    ``use_index=True`` (the default) builds one :class:`DrcIndex` shared by
    every check; ``use_index=False`` runs the all-pairs reference path.
    Both return the identical violation list.
    """
    tracer = get_tracer()
    violations: List[Violation] = []
    with tracer.span("drc.run", obj=obj.name, indexed=use_index) as span:
        index = DrcIndex(obj) if use_index else None
        checks = CHECKS if use_index else CHECKS_BRUTE
        for rule_class, check in checks:
            with tracer.span(f"drc.{rule_class}"):
                found = check(obj, index) if use_index else check(obj)
            tracer.count("drc.rules_checked")
            tracer.count(f"drc.violations.{rule_class}", len(found))
            violations.extend(found)
        if include_latchup:
            with tracer.span("drc.latchup"):
                found = check_latchup(obj)
            tracer.count("drc.rules_checked")
            tracer.count("drc.violations.latchup", len(found))
            violations.extend(found)
        # The index already holds the non-empty rect list; only the brute
        # path builds it here.
        rect_count = len(index.rects if use_index else obj.nonempty_rects)
        span.set(rects=rect_count)
    tracer.count("drc.violations.total", len(violations))
    log.debug(
        "DRC of %s: %d rects, %d violations", obj.name, rect_count, len(violations)
    )
    return violations
