"""Geometric design-rule checks: width, spacing, enclosure, extension, area.

The environment fulfils rules constructively (primitives + compactor); this
checker verifies results independently.  Checks are *component-based*:
same-layer rects that touch or overlap form one merged shape (that is how
the rectangle database represents polygons), so spacing applies between
components, and transistor-extension rules apply between a gate and the
whole diffusion component it crosses.

Every ``check_*`` is served by the sweep-indexed
:class:`repro.drc.index.DrcIndex` (candidate generation within the
applicable spacing rules instead of O(n²), sweep-fed union-find
components).  Each accepts an optional prebuilt index so one ``run_drc``
shares a single build across all checks; called bare, it builds its own.

The all-pairs reference checks live in :mod:`repro.verify.reference`, the
oracle ``tests/test_drc_index.py`` races these against.  The contract is
*byte identity*: same violations, same messages, same rect objects, same
order.  Both count the geometric pair tests they perform into the
deterministic ``drc.pairs_scanned`` counter, so indexed-vs-reference
ratios are directly comparable (mirroring ``nets.pairs_scanned``).
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..db import LayoutObject
from ..geometry import Rect, bounding_box
from ..obs import get_logger, get_tracer
from ..tech import Technology
from .index import DrcIndex
from .latchup import check_latchup
from .violations import Violation

log = get_logger("drc")


def _ensure_index(obj: LayoutObject, index: Optional[DrcIndex]) -> DrcIndex:
    return index if index is not None else DrcIndex(obj)


# ======================================================================
# width / cut size
# ======================================================================
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
    for i in index.live:
        rect = rects[i]
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
def check_spacing(
    obj: LayoutObject, index: Optional[DrcIndex] = None
) -> List[Violation]:
    """Pairwise spacing between merged shapes, sweep-indexed.

    Evaluates only the candidate pairs the rule-radius dilated sweeps
    generated (pairs whose per-axis gaps are inside their layer pair's
    SPACE rule), in ascending (i, j) order — the same order and predicates
    as the reference all-pairs loop, hence the identical violation list.
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
    # conductor layers sorted as the reference visits them.
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


# ======================================================================
# extension (transistor formation)
# ======================================================================
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

    for gate_index in index.live:
        gate = rects[gate_index]
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
def check_areas(
    obj: LayoutObject, index: Optional[DrcIndex] = None
) -> List[Violation]:
    """Minimum area per merged shape (union area of each component)."""
    index = _ensure_index(obj, index)
    live = ((seq, index.rects[seq]) for seq in index.live)
    return _check_areas(obj, live, index.component, index.members)


def _check_areas(obj: LayoutObject, items, component, members_of) -> List[Violation]:
    """Area violations over *items*, ``(index, rect)`` pairs in source order."""
    from ..geometry import union_area

    violations: List[Violation] = []
    seen: Set[int] = set()
    for index, rect in items:
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
def check_shorts(
    obj: LayoutObject, index: Optional[DrcIndex] = None
) -> List[Violation]:
    """Two different nets inside one merged shape are a short.

    Applies to unambiguous conductor layers (metal, poly, cuts); diffusion
    components legitimately carry several nets (the source and drain of one
    device share an active region through the channel).
    """
    index = _ensure_index(obj, index)
    live = ((seq, index.rects[seq]) for seq in index.live)
    return _check_shorts(
        obj, live, index.component, index.component_nets, index.members
    )


def _check_shorts(
    obj: LayoutObject, items, component, nets_of, members_of
) -> List[Violation]:
    """Short violations over *items*, ``(index, rect)`` pairs in source order."""
    from ..tech.layer import LayerKind

    violations: List[Violation] = []
    reported: Set[int] = set()
    for index, rect in items:
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

def _run_checks(
    obj: LayoutObject,
    checks: Sequence[Tuple[str, Callable[[LayoutObject], List[Violation]]]],
    include_latchup: bool = True,
) -> List[Violation]:
    """Run ``(rule class, check(obj))`` pairs in order, then latch-up.

    Each rule class gets its own span and violation counter.
    """
    tracer = get_tracer()
    violations: List[Violation] = []
    for rule_class, check in checks:
        with tracer.span(f"drc.{rule_class}"):
            found = check(obj)
        tracer.count("drc.rules_checked")
        tracer.count(f"drc.violations.{rule_class}", len(found))
        violations.extend(found)
    if include_latchup:
        with tracer.span("drc.latchup"):
            found = check_latchup(obj)
        tracer.count("drc.rules_checked")
        tracer.count("drc.violations.latchup", len(found))
        violations.extend(found)
    tracer.count("drc.violations.total", len(violations))
    return violations


def run_drc(
    obj: LayoutObject,
    include_latchup: bool = True,
) -> List[Violation]:
    """Run every check; returns the combined violation list.

    One :class:`DrcIndex` is built and shared by every check.
    """
    with get_tracer().span("drc.run", obj=obj.name) as span:
        index = DrcIndex(obj)
        checks = [
            (rule_class, functools.partial(check, index=index))
            for rule_class, check in CHECKS
        ]
        violations = _run_checks(obj, checks, include_latchup)
        span.set(rects=len(index.live))
    log.debug(
        "DRC of %s: %d rects, %d violations",
        obj.name, len(index.live), len(violations),
    )
    return violations
