"""Violation injection: plant one known DRC violation in a clean layout.

The equivalence tests prove the indexed checker agrees with the reference
oracle; neither proves the checker *catches* anything (both could agree on
an empty list).  This module pins recall: each injector takes a DRC-clean
layout, perturbs it to manufacture exactly one violation of a known rule
class, and validates the plant with the indexed :func:`repro.drc.run_drc`
before handing it back:

* ``width`` — narrow a wire below its WIDTH rule;
* ``spacing`` — plant a min-width/area-satisfying probe component one
  dbu inside a same-layer SPACE rule;
* ``enclosure`` — nudge a cut so a conductor's ENCLOSE margin fails;
* ``extension`` — pull a gate endcap one dbu short of its EXTEND rule.

A perturbation is accepted only when a full DRC run reports *new*
violations that are all of the expected class and all involve the target
rect — otherwise it is reverted and the next candidate tried (a nudge can
legitimately break a neighbouring rule instead; the search skips those).
Every accepted :class:`Injection` carries an ``undo`` callback restoring
the layout byte-for-byte.

``tests/test_drc_injection.py`` drives these over the golden cells and
confirms every plant against the all-pairs reference
(:func:`repro.verify.reference.run_drc_brute`): both must report exactly
the planted violation.  The fuzzer can reuse the same perturbation
vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..db import LayoutObject
from ..drc import Violation, run_drc
from ..drc.index import DrcIndex
from ..geometry import Rect, bounding_box

__all__ = ["Injection", "INJECTORS", "inject_violation"]

#: Net label given to planted probe rects — never collides with real nets.
PROBE_NET = "__injected__"


@dataclass
class Injection:
    """One validated planted violation."""

    #: The violation class every new violation belongs to.
    kind: str
    #: What was done, for failure messages and fuzzer logs.
    description: str
    #: The rect that was mutated or added.
    target: Rect
    #: The new violations the checker reported after the plant.
    violations: Tuple[Violation, ...]
    #: Restores the layout exactly as it was.
    undo: Callable[[], None]


def _keys(violations: Sequence[Violation]) -> List[Tuple]:
    return [(v.kind, v.message, v.where) for v in violations]


def _baseline(obj: LayoutObject) -> List[Tuple]:
    return _keys(run_drc(obj, include_latchup=False))


def _attempt(
    obj: LayoutObject,
    baseline: List[Tuple],
    kind: str,
    description: str,
    target: Rect,
    undo: Callable[[], None],
) -> Optional[Injection]:
    """Accept the pending perturbation or revert it.

    Accepts iff the full checker reports new violations, all of *kind*,
    all involving *target* — the contract that makes the plant usable as a
    recall probe (one known defect, nothing else disturbed).  The search
    runs the fast indexed path; the injection tests independently confirm
    every accepted plant against the reference oracle, so a (hypothetical)
    indexed-path miss would surface there, not hide here.
    """
    obj.invalidate_index()  # the perturbation wrote rect coordinates directly
    after = run_drc(obj, include_latchup=False)
    known = list(baseline)
    new = []
    for violation in after:
        key = (violation.kind, violation.message, violation.where)
        if key in known:
            known.remove(key)  # multiset: keep duplicates honest
        else:
            new.append(violation)
    if (
        new
        and not known  # nothing from the baseline disappeared
        and all(v.kind == kind for v in new)
        and all(any(r is target for r in v.rects) for v in new)
    ):
        return Injection(kind, description, target, tuple(new), undo)
    undo()
    return None


def _restore_coords(obj: LayoutObject, rect: Rect) -> Callable[[], None]:
    saved = (rect.x1, rect.y1, rect.x2, rect.y2)

    def undo() -> None:
        rect.x1, rect.y1, rect.x2, rect.y2 = saved
        obj.invalidate_index()

    return undo


# ----------------------------------------------------------------------
# width
# ----------------------------------------------------------------------
def inject_narrow_width(obj: LayoutObject) -> Optional[Injection]:
    """Narrow some wire one dbu below its layer's WIDTH rule."""
    baseline = _baseline(obj)
    rules = obj.tech.rules
    for rect in list(obj.nonempty_rects):
        if rules.cut_size(rect.layer) is not None:
            continue
        rule = rules.width(rect.layer)
        if rule is None or rule < 2 or rect.short_side() < rule:
            continue
        undo = _restore_coords(obj, rect)
        if rect.width <= rect.height:
            rect.x2 = rect.x1 + rule - 1
        else:
            rect.y2 = rect.y1 + rule - 1
        injection = _attempt(
            obj,
            baseline,
            "width",
            f"narrowed {rect.layer!r} rect to {rule - 1} dbu (rule {rule})",
            rect,
            undo,
        )
        if injection is not None:
            return injection
    return None


# ----------------------------------------------------------------------
# spacing
# ----------------------------------------------------------------------
def _probe_side(tech, layer: str) -> int:
    """Smallest probe square satisfying the layer's WIDTH and AREA rules."""
    side = tech.rules.width(layer) or 1
    area = tech.rules.area(layer)
    if area is not None:
        side = max(side, math.isqrt(area - 1) + 1)
    return side


def inject_spacing_probe(obj: LayoutObject) -> Optional[Injection]:
    """Plant a probe component one dbu inside a same-layer SPACE rule.

    The probe is a fresh-net square sized to satisfy the layer's own WIDTH
    and AREA rules, so the only new defect is the spacing gap.
    """
    baseline = _baseline(obj)
    tech = obj.tech
    attempts = 0
    for layer_a, layer_b, rule in tech.space_rules:
        if layer_a != layer_b or rule < 2:
            continue
        layer = layer_a
        if tech.rules.cut_size(layer) is not None:
            continue  # cuts carry exact-size + enclosure rules of their own
        side = _probe_side(tech, layer)
        for anchor in list(obj.rects_on(layer)):
            if anchor.is_empty:
                continue
            for x1, y1 in (
                (anchor.x2 + rule - 1, anchor.y1),  # right
                (anchor.x1 - rule + 1 - side, anchor.y1),  # left
                (anchor.x1, anchor.y2 + rule - 1),  # above
                (anchor.x1, anchor.y1 - rule + 1 - side),  # below
            ):
                if attempts >= 60:
                    return None
                attempts += 1
                probe = Rect(x1, y1, x1 + side, y1 + side, layer, PROBE_NET)
                obj.add_rect(probe)

                def undo(probe=probe) -> None:
                    obj.rects.remove(probe)
                    obj.invalidate_index()

                injection = _attempt(
                    obj,
                    baseline,
                    "spacing",
                    f"probe on {layer!r} at gap {rule - 1} dbu (rule {rule})",
                    probe,
                    undo,
                )
                if injection is not None:
                    return injection
    return None


# ----------------------------------------------------------------------
# enclosure
# ----------------------------------------------------------------------
def inject_enclosure_shrink(obj: LayoutObject) -> Optional[Injection]:
    """Nudge a cut until a conductor's ENCLOSE margin fails."""
    baseline = _baseline(obj)
    tech = obj.tech
    for cut in list(obj.nonempty_rects):
        if tech.rules.cut_size(cut.layer) is None:
            continue
        pairs = tech.connected_layers(cut.layer)
        if not pairs:
            continue
        margins = {
            tech.enclosure_or_zero(layer, cut.layer)
            for bottom, top in pairs
            for layer in (bottom, top)
        }
        shifts = sorted({1, 2, *(m for m in margins if m > 0)})
        for distance in shifts:
            for dx, dy in ((distance, 0), (-distance, 0), (0, distance), (0, -distance)):
                undo = _restore_coords(obj, cut)
                cut.x1 += dx
                cut.x2 += dx
                cut.y1 += dy
                cut.y2 += dy
                injection = _attempt(
                    obj,
                    baseline,
                    "enclosure",
                    f"nudged {cut.layer!r} cut by ({dx}, {dy}) dbu",
                    cut,
                    undo,
                )
                if injection is not None:
                    return injection
    return None


# ----------------------------------------------------------------------
# extension
# ----------------------------------------------------------------------
def inject_extension_short(obj: LayoutObject) -> Optional[Injection]:
    """Pull a gate endcap one dbu short of its EXTEND rule.

    The gate still crosses its diffusion component (so the pair stays a
    transistor, not a partial gate) but the endcap margin fails.
    """
    baseline = _baseline(obj)
    rules = obj.tech.rules
    index = DrcIndex(obj)
    groups = index.diffusion_groups()
    for gate_index, bodies in index.gate_overlaps().items():
        gate = index.rects[gate_index]
        for key in bodies:
            endcap = rules.extend(gate.layer, key[0])
            if endcap < 1:
                continue
            box = bounding_box(groups[key])
            assert box is not None
            if gate.y1 <= box.y1 and gate.y2 >= box.y2:  # vertical crossing
                trims = (
                    ("y2", box.y2 + endcap - 1),
                    ("y1", box.y1 - endcap + 1),
                )
            elif gate.x1 <= box.x1 and gate.x2 >= box.x2:  # horizontal
                trims = (
                    ("x2", box.x2 + endcap - 1),
                    ("x1", box.x1 - endcap + 1),
                )
            else:
                continue
            for attr, value in trims:
                if getattr(gate, attr) == value:
                    continue  # already there: no mutation to make
                undo = _restore_coords(obj, gate)
                setattr(gate, attr, value)
                injection = _attempt(
                    obj,
                    baseline,
                    "extension",
                    f"trimmed {gate.layer!r} gate {attr} to {endcap - 1} dbu"
                    f" endcap (rule {endcap})",
                    gate,
                    undo,
                )
                if injection is not None:
                    return injection
    return None


#: One injector per covered rule class, in checker order.
INJECTORS = {
    "width": inject_narrow_width,
    "spacing": inject_spacing_probe,
    "enclosure": inject_enclosure_shrink,
    "extension": inject_extension_short,
}


def inject_violation(obj: LayoutObject, kind: str) -> Optional[Injection]:
    """Plant one validated violation of *kind*, or None when the layout
    offers no viable site (e.g. no transistor for ``extension``)."""
    try:
        injector = INJECTORS[kind]
    except KeyError:
        raise ValueError(
            f"no injector for kind {kind!r}; have {sorted(INJECTORS)}"
        ) from None
    return injector(obj)
