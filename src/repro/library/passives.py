"""Passive analog modules: poly resistors and MOS capacitors.

Analog circuits need matched passives as much as matched devices; the
environment generates them with the same rule-driven machinery.  The
resistor generator also demonstrates why the technology file carries SHEET
rules — the paper's partitioning explicitly weighs "poly-wire resistance".
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..compact import Compactor
from ..db import LayoutObject, estimate_net_capacitance, estimate_net_resistance
from ..geometry import Direction, Rect
from ..primitives import angle_adaptor
from ..route import wire
from ..tech import RuleError, Technology
from .contact_row import contact_row
from ..obs.provenance import provenance_entity


@provenance_entity("PolyResistor")
def poly_resistor(
    tech: Technology,
    width: float = 2.0,
    segment_length: float = 20.0,
    segments: int = 4,
    net_a: str = "ra",
    net_b: str = "rb",
    layer: str = "poly",
    name: str = "PolyResistor",
) -> LayoutObject:
    """A serpentine resistor with contacted terminals.

    ``segments`` horizontal runs of ``segment_length`` × ``width`` µm joined
    by end bends; terminals land on metal1 through contact patches.  The
    body carries an internal net so the terminal nets stay distinct for
    extraction (the serpentine is one resistor, not a short).
    """
    if segments < 1:
        raise RuleError("a resistor needs at least one segment")
    obj = LayoutObject(name, tech)
    w = tech.um(width)
    seg = tech.um(segment_length)
    space = tech.min_space(layer, layer)
    if space is None:
        raise RuleError(f"no SPACE rule for resistor layer {layer!r}")
    pitch = w + space
    body_net = f"{name}_body"

    for index in range(segments):
        y = index * pitch
        wire(obj, layer, (0, y), (seg, y), width=w, net=body_net)
        if index < segments - 1:
            bend_x = seg if index % 2 == 0 else 0
            wire(obj, layer, (bend_x, y), (bend_x, y + pitch), width=w, net=body_net)

    # Terminals: layer→metal1 adaptor patches on short leads beyond the free
    # ends.  The last segment's free end alternates with the bend parity:
    # odd segment counts end on the far side, even counts back on the near
    # side — in the even case both terminals share a side, so the leads get
    # different lengths to stagger the metal patches apart.
    lead_a = w
    if segments % 2 == 1:
        b_x, b_dir, lead_b = seg, 1, w
    else:
        metal_space = tech.min_space("metal1", "metal1")
        if metal_space is None:
            raise RuleError("no SPACE rule for terminal layer 'metal1'")
        b_x, b_dir, lead_b = 0, -1, 3 * w + metal_space
    b_y = (segments - 1) * pitch
    wire(obj, layer, (0, 0), (-lead_a, 0), width=w, net=body_net)
    wire(obj, layer, (b_x, b_y), (b_x + b_dir * lead_b, b_y), width=w,
         net=body_net)
    a_patches = angle_adaptor(obj, layer, "metal1", -lead_a, 0, w, w, net=net_a)
    b_patches = angle_adaptor(
        obj, layer, "metal1", b_x + b_dir * lead_b, b_y, w, w, net=net_b,
    )
    # The patches overlap the body ends; relabel their base-layer rects so
    # connectivity sees terminal → body → terminal as one chain.
    for patch in a_patches + b_patches:
        if patch.layer == layer:
            patch.net = body_net
    obj.invalidate_index()
    return obj


def resistor_value(
    obj: LayoutObject, tech: Technology, body_net: Optional[str] = None
) -> float:
    """Estimated resistance of a generated resistor (Ω)."""
    if body_net is None:
        candidates = [n for n in obj.nets() if n.endswith("_body")]
        if not candidates:
            raise RuleError("no resistor body net found")
        body_net = candidates[0]
    return estimate_net_resistance(obj.rects, tech, body_net)


@provenance_entity("MosCapacitor")
def mos_capacitor(
    tech: Technology,
    width: float = 20.0,
    length: float = 20.0,
    top_net: str = "ctop",
    bottom_net: str = "cbot",
    compactor: Optional[Compactor] = None,
    name: str = "MosCap",
) -> LayoutObject:
    """A MOS (gate-oxide) capacitor: a large gate with contacted plates.

    The poly gate is the top plate; the diffusion under it, contacted on
    both sides, is the bottom plate.  Geometrically a wide, long transistor
    with source and drain strapped together.
    """
    if compactor is None:
        compactor = Compactor()
    obj = LayoutObject(name, tech)

    from ..primitives import tworects

    core = LayoutObject(f"{name}_core", tech)
    tworects(core, "poly", "pdiff", tech.um(width), tech.um(length),
             gate_net=top_net)
    compactor.compact(obj, core, Direction.SOUTH)

    top_row = contact_row(tech, "poly", length=length, net=top_net,
                          name=f"{name}_top")
    compactor.compact(obj, top_row, Direction.SOUTH)

    for side, direction in (("east", Direction.WEST), ("west", Direction.EAST)):
        plate = contact_row(tech, "pdiff", w=width, net=bottom_net,
                            name=f"{name}_{side}")
        compactor.compact(obj, plate, direction, ignore_layers=("pdiff",))
    return obj


def capacitor_value(obj: LayoutObject, tech: Technology, top_net: str = "ctop") -> float:
    """Estimated capacitance of a generated MOS capacitor (aF).

    Uses the technology's area/perimeter model on the top-plate poly — a
    proxy for the gate-oxide capacitance that scales correctly with W×L.
    """
    return estimate_net_capacitance(
        [r for r in obj.rects if r.layer == "poly"], tech, top_net
    )