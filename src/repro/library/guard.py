"""Guard rings and substrate-contact rings.

"The internal wiring and the substrate or well contacts are included into
the modules" (Sec. 3).  A substrate ring both collects majority carriers and
satisfies the latch-up rule of Fig. 1: ring geometry is placed with the RING
primitive and contacted along all four sides.
"""

from __future__ import annotations

from typing import List, Optional

from ..compact import Compactor
from ..db import LayoutObject
from ..geometry import Rect
from ..primitives import ring
from ..tech import Technology
from ..obs.provenance import provenance_entity


@provenance_entity("SubstrateRing")
def substrate_ring(
    obj: LayoutObject,
    net: str = "sub",
    layer: str = "subcontact",
    width: Optional[float] = None,
    contacted: bool = True,
) -> List[Rect]:
    """Surround *obj* with a substrate-contact ring (optionally metallised).

    The ring is drawn on the substrate-contact diffusion with metal1 over it
    and contact arrays along every side; returns the ring's diffusion rects.
    Afterwards the latch-up check usually passes for module-sized layouts
    (the temporary rectangles of the ring contacts cover the inner area).
    """
    tech = obj.tech
    enc_metal = tech.enclosure_or_zero("metal1", "contact")
    enc_diff = tech.enclosure_or_zero(layer, "contact")
    cut = tech.cut_size("contact")
    space = tech.min_space("contact", "contact") or cut
    if width is not None:
        ring_width = tech.um(width)
    else:
        # Wide enough to hold its contact row.
        ring_width = max(
            tech.min_width(layer), cut + 2 * max(enc_metal, enc_diff)
        )
    first = len(obj.rects)  # RING appends its four sides in order
    diff_rects = ring(obj, layer, width=ring_width, net=net)
    if not contacted:
        return diff_rects
    margin = max(enc_metal, enc_diff)
    for offset, side in enumerate(diff_rects):
        obj.add_rect(Rect(side.x1, side.y1, side.x2, side.y2, "metal1", net,
                          prov=side.prov))
        outers = [(first + offset, margin), (len(obj.rects) - 1, margin)]
        obj.add_array("contact", cut, space, outers, net)
    return diff_rects


@provenance_entity("GuardRing")
def guard_ring(
    obj: LayoutObject,
    net: str = "guard",
    layer: str = "nwell",
    width: Optional[float] = None,
) -> List[Rect]:
    """A plain (uncontacted) guard ring on *layer* around the structure."""
    tech = obj.tech
    ring_width = None if width is None else tech.um(width)
    return ring(obj, layer, width=ring_width, net=net)
