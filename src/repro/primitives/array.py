"""ARRAY — "creating an array of rectangles inside other rectangles" (Sec. 2.2).

"The maximum number of rectangles which fits horizontally and vertically into
the structure is calculated according to the necessary overlap and the
contacts are placed equidistantly to minimize the contact resistance.  If no
rectangle can be placed, the outer geometries are expanded so that at least
one rectangle can be generated."
"""

from __future__ import annotations

from typing import List, Optional

from ..db import LayoutObject
from ..geometry import Axis, Rect
from ..obs.provenance import builtin_call
from ..tech import RuleError
from .util import enclosure_margin, expand_outers, inner_region


@builtin_call("ARRAY")
def array(
    obj: LayoutObject,
    layer: str,
    net: Optional[str] = None,
) -> List[Rect]:
    """Fill the structure with the maximal equidistant grid of cuts.

    *layer* must be a cut layer (CUTSIZE rule present).  Returns the placed
    cut rects; the registered :class:`~repro.db.links.ArrayLink` keeps them
    consistent under later edge movement.
    """
    cut_size = obj.tech.rules.cut_size(layer)
    if cut_size is None:
        raise RuleError(f"ARRAY({layer!r}): layer has no CUTSIZE rule")
    cut_space = obj.tech.min_space(layer, layer)
    if cut_space is None:
        raise RuleError(f"ARRAY({layer!r}): layer has no SPACE rule")
    if obj.is_empty():
        raise RuleError(f"ARRAY({layer!r}): structure is empty")

    outers = obj.store().live_seqs()
    # Expand the outers until at least one cut fits along each axis.
    x1, _, x2, _ = inner_region(obj, layer, outers)  # type: ignore[misc]
    expand_outers(obj, outers, Axis.HORIZONTAL, cut_size - (x2 - x1))
    _, y1, _, y2 = inner_region(obj, layer, outers)  # type: ignore[misc]
    expand_outers(obj, outers, Axis.VERTICAL, cut_size - (y2 - y1))

    rects = obj.rects
    link = obj.add_array(
        layer,
        cut_size,
        cut_space,
        [(seq, enclosure_margin(obj, rects[seq].layer, layer)) for seq in outers],
        net,
    )
    assert link is not None, "ARRAY expansion must yield at least one cut"
    return [rects[seq] for seq in link.cuts]
