"""Shared helpers for the primitive shape functions."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..db import LayoutObject
from ..geometry import Axis, Rect
from ..tech import RuleError


def enclosure_margin(obj: LayoutObject, outer_layer: str, inner_layer: str) -> int:
    """Required overlap of *inner_layer* inside *outer_layer* (0 when unruled).

    This is the "necessary overlap between all involved layers [that] is
    considered automatically" (Sec. 2.2).
    """
    return obj.tech.enclosure_or_zero(outer_layer, inner_layer)


def inner_region(
    obj: LayoutObject, inner_layer: str, outers: List[Rect]
) -> Optional[Tuple[int, int, int, int]]:
    """Intersection of all outers shrunk by their enclosure margins.

    Returns (x1, y1, x2, y2) which may be inverted when the region is
    infeasible; ``None`` when there are no outers.
    """
    if not outers:
        return None
    shrunk = [(o, enclosure_margin(obj, o.layer, inner_layer)) for o in outers]
    x1 = max(o.x1 + m for o, m in shrunk)
    y1 = max(o.y1 + m for o, m in shrunk)
    x2 = min(o.x2 - m for o, m in shrunk)
    y2 = min(o.y2 - m for o, m in shrunk)
    return (x1, y1, x2, y2)


def expand_outers(obj: LayoutObject, outers: List[Rect], axis: Axis, deficit: int) -> None:
    """Grow every outer symmetrically so the inner region gains *deficit*.

    Implements "If the new rectangle cannot be placed inside the other
    rectangles, all outer rectangles are expanded" (Sec. 2.2).  Growth is
    split between both sides, biasing the extra unit to the high side when
    the deficit is odd.
    """
    if deficit <= 0:
        return
    low = deficit // 2
    high = deficit - low
    for outer in outers:
        if axis is Axis.HORIZONTAL:
            outer.x1 -= low
            outer.x2 += high
        else:
            outer.y1 -= low
            outer.y2 += high
    obj.rebuild_links()


def default_extent(obj: LayoutObject, layer: str) -> int:
    """Default W/L when an optional parameter is omitted: the minimum width.

    "If an optional parameter is omitted ... the minimum possible length for
    this value is selected according to the design-rules" (Sec. 2.2).  A later
    ARRAY/INBOX call may still expand the structure beyond this.
    """
    width = obj.tech.rules.width(layer)
    if width is None:
        raise RuleError(
            f"cannot default a dimension on layer {layer!r}: no WIDTH rule"
        )
    return width
