"""INBOX — "inserting a rectangle inside other rectangles" (Sec. 2.2).

Two modes, exactly as in the paper's contact-row example (Fig. 2):

* On an empty object, ``INBOX(layer, W, L)`` creates the base rectangle;
  omitted dimensions default to the layer's minimum width.
* On a non-empty object, ``INBOX(layer)`` places a rectangle inside every
  existing rectangle with the necessary layer overlaps; given dimensions are
  centred, omitted dimensions fill the available region.  Outer rectangles
  are expanded when the new rectangle cannot be placed.
"""

from __future__ import annotations

from typing import Optional

from ..db import InsideLink, LayoutObject
from ..geometry import Axis, Direction, Rect
from ..obs.provenance import builtin_call
from ..tech import RuleError
from .util import default_extent, enclosure_margin, expand_outers, inner_region


@builtin_call("INBOX")
def inbox(
    obj: LayoutObject,
    layer: str,
    w: Optional[int] = None,
    length: Optional[int] = None,
    net: Optional[str] = None,
    variable: bool = False,
) -> Rect:
    """Insert a rectangle on *layer*; returns the created rect.

    ``w`` is the vertical extent, ``length`` the horizontal extent, both in
    database units.  ``variable=True`` marks all four edges movable by the
    compactor's variable-edge optimization.
    """
    obj.tech.layer(layer)
    if obj.is_empty():
        rect = _base_rect(obj, layer, w, length, net)
    else:
        rect = _inner_rect(obj, layer, w, length, net)
    if variable:
        rect.set_variable()
    return rect


def _base_rect(
    obj: LayoutObject,
    layer: str,
    w: Optional[int],
    length: Optional[int],
    net: Optional[str],
) -> Rect:
    """First rectangle of a structure: W × L centred on the origin.

    Centring matters: primitives (TWORECTS) also centre on the origin, so
    sub-objects are pre-aligned when the compactor later abuts them — the
    compactor only ever translates along its compaction axis.
    """
    height = w if w is not None else default_extent(obj, layer)
    width = length if length is not None else default_extent(obj, layer)
    if height <= 0 or width <= 0:
        raise RuleError(f"INBOX({layer!r}): dimensions must be positive")
    x1 = -(width // 2)
    y1 = -(height // 2)
    return obj.add_rect(Rect(x1, y1, x1 + width, y1 + height, layer, net))


def _inner_rect(
    obj: LayoutObject,
    layer: str,
    w: Optional[int],
    length: Optional[int],
    net: Optional[str],
) -> Rect:
    """Rectangle inside all existing rects, expanding outers when needed."""
    outers = obj.store().live_seqs()
    min_w = obj.tech.rules.width(layer) or 1

    need_h = w if w is not None else min_w
    need_v = length if length is not None else min_w
    region = inner_region(obj, layer, outers)
    assert region is not None
    x1, y1, x2, y2 = region

    # Expand all outers until the required extents fit (Sec. 2.2).
    if x2 - x1 < need_v:
        expand_outers(obj, outers, Axis.HORIZONTAL, need_v - (x2 - x1))
    if y2 - y1 < need_h:
        expand_outers(obj, outers, Axis.VERTICAL, need_h - (y2 - y1))
    x1, y1, x2, y2 = inner_region(obj, layer, outers)  # type: ignore[misc]

    if length is None:
        rx1, rx2 = x1, x2
    else:
        cx = (x1 + x2) // 2
        rx1 = cx - length // 2
        rx2 = rx1 + length
    if w is None:
        ry1, ry2 = y1, y2
    else:
        cy = (y1 + y2) // 2
        ry1 = cy - w // 2
        ry2 = ry1 + w

    rect = obj.add_rect(Rect(rx1, ry1, rx2, ry2, layer, net))
    rects = obj.rects
    obj.add_link(
        InsideLink(
            len(rects) - 1,
            [(seq, enclosure_margin(obj, rects[seq].layer, layer)) for seq in outers],
        )
    )
    return rect
