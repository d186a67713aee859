"""The x-sorted interval sweep shared by the DRC and connectivity indexes.

Both functions walk rects in ascending ``x1`` order and keep an *active*
list of the rects whose x-range can still reach the sweep line; a rect
leaves the list the first time it falls behind.  Every rect compared
against an active one counts as one tested pair, so ``pairs_tested`` is
the deterministic ``*.pairs_scanned`` counter the callers report.

Rects are addressed by index into *rects*; each function returns
``(pairs, pairs_tested)`` with the pairs in sweep order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .rect import Rect

__all__ = ["pairs_across", "pairs_within"]

Pairs = List[Tuple[int, int]]


def pairs_within(
    rects: Sequence[Rect], order: Sequence[int], reach: int
) -> Tuple[Pairs, int]:
    """Pairs of one bucket whose per-axis gaps are both below *reach*.

    *order* lists the bucket's indices sorted by ``x1`` (stably, so ties
    keep source order).  Each pair is ``(later, earlier)`` in that order.
    On integer coordinates ``reach=1`` selects touching or overlapping
    rects, and ``reach=rule`` the pairs a SPACE rule can flag.
    """
    pairs: Pairs = []
    active: List[int] = []
    tested = 0
    for i in order:
        rect = rects[i]
        window = rect.x1 - reach
        y_lo = rect.y1 - reach
        y_hi = rect.y2 + reach
        keep: List[int] = []
        for j in active:
            other = rects[j]
            if other.x2 <= window:
                continue
            keep.append(j)
            tested += 1
            if other.y1 < y_hi and y_lo < other.y2:
                pairs.append((i, j))
        keep.append(i)
        active = keep
    return pairs, tested


def pairs_across(
    rects: Sequence[Rect], a: Sequence[int], b: Sequence[int], grow: int = 0
) -> Tuple[Pairs, int]:
    """``(a, b)`` pairs whose interiors overlap once each *a* rect grows.

    Each *a* rect is grown by *grow* on every side; a negative *grow*
    shrinks it and normalises a flipped box the way :meth:`Rect.grown`
    does.  Only pairs across the two buckets are tested.  Events sort by
    ``(x1, side, index)``, so at equal ``x1`` the *a* events come first,
    which keeps the strict test exact even for a zero-width grown box.
    """
    events = []
    for i in a:
        rect = rects[i]
        x1, x2 = rect.x1 - grow, rect.x2 + grow
        y1, y2 = rect.y1 - grow, rect.y2 + grow
        if grow < 0:
            x1, x2 = min(x1, x2), max(x1, x2)
            y1, y2 = min(y1, y2), max(y1, y2)
        events.append((x1, 0, i, x2, y1, y2))
    for i in b:
        rect = rects[i]
        events.append((rect.x1, 1, i, rect.x2, rect.y1, rect.y2))
    events.sort()
    pairs: Pairs = []
    # Per side, the (x1, side, index, x2, y1, y2) events still open.
    actives: List[list] = [[], []]
    tested = 0
    for event in events:
        x1, side, i, _, y1, y2 = event
        keep = []
        for other in actives[1 - side]:
            if other[3] <= x1:
                continue
            keep.append(other)
            tested += 1
            if other[4] < y2 and y1 < other[5]:
                pairs.append((i, other[2]) if side == 0 else (other[2], i))
        actives[1 - side] = keep
        actives[side].append(event)
    return pairs, tested
