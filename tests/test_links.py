"""Rebuild links: enclosure clamping and array recalculation (Fig. 5b)."""

import pytest

from repro.db import ArrayLink, InsideLink, LayoutObject
from repro.geometry import Direction, Rect
from repro.tech import generic_bicmos_1u

TECH = generic_bicmos_1u()


def _object(*rects):
    """A layout object holding *rects* at seqs 0, 1, ..."""
    obj = LayoutObject("o", TECH)
    for rect in rects:
        obj.add_rect(rect)
    return obj


def test_inside_link_clamps_inner():
    obj = _object(Rect(0, 0, 100, 100, "poly"), Rect(-10, -10, 200, 50, "metal1"))
    link = InsideLink(1, [(0, 5)])
    link.rebuild(obj)
    assert obj.rects[1].as_tuple() == (5, 5, 95, 50)


def test_inside_link_respects_released_edges():
    obj = _object(Rect(0, 0, 100, 100, "poly"), Rect(10, 10, 90, 150, "metal1"))
    link = InsideLink(1, [(0, 5)])
    link.release(Direction.NORTH)
    link.rebuild(obj)
    assert obj.rects[1].y2 == 150  # released edge stays stretched
    assert obj.rects[1].y1 == 10


def test_inside_link_remap_preserves_release():
    """Merging copies a link by value, its seqs shifted by the parent's
    length, and keeps its released edges."""
    source = _object(Rect(0, 0, 100, 100, "poly"), Rect(10, 10, 90, 90, "metal1"))
    link = source.add_link(InsideLink(1, [(0, 5)]))
    link.release(Direction.EAST)
    target = _object(Rect(0, 0, 1, 1, "poly"))
    target.merge(source)
    (copied,) = target.links
    assert copied is not link
    assert (copied.inner, copied.outers) == (2, [(1, 5)])
    assert Direction.EAST in copied.released


def test_array_link_counts():
    link = ArrayLink("contact", cut_size=10, cut_space=12, outers=[])
    assert link.count(9) == 0
    assert link.count(10) == 1
    assert link.count(31) == 1
    assert link.count(32) == 2
    assert link.count(10 + 3 * 22) == 4


def test_array_link_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ArrayLink("contact", cut_size=0, cut_space=5, outers=[])
    with pytest.raises(ValueError):
        ArrayLink("contact", cut_size=5, cut_space=-1, outers=[])


def _cuts(obj, link):
    return [obj.rects[seq] for seq in link.cuts if not obj.rects[seq].is_empty]


def test_array_link_places_equidistant_flush():
    obj = _object(Rect(0, 0, 100, 20, "metal1"))
    link = ArrayLink("contact", cut_size=10, cut_space=12, outers=[(0, 5)])
    link.rebuild(obj)
    cuts = _cuts(obj, link)
    assert link.cuts == [1, 2, 3, 4]  # appended to the object
    # Region x: 5..95 (90 wide) → 4 cuts, ends flush at 5 and 85.
    assert len(cuts) == 4
    assert cuts[0].x1 == 5
    assert cuts[-1].x2 == 95
    gaps = [b.x1 - a.x2 for a, b in zip(cuts, cuts[1:])]
    assert all(gap >= 12 for gap in gaps)
    assert max(gaps) - min(gaps) <= 2  # equidistant up to rounding


def test_array_link_single_cut_is_centred():
    obj = _object(Rect(0, 0, 24, 24, "metal1"))
    link = ArrayLink("contact", cut_size=10, cut_space=12, outers=[(0, 5)])
    link.rebuild(obj)
    cuts = _cuts(obj, link)
    assert len(cuts) == 1
    assert cuts[0].as_tuple() == (7, 7, 17, 17)


def test_array_link_shrink_recalculates_and_reuses_rects():
    """Fig. 5b: 'the array of contact-rectangles was recalculated'."""
    obj = _object(Rect(0, 0, 100, 20, "metal1"))
    link = ArrayLink("contact", cut_size=10, cut_space=12, outers=[(0, 5)])
    link.rebuild(obj)
    before = _cuts(obj, link)
    assert len(before) == 4
    obj.set_rect(0, 0, 0, 50, 20)  # shrink the metal
    link.rebuild(obj)
    after = _cuts(obj, link)
    assert len(after) == 2
    # Cuts are reused in place (their seqs and rect objects stay).
    assert len(obj.rects) == 5
    assert obj.rects[link.cuts[0]] is before[0]
    # Surplus rects collapse to empty instead of disappearing.
    assert sum(1 for seq in link.cuts if obj.rects[seq].is_empty) == 2


def test_array_link_infeasible_region_empties_all():
    obj = _object(Rect(0, 0, 12, 12, "metal1"))
    link = ArrayLink("contact", cut_size=10, cut_space=12, outers=[(0, 5)])
    link.rebuild(obj)
    assert link.cuts == []
    region = link.region(obj.rects)
    assert region is None or region.width < 10


def test_array_link_region_intersects_outers():
    obj = _object(Rect(0, 0, 100, 100, "poly"), Rect(20, 20, 80, 80, "metal1"))
    link = ArrayLink("contact", 10, 12, [(0, 8), (1, 5)])
    region = link.region(obj.rects)
    assert region.as_tuple() == (25, 25, 75, 75)
