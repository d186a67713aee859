"""Rect: metrics, predicates, edges, and property-based invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import LayoutObject
from repro.geometry import Direction, Rect

coords = st.integers(min_value=-10_000, max_value=10_000)


def rect_strategy(layer="poly"):
    return st.builds(
        lambda x1, y1, w, h: Rect(x1, y1, x1 + w, y1 + h, layer),
        coords,
        coords,
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=0, max_value=5_000),
    )


def test_normalises_swapped_corners():
    rect = Rect(10, 20, 0, 5, "poly")
    assert rect.as_tuple() == (0, 5, 10, 20)


def test_metrics():
    rect = Rect(0, 0, 10, 4, "poly")
    assert rect.width == 10
    assert rect.height == 4
    assert rect.area == 40
    assert rect.short_side() == 4
    assert rect.center == (5, 2)
    assert not rect.is_empty


def test_zero_area_is_empty():
    assert Rect(5, 5, 5, 9, "poly").is_empty
    assert Rect(5, 5, 9, 5, "poly").is_empty


def test_intersection_and_contains():
    a = Rect(0, 0, 10, 10, "poly")
    b = Rect(5, 5, 15, 15, "poly")
    overlap = a.intersection(b)
    assert overlap.as_tuple() == (5, 5, 10, 10)
    assert a.contains(Rect(2, 2, 8, 8, "poly"))
    assert not a.contains(b)
    assert a.contains_point(10, 10)
    assert not a.contains_point(11, 10)


def test_edge_touching_does_not_intersect():
    a = Rect(0, 0, 10, 10, "poly")
    b = Rect(10, 0, 20, 10, "poly")
    assert not a.intersects(b)
    assert a.touches_or_intersects(b)
    assert a.intersection(b) is None


def test_distance_is_chebyshev_like():
    a = Rect(0, 0, 10, 10, "poly")
    assert a.distance(Rect(15, 0, 20, 10, "poly")) == 5
    assert a.distance(Rect(0, 13, 10, 20, "poly")) == 3
    assert a.distance(Rect(14, 16, 20, 20, "poly")) == 6  # diagonal: max gap
    assert a.distance(Rect(5, 5, 20, 20, "poly")) == 0


def test_edge_coords_and_set(tech):
    rect = Rect(1, 2, 3, 4, "poly")
    assert rect.edge_coord(Direction.WEST) == 1
    assert rect.edge_coord(Direction.SOUTH) == 2
    assert rect.edge_coord(Direction.EAST) == 3
    assert rect.edge_coord(Direction.NORTH) == 4
    # An edge is set through the rect's layout object.
    obj = LayoutObject("o", tech)
    obj.add_rect(rect)
    obj.move_stretch(0, Direction.NORTH, 10)
    assert rect.y2 == 10


def test_variable_edges():
    rect = Rect(0, 0, 5, 5, "poly")
    assert not rect.edge_variable(Direction.NORTH)
    rect.set_variable(Direction.NORTH)
    assert rect.edge_variable(Direction.NORTH)
    assert not rect.edge_variable(Direction.SOUTH)
    rect.set_variable()
    assert all(rect.edge_variable(d) for d in Direction)
    rect.set_fixed()
    assert not any(rect.edge_variable(d) for d in Direction)


def test_translate_moves_edge_bounds():
    rect = Rect(0, 0, 10, 10, "poly")
    rect.edge(Direction.EAST).min_coord = 6
    rect.translate(100, 50)
    assert rect.as_tuple() == (100, 50, 110, 60)
    assert rect.edge(Direction.EAST).min_coord == 106


def test_copy_is_deep():
    rect = Rect(0, 0, 10, 10, "poly", net="a")
    rect.set_variable(Direction.EAST)
    clone = rect.copy()
    clone.translate(5, 5)
    clone.edge(Direction.EAST).variable = False
    assert rect.as_tuple() == (0, 0, 10, 10)
    assert rect.edge_variable(Direction.EAST)
    assert clone.net == "a"


def test_merged_is_bounding_box():
    a = Rect(0, 0, 5, 5, "m1", net="x")
    b = Rect(10, 10, 20, 12, "m1")
    assert a.merged(b).as_tuple() == (0, 0, 20, 12)
    assert a.merged(b).net == "x"


@given(rect_strategy(), rect_strategy())
def test_intersection_is_symmetric_and_contained(a, b):
    ab = a.intersection(b)
    ba = b.intersection(a)
    assert (ab is None) == (ba is None)
    if ab is not None:
        assert ab.as_tuple() == ba.as_tuple()
        assert a.contains(ab) and b.contains(ab)
        assert ab.area <= min(a.area, b.area)


@given(rect_strategy(), st.integers(min_value=-50, max_value=500))
def test_grown_area_monotonic(rect, margin):
    grown = rect.grown(abs(margin))
    assert grown.contains(rect)
    assert grown.area >= rect.area


@given(rect_strategy(), coords, coords)
def test_translation_preserves_shape(rect, dx, dy):
    moved = rect.translated(dx, dy)
    assert moved.width == rect.width
    assert moved.height == rect.height
    assert moved.area == rect.area
