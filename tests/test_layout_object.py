"""LayoutObject: merge/copy semantics, metrics, variable-edge machinery."""

import pytest

from repro.db import InsideLink, LayoutObject
from repro.geometry import Direction, Rect
from repro.tech import RuleError


def row_object(tech, name="row"):
    """A contact-row-like object with an InsideLink and an ArrayLink."""
    obj = LayoutObject(name, tech)
    obj.add_rect(Rect(0, 0, 10000, 2600, "poly", "g"))  # seq 0
    obj.add_rect(Rect(0, 0, 10000, 2600, "metal1", "g"))  # seq 1
    obj.add_link(InsideLink(1, [(0, 0)]))
    obj.add_array("contact", 1000, 1200, [(0, 800), (1, 500)], "g")
    return obj


POLY, METAL = 0, 1


def test_add_rect_validates_layer(tech):
    obj = LayoutObject("o", tech)
    with pytest.raises(RuleError):
        obj.add_rect(Rect(0, 0, 1, 1, "bogus"))


def test_metrics(tech):
    obj = LayoutObject("o", tech)
    assert obj.is_empty()
    assert obj.bbox() is None
    assert obj.area() == 0
    obj.add_rect(Rect(0, 0, 10, 10, "poly"))
    obj.add_rect(Rect(20, 0, 30, 10, "poly"))
    assert obj.bbox().as_tuple() == (0, 0, 30, 10)
    assert obj.area() == 300
    assert obj.drawn_area() == 200
    assert obj.width == 30 and obj.height == 10


def test_queries(tech):
    obj = LayoutObject("o", tech)
    obj.add_rect(Rect(0, 0, 10, 10, "poly", "a"))
    obj.add_rect(Rect(0, 0, 10, 10, "metal1", "b"))
    obj.add_rect(Rect(0, 0, 0, 10, "metal1"))  # empty
    assert obj.layers() == {"poly", "metal1"}
    assert obj.nets() == {"a", "b"}
    assert len(obj.rects_on("metal1")) == 1
    assert len(obj.rects_on_net("a")) == 1
    assert len(obj.nonempty_rects) == 2


def test_merge_copies_rects_and_links(tech):
    source = row_object(tech)
    target = LayoutObject("t", tech)
    added = target.merge(source)
    assert len(added) == len(source.rects)
    # Mutating the copy must not affect the source.
    added[0].translate(5, 5)
    assert source.rects[0].as_tuple() != added[0].as_tuple()
    assert len(target.links) == len(source.links)
    # Links are copies addressing the target's rects.
    for link, original in zip(target.links, source.links):
        assert link is not original
        assert link.involved_seqs() == original.involved_seqs()
        assert all(seq < len(target.rects) for seq in link.involved_seqs())


def test_copy_statement_semantics(tech):
    """`trans2 = trans1` must produce a fully independent object."""
    original = row_object(tech)
    clone = original.copy("clone")
    clone.translate(1000, 0)
    assert original.bbox().as_tuple() != clone.bbox().as_tuple()
    assert clone.name == "clone"


def test_translate_and_normalize(tech):
    obj = LayoutObject("o", tech)
    obj.add_rect(Rect(100, 200, 300, 400, "poly"))
    obj.add_label("pin", 150, 250, "metal1")
    obj.translate(-100, -200)
    assert obj.bbox().as_tuple() == (0, 0, 200, 200)
    assert (obj.labels[0].x, obj.labels[0].y) == (50, 50)
    obj.translate(37, 19)
    obj.normalize()
    assert obj.bbox().as_tuple() == (0, 0, 200, 200)


def test_mirror_keeps_links_alive(tech):
    obj = row_object(tech)
    cuts_before = len([r for r in obj.rects_on("contact")])
    obj.mirror_y(axis_x=0)
    obj.rebuild_links()
    assert len([r for r in obj.rects_on("contact")]) == cuts_before
    assert obj.bbox().x2 <= 0


def test_set_net_and_rename(tech):
    obj = LayoutObject("o", tech)
    obj.add_rect(Rect(0, 0, 10, 10, "poly", "a"))
    obj.add_rect(Rect(0, 0, 10, 10, "metal1", "b"))
    obj.set_net("x", layer="poly")
    assert obj.rects_on("poly")[0].net == "x"
    assert obj.rects_on("metal1")[0].net == "b"
    obj.rename_nets({"x": "b", "b": "x"})  # simultaneous swap
    assert obj.rects_on("poly")[0].net == "b"
    assert obj.rects_on("metal1")[0].net == "x"


def test_shrink_limit_respects_min_width(tech):
    obj = LayoutObject("o", tech)
    obj.add_rect(Rect(0, 0, 10000, 2000, "metal1"))
    # metal1 min width 1500: the east edge may come in to x = 1500.
    assert obj.shrink_limit(0, Direction.EAST) == 1500
    assert obj.shrink_limit(0, Direction.WEST) == 8500


def test_shrink_limit_respects_explicit_bounds(tech):
    obj = LayoutObject("o", tech)
    rect = obj.add_rect(Rect(0, 0, 10000, 2000, "metal1"))
    rect.edge(Direction.EAST).min_coord = 7000
    assert obj.shrink_limit(0, Direction.EAST) == 7000


def test_shrink_limit_protects_array_cut(tech):
    obj = row_object(tech)
    # Shrinking the poly east edge must keep room for one contact:
    # far side (west) region edge + cut + margin.
    limit = obj.shrink_limit(POLY, Direction.EAST)
    assert limit == 800 + 1000 + 800


def test_move_edge_clamps_and_rebuilds(tech):
    obj = row_object(tech)
    poly = obj.rects[POLY]
    cuts_before = len(obj.rects_on("contact"))
    achieved = obj.move_edge(POLY, Direction.EAST, 0)  # ask for impossible
    assert achieved == obj.shrink_limit(POLY, Direction.EAST)
    assert len(obj.rects_on("contact")) == 1
    assert len(obj.rects_on("contact")) < cuts_before
    # metal follows the poly inward (InsideLink).
    metal = obj.rects_on("metal1")[0]
    assert metal.x2 <= poly.x2


def test_move_edge_never_moves_outward(tech):
    obj = LayoutObject("o", tech)
    obj.add_rect(Rect(0, 0, 10000, 2000, "metal1"))
    achieved = obj.move_edge(0, Direction.EAST, 20000)
    assert achieved == 10000  # clamped to the current coordinate


def test_move_stretch_releases_enclosure(tech):
    obj = row_object(tech)
    metal = obj.rects[METAL]
    obj.move_stretch(METAL, Direction.NORTH, 5000)
    assert metal.y2 == 5000
    obj.rebuild_links()  # must NOT clamp the released edge back
    assert metal.y2 == 5000


def test_move_stretch_ignores_inward_requests(tech):
    obj = row_object(tech)
    metal = obj.rects[METAL]
    obj.move_stretch(METAL, Direction.NORTH, 100)  # inward: refused
    assert metal.y2 == 2600


def test_labels_copy_with_object(tech):
    obj = LayoutObject("o", tech)
    obj.add_rect(Rect(0, 0, 10, 10, "poly"))
    obj.add_label("out", 5, 5, "metal1")
    clone = obj.copy()
    assert clone.labels[0].text == "out"
    clone.labels[0].text = "changed"
    assert obj.labels[0].text == "out"
