"""Pin the `_Components` merged-shape semantics the DRC checks rely on.

The checker treats same-layer rects that touch or overlap as one merged
polygon.  These tests lock the exact membership rules (edge-touching and
corner-touching merge, a 1-dbu gap does not), the per-component net sets,
and the cross-layer ``touches_component`` exemption the spacing check
uses — directly against the reference ``_Components``, and then assert
the sweep-fed :class:`repro.drc.index.DrcIndex` produces the identical
partition and answers.  Behaviour is locked by these tests, not by the
index rewrite itself.
"""

from repro.db import LayoutObject
from repro.drc.index import DrcIndex
from repro.geometry import Rect
from repro.verify.reference import _Components


def _obj(tech, *rects):
    obj = LayoutObject("o", tech)
    for rect in rects:
        obj.add_rect(rect)
    return obj


def _partition(component_of, n):
    """Canonical partition: groups of indices, ordered by first member."""
    groups = {}
    for index in range(n):
        groups.setdefault(component_of(index), []).append(index)
    return list(groups.values())


def _both_partitions(tech, *rects):
    """The reference and the indexed partition — asserted equal."""
    comps = _Components(list(rects))
    index = DrcIndex(_obj(tech, *rects))
    ref = _partition(comps.component, len(rects))
    swept = _partition(index.component, len(rects))
    assert ref == swept
    return comps, index, ref


# ----------------------------------------------------------------------
# membership
# ----------------------------------------------------------------------
def test_edge_touching_rects_merge(tech):
    a = Rect(0, 0, 2000, 2000, "metal1")
    b = Rect(2000, 0, 4000, 2000, "metal1")  # shares the x=2000 edge
    _, _, partition = _both_partitions(tech, a, b)
    assert partition == [[0, 1]]


def test_corner_touching_rects_merge(tech):
    """A single shared corner point joins the component (closed interval)."""
    a = Rect(0, 0, 2000, 2000, "metal1")
    b = Rect(2000, 2000, 4000, 4000, "metal1")  # touches only at (2000, 2000)
    _, _, partition = _both_partitions(tech, a, b)
    assert partition == [[0, 1]]


def test_one_dbu_gap_stays_separate(tech):
    a = Rect(0, 0, 2000, 2000, "metal1")
    b = Rect(2001, 0, 4001, 2000, "metal1")  # 1-dbu gap
    _, _, partition = _both_partitions(tech, a, b)
    assert partition == [[0], [1]]


def test_overlapping_rects_merge(tech):
    a = Rect(0, 0, 2000, 2000, "metal1")
    b = Rect(1000, 1000, 3000, 3000, "metal1")
    _, _, partition = _both_partitions(tech, a, b)
    assert partition == [[0, 1]]


def test_components_are_per_layer(tech):
    """Coincident rects on different layers never share a component."""
    a = Rect(0, 0, 2000, 2000, "metal1")
    b = Rect(0, 0, 2000, 2000, "metal2")
    _, _, partition = _both_partitions(tech, a, b)
    assert partition == [[0], [1]]


def test_transitive_chain_is_one_component(tech):
    chain = [
        Rect(i * 2000, 0, (i + 1) * 2000, 2000, "metal1") for i in range(5)
    ]
    _, _, partition = _both_partitions(tech, *chain)
    assert partition == [[0, 1, 2, 3, 4]]


def test_nets_do_not_affect_membership(tech):
    """Merging is purely geometric: different nets still form one shape
    (the shorts check reports that, the component does not split)."""
    a = Rect(0, 0, 2000, 2000, "metal1", "a")
    b = Rect(2000, 0, 4000, 2000, "metal1", "b")
    _, _, partition = _both_partitions(tech, a, b)
    assert partition == [[0, 1]]


# ----------------------------------------------------------------------
# component_nets
# ----------------------------------------------------------------------
def test_component_nets_collects_all_labels(tech):
    rects = (
        Rect(0, 0, 2000, 2000, "metal1", "a"),
        Rect(2000, 0, 4000, 2000, "metal1"),
        Rect(4000, 0, 6000, 2000, "metal1", "b"),
        Rect(9000, 0, 11000, 2000, "metal1", "c"),
    )
    comps, index, partition = _both_partitions(tech, *rects)
    assert partition == [[0, 1, 2], [3]]
    assert comps.component_nets(comps.component(0)) == {"a", None, "b"}
    assert comps.component_nets(comps.component(3)) == {"c"}
    assert index.component_nets(index.component(0)) == {"a", None, "b"}
    assert index.component_nets(index.component(3)) == {"c"}


def test_members_preserve_source_order(tech):
    rects = (
        Rect(4000, 0, 6000, 2000, "metal1"),
        Rect(0, 0, 2000, 2000, "metal1"),
        Rect(2000, 0, 4000, 2000, "metal1"),
    )
    comps, index, _ = _both_partitions(tech, *rects)
    assert [id(m) for m in comps.members(comps.component(0))] == [
        id(r) for r in rects
    ]
    assert [id(m) for m in index.members(index.component(0))] == [
        id(r) for r in rects
    ]


# ----------------------------------------------------------------------
# cross-layer touches_component (the gate-attachment spacing exemption)
# ----------------------------------------------------------------------
def test_touches_component_cross_layer(tech):
    """A gate touching one diffusion component is exempt from the
    poly/pdiff spacing rule against it — but not against a second,
    untouched component."""
    gate = Rect(0, -6000, 1000, 6000, "poly")
    body_left = Rect(-2500, -5000, 500, 5000, "pdiff")
    body_right = Rect(500, -5000, 3500, 5000, "pdiff")
    far = Rect(1500, 8000, 4500, 10000, "pdiff")  # separate component
    rects = (gate, body_left, body_right, far)
    comps, index, partition = _both_partitions(tech, *rects)
    assert partition == [[0], [1, 2], [3]]

    body_comp = comps.component(1)
    far_comp = comps.component(3)
    assert comps.touches_component(gate, body_comp)
    assert not comps.touches_component(gate, far_comp)

    # The index answers the same queries by rect position, for every layer
    # pair carrying a positive SPACE rule (poly/pdiff does).
    assert index.touches_component(0, index.component(1))
    assert not index.touches_component(0, index.component(3))


def test_touches_component_includes_edge_contact(tech):
    """Edge abutment (closed interval) counts as touching the component."""
    gate = Rect(0, 0, 1000, 5000, "poly")
    body = Rect(1000, 0, 4000, 5000, "pdiff")  # abuts the gate edge
    rects = (gate, body)
    comps, index, _ = _both_partitions(tech, *rects)
    assert comps.touches_component(gate, comps.component(1))
    assert index.touches_component(0, index.component(1))
