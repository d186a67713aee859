"""Property test: the rect store stays equal to one rebuilt from scratch.

A :class:`~repro.db.store.RectStore` is built once and then kept exact by
the :class:`~repro.db.LayoutObject` write methods, under one staleness
rule: methods keep it current, a replaced or shortened ``rects`` list is
detected, and any other write is followed by ``invalidate_index()``.
Random write sequences — appends, merges (with linked contact rows),
translations, edge moves and stretches (so the link solver grows and
collapses array cuts), mirrors, net edits, full link rebuilds, the ALT
list replacement and direct writes followed by ``invalidate_index()`` —
each applied with every view warm must leave every store query and every
cached view equal to a store rebuilt from the rect list.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.compact import frontier_groups, layer_frontier
from repro.db import LayoutObject
from repro.db.store import RectStore
from repro.geometry import Direction, Rect, bounding_box
from repro.library import contact_row
from repro.tech import generic_bicmos_1u

TECH = generic_bicmos_1u()
LAYERS = ["metal1", "metal2", "poly", "pdiff", "contact"]
NETS = ["a", "b", None]

rects = st.builds(
    lambda x, y, w, h, layer, net, no_overlap: Rect(
        x, y, x + w, y + h, layer, net, no_overlap=no_overlap
    ),
    # A small window, so rects overlap and shadow each other.
    st.integers(min_value=-10_000, max_value=10_000),
    st.integers(min_value=-10_000, max_value=10_000),
    st.integers(min_value=0, max_value=12_000),  # 0: an empty rect
    st.integers(min_value=1_500, max_value=12_000),
    st.sampled_from(LAYERS),
    st.sampled_from(NETS),
    st.booleans(),
)
directions = st.sampled_from(list(Direction))
selectors = st.integers(min_value=0, max_value=255)
amounts = st.integers(min_value=100, max_value=8_000)
shifts = st.integers(min_value=-5_000, max_value=5_000)

operations = st.one_of(
    st.tuples(st.just("add"), rects),
    st.tuples(st.just("merge"), st.lists(rects, max_size=3), st.booleans()),
    st.tuples(st.just("translate"), shifts, shifts),
    st.tuples(st.just("move_edge"), selectors, directions, amounts),
    st.tuples(st.just("move_stretch"), selectors, directions, amounts),
    st.tuples(st.just("mirror"), st.booleans(), shifts),
    st.tuples(st.just("set_net"), st.sampled_from(["a", "b"]),
              st.sampled_from(LAYERS + [None])),
    st.tuples(st.just("rename_nets")),
    st.tuples(st.just("rebuild_links")),
    st.tuples(st.just("alt"), selectors, directions, amounts),
    st.tuples(st.just("raw"), selectors, shifts, st.sampled_from(NETS)),
)


def _pick(obj, selector):
    live = obj.nonempty_rects
    return live[selector % len(live)] if live else None


def _warm(obj):
    """Query everything the store caches, so later writes must stale it."""
    store = obj.store()
    for direction in Direction:
        for nets in (frozenset(), frozenset({"a"})):
            frontier_groups(store, direction, nets)
    for layer in store.layers():
        store.by_x1(layer)
        store.envelope(layer)
    obj.bbox()


def _apply(obj, op):
    kind = op[0]
    if kind == "add":
        obj.add_rect(op[1].copy())
    elif kind == "merge":
        other = LayoutObject("arrival", TECH)
        if op[2]:
            other.merge(contact_row(TECH, "pdiff", w=4.0, net="a"))
        for rect in op[1]:
            other.add_rect(rect.copy())
        obj.merge(other)
    elif kind == "translate":
        obj.translate(op[1], op[2])
    elif kind in ("move_edge", "move_stretch"):
        _, selector, direction, amount = op
        rect = _pick(obj, selector)
        if rect is None:
            return
        sign = 1 if direction.is_positive else -1
        coord = rect.edge_coord(direction)
        if kind == "move_edge":
            rect.set_variable()
            obj.move_edge(rect, direction, coord - sign * amount)
        else:
            obj.move_stretch(rect, direction, coord + sign * amount)
    elif kind == "mirror":
        (obj.mirror_x if op[1] else obj.mirror_y)(op[2])
    elif kind == "set_net":
        obj.set_net(op[1], op[2])
    elif kind == "rename_nets":
        obj.rename_nets({"a": "b", "b": "a"})
    elif kind == "rebuild_links":
        obj.rebuild_links()
    elif kind == "alt":
        # A failed ALT branch: edits, then the object takes a copy's lists.
        saved = obj.copy()
        _apply(obj, ("move_stretch",) + op[1:])
        obj.add_rect(Rect(0, 0, 2_000, 2_000, "metal1", "a"))
        obj.rects = saved.rects
        obj.links = saved.links
        obj.labels = saved.labels
    elif kind == "raw":
        rect = _pick(obj, op[1])
        if rect is None:
            return
        # May empty or invert the rect (x2 < x1 is empty, copies included).
        rect.x2 += op[2]
        rect.net = op[3]
        rect.no_overlap = not rect.no_overlap
        obj.invalidate_index()


def _box(rect):
    return None if rect is None else (rect.x1, rect.y1, rect.x2, rect.y2)


def _check_equals_scratch(obj):
    store = obj.store()
    fresh = RectStore(obj.rects)
    fresh.sync()
    rects = obj.rects

    # The raw state.
    assert store.tracked == fresh.tracked == len(rects)
    assert store.live == fresh.live
    assert store.nonempty == fresh.nonempty
    assert list(store.buckets) == list(fresh.buckets)
    assert store.net_seqs == fresh.net_seqs
    for layer, bucket in fresh.buckets.items():
        mine = store.buckets[layer]
        assert mine.seqs == bucket.seqs
        assert bucket.nets <= mine.nets  # grow-only
        if mine.envelope is not None:  # built on demand, then grow-only
            e, f = mine.envelope, fresh.envelope(layer)
            assert e[0] <= f[0] and e[1] <= f[1]
            assert e[2] >= f[2] and e[3] >= f[3]

    # Every cached view that claims to be current is.
    for (layer, key), (version, view) in store.views.items():
        if version != store.buckets[layer].version:
            continue
        if key == "x1":
            assert view == fresh.by_x1(layer)
        else:
            direction, nets = key
            assert view == tuple(
                layer_frontier(rects, fresh.seqs_on(layer), direction, nets)
            )

    # Every query, against the rect list itself.
    live = obj.nonempty_rects
    assert _box(store.bbox()) == _box(fresh.bbox()) == _box(bounding_box(live))
    assert _box(obj.bbox()) == _box(bounding_box(live))
    assert obj.is_empty() == (not live)
    assert store.layers() == fresh.layers()
    assert obj.layers() == {r.layer for r in live}
    assert obj.nets() == {r.net for r in live if r.net}
    for layer in LAYERS:
        assert obj.rects_on(layer) == [r for r in live if r.layer == layer]
        assert [id(r) for r in obj.rects_on(layer)] == [
            id(r) for r in live if r.layer == layer
        ]
    for net in ("a", "b"):
        assert [id(r) for r in obj.rects_on_net(net)] == [
            id(r) for r in live if r.net == net
        ]


@settings(
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(
    st.lists(rects, min_size=1, max_size=8),
    st.booleans(),
    st.lists(operations, min_size=1, max_size=10),
)
@example(  # an edge move that reorders the layer's cached x1 view
    initial=[Rect(0, 0, 12_000, 2_000, "metal1"),
             Rect(5_000, 5_000, 8_000, 7_000, "metal1")],
    linked=False,
    ops=[("move_edge", 0, Direction.WEST, 6_000)],
)
@example(  # a direct write that inverts a rect: its snapshot copy stays empty
    initial=[Rect(0, 0, 4_000, 2_000, "metal1")],
    linked=False,
    ops=[("raw", 0, -6_000, "a")],
)
def test_store_equals_a_rebuilt_store_after_every_write(initial, linked, ops):
    obj = LayoutObject("main", TECH)
    if linked:
        obj.merge(contact_row(TECH, "pdiff", w=4.0, net="b"))
    for rect in initial:
        obj.add_rect(rect.copy())
    _warm(obj)
    for op in ops:
        _apply(obj, op)
        _check_equals_scratch(obj)
        # A snapshot carries the store over and must be exact as well.
        _check_equals_scratch(obj.snapshot())
        _warm(obj)  # every view current again before the next write

