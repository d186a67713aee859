"""Property tests: the seeded link solver equals the full fixpoint.

After an edge move a :class:`LayoutObject` rebuilds only the links the move
reaches, plus its pending links (appended, mirrored or arrived in a
replaced ``links`` list).  Its contract is that this changes nothing: a
``snapshot()`` twin driven with the same returned coordinates and solved by
:func:`repro.verify.reference.solve_links_fixpoint` must hold the same rect
tuples after every step.  The rect store must also see every rect the
solve moved or created: its layer's version moves, and its live flags
equal a store built from scratch.
"""

from functools import lru_cache

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.db import InsideLink, LayoutObject
from repro.db.store import RectStore
from repro.geometry import Direction, Rect
from repro.library import contact_row, interdigitated_transistor, mos_transistor, substrate_ring
from repro.obs import StatsSink, Tracer, activate
from repro.tech import get_technology
from repro.verify.reference import solve_links_fixpoint

TECHS = ("generic_bicmos_1u", "generic_cmos_05u")


def _guarded(tech):
    device = mos_transistor(tech, w=6.0, length=1.0, name="GuardedMOS")
    substrate_ring(device)
    return device


def _nested(tech):
    """A link chain the library never builds: each link reaches the next
    only through a shared rect, and links are registered downstream first,
    so a move propagates against index order (into the next pass).  It is
    solved and then mirrored: array placement rounds, so its vias sit off
    their fixpoint and every link starts out pending."""
    obj = LayoutObject("Nested", tech)
    diff, metal1, metal2 = 0, 1, 2
    obj.add_rect(Rect(0, 0, 7_801, 4_000, "ndiff", "n"))
    obj.add_rect(Rect(0, 0, 7_801, 4_000, "metal1", "n"))
    obj.add_rect(Rect(-900, -700, 8_700, 4_700, "metal2", "n"))
    obj.add_array("via", 1_000, 1_200, [(metal1, 500), (metal2, 500)], "n")
    obj.add_link(InsideLink(metal2, [(metal1, 400)]))
    obj.add_link(InsideLink(metal1, [(diff, 300)]))
    obj.rebuild_links()
    return obj.mirror_y(0)


BUILDERS = {
    "nested": _nested,
    "pdiff_row": lambda tech: contact_row(tech, "pdiff", w=4.0, length=6.0, net="a"),
    "poly_row": lambda tech: contact_row(tech, "poly", w=2.0, length=12.0, net="g"),
    "transistor": lambda tech: mos_transistor(tech, w=8.0, length=1.0),
    "guarded": _guarded,
    "interdigitated": lambda tech: interdigitated_transistor(
        tech, w=12.0, length=1.0, fingers=3
    ),
}

CELLS = [(tech, name) for tech in TECHS for name in BUILDERS]


@lru_cache(maxsize=None)
def _cell(key):
    tech_name, name = key
    cell = BUILDERS[name](get_technology(tech_name))
    assert cell.links, f"{name} has no links"
    return cell


def _fresh(key):
    return _cell(key).snapshot()


selectors = st.integers(min_value=0, max_value=1023)
directions = st.sampled_from(list(Direction))
amounts = st.integers(min_value=50, max_value=12_000)

operations = st.one_of(
    st.tuples(st.just("shrink"), selectors, directions, amounts),
    st.tuples(st.just("stretch"), selectors, directions, amounts),
    st.tuples(st.just("mirror_x"), st.integers(-5_000, 5_000)),
    st.tuples(st.just("mirror_y"), st.integers(-5_000, 5_000)),
    st.tuples(
        st.just("merge"),
        st.sampled_from(CELLS),
        st.integers(-30_000, 30_000),
        st.integers(-30_000, 30_000),
    ),
    st.tuples(st.just("alt"), selectors, directions, amounts),
    st.tuples(st.just("snapshot")),
)


def _pick(obj, selector):
    """Index (into ``obj.rects``) of a non-empty rect chosen by *selector*."""
    live = [i for i, rect in enumerate(obj.rects) if not rect.is_empty]
    return live[selector % len(live)]


def _tuples(obj):
    return [rect.as_tuple() for rect in obj.rects]


EDGE_INDEX = {Direction.WEST: 0, Direction.SOUTH: 1, Direction.EAST: 2, Direction.NORTH: 3}


def _move(obj, twin, kind, selector, direction, amount):
    """Move one edge of *obj*; replay the outcome on *twin* by hand.

    Returns *obj*'s rect tuples and its store's layer versions from
    before the move.
    """
    index = _pick(obj, selector)
    rect = obj.rects[index]
    store = obj.store()
    before = _tuples(obj)
    versions = {layer: bucket.version for layer, bucket in store.buckets.items()}
    sign = 1 if direction.is_positive else -1
    edge = rect.edge_coord(direction)
    if kind == "shrink":
        coord = obj.move_edge(index, direction, edge - sign * amount)
    else:
        coord = edge + sign * amount
        obj.move_stretch(index, direction, coord)
    if kind == "stretch":
        for link in twin.links:
            if isinstance(link, InsideLink) and link.inner == index:
                link.release(direction)
    box = list(twin.rects[index].as_tuple())
    box[EDGE_INDEX[direction]] = coord
    twin.set_rect(index, *box)
    solve_links_fixpoint(twin)
    return before, versions


def _check_store_saw_the_move(obj, before, versions):
    store = obj.store()
    fresh = RectStore(obj.rects)
    fresh.sync()
    assert (store.live, store.nonempty) == (fresh.live, fresh.nonempty)
    for rect, old in zip(obj.rects, before):
        if rect.as_tuple() != old:
            assert store.buckets[rect.layer].version > versions[rect.layer]


def _apply(obj, twin, op):
    """Apply *op* to both objects; returns the object to continue on."""
    kind = op[0]
    if kind in ("shrink", "stretch"):
        before, versions = _move(obj, twin, *op)
        _check_store_saw_the_move(obj, before, versions)
    elif kind == "mirror_x":
        obj.mirror_x(op[1])
        twin.mirror_x(op[1])
    elif kind == "mirror_y":
        obj.mirror_y(op[1])
        twin.mirror_y(op[1])
    elif kind == "merge":
        other = _fresh(op[1])
        if other.tech is obj.tech:
            other.translate(op[2], op[3])
            obj.merge(other)
            twin.merge(other)
    elif kind == "snapshot":  # the order search continues on a snapshot
        obj = obj.snapshot()
    else:  # alt: a branch moves an edge, fails, and is rolled back
        saved, twin_saved = obj.copy(), twin.copy()
        _move(obj, twin, "shrink", *op[1:])
        obj.restore(saved)
        twin.restore(twin_saved)
    return obj


NESTED = ("generic_bicmos_1u", "nested")


@settings(
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(st.sampled_from(CELLS), st.lists(operations, min_size=1, max_size=8))
# A move that reaches only the diffusion: the vias are fixed only because
# their links are pending (copied by snapshot, or re-marked by a mirror).
@example(NESTED, [("stretch", 0, Direction.EAST, 1_000)])
@example(NESTED, [("shrink", 3, Direction.NORTH, 50), ("mirror_y", 0),
                  ("stretch", 0, Direction.EAST, 1_000)])
def test_seeded_solver_equals_fixpoint(key, ops):
    obj = _fresh(key)
    twin = obj.snapshot()
    for op in ops:
        obj = _apply(obj, twin, op)
        assert _tuples(obj) == _tuples(twin), op


def test_rebuild_links_equals_fixpoint(tech):
    """``rebuild_links`` is the same solver seeded with every link."""
    row = contact_row(tech, "pdiff", w=4.0, length=6.0, net="a")
    twin = row.snapshot()
    for obj in (row, twin):
        for link in obj.links:
            for seq, _ in getattr(link, "outers", ()):
                outer = obj.rects[seq]
                obj.set_rect(seq, outer.x1, outer.y1 - 1_100, outer.x2 + 7_300, outer.y2)
    row.rebuild_links()
    solve_links_fixpoint(twin)
    assert _tuples(row) == _tuples(twin)


def test_edge_move_rebuilds_only_reached_links(tech):
    """A settled object's edge move rebuilds the moved rect's links only."""
    main = LayoutObject("main", tech)
    rows = [contact_row(tech, "pdiff", w=4.0, length=6.0, net=f"n{i}") for i in range(4)]
    for i, row in enumerate(rows):
        main.merge(row.translate(i * 40_000, 0))
    main.rebuild_links()
    metal = main.store().seqs_on("metal1")[0]
    reached = [link for link in main.links if metal in link.involved_seqs()]
    sink = StatsSink()
    with activate(Tracer(sinks=[sink])):
        main.move_stretch(metal, Direction.EAST, main.rects[metal].x2 + 20_000)
    # Each reached link is rebuilt, and once more when it changed a rect.
    assert 0 < sink.counters["links.rebuild_calls"] <= 2 * len(reached)
    assert len(main.links) > 2 * len(reached)
