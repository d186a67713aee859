"""Property-based tests of the compaction invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compact import Compactor
from repro.db import LayoutObject
from repro.geometry import Direction, Rect
from repro.tech import generic_bicmos_1u
from repro.verify.reference import ScanCompactor, gather_constraints

TECH = generic_bicmos_1u()

metal_rects = st.builds(
    lambda x, y, w, h, net: Rect(x, y, x + w, y + h, "metal1", net),
    st.integers(min_value=-50_000, max_value=50_000),
    st.integers(min_value=-50_000, max_value=50_000),
    st.integers(min_value=1_500, max_value=20_000),
    st.integers(min_value=1_500, max_value=20_000),
    st.sampled_from(["a", "b", "c"]),
)

directions = st.sampled_from(list(Direction))


@st.composite
def structures(draw):
    rects = draw(st.lists(metal_rects, min_size=1, max_size=4))
    obj = LayoutObject("main", TECH)
    for rect in rects:
        obj.add_rect(rect)
    return obj


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(structures(), metal_rects, directions)
def test_compaction_satisfies_every_constraint(main, moving_rect, direction):
    """After compaction no pair constraint is violated (travel ≥ final)."""
    mover = LayoutObject("m", TECH)
    mover.add_rect(moving_rect)
    compactor = Compactor(variable_edges=False, auto_connect=False)
    compactor.compact(main, mover, direction)
    # Recompute constraints of the placed rect against the rest: all
    # remaining allowed travels must be >= 0 (nothing is violated).
    placed = main.nonempty_rects[-1]
    others = main.nonempty_rects[:-1]
    constraints = gather_constraints(TECH, [placed], others, direction)
    assert all(c.max_travel >= 0 for c in constraints)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(structures(), metal_rects, directions)
def test_compaction_is_idempotent(main, moving_rect, direction):
    """Re-compacting an already-abutted object moves it nowhere."""
    mover = LayoutObject("m", TECH)
    mover.add_rect(moving_rect)
    compactor = Compactor(variable_edges=False, auto_connect=False)
    compactor.compact(main, mover, direction)
    again = LayoutObject("m2", TECH)
    again.add_rect(main.nonempty_rects[-1].copy())
    snapshot = [r.as_tuple() for r in main.nonempty_rects[:-1]]
    probe = LayoutObject("probe", TECH)
    for t in snapshot:
        probe.add_rect(Rect(*t, "metal1"))
    # The mover's own copy against the same structure: zero travel.
    result = compactor.compact(
        _structure_without_last(main), again, direction
    )
    assert result.travel == 0


def _structure_without_last(main):
    clone = LayoutObject("clone", TECH)
    for rect in main.nonempty_rects[:-1]:
        clone.add_rect(rect.copy())
    return clone


@settings(max_examples=40, deadline=None)
@given(structures(), metal_rects, directions)
def test_compaction_only_translates_along_axis(main, moving_rect, direction):
    """Compaction never moves the object perpendicular to its direction."""
    mover = LayoutObject("m", TECH)
    mover.add_rect(moving_rect)
    before = moving_rect.as_tuple()
    compactor = Compactor(variable_edges=False, auto_connect=False)
    compactor.compact(main, mover, direction)
    after = mover.nonempty_rects[0].as_tuple()
    if direction.axis.value == "x":
        assert (before[1], before[3]) == (after[1], after[3])
        assert before[2] - before[0] == after[2] - after[0]
    else:
        assert (before[0], before[2]) == (after[0], after[2])
        assert before[3] - before[1] == after[3] - after[1]


@settings(max_examples=40, deadline=None)
@given(structures(), metal_rects, directions)
def test_variable_edges_never_hurt_density(main, moving_rect, direction):
    """With variable edges enabled the final travel is at least as far."""
    def run(variable):
        local_main = LayoutObject("lm", TECH)
        for rect in main.nonempty_rects:
            clone = rect.copy()
            if variable:
                clone.set_variable()
            local_main.add_rect(clone)
        mover = LayoutObject("m", TECH)
        mover.add_rect(moving_rect.copy())
        compactor = Compactor(variable_edges=variable, auto_connect=False)
        return compactor.compact(local_main, mover, direction).travel

    assert run(True) >= run(False)


@settings(max_examples=40, deadline=None)
@given(st.lists(metal_rects, min_size=2, max_size=5))
def test_order_invariance_of_legality(rect_list):
    """Any compaction order yields a legal layout (no violated pairs)."""
    compactor = Compactor(variable_edges=False, auto_connect=False)
    main = LayoutObject("main", TECH)
    for index, rect in enumerate(rect_list):
        mover = LayoutObject(f"m{index}", TECH)
        mover.add_rect(rect.copy())
        compactor.compact(main, mover, Direction.WEST)
    rects = main.nonempty_rects
    rule = TECH.min_space("metal1", "metal1")
    for i, a in enumerate(rects):
        for b in rects[i + 1:]:
            if a.net == b.net:
                continue
            assert a.distance(b) >= rule


mixed_rects = st.builds(
    lambda x, y, w, h, layer, net, no_overlap: Rect(
        x, y, x + w, y + h, layer, net, no_overlap=no_overlap
    ),
    st.integers(min_value=-40_000, max_value=40_000),
    st.integers(min_value=-40_000, max_value=40_000),
    st.integers(min_value=1_500, max_value=15_000),
    st.integers(min_value=1_500, max_value=15_000),
    st.sampled_from(["metal1", "metal2", "poly", "ndiff"]),
    st.sampled_from(["a", "b", None]),
    st.booleans(),
)


@st.composite
def mixed_structures(draw):
    rects = draw(st.lists(mixed_rects, min_size=1, max_size=5))
    obj = LayoutObject("main", TECH)
    for rect in rects:
        obj.add_rect(rect)
    return obj


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(mixed_structures(), mixed_rects, directions)
def test_frontier_filter_soundness(main, moving_rect, direction):
    """The frontier filter never changes the final travel.

    Dropping rects hidden behind the outer-edge frontier is a pure
    speed-up: the surviving constraints must already be the binding ones,
    whatever mix of layers, nets, and no_overlap flags is in play.
    """
    def run(use_frontier):
        local_main = LayoutObject("lm", TECH)
        for rect in main.nonempty_rects:
            local_main.add_rect(rect.copy())
        mover = LayoutObject("m", TECH)
        mover.add_rect(moving_rect.copy())
        compactor = ScanCompactor(
            frontier=use_frontier, variable_edges=False, auto_connect=False
        )
        return compactor.compact(local_main, mover, direction).travel

    assert run(True) == run(False)


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(mixed_structures(), mixed_rects, directions)
def test_gather_constraints_fast_path_matches_naive_product(main, moving_rect, direction):
    """The per-layer fast path equals the all-pairs reference, in order."""
    from repro.compact.separation import pair_travel, required_spacing

    fixed = main.nonempty_rects
    fast = gather_constraints(TECH, [moving_rect], fixed, direction)

    naive = []
    for seq, other in enumerate(fixed):
        spacing = required_spacing(TECH, moving_rect, other, frozenset())
        if spacing is None:
            continue
        travel = pair_travel(moving_rect, other, direction, spacing)
        if travel is None:
            continue
        naive.append((seq, spacing, travel))

    assert [(c.fixed, c.spacing, c.max_travel) for c in fast] == naive
