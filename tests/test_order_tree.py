"""Shared-prefix tree order search: equivalence with the replay oracle.

Up to its exhaustive limit, :class:`OrderOptimizer` must be a drop-in
replacement for the replay-based order search of Sec. 2.4
(:mod:`repro.verify.reference`): identical ``best_order`` and
``best_score`` (including lexicographic tie-breaking), identical geometry,
and every recorded score equal to the oracle's — with one compaction step
per child of each distinct partial layout it searches.  Prefixes that
compact to one partial layout share a state key; the search replays the
first one's subtree for the others, and
:func:`repro.verify.reference.check_state_keys` checks that this is sound.
Above the limit the annealer rates orders through its own cache of
shallow prefixes: every score it records must equal a full replay's, and
on the committed above-limit inputs it must score no worse than the beam
search it replaced.
"""

import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compact import Compactor
from repro.db import LayoutObject
from repro.geometry import Direction, Rect
from repro.library import contact_row, diff_pair
from repro.opt import OrderOptimizer, Rating, Step
from repro.opt.order import state_key, transposable
from repro.tech import generic_bicmos_1u
from repro.verify.reference import ReplayOrderOptimizer, check_state_keys, replay

W, S, E, N = Direction.WEST, Direction.SOUTH, Direction.EAST, Direction.NORTH

TECH = generic_bicmos_1u()

#: Ratings the property tests run with: area only, coupling-weighted, and
#: an unbounded one (a negative weight) under which nothing is pruned.
RATINGS = {
    "area": Rating(),
    "coupling": Rating(area_weight=1.0, coupling_weight=2.0),
    "unbounded": Rating(area_weight=1.0, coupling_weight=-0.5),
}


def rect_steps(tech, shapes):
    steps = []
    for i, (w, h, direction) in enumerate(shapes):
        obj = LayoutObject(f"s{i}", tech)
        obj.add_rect(Rect(0, 0, w, h, "metal1", f"n{i}"))
        steps.append(Step(obj, direction))
    return steps


def heterogeneous_steps(tech):
    """Tall strips + wide bars: the order strongly changes the area."""
    return rect_steps(
        tech,
        [(2000, 18000, W), (16000, 2500, S), (3000, 9000, W), (4000, 4000, S)],
    )


def contact_row_steps(tech):
    """The Sec. 2.4 sweep module: three diffusion rows and a poly row."""
    return [
        Step(contact_row(tech, "pdiff", w=4.0, net="a", name="a"), W),
        Step(contact_row(tech, "pdiff", w=14.0, net="b", name="b"), S),
        Step(contact_row(tech, "pdiff", w=8.0, net="c", name="c"), W),
        Step(contact_row(tech, "poly", w=2.0, length=12.0, net="d", name="d"), S),
    ]


def amplifier_style_steps(tech):
    """Amplifier-flavoured blocks: a diff pair plus its supply rows."""
    return [
        Step(diff_pair(tech, 4.0, 1.0, name="pair"), W),
        Step(contact_row(tech, "pdiff", w=6.0, net="vss", name="tail"), S),
        Step(contact_row(tech, "metal1", w=8.0, net="out", name="rail"), S),
    ]


def rect_set(obj):
    return sorted((r.layer, r.net or "", r.x1, r.y1, r.x2, r.y2) for r in obj.rects)


def assert_agrees_with_reference(tech, steps, rating=None):
    """OrderOptimizer and the replay oracle agree; returns both results."""
    reference = ReplayOrderOptimizer(
        compactor=Compactor(), rating=rating
    ).optimize("m", tech, steps)
    result = OrderOptimizer(
        compactor=Compactor(), rating=rating
    ).optimize("m", tech, steps)
    assert result.best_order == reference.best_order
    assert result.best_score == reference.best_score
    assert rect_set(result.best) == rect_set(reference.best)
    assert result.scores[result.best_order] == result.best_score
    for order, score in result.scores.items():
        assert reference.scores[order] == score, order
    return result, reference


# ----------------------------------------------------------------------
# equivalence with the replay-based exhaustive sweep
# ----------------------------------------------------------------------
def test_tree_matches_exhaustive_on_rect_module(tech):
    assert_agrees_with_reference(tech, heterogeneous_steps(tech))


def test_tree_matches_exhaustive_on_contact_rows(tech):
    assert_agrees_with_reference(tech, contact_row_steps(tech))


def test_tree_matches_exhaustive_on_amplifier_style_steps(tech):
    assert_agrees_with_reference(tech, amplifier_style_steps(tech))


def test_tree_matches_exhaustive_with_electrical_rating(tech):
    rating = Rating(area_weight=1.0, capacitance_weights={"n0": 0.002},
                    coupling_weight=0.5)
    assert_agrees_with_reference(tech, heterogeneous_steps(tech), rating=rating)


def test_unpruned_tree_scores_identical_to_exhaustive(tech):
    # An unbounded rating disables pruning: the tree then visits every
    # permutation and its scores map must match the replay sweep's, key for
    # key and value for value.
    steps = heterogeneous_steps(tech)
    tree, exhaustive = assert_agrees_with_reference(
        tech, steps, rating=RATINGS["unbounded"]
    )
    assert tree.scores == exhaustive.scores
    assert tree.evaluated == math.factorial(len(steps))


def test_tie_breaking_is_lexicographic(tech):
    # Four identical squares: every order scores the same, so both engines
    # must return the lexicographically smallest order — the replay
    # semantics ("first strictly better wins" keeps the first-seen order).
    steps = rect_steps(tech, [(5000, 5000, W)] * 4)
    result, _ = assert_agrees_with_reference(tech, steps)
    assert result.best_order == (0, 1, 2, 3)


# ----------------------------------------------------------------------
# property: random rect step sets, three ratings
# ----------------------------------------------------------------------
step_shapes = st.lists(
    st.tuples(
        st.integers(10, 200).map(lambda v: v * 100),
        st.integers(10, 200).map(lambda v: v * 100),
        st.sampled_from(list(Direction)),
        st.sampled_from(["metal1", "metal2", "poly"]),
    ),
    min_size=1,
    max_size=5,
)


def random_steps(shapes):
    steps = []
    for i, (w, h, direction, layer) in enumerate(shapes):
        obj = LayoutObject(f"s{i}", TECH)
        obj.add_rect(Rect(0, 0, w, h, layer, f"n{i}"))
        steps.append(Step(obj, direction))
    return steps


@pytest.mark.parametrize("rating", sorted(RATINGS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shapes=step_shapes)
def test_exhaustive_matches_reference_property(rating, shapes):
    steps = random_steps(shapes)
    result, reference = assert_agrees_with_reference(
        TECH, steps, rating=RATINGS[rating]
    )
    assert result.evaluated + result.pruned == reference.evaluated
    if not RATINGS[rating].bounded():
        assert result.scores == reference.scores


# ----------------------------------------------------------------------
# transpositions: prefixes that compact to one partial layout
# ----------------------------------------------------------------------
def distinct_states(tech, steps):
    """Distinct state keys per depth over every prefix, by replay."""
    n = len(steps)
    return [
        len({
            state_key(prefix, replay("m", tech, steps, prefix))
            for prefix in itertools.permutations(range(n), depth)
        })
        for depth in range(n + 1)
    ]


def test_one_compact_per_child_of_each_distinct_state(tech):
    steps = heterogeneous_steps(tech)
    n = len(steps)
    compactor = Compactor()
    result = OrderOptimizer(
        compactor=compactor, rating=RATINGS["unbounded"]
    ).optimize("m", tech, steps)
    # Nothing is pruned, so every distinct state at depth d < n is searched
    # once and compacts its n - d children: 1*4 + 4*3 + 12*2 + 20*1 = 60
    # steps, against 64 distinct prefixes and n!*n = 96 replayed steps.
    # Unpruned children are visited in index order, so the first prefix to
    # reach a state is its lexicographically smallest, the best order is
    # never a replayed one and no best-layout rebuild is added.
    states = distinct_states(tech, steps)
    assert states == [1, 4, 12, 20, 14]
    predicted = sum(states[d] * (n - d) for d in range(n))
    assert predicted == 60
    assert compactor.calls == predicted
    assert result.compact_calls == predicted
    # Each compacted child either reaches a new state or is a transposition.
    assert result.transposed == predicted - sum(states[1:])
    assert result.evaluated == math.factorial(n)


def test_transposed_duplicate_can_hold_the_best_order(tech):
    # Committed regression input.  Prefixes (1, 0, 2) and (1, 2, 0) compact
    # to one state.  The best-bound-first walk searches (1, 2, 0) first, so
    # the lexicographically smaller (1, 0, 2) is the replayed duplicate —
    # yet its completion (1, 0, 2, 3) ties the best score and wins the
    # tie.  Skipping the duplicate as "it can only tie" returns (1, 2, 0, 3).
    shapes = [
        (2000, 8000, S, "n0", "poly"),
        (2000, 1000, W, "a", "metal1"),
        (2000, 1000, N, "a", "metal1"),
        (2000, 8000, S, "a", "poly"),
    ]
    steps = []
    for i, (w, h, direction, net, layer) in enumerate(shapes):
        obj = LayoutObject(f"s{i}", tech)
        obj.add_rect(Rect(0, 0, w, h, layer, net))
        steps.append(Step(obj, direction))
    assert state_key((1, 0, 2), replay("m", tech, steps, (1, 0, 2))) == state_key(
        (1, 2, 0), replay("m", tech, steps, (1, 2, 0))
    )
    result, reference = assert_agrees_with_reference(tech, steps)
    assert reference.best_order == (1, 0, 2, 3)
    assert reference.scores[(1, 2, 0, 3)] == reference.best_score
    assert result.transposed > 0
    assert result.evaluated + result.pruned == math.factorial(len(steps))


def test_state_keys_sound_on_contact_rows(tech):
    # Linked steps: the search does not merge them, but the key is sound.
    steps = contact_row_steps(tech)
    assert not transposable(steps, Rating())
    assert check_state_keys(tech, steps) > 0
    result, _ = assert_agrees_with_reference(tech, steps)
    assert result.transposed == 0


def test_state_keys_sound_on_rect_module(tech):
    # 14 of its 65 prefixes reach a partial layout an earlier one reached.
    assert check_state_keys(tech, heterogeneous_steps(tech)) == 14


def test_capacitance_on_a_shared_net_disables_transpositions(tech):
    steps = repeating_steps([((2000, 5000, "metal1"), W, True)] * 3)
    assert transposable(steps, Rating())
    assert transposable(steps, Rating(capacitance_weights={"n0": 1.0}))
    assert not transposable(steps, Rating(capacitance_weights={"shared": 1.0}))
    assert not transposable(
        steps, Rating(pair_mismatch_weights={("shared", "n0"): 1.0})
    )


#: Steps drawn from a pool of at most three footprints, each on its own
#: net or on one shared net, so different prefixes often compact to one
#: partial layout.
repeating_shapes = st.lists(
    st.tuples(
        st.integers(5, 40).map(lambda v: v * 200),
        st.integers(5, 40).map(lambda v: v * 200),
        st.sampled_from(["metal1", "poly"]),
    ),
    min_size=1,
    max_size=3,
).flatmap(
    lambda pool: st.lists(
        st.tuples(
            st.sampled_from(pool),
            st.sampled_from(list(Direction)),
            st.booleans(),
        ),
        min_size=2,
        max_size=5,
    )
)


def repeating_steps(shapes):
    steps = []
    for i, ((w, h, layer), direction, shared) in enumerate(shapes):
        obj = LayoutObject(f"s{i}", TECH)
        obj.add_rect(Rect(0, 0, w, h, layer, "shared" if shared else f"n{i}"))
        steps.append(Step(obj, direction))
    return steps


@pytest.mark.parametrize("rating", sorted(RATINGS))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shapes=repeating_shapes)
def test_transposed_search_matches_reference_property(rating, shapes):
    steps = repeating_steps(shapes)
    check_state_keys(TECH, steps, RATINGS[rating])
    result, reference = assert_agrees_with_reference(
        TECH, steps, rating=RATINGS[rating]
    )
    assert result.evaluated + result.pruned == reference.evaluated
    if not RATINGS[rating].bounded():
        assert result.scores == reference.scores


def test_pruned_search_accounting(tech):
    steps = heterogeneous_steps(tech)
    n = len(steps)
    result = OrderOptimizer(compactor=Compactor()).optimize("m", tech, steps)
    # Every permutation is either evaluated or pruned, never both.
    assert result.evaluated + result.pruned == math.factorial(n)
    assert result.exact
    assert result.pruned > 0  # this module does prune
    assert len(result.scores) == result.evaluated
    assert all(len(order) == n for order in result.scores)
    assert result.best_order in result.scores


def test_negative_weight_disables_pruning_not_correctness(tech):
    # A negative weight rewards larger layouts, so the area bound is no
    # longer a lower bound; the rating reports itself unbounded and the
    # search must silently degrade to the full sweep.
    rating = Rating(area_weight=-1.0)
    assert not rating.bounded()
    obj = LayoutObject("m", tech)
    assert rating.lower_bound(obj) == float("-inf")
    steps = heterogeneous_steps(tech)
    result, _ = assert_agrees_with_reference(tech, steps, rating=rating)
    assert result.pruned == 0
    assert result.evaluated == math.factorial(len(steps))


# ----------------------------------------------------------------------
# above the exhaustive limit: the annealer
# ----------------------------------------------------------------------
def test_anneal_prefix_cache_matches_replay_evaluation(tech):
    # The annealer rates orders through its prefix cache; every score it
    # records must equal the rating of a full replay of that order.
    steps = heterogeneous_steps(tech)
    rating = Rating()
    compactor = Compactor()
    result = OrderOptimizer(
        compactor=compactor, rating=rating, exhaustive_limit=1
    ).optimize("m", tech, steps)
    assert len(result.scores) > 1
    for order, score in result.scores.items():
        assert rating.evaluate(replay("m", tech, steps, order)) == score, order
    assert rect_set(result.best) == rect_set(
        replay("m", tech, steps, result.best_order)
    )
    assert result.compact_calls == compactor.calls > 0


@pytest.mark.parametrize("rating", sorted(RATINGS))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shapes=step_shapes)
def test_anneal_matches_replay_property(rating, shapes):
    # Above the limit every recorded score is a full replay's rating, the
    # best is the minimum of them, and an annealer that visited all n!
    # orders finds the replay oracle's optimum.
    steps = random_steps(shapes)
    rating = RATINGS[rating]
    compactor = Compactor()
    result = OrderOptimizer(
        compactor=compactor, rating=rating, exhaustive_limit=1
    ).optimize("m", TECH, steps)
    for order, score in result.scores.items():
        assert rating.evaluate(replay("m", TECH, steps, order)) == score, order
    assert result.best_score == min(result.scores.values())
    assert result.scores[result.best_order] == result.best_score
    assert rect_set(result.best) == rect_set(
        replay("m", TECH, steps, result.best_order)
    )
    assert result.compact_calls == compactor.calls
    assert result.exact == (len(result.scores) == math.factorial(len(steps)))
    if result.exact:
        reference = ReplayOrderOptimizer(rating=rating).optimize("m", TECH, steps)
        assert result.best_score == reference.best_score


#: The ten device footprints of the committed above-limit input set
#: (``benchmarks/bench_order_tree.py`` races all 12 inputs; this test
#: covers the three 7-step ones).
ABOVE_LIMIT_SHAPES = [
    (1500, 28000, W), (24000, 1500, S), (3000, 9000, W), (11000, 2000, S),
    (2500, 14000, W), (20000, 3000, S), (4000, 4000, W), (9000, 2500, S),
    (6000, 1800, S), (2000, 18000, W),
]

#: Best score of the beam search (width 4) that ran above the limit
#: before the annealer replaced it, per seed of the 7-step inputs.
BEAM_BEST_N7 = {0: 592.8, 1: 700.8, 2: 585.6}


def above_limit_steps(tech, count, seed):
    """The first *count* footprints of a seeded shuffle, as devices."""
    picks = list(range(len(ABOVE_LIMIT_SHAPES)))
    random.Random(seed).shuffle(picks)
    steps = []
    for i in picks[:count]:
        w, h, direction = ABOVE_LIMIT_SHAPES[i]
        obj = LayoutObject(f"dev{i}", tech)
        obj.add_rect(Rect(0, 0, w, h, "ndiff", None))
        obj.add_rect(Rect(w // 3, -600, w // 3 + 600, h + 600, "poly", f"n{i}_g"))
        obj.add_rect(Rect(0, h // 3, w, h // 3 + 800, "metal1", f"n{i}"))
        steps.append(Step(obj, direction))
    return steps


@pytest.mark.parametrize("seed", sorted(BEAM_BEST_N7))
def test_anneal_no_worse_than_beam_above_limit(seed):
    steps = above_limit_steps(TECH, 7, seed)
    compactor = Compactor()
    result = OrderOptimizer(compactor=compactor).optimize("m", TECH, steps)
    assert sorted(result.best_order) == list(range(7))
    assert result.best_score <= BEAM_BEST_N7[seed]
    assert result.scores[result.best_order] == result.best_score
    assert result.compact_calls == compactor.calls > 0
    assert not result.exact
