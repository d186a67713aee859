"""Simulated-annealing order search."""

import pytest

from repro.db import LayoutObject
from repro.geometry import Direction, Rect
from repro.opt import AnnealSchedule, AnnealingOrderOptimizer, Rating, Step
from repro.verify.reference import ReplayOrderOptimizer, replay


def make_steps(tech, count):
    steps = []
    for index in range(count):
        obj = LayoutObject(f"s{index}", tech)
        size = 2000 + 700 * index
        direction = Direction.WEST if index % 2 == 0 else Direction.SOUTH
        obj.add_rect(Rect(0, 0, size, 2500, "metal1", f"n{index}"))
        steps.append(Step(obj, direction))
    return steps


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(cooling=1.5)
    with pytest.raises(ValueError):
        AnnealSchedule(moves_per_temperature=0)


def test_requires_steps(tech):
    with pytest.raises(ValueError):
        AnnealingOrderOptimizer().optimize("m", tech, [])


def test_single_step_trivial(tech):
    steps = make_steps(tech, 1)
    result = AnnealingOrderOptimizer().optimize("m", tech, steps)
    assert result.best_order == (0,)


def test_deterministic_with_seed(tech):
    steps = make_steps(tech, 5)
    a = AnnealingOrderOptimizer(seed=7).optimize("m", tech, steps)
    b = AnnealingOrderOptimizer(seed=7).optimize("m", tech, steps)
    assert a.best_order == b.best_order
    assert a.best_score == b.best_score


def test_matches_exhaustive_on_small_instance(tech):
    steps = make_steps(tech, 4)
    exhaustive = ReplayOrderOptimizer().optimize("m", tech, steps)
    annealed = AnnealingOrderOptimizer().optimize("m", tech, steps)
    # Annealing finds the global optimum on this tiny instance.
    assert annealed.best_score == pytest.approx(exhaustive.best_score, rel=0.02)


def test_improves_on_identity_order(tech):
    steps = make_steps(tech, 6)
    identity_score = Rating().evaluate(
        replay("m", tech, steps, range(len(steps)))
    )
    result = AnnealingOrderOptimizer().optimize("m", tech, steps)
    assert result.best_score <= identity_score


def test_evaluation_cache_counts(tech):
    steps = make_steps(tech, 5)
    result = AnnealingOrderOptimizer().optimize("m", tech, steps)
    # Revisited orders come from the cache, so evaluations stay bounded by
    # the number of distinct orders tried.
    assert result.evaluated == len(result.scores)
    assert result.best_score == min(result.scores.values())
