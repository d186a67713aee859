"""Compaction-order optimization (Sec. 2.4).

Tests that count every permutation run against the replay oracle
(:mod:`repro.verify.reference`); :class:`OrderOptimizer` prunes, so it
evaluates fewer orders but returns the same optimum.
"""

import pytest

from repro.db import LayoutObject
from repro.geometry import Direction, Rect
from repro.library import contact_row
from repro.opt import OrderOptimizer, Rating, Step
from repro.verify.reference import ReplayOrderOptimizer


def make_steps(tech, sizes, direction=Direction.WEST):
    steps = []
    for index, (w, h) in enumerate(sizes):
        obj = LayoutObject(f"s{index}", tech)
        obj.add_rect(Rect(0, 0, w, h, "metal1", f"n{index}"))
        steps.append(Step(obj, direction))
    return steps


def test_requires_steps(tech):
    optimizer = OrderOptimizer()
    with pytest.raises(ValueError):
        optimizer.optimize("m", tech, [])


def test_parameter_validation():
    with pytest.raises(ValueError):
        OrderOptimizer(exhaustive_limit=0)


def test_exhaustive_covers_all_permutations(tech):
    steps = make_steps(tech, [(2000, 2000), (3000, 3000), (4000, 4000)])
    result = ReplayOrderOptimizer().optimize("m", tech, steps)
    assert result.evaluated == 6
    assert len(result.scores) == 6
    assert result.best_score == min(result.scores.values())
    assert result.scores[result.best_order] == result.best_score


def test_order_changes_the_result(tech):
    """The paper's premise: the result depends on the compaction order."""
    steps = []
    tall = LayoutObject("tall", tech)
    tall.add_rect(Rect(0, 0, 2000, 20000, "metal1", "a"))
    wide = LayoutObject("wide", tech)
    wide.add_rect(Rect(0, -30000, 20000, -28000, "metal1", "b"))
    small = LayoutObject("small", tech)
    small.add_rect(Rect(0, 0, 2000, 2000, "metal1", "c"))
    steps = [
        Step(tall, Direction.WEST),
        Step(wide, Direction.SOUTH),
        Step(small, Direction.WEST),
    ]
    result = ReplayOrderOptimizer().optimize("m", tech, steps)
    scores = set(result.scores.values())
    assert len(scores) > 1  # at least two orders differ
    assert result.best_score == min(scores)


def test_trials_do_not_share_state(tech):
    """Each permutation compacts fresh copies — objects must be unmodified."""
    steps = make_steps(tech, [(2000, 2000), (3000, 3000)])
    before = [step.obj.bbox().as_tuple() for step in steps]
    OrderOptimizer().optimize("m", tech, steps)
    after = [step.obj.bbox().as_tuple() for step in steps]
    assert before == after


def test_run_order_reproduces_best(tech):
    steps = make_steps(tech, [(2000, 2000), (3000, 3000), (4000, 4000)])
    optimizer = OrderOptimizer()
    result = optimizer.optimize("m", tech, steps)
    rebuilt = optimizer.run_order("m", tech, steps, result.best_order)
    assert Rating().evaluate(rebuilt) == pytest.approx(result.best_score)


def test_realistic_module_order_sweep(tech, compactor):
    """Order sweep over contact rows finds the dense arrangement."""
    steps = [
        Step(contact_row(tech, "pdiff", w=4.0, net="a", name="a"), Direction.WEST),
        Step(contact_row(tech, "pdiff", w=12.0, net="b", name="b"), Direction.WEST),
        Step(contact_row(tech, "pdiff", w=8.0, net="c", name="c"), Direction.SOUTH),
    ]
    result = OrderOptimizer().optimize("m", tech, steps)
    assert result.best_score <= max(result.scores.values())
    assert result.best.bbox() is not None


def test_electrical_constraints_change_best_order(tech):
    """Sec. 2.4: 'The optimization routine can also handle electrical
    constraints' — a coupling-weighted rating picks a different order."""
    from repro.geometry import Rect
    from repro.opt import Rating

    def build_steps():
        victim = LayoutObject("victim", tech)
        victim.add_rect(Rect(0, 0, 2000, 20000, "metal2", "sensitive"))
        aggressor = LayoutObject("agg", tech)
        aggressor.add_rect(Rect(0, 0, 20000, 20000, "metal1", "noisy"))
        spacer = LayoutObject("spacer", tech)
        spacer.add_rect(Rect(0, 0, 4000, 20000, "metal1", "quiet"))
        return [
            Step(victim, Direction.WEST),
            Step(aggressor, Direction.WEST),
            Step(spacer, Direction.WEST),
        ]

    area_only = OrderOptimizer(rating=Rating(area_weight=1.0))
    by_area = area_only.optimize("m", tech, build_steps())
    electrical = OrderOptimizer(
        rating=Rating(area_weight=1.0, coupling_weight=50.0)
    )
    by_coupling = electrical.optimize("m", tech, build_steps())

    # The area-optimal order stacks victim and aggressor (no metal1/metal2
    # rule lets them overlap); the electrical rating refuses that overlap.
    assert Rating.coupling_area(by_area.best) > 0
    assert Rating.coupling_area(by_coupling.best) == 0
    assert by_coupling.best_order != by_area.best_order
