"""Simulated-annealing order search: ``OrderOptimizer`` above its limit."""

import pytest

from repro.db import LayoutObject
from repro.geometry import Direction, Rect
from repro.obs import Sink, StatsSink, Tracer, activate
from repro.obs.provenance import ProvenanceRecorder, set_recorder
from repro.opt import OrderOptimizer, Rating, Step
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


def anneal(tech, steps):
    """The order search with every step count above the exhaustive limit."""
    return OrderOptimizer(exhaustive_limit=1).optimize("m", tech, steps)


def test_requires_steps(tech):
    with pytest.raises(ValueError):
        anneal(tech, [])


def test_single_step_trivial(tech):
    steps = make_steps(tech, 1)
    result = anneal(tech, steps)
    assert result.best_order == (0,)


def test_deterministic_with_seed(tech):
    # The seed is a module constant: two runs visit the same orders.
    steps = make_steps(tech, 5)
    a = anneal(tech, steps)
    b = anneal(tech, steps)
    assert a.best_order == b.best_order
    assert a.best_score == b.best_score
    assert a.scores == b.scores
    assert a.compact_calls == b.compact_calls


def test_matches_exhaustive_on_small_instance(tech):
    steps = make_steps(tech, 4)
    exhaustive = ReplayOrderOptimizer().optimize("m", tech, steps)
    annealed = anneal(tech, steps)
    # Annealing finds the global optimum on this tiny instance.
    assert annealed.best_score == pytest.approx(exhaustive.best_score, rel=0.02)


def test_improves_on_identity_order(tech):
    steps = make_steps(tech, 6)
    identity_score = Rating().evaluate(
        replay("m", tech, steps, range(len(steps)))
    )
    result = anneal(tech, steps)
    assert result.best_score <= identity_score


def test_evaluation_cache_counts(tech):
    steps = make_steps(tech, 5)
    result = anneal(tech, steps)
    # Revisited orders come from the cache, so evaluations stay bounded by
    # the number of distinct orders tried.
    assert result.evaluated == len(result.scores)
    assert result.best_score == min(result.scores.values())
    assert result.compact_calls > 0


def test_exact_only_when_every_order_was_covered(tech):
    steps = make_steps(tech, 5)
    assert OrderOptimizer().optimize("m", tech, steps).exact
    annealed = anneal(tech, steps)
    assert annealed.exact == (len(annealed.scores) == 120)
    # Two steps: the annealer visits both orders, so its answer is exact.
    assert anneal(tech, make_steps(tech, 2)).exact


class SearchSpans(Sink):
    """Collects the attributes of every ``opt.search`` span."""

    def __init__(self):
        self.attrs = []

    def on_span(self, record):
        if record.name == "opt.search":
            self.attrs.append(dict(record.attrs))


def test_search_span_and_trials_name_the_engine(tech):
    tracer = Tracer(enabled=True)
    stats, searches = StatsSink(), SearchSpans()
    tracer.add_sink(stats)
    tracer.add_sink(searches)
    recorder = ProvenanceRecorder(enabled=True)
    previous = set_recorder(recorder)
    try:
        with activate(tracer):
            result = anneal(tech, make_steps(tech, 3))
    finally:
        set_recorder(previous)
    assert searches.attrs == [{"engine": "anneal", "steps": 3}]
    assert stats.counter("opt.trials") == result.evaluated
    assert stats.counter("opt.tree.compacts") == result.compact_calls
    assert {trial["engine"] for trial in recorder.trials} == {"anneal"}
    assert len(recorder.trials) == len(result.scores)
