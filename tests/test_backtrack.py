"""Backtracking over topology variants (Secs. 2.1, 2.4)."""

import pytest

from repro.db import LayoutObject
from repro.geometry import Rect
from repro.opt import BacktrackError, Rating, select_variant
from repro.tech import RuleError


def make_builder(tech, width, height, fail=False):
    def build():
        if fail:
            raise RuleError("design rule cannot be fulfilled")
        obj = LayoutObject("v", tech)
        obj.add_rect(Rect(0, 0, width, height, "metal1"))
        return obj

    return build


def test_requires_variants():
    with pytest.raises(ValueError):
        select_variant([])


def test_best_variant_wins_by_rating(tech):
    result = select_variant(
        [
            make_builder(tech, 10000, 10000),
            make_builder(tech, 5000, 5000),
            make_builder(tech, 8000, 8000),
        ]
    )
    assert result.best_index == 1
    assert result.best.width == 5000
    assert len(result.trials) == 3
    assert all(error is None for _, _, error in result.trials)


def test_failed_variants_are_skipped(tech):
    result = select_variant(
        [
            make_builder(tech, 10000, 10000, fail=True),
            make_builder(tech, 7000, 7000),
        ]
    )
    assert result.best_index == 1
    index, score, error = result.trials[0]
    assert index == 0 and score is None and "fulfilled" in error


def test_all_variants_failing_raises(tech):
    with pytest.raises(BacktrackError):
        select_variant(
            [make_builder(tech, 1, 1, fail=True), make_builder(tech, 1, 1, fail=True)]
        )


def test_custom_rating_drives_selection(tech):
    # Prefer the variant with less capacitance on a marked net even though
    # its area is larger.
    def small_noisy():
        obj = LayoutObject("v", tech)
        obj.add_rect(Rect(0, 0, 5000, 5000, "metal1", "sensitive"))
        return obj

    def big_quiet():
        obj = LayoutObject("v", tech)
        obj.add_rect(Rect(0, 0, 8000, 8000, "poly"))
        return obj

    rating = Rating(area_weight=0.001, capacitance_weights={"sensitive": 10.0})
    result = select_variant([small_noisy, big_quiet], rating=rating)
    assert result.best_index == 1
