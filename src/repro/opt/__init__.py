"""Optimization: rating, compaction-order search, variant backtracking."""

from .backtrack import BacktrackError, VariantResult, select_variant
from .order import OrderOptimizer, OrderResult, Step
from .rating import Rating

__all__ = [
    "BacktrackError",
    "VariantResult",
    "select_variant",
    "OrderOptimizer",
    "OrderResult",
    "Step",
    "Rating",
]
