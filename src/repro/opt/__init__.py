"""Optimization: rating, compaction-order search, variant backtracking."""

from .anneal import AnnealingOrderOptimizer, AnnealSchedule
from .backtrack import (
    BacktrackError,
    VariantResult,
    select_order_variants,
    select_variant,
)
from .order import OrderOptimizer, OrderResult, Step
from .prefix_tree import PrefixTree
from .rating import Rating

__all__ = [
    "AnnealingOrderOptimizer",
    "AnnealSchedule",
    "BacktrackError",
    "VariantResult",
    "select_order_variants",
    "select_variant",
    "OrderOptimizer",
    "OrderResult",
    "PrefixTree",
    "Step",
    "Rating",
]
