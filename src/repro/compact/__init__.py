"""Successive compaction (Sec. 2.3)."""

from .compactor import MAX_SHRINK_ROUNDS, CompactionResult, Compactor
from .index import bridge_blocked, frontier_groups
from .separation import (
    PairConstraint,
    bridge_profile,
    gather_constraints_grouped,
    layer_frontier,
    overlap_forbidden,
    pair_travel,
    required_spacing,
)

__all__ = [
    "MAX_SHRINK_ROUNDS",
    "CompactionResult",
    "Compactor",
    "PairConstraint",
    "bridge_blocked",
    "bridge_profile",
    "frontier_groups",
    "gather_constraints_grouped",
    "layer_frontier",
    "overlap_forbidden",
    "pair_travel",
    "required_spacing",
]
