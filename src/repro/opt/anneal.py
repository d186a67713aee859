"""Simulated-annealing compaction-order search.

The paper contrasts its exhaustive order enumeration with the simulated-
annealing placement style of KOAN/ANAGRAM [4].  For large step counts, where
enumeration explodes and the beam's greediness can mislead, annealing over
order permutations is the classic middle ground — included here as the
third search strategy and as an ablation subject.

The random source is injected (a seeded ``random.Random``) so results are
reproducible.  Trials are compacted through a shared :class:`PrefixTree`
whose prefixes up to :data:`CACHED_DEPTH` steps stay cached across moves:
a swap of positions (i, j) preserves the prefix before min(i, j), so those
compaction steps are reused instead of replayed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..compact import Compactor
from ..tech import Technology
from .order import OrderResult, Step
from .prefix_tree import PrefixTree
from .rating import Rating

#: Order prefixes up to this many steps stay cached between annealing moves.
CACHED_DEPTH = 2


@dataclass
class AnnealSchedule:
    """Cooling schedule for :class:`AnnealingOrderOptimizer`."""

    initial_temperature: float = 0.30  # relative to the initial score
    cooling: float = 0.90
    moves_per_temperature: int = 8
    minimum_temperature: float = 1e-3

    def __post_init__(self) -> None:
        if not 0 < self.cooling < 1:
            raise ValueError("cooling must be in (0, 1)")
        if self.moves_per_temperature < 1:
            raise ValueError("moves_per_temperature must be >= 1")


class AnnealingOrderOptimizer:
    """Anneal over compaction-order permutations (swap moves)."""

    def __init__(
        self,
        compactor: Optional[Compactor] = None,
        rating: Optional[Rating] = None,
        schedule: Optional[AnnealSchedule] = None,
        seed: int = 1996,
    ) -> None:
        self.compactor = compactor if compactor is not None else Compactor()
        self.rating = rating if rating is not None else Rating()
        self.schedule = schedule if schedule is not None else AnnealSchedule()
        self.seed = seed

    def optimize(
        self, name: str, tech: Technology, steps: Sequence[Step]
    ) -> OrderResult:
        """Anneal from the identity order; returns the best order found."""
        steps = list(steps)
        if not steps:
            raise ValueError("no compaction steps to optimize")
        rng = random.Random(self.seed)
        tree = PrefixTree(name, tech, steps, self.compactor)

        order = tuple(range(len(steps)))
        current = self._evaluate(tree, order)
        best_order, best_score = order, current
        evaluated = 1
        scores = {order: current}

        temperature = self.schedule.initial_temperature * max(current, 1e-9)
        floor = self.schedule.minimum_temperature * max(current, 1e-9)
        while temperature > floor and len(steps) > 1:
            for _ in range(self.schedule.moves_per_temperature):
                i, j = rng.sample(range(len(steps)), 2)
                candidate = list(order)
                candidate[i], candidate[j] = candidate[j], candidate[i]
                candidate_order = tuple(candidate)
                score = scores.get(candidate_order)
                if score is None:
                    score = self._evaluate(tree, candidate_order)
                    scores[candidate_order] = score
                    evaluated += 1
                delta = score - current
                if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                    order, current = candidate_order, score
                    if current < best_score:
                        best_order, best_score = order, current
            temperature *= self.schedule.cooling

        best = tree.layout(best_order)
        return OrderResult(best, best_order, best_score, evaluated, scores)

    def _evaluate(self, tree: PrefixTree, order: Tuple[int, ...]) -> float:
        """Rate *order*, keeping shallow prefixes shared across moves."""
        score = self.rating.evaluate(tree.layout(order))
        tree.prune_depth(CACHED_DEPTH)
        return score
