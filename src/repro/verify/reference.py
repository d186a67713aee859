"""Reference implementations kept as test oracles.

Each engine here is the plain, slow version of a fast path in production.
The equivalence suites and the benchmarks race the two; nothing under
``repro.opt``, ``repro.core`` or ``repro.cli`` imports this module.

* :class:`ReplayOrderOptimizer` — the Sec. 2.4 order search as the paper
  describes it: every permutation is recompacted from an empty layout
  (O(n!·n) compaction steps), and beyond ``exhaustive_limit`` a beam search
  copies each partial layout once per expansion.
  :class:`repro.opt.OrderOptimizer` must return the same ``best_order``,
  ``best_score`` and geometry, and every score it records must equal the
  score recorded here.
* :func:`solve_links_fixpoint` — the Sec. 2.3 link rebuild as a fixpoint:
  every link of the object is rebuilt, in index order, pass after pass.
  :class:`repro.db.LayoutObject`'s seeded solver, which rebuilds only the
  links an edge move reaches, must leave every rect where this leaves it.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..compact import Compactor
from ..db import ArrayLink, LayoutObject
from ..obs import get_tracer
from ..opt import OrderResult, Rating, Step
from ..tech import Technology

__all__ = ["ReplayOrderOptimizer", "replay", "solve_links_fixpoint"]


def solve_links_fixpoint(obj: LayoutObject) -> Set[int]:
    """Rebuild every link of *obj* until a pass changes nothing.

    At most ``len(obj.links) + 2`` passes; array cuts a rebuild creates
    join ``obj.rects``.  Returns the ids of the rects whose tuple differs
    across some pass.
    """
    changed: Set[int] = set()
    for _ in range(len(obj.links) + 2):
        before = {}
        for link in obj.links:
            for rect in link.involved_rects():
                before[id(rect)] = rect.as_tuple()
        for link in obj.links:
            cuts = len(link.rects) if isinstance(link, ArrayLink) else 0
            link.rebuild()
            if isinstance(link, ArrayLink):
                obj.rects.extend(link.rects[cuts:])
        stable = True
        for link in obj.links:
            for rect in link.involved_rects():
                rid = id(rect)
                if before.get(rid) != rect.as_tuple():
                    stable = False
                    changed.add(rid)
        if stable:
            break
    return changed


def replay(
    name: str,
    tech: Technology,
    steps: Sequence[Step],
    order: Iterable[int],
    compactor: Optional[Compactor] = None,
) -> LayoutObject:
    """Compact fresh copies of *steps* in *order* into an empty object."""
    compactor = compactor if compactor is not None else Compactor()
    main = LayoutObject(name, tech)
    for index in order:
        step = steps[index].fresh()
        compactor.compact(main, step.obj, step.direction, step.ignore)
    return main


class ReplayOrderOptimizer:
    """Order search by full replay; same constructor as ``OrderOptimizer``.

    Up to ``exhaustive_limit`` steps every permutation is replayed in
    lexicographic order and the first strictly better score wins, so ties
    go to the lexicographically smallest order; ``scores`` holds all n!
    orders.  Above it, beam search keeps the ``beam_width`` best partial
    layouts by ``(score, order)`` per round and records the complete orders
    of the final round.
    """

    def __init__(
        self,
        compactor: Optional[Compactor] = None,
        rating: Optional[Rating] = None,
        exhaustive_limit: int = 6,
        beam_width: int = 4,
    ) -> None:
        self.compactor = compactor if compactor is not None else Compactor()
        self.rating = rating if rating is not None else Rating()
        self.exhaustive_limit = exhaustive_limit
        self.beam_width = beam_width

    def optimize(
        self, name: str, tech: Technology, steps: Sequence[Step]
    ) -> OrderResult:
        steps = list(steps)
        if not steps:
            raise ValueError("no compaction steps to optimize")
        if len(steps) <= self.exhaustive_limit:
            return self._exhaustive(name, tech, steps)
        return self._beam(name, tech, steps)

    def _rate(self, layout: LayoutObject) -> float:
        tracer = get_tracer()
        with tracer.span("opt.rate"):
            score = self.rating.evaluate(layout)
        tracer.count("opt.trials")
        return score

    def _exhaustive(
        self, name: str, tech: Technology, steps: List[Step]
    ) -> OrderResult:
        best: Optional[LayoutObject] = None
        best_order: Tuple[int, ...] = ()
        best_score = float("inf")
        scores: Dict[Tuple[int, ...], float] = {}
        for order in itertools.permutations(range(len(steps))):
            candidate = replay(name, tech, steps, order, self.compactor)
            score = scores[order] = self._rate(candidate)
            if score < best_score:
                best, best_order, best_score = candidate, order, score
        assert best is not None
        return OrderResult(best, best_order, best_score, len(scores), scores)

    def _beam(self, name: str, tech: Technology, steps: List[Step]) -> OrderResult:
        # Partial states: (score-so-far, order, object).
        beam: List[Tuple[float, Tuple[int, ...], LayoutObject]] = [
            (0.0, (), LayoutObject(name, tech))
        ]
        evaluated = 0
        terminal_scores: Dict[Tuple[int, ...], float] = {}
        for _ in range(len(steps)):
            expanded: List[Tuple[float, Tuple[int, ...], LayoutObject]] = []
            for _, order, partial in beam:
                for index in range(len(steps)):
                    if index in order:
                        continue
                    candidate = partial.copy()
                    step = steps[index].fresh()
                    self.compactor.compact(
                        candidate, step.obj, step.direction, step.ignore
                    )
                    score = self._rate(candidate)
                    evaluated += 1
                    new_order = order + (index,)
                    expanded.append((score, new_order, candidate))
                    if len(new_order) == len(steps):
                        terminal_scores[new_order] = score
            expanded.sort(key=lambda item: (item[0], item[1]))
            beam = expanded[: self.beam_width]
        best_score, best_order, best = beam[0]
        return OrderResult(best, best_order, best_score, evaluated, terminal_scores)
