"""Backtracking over topology variants (Secs. 2.1 and 2.4).

"Due to design-rule constraints, the designer has to specify different
topology alternatives for parameterizable modules.  For this purpose
backtracking is supported ..." and "If different topology variants exist for
a module the rating function is also applied to select the best variant."

A variant is any zero-argument callable producing a :class:`LayoutObject`.
Builders signal an infeasible variant by raising :class:`~repro.tech.rules.
RuleError` (the interpreter raises it automatically when a design rule cannot
be fulfilled); the engine then backtracks to the next alternative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..db import LayoutObject
from ..tech import RuleError
from .rating import Rating

VariantBuilder = Callable[[], LayoutObject]


class BacktrackError(Exception):
    """Every topology variant failed its design rules."""


@dataclass
class VariantResult:
    """Outcome of a variant selection."""

    best: LayoutObject
    best_index: int
    best_score: float
    #: (index, score or None-if-failed, error message or None) per variant.
    trials: List[Tuple[int, Optional[float], Optional[str]]] = field(
        default_factory=list
    )


def select_variant(
    variants: Sequence[VariantBuilder],
    rating: Optional[Rating] = None,
) -> VariantResult:
    """Build every variant and let the rating function pick the winner.

    Variants whose rules fail are skipped (Sec. 2.4 variant selection).  The
    PLDL ``ALT`` statement's first-feasible backtracking lives in the
    interpreter (``Runtime.alt``), not here.
    """
    if not variants:
        raise ValueError("no variants supplied")
    rating = rating if rating is not None else Rating()

    trials: List[Tuple[int, Optional[float], Optional[str]]] = []
    best: Optional[LayoutObject] = None
    best_index = -1
    best_score = float("inf")

    for index, builder in enumerate(variants):
        try:
            candidate = builder()
        except RuleError as error:
            trials.append((index, None, str(error)))
            continue
        score = rating.evaluate(candidate)
        trials.append((index, score, None))
        if score < best_score:
            best, best_index, best_score = candidate, index, score

    if best is None:
        messages = "; ".join(f"variant {i}: {msg}" for i, _, msg in trials)
        raise BacktrackError(f"all topology variants failed: {messages}")
    return VariantResult(best, best_index, best_score, trials)
