"""Pairwise separation constraints for successive compaction.

Given one rectangle of the moving object and one of the main structure plus
the compaction direction, decide whether the pair constrains the motion and,
if so, how far the object may travel.  Encodes the paper's special cases:

* layers listed as "not relevant during this compaction step" are skipped;
* "edges on the same potential are not considered during compaction, because
  they can be merged" — same-net pairs on connectable layers are skipped;
* the per-rectangle *no_overlap* property forbids overlap even between layer
  pairs that carry no spacing rule (parasitic-capacitance protection).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..geometry import Direction, Rect
from ..obs import get_tracer
from ..tech import Technology

#: Sentinel for "this pair never constrains the motion".
UNCONSTRAINED = None


@dataclass(slots=True)
class PairConstraint:
    """One active separation constraint between a moving and a fixed rect.

    ``moving`` and ``fixed`` are seqs: positions in the moving object's and
    the main object's rect lists.  ``max_travel`` is the largest signed
    travel (along the compaction direction, positive = with the direction)
    the moving rect may make before the required ``spacing`` to the fixed
    rect is violated.
    """

    moving: int
    fixed: int
    spacing: int
    max_travel: int


def required_spacing(
    tech: Technology,
    moving: Rect,
    fixed: Rect,
    ignore_layers: FrozenSet[str],
) -> Optional[int]:
    """Spacing the pair must keep, or ``None`` when unconstrained.

    A result of 0 means "may touch but not overlap" (the no_overlap case);
    any rule-driven spacing comes back verbatim.
    """
    if moving.layer in ignore_layers or fixed.layer in ignore_layers:
        return UNCONSTRAINED
    if moving.is_empty or fixed.is_empty:
        return UNCONSTRAINED

    same_net = (
        moving.net is not None
        and moving.net == fixed.net
        and tech.connectable(moving.layer, fixed.layer)
    )
    if same_net:
        return UNCONSTRAINED

    rule = tech.min_space(moving.layer, fixed.layer)
    if rule is not None:
        return rule

    if (moving.no_overlap or fixed.no_overlap) and (
        tech.layer(moving.layer).conducting and tech.layer(fixed.layer).conducting
    ):
        return 0
    return UNCONSTRAINED


def overlap_forbidden(
    tech: Technology,
    a: Rect,
    b: Rect,
    ignore_layers: FrozenSet[str] = frozenset(),
) -> bool:
    """True when the pair may touch but must never overlap.

    The *no_overlap* special case of :func:`required_spacing`, exposed for
    post-hoc auditing (``repro.verify``): a parasitic-protection rectangle
    on a conducting layer forbids overlap with any other conducting rect
    unless an explicit SPACE rule governs the pair or the rects are
    same-net connectable.
    """
    if a.layer in ignore_layers or b.layer in ignore_layers:
        return False
    if a.is_empty or b.is_empty:
        return False
    if not (a.no_overlap or b.no_overlap):
        return False
    if not (tech.layer(a.layer).conducting and tech.layer(b.layer).conducting):
        return False
    if a.net is not None and a.net == b.net and tech.connectable(a.layer, b.layer):
        return False
    if tech.min_space(a.layer, b.layer) is not None:
        return False
    return True


def pair_travel(moving: Rect, fixed: Rect, direction: Direction, spacing: int) -> Optional[int]:
    """Max travel of *moving* along *direction* keeping *spacing* to *fixed*.

    Returns ``None`` when the pair does not constrain motion along this axis
    (their perpendicular spans, grown by the spacing, do not overlap).
    """
    perp = direction.axis.other
    margin = max(spacing, 0)
    if not moving.spans_overlap(fixed, perp, margin=margin):
        return None
    sign = 1 if direction.is_positive else -1
    lead = moving.edge_coord(direction)
    face = fixed.edge_coord(direction.opposite)
    return (face - lead) * sign - spacing


def gather_constraints_grouped(
    tech: Technology,
    moving_rects: Sequence[Rect],
    fixed_rects: Sequence[Rect],
    fixed_groups: Sequence[Tuple[str, Sequence[int]]],
    direction: Direction,
    ignore_layers: Iterable[str] = (),
) -> List[PairConstraint]:
    """All active pair constraints for one compaction step.

    Every non-empty rect of *moving_rects* is paired with the fixed rects
    *fixed_groups* names: ``[(layer, seqs), ...]``, seqs into
    *fixed_rects* — the shape :func:`repro.compact.index.frontier_groups`
    serves.  The result equals
    the all-pairs product of :func:`required_spacing` and
    :func:`pair_travel` over the concatenation of the groups, in order
    (the oracle :func:`repro.verify.reference.gather_constraints`).  The
    pairs per moving layer are that concatenation filtered by the
    technology's compiled rule table, i.e. whole groups kept or skipped in
    sequence.
    Layer pairs that can never constrain (no SPACE rule, not both
    conducting, so the *no_overlap* fallback cannot apply either) skip the
    inner loop entirely.  Group members must be non-empty.
    """
    ignore = frozenset(ignore_layers)
    constraints: List[PairConstraint] = []
    if not moving_rects or not fixed_groups:
        return constraints

    perp = direction.axis.other
    facing = direction.opposite
    sign = 1 if direction.is_positive else -1

    table = tech.table
    pairs_scanned = 0
    for mseq, moving in enumerate(moving_rects):
        mlayer = moving.layer
        if mlayer in ignore or moving.is_empty:
            continue
        net = moving.net
        no_overlap = moving.no_overlap
        lead = moving.edge_coord(direction)
        m1, m2 = moving.span(perp)
        for flayer, fseqs in fixed_groups:
            if flayer in ignore or not fseqs:
                continue
            rule, connect, conducting, _, _ = table[(mlayer, flayer)]
            if rule is None and not conducting:
                continue
            pairs_scanned += len(fseqs)
            for fseq in fseqs:
                fixed = fixed_rects[fseq]
                if net is not None and net == fixed.net and connect:
                    continue
                if rule is not None:
                    spacing = rule
                elif conducting and (no_overlap or fixed.no_overlap):
                    spacing = 0
                else:
                    continue
                margin = spacing if spacing > 0 else 0
                b1, b2 = fixed.span(perp)
                if not (m1 - margin < b2 and b1 - margin < m2):
                    continue
                travel = (fixed.edge_coord(facing) - lead) * sign - spacing
                constraints.append(PairConstraint(mseq, fseq, spacing, travel))
    get_tracer().count("compact.pairs_scanned", pairs_scanned)
    return constraints


class IntervalSet:
    """A union of 1-D closed intervals with containment queries."""

    def __init__(self) -> None:
        self._spans: List[List[int]] = []  # sorted, disjoint [lo, hi]

    def add(self, lo: int, hi: int) -> None:
        """Insert [lo, hi], merging overlapping/adjacent intervals."""
        if lo >= hi:
            return
        index = bisect.bisect_left(self._spans, [lo, hi])
        if index > 0 and self._spans[index - 1][1] >= lo:
            index -= 1
        new_lo, new_hi = lo, hi
        while index < len(self._spans) and self._spans[index][0] <= new_hi:
            new_lo = min(new_lo, self._spans[index][0])
            new_hi = max(new_hi, self._spans[index][1])
            del self._spans[index]
        self._spans.insert(index, [new_lo, new_hi])

    def contains(self, lo: int, hi: int) -> bool:
        """True when [lo, hi] lies inside one merged interval."""
        index = bisect.bisect_right(self._spans, [lo + 1]) - 1
        if index < 0:
            return False
        span = self._spans[index]
        return span[0] <= lo and hi <= span[1]


def layer_frontier(
    rects: Sequence[Rect],
    seqs: Sequence[int],
    direction: Direction,
    arrival_nets: FrozenSet[str],
) -> List[int]:
    """Frontier survivors among one layer's non-empty rects, nearest first.

    The paper's "only outer edges of the main object have to be kept in
    the data structure" speed-up, for one layer: the rects are
    ``rects[seq]`` for *seqs*, and the survivors come back as seqs.  A
    nearest-first sweep over interval unions drops every rect whose
    perpendicular span is covered by nearer rects, since it can never
    bind — with two soundness conditions:

    * a shadower whose net the arriving object carries might itself be
      skipped by the same-potential rule, so it may only shadow rects of
      its own net (``arrival_nets`` names the arriving object's nets);
    * a plain rect may not shadow a ``no_overlap`` rect — when no spacing
      rule exists, only the latter constrains the motion.

    Ties keep the input order (stable sort).
    """
    facing = direction.opposite
    sign = 1 if direction.is_positive else -1
    perp = direction.axis.other
    # Nearest first: the arriving object travels along `direction`, so the
    # nearest facing edge is the one farthest AGAINST it — smallest
    # sign-adjusted coordinate first.
    ordered = sorted(seqs, key=lambda seq: sign * rects[seq].edge_coord(facing))
    survivors: List[int] = []
    general = IntervalSet()  # shadowers safe against every arrival
    general_strict = IntervalSet()  # ... that also dominate no_overlap
    per_net: dict = {}
    for seq in ordered:
        rect = rects[seq]
        lo, hi = rect.span(perp)
        cover = general_strict if rect.no_overlap else general
        own = per_net.get(rect.net)
        shadowed = cover.contains(lo, hi) or (
            own is not None and own.contains(lo, hi)
        )
        if not shadowed:
            survivors.append(seq)
        # Register this rect as a shadower for rects behind it.
        if rect.net is None or rect.net not in arrival_nets:
            general.add(lo, hi)
            if rect.no_overlap:
                general_strict.add(lo, hi)
        else:
            per_net.setdefault(rect.net, IntervalSet()).add(lo, hi)
    return survivors
