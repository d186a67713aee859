"""Shared-prefix search tree over compaction orders.

The exhaustive order search of Sec. 2.4 replays every permutation from an
empty layout, doing O(n!·n) compaction steps even though permutations share
long common prefixes.  A :class:`PrefixTree` memoizes the compacted partial
layout of each order prefix (cheap :meth:`~repro.db.LayoutObject.snapshot`
copies), so extending a prefix by one step costs exactly one
:meth:`~repro.compact.Compactor.compact` call — one step per *distinct*
prefix instead of one per (permutation × step).  Badaoui & Vemuri's
multi-placement structures use the same idea for enumerative analog
placement.

Its one client is :class:`~repro.opt.order.OrderOptimizer`.  Up to its
exhaustive limit it walks the tree depth-first with branch and bound,
evicting finished subtrees so memory stays O(n); above it, the annealer
keeps shallow prefixes cached across moves (:meth:`PrefixTree.prune_depth`).

Many *different* prefixes compact to the *same* partial layout (placing
two devices in either order often lands both in the same spot).
:func:`state_key` names a partial layout by what it contains — the set of
placed steps and the multiset of its rects — so the exhaustive search
can recognise such transpositions; :func:`transposable` says whether an
input's states may be merged at all.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from ..compact import Compactor
from ..db import LayoutObject
from ..obs import get_tracer
from ..tech import Technology
from .rating import Rating

Prefix = Tuple[int, ...]
#: What :func:`state_key` returns: placed step indices plus a rect multiset.
StateKey = Tuple[FrozenSet[int], FrozenSet[Tuple[Hashable, int]]]


def state_key(placed: Iterable[int], layout: LayoutObject) -> StateKey:
    """Key of a partial layout: its placed steps and its rect multiset.

    Two prefixes with equal keys have placed the same steps and hold the
    same rects — ``(layer, net, x1, y1, x2, y2, no_overlap, edge state)``
    counted with multiplicity, in any list order — so every completion
    compacts them alike.  The multiset is a frozen ``Counter``: nets may
    be ``None`` and edge bounds ``None``, which a sort could not compare.
    Only call this for inputs :func:`transposable` admits.
    """
    # Hot path (once per searched node): one tuple per rect, and the edge
    # summary only for the rects that have edge records at all.
    rows = Counter([
        (r.layer, r.net, r.x1, r.y1, r.x2, r.y2, r.no_overlap,
         r.edge_state() if r._edges else ())
        for r in layout.rects
    ])
    return frozenset(placed), frozenset(rows.items())


def transposable(steps: Sequence["Step"], rating: Rating) -> bool:  # noqa: F821
    """Whether partial layouts of *steps* may be merged by :func:`state_key`.

    False when any step object carries links: the key does not cover link
    state.  False too when *rating* weights the capacitance of a net drawn
    by more than one step: that term is a float sum in rect-list order, so
    two layouts with one rect multiset could score an ulp apart.
    """
    if any(step.obj.links for step in steps):
        return False
    weighted = set(rating.capacitance_weights)
    for pair in rating.pair_mismatch_weights:
        weighted.update(pair)
    drawn = Counter(
        net for step in steps for net in {r.net for r in step.obj.rects}
        if net in weighted
    )
    return all(count == 1 for count in drawn.values())


class PrefixTree:
    """Caches compacted partial layouts keyed by order prefix.

    *steps* is the shared step pool; a prefix is a tuple of indices into it.
    :attr:`compact_calls` counts the compaction steps actually performed —
    by construction at most one per distinct non-empty prefix ever queried
    (after eviction a prefix may be queried, and compacted, again).  The
    cache is keyed by prefix, not by layout: merging prefixes that reach
    one layout (:func:`state_key`) is the searches' business, so the
    exhaustive search never queries the subtree of a transposed prefix.
    """

    def __init__(
        self,
        name: str,
        tech: Technology,
        steps: Sequence["Step"],  # noqa: F821 - import cycle with .order
        compactor: Optional[Compactor] = None,
    ) -> None:
        self.name = name
        self.tech = tech
        self.steps = list(steps)
        self.compactor = compactor if compactor is not None else Compactor()
        self.compact_calls = 0
        self._cache: Dict[Prefix, LayoutObject] = {}

    # ------------------------------------------------------------------
    def layout(self, prefix: Sequence[int]) -> LayoutObject:
        """The compacted partial layout of *prefix* (cached).

        Returns the tree's internal state object — callers must NOT mutate
        it; take a :meth:`~repro.db.LayoutObject.snapshot` for an
        independent copy.  Missing ancestors are computed on demand, one
        compaction step each.
        """
        prefix = tuple(prefix)
        cached = self._cache.get(prefix)
        tracer = get_tracer()
        if cached is not None:
            tracer.count("opt.tree.cache_hits")
            return cached
        if not prefix:
            state = LayoutObject(self.name, self.tech)
        else:
            index = prefix[-1]
            if not 0 <= index < len(self.steps):
                raise IndexError(f"step index {index} out of range")
            parent = self.layout(prefix[:-1])
            with tracer.span("opt.tree.snapshot", depth=len(prefix)):
                state = parent.snapshot()
            tracer.count("opt.tree.snapshots")
            step = self.steps[index].fresh()
            self.compactor.compact(state, step.obj, step.direction, step.ignore)
            self.compact_calls += 1
            tracer.count("opt.tree.compacts")
        self._cache[prefix] = state
        return state

    def advance(self, prefix: Sequence[int], index: int) -> LayoutObject:
        """``layout(prefix + (index,))``, donating the parent state.

        The parent's cache entry is consumed and compacted into *in place* —
        one compaction step and **no snapshot**.  Only valid when the caller
        is done querying the parent prefix (the depth-first optimizer uses it
        for the last child expanded from each node, which saves the deepest —
        most expensive — snapshots).  Falls back to :meth:`layout` when the
        parent is not resident.
        """
        prefix = tuple(prefix)
        child = prefix + (index,)
        cached = self._cache.get(child)
        if cached is not None:
            get_tracer().count("opt.tree.cache_hits")
            return cached
        parent = self._cache.pop(prefix, None)
        if parent is None:
            return self.layout(child)
        if not 0 <= index < len(self.steps):
            self._cache[prefix] = parent  # restore before failing
            raise IndexError(f"step index {index} out of range")
        step = self.steps[index].fresh()
        self.compactor.compact(parent, step.obj, step.direction, step.ignore)
        self.compact_calls += 1
        get_tracer().count("opt.tree.compacts")
        self._cache[child] = parent
        return parent

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def evict(self, prefix: Sequence[int]) -> int:
        """Drop *prefix* and every cached extension; returns entries dropped.

        The depth-first optimizer calls this when a subtree is exhausted, so
        only the current search path (plus the root) stays resident.
        """
        prefix = tuple(prefix)
        depth = len(prefix)
        doomed = [
            key
            for key in self._cache
            if len(key) >= depth and key[:depth] == prefix
        ]
        for key in doomed:
            del self._cache[key]
        get_tracer().count("opt.tree.evictions", len(doomed))
        return len(doomed)

    def prune_depth(self, max_depth: int) -> int:
        """Drop every cached prefix longer than *max_depth* entries.

        Bounds the annealer's memory while its shallow prefixes stay
        shared across many evaluations.
        """
        doomed = [key for key in self._cache if len(key) > max_depth]
        for key in doomed:
            del self._cache[key]
        return len(doomed)

    def cached_prefixes(self) -> int:
        """Number of partial layouts currently resident."""
        return len(self._cache)

    def __repr__(self) -> str:
        return (
            f"PrefixTree(steps={len(self.steps)}, cached={len(self._cache)},"
            f" compact_calls={self.compact_calls})"
        )
