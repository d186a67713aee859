"""Electrical connectivity extraction and parasitic estimation.

Used for three things:

* verifying the compactor's same-potential auto-connection actually connected
  what it merged (Fig. 5a);
* the electrical term of the optimizer's rating function (Sec. 2.4);
* reporting "the quality (parasitic capacitances of the internal nodes)" of a
  finished module, as the paper does for the BiCMOS amplifier.

:func:`extract_connectivity` delegates to the indexed extractor
(:class:`repro.db.netindex.ConnectivityIndex` — per-layer sweeps feeding the
union-find); the original all-pairs implementation is the test oracle
:func:`repro.verify.reference.extract_connectivity_brute`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..geometry import Rect
from ..tech import Technology


class DisjointSet:
    """Union-find over integer indices with path compression and
    union-by-size (small tree under big, so chains stay logarithmic even
    on sorted merge orders)."""

    def __init__(self, size: int) -> None:
        self._parent = list(range(size))
        self._size = [1] * size

    def grow(self, count: int = 1) -> int:
        """Append *count* fresh singleton sets; returns the first new index."""
        start = len(self._parent)
        self._parent.extend(range(start, start + count))
        self._size.extend([1] * count)
        return start

    def find(self, index: int) -> int:
        """Representative of the set containing *index*."""
        root = index
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[index] != root:
            self._parent[index], index = root, self._parent[index]
        return root

    def union(self, a: int, b: int) -> None:
        """Merge the sets containing *a* and *b* (by size)."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]


def extract_connectivity(rects: Sequence[Rect], tech: Technology) -> List[List[Rect]]:
    """Group conducting rects into electrically connected components.

    Two rects connect when they touch/overlap on the same layer, or when a
    cut rect overlaps both plates of a layer pair the technology declares the
    cut to join (e.g. ``contact`` joins ``poly`` to ``metal1``).

    Diffusion is special: an unlabelled active region is a device body, not
    interconnect — the source and drain sides of a transistor both touch it
    yet are separated by the channel.  Unlabelled diffusion is therefore
    excluded, and labelled diffusion rects only connect to each other when
    they carry the same net.

    Thin wrapper over a one-shot :class:`~repro.db.netindex.
    ConnectivityIndex`; repeated per-net queries should build and share one
    index instead of calling this in a loop.
    """
    from .netindex import ConnectivityIndex

    return ConnectivityIndex(rects, tech).components()


def net_is_connected(rects: Sequence[Rect], tech: Technology, net: str) -> bool:
    """True when every rect labelled *net* sits in one connected component.

    Only the component containing the first labelled rect can possibly hold
    them all, so the scan stops as soon as that component is found.
    """
    labelled = [r for r in rects if r.net == net and not r.is_empty]
    if len(labelled) <= 1:
        return True
    components = extract_connectivity(rects, tech)
    first = id(labelled[0])
    for component in components:
        members = set(map(id, component))
        if first in members:
            return all(id(r) in members for r in labelled)
    # The first labelled rect joined no component (non-conducting layer):
    # the net cannot be electrically whole.
    return False


def estimate_net_capacitance(
    rects: Iterable[Rect], tech: Technology, net: str
) -> float:
    """Area + perimeter capacitance of all geometry on *net* (aF)."""
    total = 0.0
    for rect in rects:
        if rect.net != net or rect.is_empty:
            continue
        model = tech.capacitance(rect.layer)
        total += model.area * rect.area
        total += model.perimeter * 2 * (rect.width + rect.height)
    return total


def capacitance_report(
    rects: Sequence[Rect], tech: Technology
) -> Dict[str, float]:
    """Per-net capacitance summary (aF), sorted by net name.

    Single pass over the rects — per-net accumulation in rect order keeps
    the float sums identical to the per-net scans it replaced.
    """
    totals: Dict[str, float] = {}
    for rect in rects:
        if not rect.net or rect.is_empty:
            continue
        model = tech.capacitance(rect.layer)
        # Two separate additions, exactly as estimate_net_capacitance sums.
        total = totals.get(rect.net, 0.0)
        total += model.area * rect.area
        total += model.perimeter * 2 * (rect.width + rect.height)
        totals[rect.net] = total
    return {net: totals[net] for net in sorted(totals)}


def estimate_net_resistance(
    rects: Iterable[Rect], tech: Technology, net: str
) -> float:
    """Series resistance estimate of the wiring on *net* (Ω).

    Each rect contributes its sheet resistance times its aspect ratio along
    the long axis (squares of material).  A crude serial model — rects of a
    snaking wire add, branching is ignored — but exactly what the paper's
    partitioning needs to weigh "poly-wire resistance" against alternatives.
    """
    total = 0.0
    for rect in rects:
        if rect.net != net or rect.is_empty:
            continue
        rho = tech.sheet_rho(rect.layer)
        if rho <= 0:
            continue
        long_side = max(rect.width, rect.height)
        short_side = min(rect.width, rect.height)
        total += rho * long_side / short_side
    return total


def rc_report(
    rects: Sequence[Rect], tech: Technology
) -> Dict[str, Tuple[float, float, float]]:
    """Per-net (R in Ω, C in aF, RC in ps) summary, sorted by net name.

    The RC product converts as Ω·aF = 10⁻¹⁸ s = 10⁻⁶ ps, reported in ps.
    Both the R and C terms accumulate in one shared pass over the rects
    (per-net sums in rect order, so the floats match the per-net scans).
    """
    resistances: Dict[str, float] = {}
    capacitances: Dict[str, float] = {}
    for rect in rects:
        if not rect.net or rect.is_empty:
            continue
        net = rect.net
        model = tech.capacitance(rect.layer)
        capacitance = capacitances.get(net, 0.0)
        capacitance += model.area * rect.area
        capacitance += model.perimeter * 2 * (rect.width + rect.height)
        capacitances[net] = capacitance
        resistances.setdefault(net, 0.0)
        rho = tech.sheet_rho(rect.layer)
        if rho > 0:
            long_side = max(rect.width, rect.height)
            short_side = min(rect.width, rect.height)
            resistances[net] += rho * long_side / short_side
    report: Dict[str, Tuple[float, float, float]] = {}
    for net in sorted(capacitances):
        resistance = resistances[net]
        capacitance = capacitances[net]
        report[net] = (resistance, capacitance, resistance * capacitance * 1e-6)
    return report
