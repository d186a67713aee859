"""The compactor's queries over the main object's rect store.

The paper's central speed-up is that "only outer edges of the main object
have to be kept in the data structure".  Every compaction step (and every
variable-edge shrink round) asks the main object's
:class:`~repro.db.store.RectStore` for the frontier facing the arrival
(:func:`frontier_groups`, cached per layer until the layer changes), the
same-net residents it may auto-connect to (the ``(net, layer)`` buckets)
and whether a stretch bridge would break a rule (:func:`bridge_blocked`),
so a step only pays for the layers it touched.

Exactness contract: every query reproduces the from-scratch result *in the
same order*.  Property tests pin this against the oracle
:func:`repro.verify.reference.frontier_filter`, and the differential
harness races :class:`~repro.compact.Compactor` against
:class:`repro.verify.reference.ScanCompactor`.
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple

from ..db.store import RectStore
from ..geometry import Direction, Rect
from ..obs import get_tracer
from ..tech import Technology
from .separation import layer_frontier

__all__ = ["bridge_blocked", "frontier_groups"]

_NO_NETS: FrozenSet[str] = frozenset()


def frontier_groups(
    store: RectStore, direction: Direction, arrival_nets: FrozenSet[str]
) -> List[Tuple[str, List[Rect]]]:
    """Per-layer frontier survivors, ``[(layer, rects), ...]``.

    Concatenated, the groups equal ``frontier_filter(owner.nonempty_rects,
    direction, arrival_nets)`` element for element: layers ordered by their
    earliest non-empty rect, survivors in nearest-first stable order.
    """
    tracer = get_tracer()
    rects = store.rects
    groups: List[Tuple[str, List[Rect]]] = []
    for layer in store.layers():
        # Only nets present on the layer can alter the sweep, so arrivals
        # with disjoint nets share one cache entry.
        nets = store.buckets[layer].nets
        if arrival_nets and nets:
            relevant = frozenset(n for n in arrival_nets if n in nets)
        else:
            relevant = _NO_NETS
        key = (direction, relevant)
        survivors = store.cached(layer, key)
        if survivors is None:
            survivors = store.cache(layer, key, tuple(layer_frontier(
                rects, store.seqs_on(layer), direction, arrival_nets
            )))
            tracer.count("compact.index_sweeps")
        else:
            tracer.count("compact.index_sweep_hits")
        groups.append((layer, [rects[seq] for seq in survivors]))
    return groups


def bridge_blocked(
    store: RectStore, tech: Technology, bridge: Rect, net: str
) -> bool:
    """True when stretching across *bridge* would violate a rule.

    Semantically identical to the naive scan over every non-empty rect
    (same-layer spacing, cross-layer spacing, EXTEND device formation),
    but each layer's rules are read once from the technology's compiled
    table: same-net rects on a connectable layer are skippable, the grown
    probe keeps the pair's spacing (same-layer pairs default to 0, "may
    touch, not overlap"), and overlap with a layer the bridge forms a
    device with (an EXTEND rule either way: a poly bridge must never cross
    diffusion) blocks.  The probe rect is built once per layer, and whole
    layers are skipped when no rule can apply or the layer's envelope
    cannot reach the probe.
    """
    rects = store.rects
    table = tech.table
    bridge_layer = bridge.layer
    bx1, by1, bx2, by2 = bridge.x1, bridge.y1, bridge.x2, bridge.y2
    for layer, bucket in store.buckets.items():
        spacing, connect, _, extend, extended_by = table[(bridge_layer, layer)]
        if layer == bridge_layer:
            spacing, forms_device = spacing or 0, False
        else:
            forms_device = extend is not None or extended_by is not None
            if spacing is None and not forms_device:
                continue  # no spacing rule, no device rule: cannot block
        probe = bridge if spacing is None else bridge.grown(spacing)
        px1, py1, px2, py2 = probe.x1, probe.y1, probe.x2, probe.y2
        box = store.envelope(layer)
        if box[0] >= px2 or px1 >= box[2] or box[1] >= py2 or py1 >= box[3]:
            continue
        check_space = spacing is not None
        for seq in bucket.seqs:
            rect = rects[seq]
            if rect.x1 >= rect.x2 or rect.y1 >= rect.y2:
                continue
            if connect and rect.net == net:
                continue
            if forms_device and (
                bx1 < rect.x2 and rect.x1 < bx2
                and by1 < rect.y2 and rect.y1 < by2
            ):
                return True
            if check_space and (
                px1 < rect.x2 and rect.x1 < px2
                and py1 < rect.y2 and rect.y1 < py2
            ):
                return True
    return False
