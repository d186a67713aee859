"""Assembly of the broad-band BiCMOS amplifier (Sec. 3, Fig. 9).

"The placement of the modules and the global routing were done manually."
The reproduction scripts that manual step: blocks are placed on a two-row
floorplan, supply rails run horizontally, and the inter-block nets are wired
on metal2 channels between the rows.  A substrate-contact ring closes the
latch-up rule around the whole amplifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..compact import Compactor
from ..db import ConnectivityIndex, LayoutObject, capacitance_report
from ..drc import run_drc
from ..geometry import Rect, bounding_box
from ..library import substrate_ring
from ..obs.provenance import provenance_entity
from ..route import via_stack, wire
from ..tech import RuleError, Technology
from .blocks import BLOCK_BUILDERS

#: Two-row floorplan: (row, order) per block, mirroring Fig. 9's grouping of
#: the signal path (E, F) below the bias/load circuitry (A, B, C, D).
FLOORPLAN = {
    "A": (0, 0),
    "B": (0, 1),
    "C": (0, 2),
    "D": (0, 3),
    "E": (1, 0),
    "F": (1, 1),
}

#: Inter-block nets wired by the scripted global routing.  Supplies come
#: first: they have the most pins and so the strongest claim on the clear
#: escape corridors before other nets' tracks crowd the channels.
GLOBAL_NETS = ("vss", "vdd", "ibias", "itail", "n1", "n2", "vbias1")


@dataclass
class AmplifierReport:
    """Measurements the paper reports for the amplifier layout."""

    width_um: float
    height_um: float
    area_um2: float
    drc_violations: int
    net_capacitance_af: Dict[str, float] = field(default_factory=dict)


@provenance_entity("BiCMOSAmplifier")
def build_amplifier(
    tech: Technology,
    compactor: Optional[Compactor] = None,
    with_ring: bool = True,
    with_routing: bool = True,
) -> LayoutObject:
    """Build the full amplifier layout."""
    if compactor is None:
        compactor = Compactor()
    amp = LayoutObject("BiCMOSAmplifier", tech)

    margin = 4 * (tech.min_width("metal2") + (tech.min_space("metal2", "metal2") or 0))
    blocks: Dict[str, LayoutObject] = {}
    for name, builder in BLOCK_BUILDERS.items():
        blocks[name] = builder(tech, compactor=compactor)
        blocks[name].normalize()

    row_heights: Dict[int, int] = {}
    for name, (row, _) in FLOORPLAN.items():
        row_heights[row] = max(row_heights.get(row, 0), blocks[name].height)

    # Place row by row, top row first, with routing channels between rows.
    y_cursor = 0
    placements: Dict[str, Tuple[int, int]] = {}
    for row in sorted(row_heights):
        x_cursor = 0
        for name, (block_row, order) in sorted(
            FLOORPLAN.items(), key=lambda item: item[1]
        ):
            if block_row != row:
                continue
            blocks[name].translate(x_cursor, y_cursor - blocks[name].height)
            placements[name] = (x_cursor, y_cursor)
            x_cursor += blocks[name].width + margin
        y_cursor -= row_heights[row] + 3 * margin

    for name, block in blocks.items():
        amp.merge(block)

    if with_routing:
        _global_routing(amp, tech, margin)
    if with_ring:
        _substrate_strips(amp, tech, placements, row_heights, margin)
        substrate_ring(amp, net="sub")
    return amp


def _substrate_strips(
    amp: LayoutObject,
    tech: Technology,
    placements: Dict[str, Tuple[int, int]],
    row_heights: Dict[int, int],
    margin: int,
) -> None:
    """Contacted substrate strips in the routing channels (latch-up rule).

    The perimeter ring protects a band along each edge; the strips extend
    the protection into the interior, one per inter-row channel, so the
    temporary rectangles of Fig. 1 cover every active area.
    """
    box = amp.bbox()
    assert box is not None
    width = tech.min_width("subcontact")
    cut = tech.cut_size("contact")
    space = tech.min_space("contact", "contact") or cut
    enc = max(
        tech.enclosure_or_zero("subcontact", "contact"),
        tech.enclosure_or_zero("metal1", "contact"),
    )

    # Strip y centres: midway in every inter-row channel, plus one below the
    # bottom row (tall bottom rows outrun the perimeter ring's reach).
    tops = sorted({placements[name][1] for name in placements}, reverse=True)
    m1s = tech.min_space("metal1", "metal1") or 0

    def row_bottom(row_top: int) -> int:
        bottoms = [
            top - row_heights[FLOORPLAN[name][0]]
            for name, (_, top) in placements.items()
            if top == row_top
        ]
        return max(bottoms)

    centers = [
        (row_bottom(upper_top) + lower_top) // 2
        for upper_top, lower_top in zip(tops, tops[1:])
    ]
    centers.append(row_bottom(tops[-1]) - margin // 2)

    for y_center in centers:
        y1 = y_center - width // 2
        y2 = y1 + width
        # The diffusion strip runs continuously (only the subcontact layer
        # matters for Fig. 1); the metal is segmented around any global
        # verticals crossing the channel so nothing shorts.
        amp.add_rect(Rect(box.x1, y1, box.x2, y2, "subcontact", "sub"))
        strip_diff = len(amp.rects) - 1
        blockers = sorted(
            (r.x1 - m1s, r.x2 + m1s)
            for r in amp.rects_on("metal1")
            if r.net != "sub" and r.y1 < y2 and r.y2 > y1
        )
        segments: List[Tuple[int, int]] = []
        cursor = box.x1
        for bx1, bx2 in blockers + [(box.x2, box.x2)]:
            if bx1 > cursor:
                segments.append((cursor, min(bx1, box.x2)))
            cursor = max(cursor, bx2)
        min_len = cut + 2 * enc
        for sx1, sx2 in segments:
            if sx2 - sx1 < min_len:
                continue
            amp.add_rect(Rect(sx1, y1, sx2, y2, "metal1", "sub"))
            outers = [(strip_diff, enc), (len(amp.rects) - 1, enc)]
            amp.add_array("contact", cut, space, outers, "sub")


def _global_routing(amp: LayoutObject, tech: Technology, margin: int) -> None:
    """Scripted global routing: one metal2 net at a time, obstacle aware.

    Each net's pins (one per connected component) escape vertically to a
    dedicated horizontal track above or below the whole layout — whichever
    corridor is free of foreign metal2.  Nets needing both tracks join them
    with a vertical in the west channel.  Track offsets and channel x
    positions grow together with the net index, so wires of different nets
    can never cross on metal2.
    """
    box = amp.bbox()
    assert box is not None
    m2w = tech.min_width("metal2")
    m2s = tech.min_space("metal2", "metal2") or m2w
    plate = tech.cut_size("via") + 2 * tech.enclosure_or_zero("metal1", "via")
    pitch = max(m2w, plate) + m2s

    m1w = tech.min_width("metal1")
    m1s = tech.min_space("metal1", "metal1") or m1w

    # One shared connectivity extraction for the whole routing pass: the
    # wires each net adds are folded in incrementally instead of
    # re-extracting the full layout once per net.
    connectivity = ConnectivityIndex(amp.rects, tech)

    for index, net in enumerate(GLOBAL_NETS):
        track_top = box.y2 + 2 * pitch + index * pitch
        track_bot = box.y1 - 2 * pitch - index * pitch
        west_x = box.x1 - 2 * pitch - index * pitch

        pins = _net_pins(amp, tech, net, plate, box, connectivity)
        if len(pins) < 2:
            continue
        top_xs: List[int] = []
        bot_xs: List[int] = []
        for (px, py, on_metal2) in pins:
            # Verticals run on metal1 so they duck under every foreign
            # metal2 track; the corridor only needs clear metal1.
            if _corridor_clear(amp, net, "metal1", px, plate, py, track_bot, m1s):
                target, bucket = track_bot, bot_xs
            elif _corridor_clear(amp, net, "metal1", px, plate, py, track_top, m1s):
                target, bucket = track_top, top_xs
            else:
                raise RuleError(
                    f"global routing: no clear vertical corridor for net"
                    f" {net!r} pin at ({px}, {py})"
                )
            if on_metal2:
                via_stack(amp, px, py, "metal1", "metal2", net=net)
            wire(amp, "metal1", (px, py), (px, target), net=net)
            via_stack(amp, px, target, "metal1", "metal2", net=net)
            bucket.append(px)
        if top_xs and bot_xs:
            top_xs.append(west_x)
            bot_xs.append(west_x)
            wire(amp, "metal1", (west_x, track_bot), (west_x, track_top), net=net)
            via_stack(amp, west_x, track_bot, "metal1", "metal2", net=net)
            via_stack(amp, west_x, track_top, "metal1", "metal2", net=net)
        for xs, y in ((top_xs, track_top), (bot_xs, track_bot)):
            if len(xs) >= 2:
                wire(amp, "metal2", (min(xs), y), (max(xs), y),
                     width=m2w, net=net)


def _corridor_clear(
    amp: LayoutObject,
    net: str,
    layer: str,
    x: int,
    width: int,
    y_from: int,
    y_to: int,
    spacing: int,
) -> bool:
    """True when a vertical wire on *layer* at *x* meets no foreign metal."""
    lo, hi = sorted((y_from, y_to))
    corridor = Rect(
        x - width // 2 - spacing, lo, x + width // 2 + spacing, hi, layer
    )
    return not _foreign_in(amp, net, corridor)


def _foreign_in(amp: LayoutObject, net: str, corridor: Rect) -> bool:
    """True when a rect of another net meets *corridor* on its layer."""
    return any(
        r.net != net and corridor.intersects(r)
        for r in amp.rects_on(corridor.layer)
    )


def _net_pins(
    amp: LayoutObject,
    tech: Technology,
    net: str,
    plate: int,
    box: Optional[Rect] = None,
    connectivity: Optional[ConnectivityIndex] = None,
) -> List[Tuple[int, int, bool]]:
    """One pin per connected component of *net*: (x, y, needs_via).

    Components that already own metal2 (module trunks/ports) are tapped at
    the end of their lowest metal2 rect — no via needed and the drop starts
    in clear sky.  Metal1-only components get a metal1 escape stub from
    their largest rect to just outside the layout, where a via landing
    always fits (see :func:`_metal1_escape`).

    *connectivity* is the shared :class:`ConnectivityIndex` over
    ``amp.rects``; the global router passes one per routing pass so each
    net's query costs an incremental catch-up, not a full extraction.
    """
    if connectivity is None:
        connectivity = ConnectivityIndex(amp.rects, tech)
    if box is None:
        box = amp.bbox()
    if not amp.rects_on_net(net):
        return []
    components = connectivity.components()
    pins: List[Tuple[int, int, bool]] = []
    for component in components:
        metal2 = [r for r in component if r.net == net and r.layer == "metal2"]
        if metal2:
            anchor = min(metal2, key=lambda r: r.y1)
            pins.append(((anchor.x1 + anchor.x2) // 2, anchor.y1 + plate // 2, True))
            continue
        candidates = [
            r for r in component if r.net == net and r.layer == "metal1"
        ]
        if not candidates:
            continue
        candidates.sort(key=lambda r: r.area, reverse=True)
        pin: Optional[Tuple[int, int, bool]] = None
        for anchor in candidates[:8]:
            escape = _metal1_escape(amp, tech, net, anchor, plate, box)
            if escape is not None:
                pin = (escape[0], escape[1], False)
                break
        if pin is None:
            for anchor in candidates[:8]:
                if anchor.width < plate or anchor.height < plate:
                    continue
                escape = _metal2_escape(amp, tech, net, anchor, plate, box)
                if escape is not None:
                    pin = (escape[0], escape[1], True)
                    break
        if pin is None:
            for anchor in candidates[:8]:
                if anchor.width < plate or anchor.height < plate:
                    continue
                escape = _ducked_escape(amp, tech, net, anchor, plate, box)
                if escape is not None:
                    pin = escape
                    break
        if pin is not None:
            pins.append(pin)
    return pins


def _ducked_escape(
    amp: LayoutObject,
    tech: Technology,
    net: str,
    anchor: Rect,
    plate: int,
    box: Rect,
) -> Optional[Tuple[int, int, bool]]:
    """Escape by alternating layers around obstacles (ducking).

    When both single-layer corridors are blocked, walk the column switching
    between metal1 and metal2 at each blockage: wire on the current layer up
    to just short of its next obstacle, place a via (both layers must be
    clear there), continue on the other layer.  Up to four switches; both
    directions tried.  Returns (x, y_pad, pad_is_metal2) or None.
    """
    m1s = tech.min_space("metal1", "metal1") or 0
    m2s = tech.min_space("metal2", "metal2") or 0
    margin = max(m1s, m2s)
    half = plate // 2 + margin
    x = (anchor.x1 + anchor.x2) // 2
    start_y = (anchor.y1 + anchor.y2) // 2

    def bands(layer: str) -> List[Tuple[int, int]]:
        out = [
            (r.y1 - margin, r.y2 + margin)
            for r in amp.rects_on(layer)
            if r.net != net and r.x1 < x + half and r.x2 > x - half
        ]
        out.sort()
        return out

    obstacles = {"metal1": bands("metal1"), "metal2": bands("metal2")}

    def clear(layer: str, lo: int, hi: int) -> bool:
        return not any(b_lo < hi and b_hi > lo for b_lo, b_hi in obstacles[layer])

    def plan(y: int, layer: str, upward: bool, switches: int):
        """Segments [(layer, y_from, y_to, via_at_start)] reaching the pad."""
        y_pad = box.y2 + plate if upward else box.y1 - plate
        sign = 1 if upward else -1
        end = y_pad + sign * plate
        lo, hi = sorted((y - sign * plate, end))
        if clear(layer, lo, hi):
            return [(layer, y, y_pad)]
        if switches == 0:
            return None
        # First obstacle ahead on this layer.
        ahead = [
            b for b in obstacles[layer]
            if (b[0] > y - plate if upward else b[1] < y + plate)
        ]
        if not ahead:
            return None
        nxt = min(ahead, key=lambda b: b[0]) if upward else max(ahead, key=lambda b: b[1])
        via_y = (nxt[0] - plate // 2 - margin) if upward else (nxt[1] + plate // 2 + margin)
        if (upward and via_y < y + plate) or (not upward and via_y > y - plate):
            return None
        other = "metal2" if layer == "metal1" else "metal1"
        # Both layers must host the via plates at via_y.
        if not clear(other, via_y - plate, via_y + plate):
            return None
        rest = plan(via_y, other, upward, switches - 1)
        if rest is None:
            return None
        return [(layer, y, via_y)] + rest

    for upward in (True, False):
        # Starting layer is metal1 (we sit on a metal1 anchor).
        segments = plan(start_y, "metal1", upward, switches=4)
        if segments is None:
            continue
        for index, (layer, y_from, y_to) in enumerate(segments):
            if index > 0:
                via_stack(amp, x, y_from, "metal1", "metal2", net=net)
            width = tech.min_width(layer)
            wire(amp, layer, (x, y_from), (x, y_to), width=width, net=net)
        final_layer = segments[-1][0]
        return (x, segments[-1][2], final_layer == "metal2")
    return None


def _metal1_escape(
    amp: LayoutObject,
    tech: Technology,
    net: str,
    anchor: Rect,
    plate: int,
    box: Optional[Rect] = None,
) -> Optional[Tuple[int, int]]:
    """Escape a metal1 anchor vertically to free space; returns the pad spot.

    A metal1 stub runs from the anchor centre straight north or south until
    it leaves everything in its column; the via pad sits at the stub's end.
    A direction is viable only when no foreign metal1 lies in the stub's
    corridor.  Returns None when neither direction works.
    """
    m1w = tech.min_width("metal1")
    m1s = tech.min_space("metal1", "metal1") or 0
    if box is None:
        box = amp.bbox()
    assert box is not None
    x = (anchor.x1 + anchor.x2) // 2
    # The stub is a minimum-width wire; the (wider) via pad lands outside
    # the layout where clearance is guaranteed.
    half = m1w // 2 + m1s

    for upward in (True, False):
        if upward:
            y_pad = box.y2 + plate
            corridor = Rect(x - half, anchor.y2, x + half, y_pad + plate, "metal1")
        else:
            y_pad = box.y1 - plate
            corridor = Rect(x - half, y_pad - plate, x + half, anchor.y1, "metal1")
        if _foreign_in(amp, net, corridor):
            continue
        start_y = (anchor.y1 + anchor.y2) // 2
        wire(amp, "metal1", (x, start_y), (x, y_pad), net=net)
        return (x, y_pad)
    return None


def _metal2_escape(
    amp: LayoutObject,
    tech: Technology,
    net: str,
    anchor: Rect,
    plate: int,
    box: Optional[Rect] = None,
) -> Optional[Tuple[int, int]]:
    """Escape a boxed-in metal1 anchor by jumping to metal2 first.

    Used when a metal1 stub cannot leave the anchor's column (a gate tie or
    a neighbouring row blocks both directions): a via on the anchor lifts
    the net to metal2, which crosses metal1 freely; the metal2 stub must in
    turn find a corridor clear of foreign metal2.  Returns the pad spot (on
    metal2) or None.
    """
    m2w = tech.min_width("metal2")
    m2s = tech.min_space("metal2", "metal2") or 0
    if box is None:
        box = amp.bbox()
    assert box is not None
    x = (anchor.x1 + anchor.x2) // 2
    half = max(m2w, plate) // 2 + m2s
    start_y = (anchor.y1 + anchor.y2) // 2

    for upward in (True, False):
        # The wire starts at the via on the anchor's centre: the corridor
        # must be clear from there, not just from the anchor's edge.
        if upward:
            y_pad = box.y2 + plate
            corridor = Rect(
                x - half, start_y - plate, x + half, y_pad + plate, "metal2"
            )
        else:
            y_pad = box.y1 - plate
            corridor = Rect(
                x - half, y_pad - plate, x + half, start_y + plate, "metal2"
            )
        if _foreign_in(amp, net, corridor):
            continue
        via_stack(amp, x, start_y, "metal1", "metal2", net=net)
        wire(amp, "metal2", (x, start_y), (x, y_pad), width=m2w, net=net)
        return (x, y_pad)
    return None


def measure_amplifier(amp: LayoutObject) -> AmplifierReport:
    """Measure the finished amplifier the way the paper reports it.

    The paper: "The layout area (592 x 481 µm² in a 1µ Siemens-BiCMOS-
    technology) and the quality (parasitic capacitances of the internal
    nodes) of the amplifier are comparable to an optimal hand-drafted
    version or even better."
    """
    tech = amp.tech
    dbu = tech.dbu_per_micron
    violations = run_drc(amp, include_latchup=True)
    return AmplifierReport(
        width_um=amp.width / dbu,
        height_um=amp.height / dbu,
        area_um2=amp.area() / dbu ** 2,
        drc_violations=len(violations),
        net_capacitance_af=capacitance_report(amp.rects, tech),
    )
