"""Module E: the centroidal cross-coupled differential pair (Fig. 10).

"The differential pair in block E consists of centroidal cross-coupled
inter-digital transistors with eight dummy transistors in the middle and
four dummy transistors on the right and left side ... the wiring is fully
symmetrical and every net has identical crossings."

Construction guarantees, and how each paper claim maps onto them:

* **device symmetry** — each row is built as a west half, mirrored (with
  nets swapped) into the east half, and row 2 is the net-swapped x-mirror of
  row 1.  The module is therefore exactly symmetric under
  (mirror-about-vertical-axis + net swap), under (mirror-about-horizontal-
  axis + net swap), and — composing both — under pure 180° rotation: the
  textbook 2-D common centroid.
* **dummy counts** — the half-row pattern ``DDABAB DD`` yields 8 dummies in
  the middle (4 per row), 4 on the left and 4 on the right over the full
  module: the paper's exact numbers.
* **identical crossings** — both nets of each matched pair receive exactly
  the same number of via stacks and tie wires; the A-net and B-net wiring
  trees are congruent (equal segment lengths), with A trunked on the west
  edge and B on the east.  Wire bands are planned so no same-layer wires
  ever cross.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..compact import Compactor
from ..db import LayoutObject
from ..geometry import Direction, Rect
from ..route import via_stack, wire
from ..tech import Technology
from .interdigitated import DeviceNets, patterned_row, via_landing_um
from ..obs.provenance import provenance_entity

#: West half of one row: 2 outer dummies, A/B interleave, 2 centre dummies.
HALF_PATTERN = "DDABAB" + "DD"


@provenance_entity("CentroidCrossCoupledPair")
def centroid_cross_coupled_pair(
    tech: Technology,
    w: float = 10.0,
    length: float = 1.0,
    gate_nets: Tuple[str, str] = ("gA", "gB"),
    drain_nets: Tuple[str, str] = ("outA", "outB"),
    source_net: str = "vss",
    half_pattern: str = HALF_PATTERN,
    wiring: bool = True,
    compactor: Optional[Compactor] = None,
    name: str = "ModuleE",
) -> LayoutObject:
    """Build the module-E differential pair (dimensions in microns)."""
    if compactor is None:
        compactor = Compactor()
    swap = {
        gate_nets[0]: gate_nets[1],
        gate_nets[1]: gate_nets[0],
        drain_nets[0]: drain_nets[1],
        drain_nets[1]: drain_nets[0],
    }
    devices = {
        "A": DeviceNets(gate=gate_nets[0], drain=drain_nets[0]),
        "B": DeviceNets(gate=gate_nets[1], drain=drain_nets[1]),
    }
    landing = via_landing_um(tech)

    row1 = _mirror_symmetric_row(
        tech, w, length, half_pattern, devices, source_net, swap,
        compactor, f"{name}_row1", gate_side="north", landing=landing,
    )
    # Row 2: net-swapped x-mirror of row 1 → 2-D common centroid, gate rows
    # facing outward (south).
    row2 = row1.copy(f"{name}_row2")
    row2.rename_nets(swap)
    box1 = row1.bbox()
    assert box1 is not None
    row2.mirror_x(axis_y=(box1.y1 + box1.y2) // 2)

    module = LayoutObject(name, tech)
    compactor.compact(module, row1, Direction.SOUTH)

    # Common-source strap along the seam (Fig. 5a auto-connection), then the
    # second row below it — NORTH compaction arrives on the south side, so
    # both rows' gate rails end up facing outward.
    box = module.bbox()
    assert box is not None
    strap = LayoutObject(f"{name}_vss", tech)
    strap_w = 2 * tech.min_width("metal1")
    strap.add_rect(Rect(box.x1, 0, box.x2, strap_w, "metal1", source_net))
    compactor.compact(module, strap, Direction.NORTH)
    compactor.compact(module, row2, Direction.NORTH, ignore_layers=("pdiff",))

    if wiring:
        _module_wiring(module, tech, gate_nets, drain_nets, source_net)
    return module


def _mirror_symmetric_row(
    tech: Technology,
    w: float,
    length: float,
    half_pattern: str,
    devices: Dict[str, DeviceNets],
    source_net: str,
    swap: Dict[str, str],
    compactor: Compactor,
    name: str,
    gate_side: str,
    landing: float,
) -> LayoutObject:
    """One finger row built as west half + exact east mirror (nets swapped)."""
    west = patterned_row(
        tech, w, length, half_pattern, devices,
        source_net=source_net, gate_side=gate_side,
        gate_row_length=max(length, landing),
        gate_row_width=landing,
        gate_row_variable=False,
        col_metal_min=landing,
        compactor=compactor, name=f"{name}_west",
    )
    east = west.copy(f"{name}_east")
    east.rename_nets(swap)
    east.mirror_y(axis_x=0)

    row = LayoutObject(name, tech)
    compactor.compact(row, west, Direction.WEST)
    compactor.compact(row, east, Direction.WEST, ignore_layers=("pdiff",))
    return row


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------
def _module_wiring(
    module: LayoutObject,
    tech: Technology,
    gate_nets: Tuple[str, str],
    drain_nets: Tuple[str, str],
    source_net: str,
) -> None:
    """Planar, matched pair wiring (see module docstring for guarantees).

    Vertical band plan (top to bottom, mirrored below the seam):
    vss rail › stub-tie band (gate B) › gate rows (direct ties, gate A) ›
    drain bridges › seam strap.  Horizontal trunk plan: vss verticals
    outermost, then the gate trunk, then the drain trunk; net A trunks west,
    net B trunks east.
    """
    box = module.bbox()
    assert box is not None
    m1w = tech.min_width("metal1")
    m1s = tech.min_space("metal1", "metal1") or m1w
    m2w = tech.min_width("metal2")
    m2s = tech.min_space("metal2", "metal2") or m2w
    pitch2 = m2w + m2s
    plate = tech.cut_size("via") + 2 * tech.enclosure_or_zero("metal1", "via")

    # Trunk columns must clear each other even where a duck via plate sits
    # on one of them: plate half + metal2 space + wire half.
    trunk_pitch = plate // 2 + m2s + m2w // 2 + m2s
    gate_trunk_a = box.x1 - 2 * trunk_pitch
    drain_trunk_a = box.x1 - trunk_pitch
    gate_trunk_b = box.x2 + 2 * trunk_pitch
    drain_trunk_b = box.x2 + trunk_pitch
    vss_x_west = box.x1 - 4 * trunk_pitch
    vss_x_east = box.x2 + 4 * trunk_pitch

    # All geometric references are taken from the *pre-wiring* module and
    # frozen here: adding wires grows the bounding box, so anything derived
    # from it mid-flight (notably the seam midline used to mirror the lower
    # half) would drift and misplace later wires.
    rows = _gate_rows(module)
    mid = (box.y1 + box.y2) // 2
    seam = box.y1 + box.y2
    # The stub band hosts metal2 (the net-B tie): it must clear the net-A
    # via plates sitting on the rows by the metal2 rule, not just metal1.
    rows_top = max(r.y2 for r in rows)
    stub_band = rows_top + max(m1s, m2s) + plate // 2
    stub_band_lower = seam - stub_band

    # --- gate nets -------------------------------------------------------
    gate_a_ties = _tie_gate_net(
        module, tech, gate_nets[0], trunk_x=gate_trunk_a,
        direct=True, stub_bands=(stub_band, stub_band_lower),
        mid=mid, plate=plate, m2w=m2w,
    )
    gate_b_ties = _tie_gate_net(
        module, tech, gate_nets[1], trunk_x=gate_trunk_b,
        direct=False, stub_bands=(stub_band, stub_band_lower),
        mid=mid, plate=plate, m2w=m2w,
    )

    # --- drain nets ------------------------------------------------------
    # Bridge vias must keep metal1 spacing to the gate-row band diagonally
    # above/below them; clamp the via band accordingly.
    upper_rows = [r for r in rows if (r.y1 + r.y2) // 2 > mid]
    lower_rows = [r for r in rows if (r.y1 + r.y2) // 2 <= mid]
    upper_rows_bottom = min((r.y1 for r in upper_rows), default=box.y2)
    lower_rows_top = max((r.y2 for r in lower_rows), default=box.y1)
    # The gate tie (metal2) runs through the row centres; bridge via plates
    # must clear it by the metal2 rule and the rows by the metal1 rule.
    upper_tie_bottom = min(
        ((r.y1 + r.y2) // 2 - m2w // 2 for r in upper_rows), default=box.y2
    )
    lower_tie_top = max(
        ((r.y1 + r.y2) // 2 + m2w // 2 for r in lower_rows), default=box.y1
    )
    clamp = (
        min(upper_rows_bottom - m1s, upper_tie_bottom - m2s) - plate // 2,
        max(lower_rows_top + m1s, lower_tie_top + m2s) + plate // 2,
    )
    # Net A bridges near the seam in both halves, net B far from it: each
    # net's own bridges mirror about the seam, and the two nets never share
    # a metal2 band.
    drain_a_ties = _tie_drain_net(
        module, tech, drain_nets[0], drain_trunk_a, (0.25, 0.75),
        m2w, plate, clamp, mid=mid)
    drain_b_ties = _tie_drain_net(
        module, tech, drain_nets[1], drain_trunk_b, (0.75, 0.25),
        m2w, plate, clamp, mid=mid)

    # --- vss: dummy gate rows + seam strap + perimeter loop ---------------
    # The rail must clear not only the stub band but also the drain-port
    # duck vias that cross the net-B stub tie just outside the module.
    rail_y = stub_band + m2w // 2 + m2s + plate + m1s + m1w // 2
    _tie_vss(
        module, tech, source_net,
        rails=(rail_y, seam - rail_y), mid=mid,
        x_west=vss_x_west, x_east=vss_x_east, m1w=m1w,
    )

    # --- escape ports ------------------------------------------------------
    # Every pair net exits at the module's south edge so parent layouts can
    # tap it from clear sky.  Gate trunks simply extend; drain ports duck
    # under the lower gate tie on metal1 (two extra vias — mirrored for net
    # B, so the pair's crossing counts stay identical).
    y_port = (seam - rail_y) - m1w // 2 - 2 * pitch2
    wire(module, "metal2", (gate_trunk_a, min(gate_a_ties)),
         (gate_trunk_a, y_port), width=m2w, net=gate_nets[0])
    wire(module, "metal2", (gate_trunk_b, min(gate_b_ties)),
         (gate_trunk_b, y_port), width=m2w, net=gate_nets[1])
    _drain_port(
        module, tech, drain_nets[0], drain_trunk_a, min(drain_a_ties),
        obstacle_y=min(gate_a_ties), y_port=y_port,
        m2w=m2w, m2s=m2s, plate=plate,
    )
    _drain_port(
        module, tech, drain_nets[1], drain_trunk_b, min(drain_b_ties),
        obstacle_y=min(gate_b_ties), y_port=y_port,
        m2w=m2w, m2s=m2s, plate=plate,
    )


def _gate_rows(module: LayoutObject) -> List[Rect]:
    """All gate-row metals: metal1 rects sitting on same-net poly rows.

    Gate contact rows are the only structures whose metal1 overlaps poly of
    the same net; diffusion columns overlap pdiff instead.
    """
    polys = module.rects_on("poly")
    rows: List[Rect] = []
    for rect in module.rects_on("metal1"):
        if rect.net is None:
            continue
        for poly in polys:
            if poly.net == rect.net and rect.intersects(poly) and poly.contains(rect):
                rows.append(rect)
                break
    return rows


def _rows_of_net(
    module: LayoutObject, net: str, upper: bool, mid: int
) -> List[Rect]:
    rows = [
        r for r in _gate_rows(module)
        if r.net == net and (((r.y1 + r.y2) // 2 > mid) == upper)
    ]
    rows.sort(key=lambda r: r.x1)
    return rows


def _tie_gate_net(
    module: LayoutObject,
    tech: Technology,
    net: str,
    trunk_x: int,
    direct: bool,
    stub_bands: Tuple[int, int],
    mid: int,
    plate: int,
    m2w: int,
) -> List[int]:
    """Tie all gate rows of *net* (both device rows) to one vertical trunk.

    ``direct=True``: vias land on the row metal itself (net A), plus a
    *dummy* stub of the same length net B's functional stubs have — so the
    two nets' metal loads match (the classic dummy-fill matching trick).
    ``direct=False``: a short metal1 stub lifts each row to its half's stub
    band first (net B) — same via count, so crossings stay identical.
    """
    tie_ys: List[int] = []
    for upper in (True, False):
        rows = _rows_of_net(module, net, upper, mid)
        if not rows:
            continue
        stub_y = stub_bands[0] if upper else stub_bands[1]
        y = (rows[0].y1 + rows[0].y2) // 2 if direct else stub_y
        for row in rows:
            cx = (row.x1 + row.x2) // 2
            cy = (row.y1 + row.y2) // 2
            if stub_y != cy:
                # Functional stub (stub mode) or capacitance-matching dummy
                # stub (direct mode) — either way the same metal length.
                # Starting at the row centre keeps the merged shape legal.
                wire(module, "metal1", (cx, cy), (cx, stub_y), net=net)
            via_stack(module, cx, y, "metal1", "metal2", net=net)
        far = max(r.x2 for r in rows) if trunk_x < rows[0].x1 else min(r.x1 for r in rows)
        wire(module, "metal2", (trunk_x, y), (far, y), width=m2w, net=net)
        tie_ys.append(y)
    if len(tie_ys) == 2:
        wire(module, "metal2", (trunk_x, tie_ys[0]), (trunk_x, tie_ys[1]),
             width=m2w, net=net)
    return tie_ys


def _tie_drain_net(
    module: LayoutObject,
    tech: Technology,
    net: str,
    trunk_x: int,
    fractions: Tuple[float, float],
    m2w: int,
    plate: int,
    clamp: Tuple[int, int],
    mid: int,
) -> List[int]:
    """Bridge all drain columns of *net* per device row; join with a trunk.

    ``fractions`` positions the bridge within the (upper, lower) column
    bands; ``clamp`` bounds the via-plate centres — (maximum y in the upper
    half, minimum y in the lower half) — keeping plates clear of the gate
    rows and gate ties.
    """
    columns = [
        r for r in module.rects_on("metal1")
        if r.net == net and r.height > r.width
    ]
    if not columns:
        return []
    upper_cols = [c for c in columns if (c.y1 + c.y2) // 2 > mid]
    lower_cols = [c for c in columns if (c.y1 + c.y2) // 2 <= mid]
    tie_ys: List[int] = []
    for cols, upper, fraction in (
        (upper_cols, True, fractions[0]),
        (lower_cols, False, fractions[1]),
    ):
        if not cols:
            continue
        c_lo = max(c.y1 for c in cols)
        c_hi = min(c.y2 for c in cols)
        y = c_lo + int((c_hi - c_lo) * fraction)
        if upper:
            y = min(y, clamp[0])
            y = max(y, c_lo + plate // 2)
        else:
            y = max(y, clamp[1])
            y = min(y, c_hi - plate // 2)
        for column in cols:
            via_stack(module, (column.x1 + column.x2) // 2, y,
                      "metal1", "metal2", net=net)
        far = (
            max(c.x2 for c in cols)
            if trunk_x < min(c.x1 for c in cols)
            else min(c.x1 for c in cols)
        )
        wire(module, "metal2", (trunk_x, y), (far, y), width=m2w, net=net)
        tie_ys.append(y)
    if len(tie_ys) == 2:
        wire(module, "metal2", (trunk_x, tie_ys[0]), (trunk_x, tie_ys[1]),
             width=m2w, net=net)
    return tie_ys


def _drain_port(
    module: LayoutObject,
    tech: Technology,
    net: str,
    x: int,
    start_y: int,
    obstacle_y: int,
    y_port: int,
    m2w: int,
    m2s: int,
    plate: int,
) -> None:
    """Bring a drain net down to the port row, ducking under the gate tie.

    The gate tie (metal2, centred at *obstacle_y*) crosses the port column;
    the drain wire switches to metal1 for the short stretch across it and
    returns to metal2 below.
    """
    y_hi = obstacle_y + m2w // 2 + m2s + plate // 2
    y_lo = obstacle_y - m2w // 2 - m2s - plate // 2
    wire(module, "metal2", (x, start_y), (x, y_hi), width=m2w, net=net)
    via_stack(module, x, y_hi, "metal1", "metal2", net=net)
    wire(module, "metal1", (x, y_hi), (x, y_lo), net=net)
    via_stack(module, x, y_lo, "metal1", "metal2", net=net)
    wire(module, "metal2", (x, y_lo), (x, y_port), width=m2w, net=net)


def _tie_vss(
    module: LayoutObject,
    tech: Technology,
    net: str,
    rails: Tuple[int, int],
    mid: int,
    x_west: int,
    x_east: int,
    m1w: int,
) -> None:
    """Connect dummy gate rows and the seam strap with a perimeter loop."""
    strap_rects = [
        r for r in module.rects_on("metal1")
        if r.net == net
        and r.width > 4 * r.height
        and abs((r.y1 + r.y2) // 2 - mid) < r.height * 4
    ]
    for upper, y in ((True, rails[0]), (False, rails[1])):
        rows = _rows_of_net(module, net, upper, mid)
        rows = [r for r in rows if r.width <= 4 * r.height]
        if not rows:
            continue
        for row in rows:
            cx = (row.x1 + row.x2) // 2
            wire(module, "metal1", (cx, (row.y1 + row.y2) // 2), (cx, y), net=net)
        wire(module, "metal1", (x_west, y), (x_east, y), width=m1w, net=net)
    # Perimeter verticals joining both rails and the seam strap.
    strap_y = (
        (strap_rects[0].y1 + strap_rects[0].y2) // 2 if strap_rects else mid
    )
    for x in (x_west, x_east):
        wire(module, "metal1", (x, rails[1]), (x, rails[0]), width=m1w, net=net)
    # Stubs from the verticals to the seam strap.
    if strap_rects:
        strap = strap_rects[0]
        wire(module, "metal1", (x_west, strap_y), (strap.x1, strap_y),
             width=m1w, net=net)
        wire(module, "metal1", (strap.x2, strap_y), (x_east, strap_y),
             width=m1w, net=net)
