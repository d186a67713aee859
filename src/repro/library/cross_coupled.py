"""Cross-coupled interdigitated device pairs (block C).

"For the current sources of block C high symmetry and matching requirements
exist.  Thus a cross-coupled arrangement of inter-digital transistors is
selected."  Two matched devices A and B are split into fingers arranged
palindromically (one-dimensional common centroid), so linear process
gradients affect both devices equally.

Wiring is planar by construction: device A contacts its gates on the north
side and device B on the south side, so each gate net gets a same-layer rail
on its own side; the split drain columns are bridged on metal2 at two
disjoint height bands.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..compact import Compactor
from ..db import LayoutObject
from ..geometry import Rect
from ..route import via_stack, wire
from ..tech import RuleError, Technology
from .interdigitated import DeviceNets, patterned_row, via_landing_um
from ..obs.provenance import provenance_entity


@provenance_entity("CrossCoupledPair")
def cross_coupled_pair(
    tech: Technology,
    w: float,
    length: float,
    gate_nets: Tuple[str, str] = ("gA", "gB"),
    drain_nets: Tuple[str, str] = ("dA", "dB"),
    source_net: str = "vss",
    fingers_per_device: int = 2,
    wiring: bool = True,
    compactor: Optional[Compactor] = None,
    name: str = "CrossCoupled",
) -> LayoutObject:
    """Cross-coupled pair with palindromic finger pattern (e.g. ABBA).

    Raises :class:`~repro.tech.RuleError` before building anything when
    *w* or *length* (µm) is too small for a clean, connected pair (see
    :func:`_check_size`).
    """
    if fingers_per_device < 1:
        raise ValueError("fingers_per_device must be >= 1")
    _check_size(tech, w, length)
    if compactor is None:
        compactor = Compactor()
    pattern = _centroid_pattern(fingers_per_device)

    devices = {
        "A": DeviceNets(gate=gate_nets[0], drain=drain_nets[0], gate_side="north"),
        "B": DeviceNets(gate=gate_nets[1], drain=drain_nets[1], gate_side="south"),
    }
    landing = via_landing_um(tech)
    pair = patterned_row(
        tech, w, length, pattern, devices,
        source_net=source_net, compactor=compactor, name=name,
        col_metal_min=landing,
        gate_row_length=max(length, landing),
        gate_row_width=landing,
        gate_row_variable=False,
    )
    if wiring:
        # Four metal2 tracks stack north to south: gate rail A, drain
        # bridges B and A, gate rail B.  Adjacent tracks keep one track
        # pitch (a via pad plus the metal2 spacing) between centres.
        pitch = (
            tech.cut_size("via") + 2 * tech.enclosure_or_zero("metal2", "via")
            + (tech.min_space("metal2", "metal2") or 0)
        )
        low, high = _bridge_heights(
            _drain_column_band(pair, drain_nets), pitch
        )
        _tie_gate_rail(pair, tech, gate_nets[0], north=True, clear=high + pitch)
        _tie_gate_rail(pair, tech, gate_nets[1], north=False, clear=low - pitch)
        for y, net in zip((low, high), drain_nets):
            _tie_columns_metal2(pair, tech, net, y)
    return pair


def _check_size(tech: Technology, w: float, length: float) -> None:
    """Reject a channel width or length no clean pair can be drawn with.

    Each drain column holds at least one contact, so its diffusion is at
    least a contact plus its diffusion enclosure tall; a narrower channel
    leaves the column taller than the gate's endcaps allow.  The gate rows
    are at least a via landing wide, and the drain columns keep the metal1
    spacing from them; the channel diffusion (the gate plus its extension
    on each side) must reach that far, or it stops short of the columns.
    """
    min_w = tech.cut_size("contact") + 2 * tech.enclosure_or_zero("pdiff", "contact")
    if tech.um(w) < min_w:
        raise RuleError(
            f"cross_coupled_pair: W {w} um is below one drain contact"
            f" ({min_w / tech.dbu_per_micron} um)"
        )
    gate = tech.um(length)
    row = max(gate, tech.cut_size("via") + 2 * tech.enclosure_or_zero("metal1", "via"))
    reach = gate + 2 * tech.extension("pdiff", "poly")
    needed = row + 2 * (tech.min_space("metal1", "metal1") or 0)
    if reach < needed:
        raise RuleError(
            f"cross_coupled_pair: L {length} um leaves the channel diffusion"
            f" {(needed - reach) / tech.dbu_per_micron} um short of the drain"
            " columns"
        )


def _bridge_heights(band: Tuple[int, int], pitch: int) -> Tuple[int, int]:
    """The two drain bridges' heights: a quarter and three quarters up the
    column band, spread about their midpoint to one track pitch when the
    band is too short to hold them apart."""
    lo, hi = band
    low, high = lo + int((hi - lo) * 0.25), lo + int((hi - lo) * 0.75)
    if high - low < pitch:
        low = (low + high) // 2 - pitch // 2
        high = low + pitch
    return low, high


def _centroid_pattern(half: int) -> str:
    """A B…B A pattern with *half* fingers per device (e.g. 2 → ABBA)."""
    return "A" * (half // 2 + half % 2) + "B" * half + "A" * (half // 2)


def _tie_gate_rail(
    obj: LayoutObject, tech: Technology, net: str, north: bool, clear: int
) -> None:
    """Join same-net gate rows with a metal2 tie riding over the row band.

    Running on metal2 (vias land on the via-ready row metals) keeps the
    metal1 plane between the rows clear, so the diffusion columns can later
    escape vertically — a metal1 rail would wall them in.  The rail sits at
    the rows' centre line unless that is nearer the drain bridges than
    *clear*, the closest height a track pitch away from them; then a
    metal1 strap joins each displaced via to its row.
    """
    rows = [
        r for r in obj.rects_on("metal1")
        if r.net == net and ((r.y1 + r.y2) > 0) == north
        and any(
            p.net == net and p.contains(r)
            for p in obj.rects_on("poly")
        )
    ]
    if len(rows) < 2:
        return
    centre = (rows[0].y1 + rows[0].y2) // 2
    y = max(centre, clear) if north else min(centre, clear)
    for row in rows:
        x = (row.x1 + row.x2) // 2
        via_stack(obj, x, y, "metal1", "metal2", net=net)
        if y != centre:  # strap the displaced via back to its row
            wire(obj, "metal1", (x, centre), (x, y), net=net)
    wire(
        obj, "metal2",
        (min(r.x1 for r in rows), y),
        (max(r.x2 for r in rows), y),
        width=tech.min_width("metal2"),
        net=net,
    )


def _drain_column_band(
    obj: LayoutObject, drain_nets: Tuple[str, str]
) -> Tuple[int, int]:
    """Common y-range of the drain column metals (the bridging zone).

    Before any wiring, the drain nets' metal1 rects are their columns.
    """
    columns = [r for r in obj.rects_on("metal1") if r.net in drain_nets]
    if not columns:
        return (0, 0)
    return (max(r.y1 for r in columns), min(r.y2 for r in columns))


def _tie_columns_metal2(
    obj: LayoutObject, tech: Technology, net: str, y: int
) -> None:
    """Bridge same-net drain columns with a metal2 wire plus via stacks at
    height *y* (see :func:`_bridge_heights`).  Call it before any other
    metal1 is drawn on *net*, so its metal1 rects are the columns."""
    columns = [r for r in obj.rects_on("metal1") if r.net == net]
    if len(columns) < 2:
        return
    columns.sort(key=lambda r: r.x1)
    for column in columns:
        via_stack(obj, (column.x1 + column.x2) // 2, y, "metal1", "metal2", net=net)
    wire(
        obj, "metal2",
        ((columns[0].x1 + columns[0].x2) // 2, y),
        ((columns[-1].x1 + columns[-1].x2) // 2, y),
        net=net,
    )
