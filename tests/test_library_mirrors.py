"""Current mirrors, cascodes, cross-coupled pairs."""

import pytest

from repro.db import net_is_connected
from repro.drc import run_drc
from repro.library import (
    cascode_pair,
    cross_coupled_pair,
    simple_current_mirror,
    symmetric_current_mirror,
)
from repro.obs import ProvenanceRecorder, recording
from repro.tech import RuleError, generic_bicmos_1u, generic_cmos_05u


def test_simple_mirror(tech):
    mirror = simple_current_mirror(tech, 8.0, 1.0)
    assert run_drc(mirror, include_latchup=False) == []
    assert net_is_connected(mirror.rects, tech, "iref")  # gates + diode tie


def test_simple_mirror_grown_cut_is_in_layout(tech05):
    """Compaction stretches a contact row of the 0.5 um mirror, growing its
    array by one cut; that cut is part of the layout (it is in the
    ``generic_cmos_05u/simple_current_mirror`` golden hash)."""
    with recording(ProvenanceRecorder(enabled=True)):
        mirror = simple_current_mirror(tech05, w=8.0, length=2.0)
    in_layout = {id(r) for r in mirror.rects}
    cuts = [r for link in mirror.links if hasattr(link, "cut_layer")
            for r in link.rects if not r.is_empty]
    assert all(id(r) in in_layout for r in cuts)
    grown = [r for r in cuts if any(kind == "rebuild" for kind, _ in r.prov.lineage)]
    assert [r.as_tuple() for r in grown] == [(1400, 4900, 1900, 5400)]


def test_symmetric_mirror_diode_in_middle(tech):
    """Block B: 'a symmetrical layout module ... with the diode transistor
    in the middle'."""
    mirror = symmetric_current_mirror(tech, 8.0, 1.0)
    assert run_drc(mirror, include_latchup=False) == []
    assert net_is_connected(mirror.rects, tech, "iref")
    gates = sorted(
        (r for r in mirror.rects_on("poly") if r.height > r.width),
        key=lambda g: g.x1,
    )
    assert len(gates) == 3
    # The middle device's drain carries the reference (diode) net; the
    # outer devices' drains carry the outputs.
    ref_cols = [
        r for r in mirror.rects_on("contact")
        if r.net == "iref" and r.y2 < gates[0].y2
    ]
    assert ref_cols
    cx = sum((c.x1 + c.x2) // 2 for c in ref_cols) / len(ref_cols)
    assert gates[0].x2 < cx < gates[2].x1


def test_symmetric_mirror_output_symmetry(tech):
    mirror = symmetric_current_mirror(tech, 8.0, 1.0)
    out1 = [r for r in mirror.rects_on("contact") if r.net == "iout1"]
    out2 = [r for r in mirror.rects_on("contact") if r.net == "iout2"]
    assert len(out1) == len(out2)


def test_cascode_pair_shares_mid_column(tech):
    stack = cascode_pair(tech, 8.0, 1.0)
    assert run_drc(stack, include_latchup=False) == []
    assert net_is_connected(stack.rects, tech, "mid")
    mid_cuts = [r for r in stack.rects_on("contact") if r.net == "mid"]
    columns = {c.x1 for c in mid_cuts}
    assert len(columns) == 1  # one shared column


def test_cross_coupled_pattern_is_palindromic(tech):
    pair = cross_coupled_pair(tech, 10.0, 1.0, fingers_per_device=2)
    assert run_drc(pair, include_latchup=False) == []
    gates = sorted(
        (r for r in pair.rects_on("poly") if r.height > r.width),
        key=lambda g: g.x1,
    )
    nets = [g.net for g in gates]
    assert nets == ["gA", "gB", "gB", "gA"]  # ABBA


def test_cross_coupled_common_centroid(tech):
    pair = cross_coupled_pair(tech, 10.0, 1.0, fingers_per_device=2)
    gates = sorted(
        (r for r in pair.rects_on("poly") if r.height > r.width),
        key=lambda g: g.x1,
    )
    a_centre = sum((g.x1 + g.x2) / 2 for g in gates if g.net == "gA") / 2
    b_centre = sum((g.x1 + g.x2) / 2 for g in gates if g.net == "gB") / 2
    assert abs(a_centre - b_centre) < 100  # dbu


def test_cross_coupled_wiring_connects_split_devices(tech):
    pair = cross_coupled_pair(tech, 10.0, 1.0, fingers_per_device=2)
    for net in ("gA", "gB", "dA", "dB"):
        assert net_is_connected(pair.rects, tech, net), net


def test_cross_coupled_wiring_optional(tech):
    bare = cross_coupled_pair(tech, 10.0, 1.0, wiring=False)
    assert not net_is_connected(bare.rects, tech, "dA")
    assert run_drc(bare, include_latchup=False) == []


@pytest.mark.parametrize("length", [0.5, 1.0, 1.2, 2.0])
@pytest.mark.parametrize("make_tech", [generic_bicmos_1u, generic_cmos_05u])
def test_cross_coupled_parameter_grid_is_clean_or_rejected(make_tech, length):
    """Every draw is DRC-clean with its gate and drain nets connected, or
    raises before building.  The sources (vss) are not tied by the cell."""
    tech = make_tech()
    for w in (2, 3, 4, 5, 6, 8, 10, 14, 20):
        try:
            pair = cross_coupled_pair(tech, w, length)
        except RuleError:
            continue
        assert run_drc(pair, include_latchup=False) == [], (w, length)
        for net in ("gA", "gB", "dA", "dB"):
            assert net_is_connected(pair.rects, tech, net), (w, length, net)


def test_cross_coupled_rejects_small_draws():
    with pytest.raises(RuleError, match=r"W 2\.0 um"):
        cross_coupled_pair(generic_bicmos_1u(), 2.0, 1.0)
    for make_tech in (generic_bicmos_1u, generic_cmos_05u):
        with pytest.raises(RuleError, match=r"L 0\.5 um"):
            cross_coupled_pair(make_tech(), 8.0, 0.5)


def test_cross_coupled_validation(tech):
    with pytest.raises(ValueError):
        cross_coupled_pair(tech, 10.0, 1.0, fingers_per_device=0)
