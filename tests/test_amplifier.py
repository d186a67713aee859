"""The broad-band BiCMOS amplifier (Sec. 3) — blocks and assembly."""

import pytest

from repro.amplifier import (
    BLOCK_BUILDERS,
    FLOORPLAN,
    GLOBAL_NETS,
    build_amplifier,
    measure_amplifier,
)
from repro.db import (
    capacitance_report,
    estimate_net_capacitance,
    estimate_net_resistance,
    net_is_connected,
    rc_report,
)
from repro.drc import run_drc


@pytest.fixture(scope="module")
def amplifier():
    from repro.tech import generic_bicmos_1u

    return build_amplifier(generic_bicmos_1u())


@pytest.mark.parametrize("name", sorted(BLOCK_BUILDERS))
def test_each_block_is_drc_clean(tech, name):
    block = BLOCK_BUILDERS[name](tech)
    assert run_drc(block, include_latchup=False) == []
    assert not block.is_empty()


def test_block_choices_match_partitioning(tech):
    """Sec. 3's knowledge-based partitioning decisions are in the layout."""
    # Block B: three gates, diode in the middle (moderate matching).
    block_b = BLOCK_BUILDERS["B"](tech)
    gates_b = [r for r in block_b.rects_on("poly") if r.height > r.width]
    assert len(gates_b) == 3
    # Block C: cross-coupled ABBA fingers (high matching).
    block_c = BLOCK_BUILDERS["C"](tech)
    gates_c = sorted(
        (r for r in block_c.rects_on("poly") if r.height > r.width),
        key=lambda r: r.x1,
    )
    assert [g.net for g in gates_c] == ["vbias1"] * 4
    # Block E: dummies present (best matching).
    block_e = BLOCK_BUILDERS["E"](tech)
    dummies = [
        r for r in block_e.rects_on("poly")
        if r.net == "itail" and r.height > r.width * 2
    ]
    assert len(dummies) == 16
    # Block F: bipolar layers present.
    block_f = BLOCK_BUILDERS["F"](tech)
    assert block_f.rects_on("emitter") and block_f.rects_on("buried")


def test_amplifier_is_drc_clean_including_latchup(amplifier):
    assert run_drc(amplifier, include_latchup=True) == []


def test_global_nets_connected(amplifier, tech):
    """The scripted 'manual global routing' joins every inter-block net."""
    for net in GLOBAL_NETS:
        assert net_is_connected(amplifier.rects, tech, net), net


def test_floorplan_covers_all_blocks():
    assert set(FLOORPLAN) == set(BLOCK_BUILDERS)


def test_measurement_report(amplifier):
    report = measure_amplifier(amplifier)
    assert report.drc_violations == 0
    assert report.area_um2 == pytest.approx(report.width_um * report.height_um)
    # Same order of magnitude as the paper's 592 × 481 µm² (our substitute
    # technology and device sizes differ; see EXPERIMENTS.md).
    assert 10_000 < report.area_um2 < 1_000_000
    # Parasitics reported for the internal nodes.
    assert "n1" in report.net_capacitance_af
    assert report.net_capacitance_af["n1"] > 0


def test_internal_node_parasitics_are_matched(amplifier):
    """The signal-path pair nodes see closely matched capacitance."""
    report = measure_amplifier(amplifier)
    c1 = report.net_capacitance_af["n1"]
    c2 = report.net_capacitance_af["n2"]
    assert abs(c1 - c2) / max(c1, c2) < 0.25


def test_parasitic_reports_equal_single_net_estimates(amplifier, tech):
    """All three parasitic views sum one formula in one order: exact ``==``."""
    rects = amplifier.rects
    report = rc_report(rects, tech)
    capacitances = capacitance_report(rects, tech)
    assert list(report) == list(capacitances)
    assert len(report) > 10
    for net, (resistance, capacitance, rc) in report.items():
        assert capacitance == estimate_net_capacitance(rects, tech, net), net
        assert capacitance == capacitances[net], net
        assert resistance == estimate_net_resistance(rects, tech, net), net
        assert rc == resistance * capacitance * 1e-6, net


def test_build_without_routing_or_ring(tech):
    bare = build_amplifier(tech, with_routing=False, with_ring=False)
    assert not net_is_connected(bare.rects, tech, "ibias")
    assert bare.rects_on("subcontact") == []


def test_supply_nets_routed(amplifier, tech):
    """The supplies participate in the global routing (vss and vdd)."""
    assert "vss" in GLOBAL_NETS and "vdd" in GLOBAL_NETS
    for net in ("vss", "vdd"):
        assert net_is_connected(amplifier.rects, tech, net), net


def test_collector_sinker_junction(tech):
    """The npn's buried collector connects through the declared overlap."""
    from repro.amplifier import block_f
    from repro.db.nets import extract_connectivity

    block = block_f(tech)
    components = extract_connectivity(block.rects, tech)
    vdd_comps = [c for c in components if any(r.net == "vdd" for r in c)]
    assert len(vdd_comps) == 1
    layers = {r.layer for r in vdd_comps[0]}
    assert "buried" in layers and "metal1" in layers
