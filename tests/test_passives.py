"""Passive modules: poly resistors and MOS capacitors, plus RC estimation."""

import pytest

from repro.db import (
    estimate_net_resistance,
    net_is_connected,
    rc_report,
)
from repro.db.nets import extract_connectivity
from repro.drc import run_drc
from repro.geometry import Rect
from repro.library.passives import (
    capacitor_value,
    mos_capacitor,
    poly_resistor,
    resistor_value,
)
from repro.tech import RuleError


# ---------------------------------------------------------------------------
# resistance estimation
# ---------------------------------------------------------------------------
def test_straight_wire_resistance(tech):
    # 20 µm × 2 µm poly = 10 squares × 25 Ω/□ = 250 Ω.
    rects = [Rect(0, 0, 20000, 2000, "poly", "r")]
    assert estimate_net_resistance(rects, tech, "r") == pytest.approx(250.0)


def test_resistance_ignores_other_nets_and_unruled_layers(tech):
    rects = [
        Rect(0, 0, 20000, 2000, "poly", "r"),
        Rect(0, 0, 20000, 2000, "poly", "other"),
        Rect(0, 0, 20000, 2000, "nwell", "r"),  # no SHEET rule
    ]
    assert estimate_net_resistance(rects, tech, "r") == pytest.approx(250.0)


def test_metal_is_nearly_free(tech):
    poly = [Rect(0, 0, 20000, 2000, "poly", "r")]
    metal = [Rect(0, 0, 20000, 2000, "metal1", "r")]
    assert estimate_net_resistance(metal, tech, "r") < 0.01 * estimate_net_resistance(
        poly, tech, "r"
    )


def test_rc_report(tech):
    rects = [Rect(0, 0, 20000, 2000, "poly", "r")]
    report = rc_report(rects, tech)
    resistance, capacitance, rc_ps = report["r"]
    assert resistance == pytest.approx(250.0)
    assert capacitance > 0
    assert rc_ps == pytest.approx(resistance * capacitance * 1e-6)


# ---------------------------------------------------------------------------
# poly resistor
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("segments", [1, 2, 3, 4, 7])
def test_resistor_is_drc_clean(tech, segments):
    resistor = poly_resistor(tech, segments=segments)
    assert run_drc(resistor, include_latchup=False) == []


def test_resistor_terminals_are_chained(tech):
    resistor = poly_resistor(tech, segments=4)
    components = extract_connectivity(resistor.rects, tech)
    with_a = [c for c in components if any(r.net == "ra" for r in c)]
    assert len(with_a) == 1
    assert any(r.net == "rb" for r in with_a[0])


def test_resistor_value_scales_with_squares(tech):
    # ~10 squares/segment; value should scale near-linearly with segments.
    two = resistor_value(poly_resistor(tech, segments=2), tech)
    four = resistor_value(poly_resistor(tech, segments=4), tech)
    assert 1.7 < four / two < 2.3


def test_resistor_value_scales_inverse_with_width(tech):
    narrow = resistor_value(poly_resistor(tech, width=2.0, segments=2), tech)
    wide = resistor_value(poly_resistor(tech, width=4.0, segments=2), tech)
    assert wide < narrow


def test_resistor_validation(tech):
    with pytest.raises(RuleError):
        poly_resistor(tech, segments=0)


def test_resistor_value_requires_body_net(tech):
    from repro.db import LayoutObject

    with pytest.raises(RuleError):
        resistor_value(LayoutObject("empty", tech), tech)


# ---------------------------------------------------------------------------
# MOS capacitor
# ---------------------------------------------------------------------------
def test_capacitor_is_drc_clean(tech):
    cap = mos_capacitor(tech, 20.0, 20.0)
    assert run_drc(cap, include_latchup=False) == []


def test_capacitor_plates_connected(tech):
    cap = mos_capacitor(tech, 20.0, 20.0)
    assert net_is_connected(cap.rects, tech, "ctop")
    # The two bottom-plate columns were strapped by the Fig. 5a
    # auto-connection during compaction.
    assert net_is_connected(cap.rects, tech, "cbot")


def test_capacitance_scales_with_area(tech):
    small = capacitor_value(mos_capacitor(tech, 10.0, 10.0), tech)
    large = capacitor_value(mos_capacitor(tech, 20.0, 20.0), tech)
    assert 2.5 < large / small < 4.5  # area term dominates over perimeter


def test_capacitor_on_half_micron(tech05):
    cap = mos_capacitor(tech05, 10.0, 10.0)
    assert run_drc(cap, include_latchup=False) == []


def test_resistor_without_metal1_spacing_is_rule_error(tech):
    from repro.tech import dumps_tech, loads_tech

    text = dumps_tech(tech).replace("RULE SPACE metal1 metal1 1.5\n", "")
    assert "SPACE metal1 metal1" not in text
    with pytest.raises(RuleError, match="metal1"):
        poly_resistor(loads_tech(text), segments=2)
