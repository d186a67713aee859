"""Technology description file: parse, serialise, round-trip, errors."""

import pytest

from repro.tech import (
    TechFileError,
    dumps_tech,
    generic_bicmos_1u,
    generic_cmos_05u,
    loads_tech,
)

MINIMAL = """
# a comment
UNITS 1000
TECH demo
LAYER poly 10 poly hatch-right #cc0000
LAYER metal1 30 metal solid #0000cc
LAYER contact 40 cut cross-hatch #000000
CONNECT contact poly metal1
RULE WIDTH poly 1.0
RULE SPACE poly poly 1.2
RULE ENCLOSE metal1 contact 0.5
RULE EXTEND poly metal1 0.4
RULE CUTSIZE contact 1.0
RULE AREA metal1 4.0
RULE LATCHUP contact 25.0
RULE CAP poly 60 50
"""


def test_parse_minimal():
    tech = loads_tech(MINIMAL)
    assert tech.name == "demo"
    assert tech.dbu_per_micron == 1000
    assert tech.min_width("poly") == 1000
    assert tech.min_space("poly", "poly") == 1200
    assert tech.enclosure("metal1", "contact") == 500
    assert tech.extension("poly", "metal1") == 400
    assert tech.cut_size("contact") == 1000
    assert tech.rules.area("metal1") == 4_000_000
    assert tech.latchup_half_size("contact") == 25_000
    assert tech.cut_between("poly", "metal1") == "contact"
    cap = tech.capacitance("poly")
    assert cap.area == pytest.approx(60 / 1000 ** 2)
    assert cap.perimeter == pytest.approx(50 / 1000)


def test_layer_defaults():
    tech = loads_tech("TECH t\nLAYER poly 10 poly\n")
    layer = tech.layer("poly")
    assert layer.fill_pattern == "solid"
    assert layer.color == "#888888"


@pytest.mark.parametrize(
    "bad",
    [
        "LAYER poly 10 poly\n",  # before TECH
        "TECH t\nBOGUS x\n",
        "TECH t\nRULE NONSENSE poly 1\n",
        "TECH t\nLAYER poly ten poly\n",
        "",
        # rule values out of range (SPACE 0 and negative ENCLOSE stay legal)
        "TECH t\nLAYER poly 10 poly\nRULE WIDTH poly 0\n",
        "TECH t\nLAYER poly 10 poly\nRULE WIDTH poly -1.0\n",
        "TECH t\nLAYER contact 40 cut\nRULE CUTSIZE contact 0\n",
        "TECH t\nLAYER poly 10 poly\nRULE SPACE poly poly -0.5\n",
        "TECH t\nLAYER metal1 30 metal\nRULE AREA metal1 -4.0\n",
        # rules and connections naming an undefined layer
        "TECH t\nLAYER poly 10 poly\nRULE WIDTH metal9 1.0\n",
        "TECH t\nLAYER poly 10 poly\nRULE SPACE poly metal9 1.0\n",
        "TECH t\nLAYER poly 10 poly\nRULE CAP metal9 60 50\n",
        "TECH t\nLAYER poly 10 poly\nRULE SHEET metal9 25\n",
        "TECH t\nLAYER poly 10 poly\nCONNECT contact poly metal1\n",
    ],
)
def test_malformed_inputs_raise(bad):
    with pytest.raises(TechFileError):
        loads_tech(bad)


def test_rule_errors_name_the_line():
    text = "TECH t\nLAYER contact 40 cut\n\nRULE CUTSIZE contact 0\n"
    with pytest.raises(TechFileError, match=r"line 4: 'RULE CUTSIZE contact 0'"):
        loads_tech(text)


def test_hash_starts_a_comment_only_outside_the_colour_field():
    tech = loads_tech(
        "TECH t  # the name\n"
        "LAYER poly 10 poly hatch-right #cc2222 # gate layer\n"
        "RULE WIDTH poly 1.0 #1.5 was the old value\n"
    )
    assert tech.name == "t"
    assert tech.layer("poly").color == "#cc2222"
    assert tech.min_width("poly") == 1000


@pytest.mark.parametrize("factory", [generic_bicmos_1u, generic_cmos_05u])
def test_builtin_roundtrip(factory):
    """Serialise → parse reproduces every rule of the built-in technologies."""
    original = factory()
    restored = loads_tech(dumps_tech(original))
    assert restored.name == original.name
    assert restored.dbu_per_micron == original.dbu_per_micron
    assert {l.name for l in restored.layers} == {l.name for l in original.layers}
    assert sorted(original.rules.iter_rules(), key=str) == sorted(
        restored.rules.iter_rules(), key=str
    )
    for layer in original.layers:
        copy = restored.layer(layer.name)
        assert copy.gds_number == layer.gds_number
        assert copy.kind == layer.kind
        assert copy.fill_pattern == layer.fill_pattern
        assert copy.color == layer.color
    text = dumps_tech(original)
    assert dumps_tech(loads_tech(text)) == text


def test_dump_and_load_file(tmp_path):
    from repro.tech import dump_tech, load_tech

    path = tmp_path / "demo.tech"
    tech = loads_tech(MINIMAL)
    dump_tech(tech, path)
    again = load_tech(path)
    assert again.min_width("poly") == 1000
