"""Technology object: units, layers, rules, connectivity."""

import pytest

from repro.tech import (
    Layer,
    LayerKind,
    RuleError,
    Technology,
    dumps_tech,
    generic_bicmos_1u,
    generic_cmos_05u,
)


def make_tech():
    tech = Technology("t", dbu_per_micron=1000)
    tech.add_layer(Layer("poly", 10, LayerKind.POLY))
    tech.add_layer(Layer("metal1", 30, LayerKind.METAL))
    tech.add_layer(Layer("contact", 40, LayerKind.CUT))
    tech.add_layer(Layer("nwell", 1, LayerKind.WELL))
    return tech


def test_unit_conversion_roundtrip():
    tech = Technology("t", dbu_per_micron=1000)
    assert tech.um(1.5) == 1500
    assert tech.um(0.0005) == 0  # below grid resolution rounds
    assert tech.to_um(2500) == 2.5


def test_invalid_dbu_rejected():
    with pytest.raises(ValueError):
        Technology("t", dbu_per_micron=0)


def test_duplicate_layer_rejected():
    tech = make_tech()
    with pytest.raises(ValueError):
        tech.add_layer(Layer("poly", 11, LayerKind.POLY))


def test_unknown_layer_is_rule_error():
    tech = make_tech()
    with pytest.raises(RuleError):
        tech.layer("missing")
    assert not tech.has_layer("missing")
    assert tech.has_layer("poly")


def test_layers_of_kind():
    tech = make_tech()
    assert [l.name for l in tech.layers_of_kind(LayerKind.CUT)] == ["contact"]


def test_mandatory_rules_raise_when_missing():
    tech = make_tech()
    with pytest.raises(RuleError):
        tech.min_width("poly")
    with pytest.raises(RuleError):
        tech.enclosure("poly", "contact")
    with pytest.raises(RuleError):
        tech.extension("poly", "metal1")
    with pytest.raises(RuleError):
        tech.cut_size("contact")
    with pytest.raises(RuleError):
        tech.latchup_half_size("contact")


def test_optional_rules_default():
    tech = make_tech()
    assert tech.min_space("poly", "metal1") is None
    assert tech.enclosure_or_zero("poly", "contact") == 0
    cap = tech.capacitance("poly")
    assert cap.area == 0.0 and cap.perimeter == 0.0


def test_micron_rule_registration():
    tech = make_tech()
    tech.rule_width("poly", 1.0)
    tech.rule_space("poly", "poly", 1.2)
    tech.rule_enclose("poly", "contact", 0.8)
    tech.rule_extend("poly", "metal1", 0.5)
    tech.rule_cut_size("contact", 1.0)
    tech.rule_area("metal1", 4.0)
    tech.rule_latchup("contact", 50.0)
    assert tech.min_width("poly") == 1000
    assert tech.min_space("poly", "poly") == 1200
    assert tech.enclosure("poly", "contact") == 800
    assert tech.extension("poly", "metal1") == 500
    assert tech.cut_size("contact") == 1000
    assert tech.rules.area("metal1") == 4_000_000
    assert tech.latchup_half_size("contact") == 50_000


def test_space_rule_is_symmetric():
    tech = make_tech()
    tech.rule_space("poly", "metal1", 0.7)
    assert tech.min_space("metal1", "poly") == 700
    assert tech.min_space("poly", "metal1") == 700


def test_connectivity():
    tech = make_tech()
    tech.add_connection("contact", "poly", "metal1")
    assert tech.cut_between("poly", "metal1") == "contact"
    assert tech.cut_between("metal1", "poly") == "contact"
    assert tech.cut_between("poly", "nwell") is None
    assert tech.connectable("poly", "poly")
    assert tech.connectable("poly", "metal1")
    assert not tech.connectable("poly", "nwell")
    assert tech.connected_layers("contact") == [("poly", "metal1")]


def test_connection_requires_known_layers():
    tech = make_tech()
    with pytest.raises(RuleError):
        tech.add_connection("contact", "poly", "metal9")


@pytest.mark.parametrize("factory", [generic_bicmos_1u, generic_cmos_05u])
def test_compiled_table_equals_rule_set(factory):
    """Every ordered layer pair's compiled answers are the RuleSet's."""
    tech = factory()
    rules = tech.rules
    names = [layer.name for layer in tech.layers]
    assert len(tech.table) == len(names) ** 2
    for a in names:
        for b in names:
            entry = tech.table[(a, b)]
            assert entry.space == rules.space(a, b) == tech.min_space(a, b)
            assert entry.connectable == (
                a == b or tech.cut_between(a, b) is not None
            )
            assert entry.conducting == (
                tech.layer(a).conducting and tech.layer(b).conducting
            )
            assert entry.extend == rules.extend(a, b)
            assert entry.extended_by == rules.extend(b, a)
    assert tech.space_rules == tuple(
        (a, b, value) for (a, b), value in rules.space_items()
    )
    assert tech.max_space_radius == max(v for _, _, v in tech.space_rules)


def test_undefined_layer_pair_is_rule_error():
    tech = generic_bicmos_1u()
    with pytest.raises(RuleError):
        tech.table[("poly", "metal9")]
    with pytest.raises(RuleError):
        tech.min_space("metal9", "poly")
    with pytest.raises(RuleError):
        tech.connectable("metal9", "metal9")


@pytest.mark.parametrize(
    "register",
    [
        lambda t: t.rules.set_width("poly", 1000),
        lambda t: t.rules.set_space("poly", "poly", 1000),
        lambda t: t.rules.set_enclose("metal1", "contact", 100),
        lambda t: t.rules.set_extend("poly", "pdiff", 100),
        lambda t: t.rules.set_cut_size("contact", 1000),
        lambda t: t.rules.set_area("metal1", 1000),
        lambda t: t.rules.set_latchup("subcontact", 1000),
        lambda t: t.rules.set_capacitance("poly", 1.0, 1.0),
        lambda t: t.rules.set_sheet("poly", 1.0),
        lambda t: t.rule_width("poly", 1.0),
        lambda t: t.rule_space("poly", "metal1", 1.0),
        lambda t: t.rule_enclose("metal1", "contact", 1.0),
        lambda t: t.rule_extend("poly", "pdiff", 1.0),
        lambda t: t.rule_cut_size("contact", 1.0),
        lambda t: t.rule_area("metal1", 1.0),
        lambda t: t.rule_latchup("subcontact", 1.0),
        lambda t: t.add_layer(Layer("metal3", 32, LayerKind.METAL)),
        lambda t: t.add_connection("via", "metal1", "metal2"),
        lambda t: t.add_overlap_connection("emitter", "buried"),
    ],
)
def test_registration_after_freeze_raises(register):
    tech = generic_bicmos_1u()
    before = dumps_tech(tech)
    with pytest.raises(RuleError):
        register(tech)
    assert dumps_tech(tech) == before


def test_hand_built_technology_freezes_on_first_table_read():
    tech = make_tech()
    tech.rule_space("poly", "poly", 1.2)
    assert not tech.rules.frozen
    assert tech.min_space("poly", "poly") == 1200
    assert tech.rules.frozen
    with pytest.raises(RuleError):
        tech.rule_space("metal1", "metal1", 1.0)


@pytest.mark.parametrize(
    "register",
    [
        lambda t: t.rule_width("poly", 0.0),
        lambda t: t.rule_width("poly", -1.0),
        lambda t: t.rule_cut_size("contact", 0.0),
        lambda t: t.rule_space("poly", "poly", -0.5),
        lambda t: t.rule_area("metal1", -1.0),
        lambda t: t.rule_width("metal9", 1.0),
        lambda t: t.rule_space("poly", "metal9", 1.0),
    ],
)
def test_bad_rules_rejected_at_registration(register):
    tech = make_tech()
    with pytest.raises(RuleError):
        register(tech)


def test_zero_space_and_negative_enclose_stay_legal():
    tech = make_tech()
    tech.rule_space("poly", "metal1", 0.0)
    tech.rule_enclose("poly", "contact", -0.2)
    assert tech.min_space("poly", "metal1") == 0
    assert tech.enclosure("poly", "contact") == -200
