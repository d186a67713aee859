"""Built-in technologies.

``generic_bicmos_1u`` substitutes for the paper's proprietary 1 µm Siemens
BiCMOS process: layer names follow the paper (poly, pdiff, metal1, contact,
locos, substrate contacts, bipolar layers) and rule values are plausible
public 1 µm-generation numbers.  Absolute areas therefore differ from the
paper's 592 × 481 µm², but every algorithm exercises identical code paths.

``generic_cmos_05u`` is a second, scaled technology used by tests to prove
that module source is technology independent.
"""

from __future__ import annotations

from .layer import Layer, LayerKind
from .technology import Technology


def generic_bicmos_1u() -> Technology:
    """A generic 1 µm BiCMOS technology (paper-substitute)."""
    tech = Technology("generic_bicmos_1u", dbu_per_micron=1000)

    add = tech.add_layer
    add(Layer("nwell", 1, LayerKind.WELL, "horizontal", "#d9c67a"))
    add(Layer("locos", 2, LayerKind.DIFFUSION, "dots", "#9cc79c"))
    add(Layer("pdiff", 3, LayerKind.DIFFUSION, "hatch-left", "#cc8844"))
    add(Layer("ndiff", 4, LayerKind.DIFFUSION, "hatch-right", "#44aa66"))
    add(Layer("poly", 10, LayerKind.POLY, "hatch-right", "#cc2222"))
    add(Layer("contact", 40, LayerKind.CUT, "cross-hatch", "#222222"))
    add(Layer("metal1", 30, LayerKind.METAL, "solid", "#5577dd"))
    add(Layer("via", 41, LayerKind.CUT, "dense-dots", "#333355"))
    add(Layer("metal2", 31, LayerKind.METAL, "vertical", "#9955cc"))
    add(Layer("subcontact", 5, LayerKind.DIFFUSION, "cross-hatch", "#886644"))
    add(Layer("buried", 20, LayerKind.BIPOLAR, "horizontal", "#777777"))
    add(Layer("base", 21, LayerKind.BIPOLAR, "hatch-left", "#bb7799"))
    add(Layer("emitter", 22, LayerKind.BIPOLAR, "dots", "#dd5555"))

    tech.add_connection("contact", "poly", "metal1")
    tech.add_connection("contact", "pdiff", "metal1")
    tech.add_connection("contact", "ndiff", "metal1")
    tech.add_connection("contact", "subcontact", "metal1")
    tech.add_connection("contact", "base", "metal1")
    tech.add_connection("contact", "emitter", "metal1")
    tech.add_connection("via", "metal1", "metal2")
    # The n+ collector sinker (drawn on the emitter layer) diffuses into the
    # buried layer: their overlap is an electrical junction.
    tech.add_overlap_connection("emitter", "buried")

    # -- widths ---------------------------------------------------------
    tech.rule_width("poly", 1.0)
    tech.rule_width("pdiff", 2.0)
    tech.rule_width("ndiff", 2.0)
    tech.rule_width("subcontact", 2.0)
    tech.rule_width("metal1", 1.5)
    tech.rule_width("metal2", 2.0)
    tech.rule_width("nwell", 4.0)
    tech.rule_width("locos", 2.0)
    tech.rule_width("buried", 4.0)
    tech.rule_width("base", 3.0)
    tech.rule_width("emitter", 2.0)
    tech.rule_cut_size("contact", 1.0)
    tech.rule_cut_size("via", 1.2)
    # cut layers still need a WIDTH for generic drawing checks
    tech.rule_width("contact", 1.0)
    tech.rule_width("via", 1.2)

    # -- spacings --------------------------------------------------------
    tech.rule_space("poly", "poly", 1.2)
    tech.rule_space("pdiff", "pdiff", 2.5)
    tech.rule_space("ndiff", "ndiff", 2.5)
    tech.rule_space("pdiff", "ndiff", 3.0)
    tech.rule_space("metal1", "metal1", 1.5)
    tech.rule_space("metal2", "metal2", 2.0)
    tech.rule_space("contact", "contact", 1.2)
    tech.rule_space("via", "via", 1.5)
    tech.rule_space("poly", "pdiff", 0.8)
    tech.rule_space("poly", "ndiff", 0.8)
    tech.rule_space("poly", "contact", 0.8)
    tech.rule_space("contact", "pdiff", 0.8)
    tech.rule_space("contact", "ndiff", 0.8)
    tech.rule_space("nwell", "nwell", 6.0)
    tech.rule_space("nwell", "ndiff", 3.0)
    tech.rule_space("subcontact", "pdiff", 2.5)
    tech.rule_space("subcontact", "ndiff", 2.5)
    tech.rule_space("subcontact", "subcontact", 2.5)
    tech.rule_space("buried", "buried", 5.0)
    tech.rule_space("base", "base", 3.0)
    tech.rule_space("emitter", "emitter", 3.0)
    tech.rule_space("emitter", "base", 0.0)

    # -- enclosures (INBOX/ARRAY drivers) ---------------------------------
    tech.rule_enclose("poly", "contact", 0.8)
    tech.rule_enclose("pdiff", "contact", 1.0)
    tech.rule_enclose("ndiff", "contact", 1.0)
    tech.rule_enclose("subcontact", "contact", 1.0)
    tech.rule_enclose("base", "contact", 1.0)
    tech.rule_enclose("emitter", "contact", 0.8)
    tech.rule_enclose("metal1", "contact", 0.5)
    tech.rule_enclose("metal1", "via", 0.8)
    tech.rule_enclose("metal2", "via", 0.8)
    tech.rule_enclose("metal1", "poly", 0.0)
    tech.rule_enclose("metal1", "pdiff", 0.0)
    tech.rule_enclose("metal1", "ndiff", 0.0)
    tech.rule_enclose("metal1", "subcontact", 0.0)
    tech.rule_enclose("nwell", "pdiff", 2.5)
    tech.rule_enclose("locos", "pdiff", 0.0)
    tech.rule_enclose("locos", "ndiff", 0.0)
    tech.rule_enclose("base", "emitter", 1.0)
    tech.rule_enclose("buried", "base", 2.0)

    # -- extensions --------------------------------------------------------
    tech.rule_extend("poly", "pdiff", 1.0)  # gate endcap
    tech.rule_extend("poly", "ndiff", 1.0)
    tech.rule_extend("pdiff", "poly", 2.5)  # source/drain past gate
    tech.rule_extend("ndiff", "poly", 2.5)

    # -- areas -------------------------------------------------------------
    tech.rule_area("metal1", 4.0)
    tech.rule_area("metal2", 6.0)

    # -- latch-up (Fig. 1) ---------------------------------------------------
    tech.rule_latchup("subcontact", 50.0)

    # -- capacitance model (aF/µm², aF/µm) ------------------------------------
    um2 = tech.dbu_per_micron ** 2
    um = tech.dbu_per_micron
    tech.rules.set_capacitance("poly", 60.0 / um2, 50.0 / um)
    tech.rules.set_capacitance("pdiff", 250.0 / um2, 300.0 / um)
    tech.rules.set_capacitance("ndiff", 180.0 / um2, 250.0 / um)
    tech.rules.set_capacitance("metal1", 30.0 / um2, 40.0 / um)
    tech.rules.set_capacitance("metal2", 20.0 / um2, 30.0 / um)
    tech.rules.set_capacitance("base", 400.0 / um2, 350.0 / um)
    tech.rules.set_capacitance("emitter", 500.0 / um2, 400.0 / um)

    # -- sheet resistance (Ω/□) — "poly-wire resistance" matters (Sec. 3) ----
    tech.rules.set_sheet("poly", 25.0)
    tech.rules.set_sheet("pdiff", 60.0)
    tech.rules.set_sheet("ndiff", 40.0)
    tech.rules.set_sheet("metal1", 0.06)
    tech.rules.set_sheet("metal2", 0.04)
    return tech.freeze()


def generic_cmos_05u() -> Technology:
    """A half-micron generic CMOS technology (scaled variant for tests)."""
    tech = Technology("generic_cmos_05u", dbu_per_micron=1000)

    add = tech.add_layer
    add(Layer("nwell", 1, LayerKind.WELL, "horizontal", "#d9c67a"))
    add(Layer("locos", 2, LayerKind.DIFFUSION, "dots", "#9cc79c"))
    add(Layer("pdiff", 3, LayerKind.DIFFUSION, "hatch-left", "#cc8844"))
    add(Layer("ndiff", 4, LayerKind.DIFFUSION, "hatch-right", "#44aa66"))
    add(Layer("poly", 10, LayerKind.POLY, "hatch-right", "#cc2222"))
    add(Layer("contact", 40, LayerKind.CUT, "cross-hatch", "#222222"))
    add(Layer("metal1", 30, LayerKind.METAL, "solid", "#5577dd"))
    add(Layer("via", 41, LayerKind.CUT, "dense-dots", "#333355"))
    add(Layer("metal2", 31, LayerKind.METAL, "vertical", "#9955cc"))
    add(Layer("subcontact", 5, LayerKind.DIFFUSION, "cross-hatch", "#886644"))

    tech.add_connection("contact", "poly", "metal1")
    tech.add_connection("contact", "pdiff", "metal1")
    tech.add_connection("contact", "ndiff", "metal1")
    tech.add_connection("contact", "subcontact", "metal1")
    tech.add_connection("via", "metal1", "metal2")

    tech.rule_width("poly", 0.5)
    tech.rule_width("pdiff", 1.0)
    tech.rule_width("ndiff", 1.0)
    tech.rule_width("subcontact", 1.0)
    tech.rule_width("metal1", 0.8)
    tech.rule_width("metal2", 1.0)
    tech.rule_width("nwell", 2.0)
    tech.rule_width("locos", 1.0)
    tech.rule_width("contact", 0.5)
    tech.rule_width("via", 0.6)
    tech.rule_cut_size("contact", 0.5)
    tech.rule_cut_size("via", 0.6)

    tech.rule_space("poly", "poly", 0.6)
    tech.rule_space("pdiff", "pdiff", 1.2)
    tech.rule_space("ndiff", "ndiff", 1.2)
    tech.rule_space("pdiff", "ndiff", 1.6)
    tech.rule_space("metal1", "metal1", 0.8)
    tech.rule_space("metal2", "metal2", 1.0)
    tech.rule_space("contact", "contact", 0.6)
    tech.rule_space("via", "via", 0.8)
    tech.rule_space("poly", "pdiff", 0.4)
    tech.rule_space("poly", "ndiff", 0.4)
    tech.rule_space("poly", "contact", 0.4)
    tech.rule_space("contact", "pdiff", 0.4)
    tech.rule_space("contact", "ndiff", 0.4)
    tech.rule_space("subcontact", "pdiff", 1.2)
    tech.rule_space("subcontact", "ndiff", 1.2)
    tech.rule_space("subcontact", "subcontact", 1.2)
    tech.rule_space("nwell", "nwell", 3.0)
    tech.rule_space("nwell", "ndiff", 1.5)

    tech.rule_enclose("poly", "contact", 0.4)
    tech.rule_enclose("pdiff", "contact", 0.5)
    tech.rule_enclose("ndiff", "contact", 0.5)
    tech.rule_enclose("subcontact", "contact", 0.5)
    tech.rule_enclose("metal1", "contact", 0.3)
    tech.rule_enclose("metal1", "via", 0.4)
    tech.rule_enclose("metal2", "via", 0.4)
    tech.rule_enclose("metal1", "poly", 0.0)
    tech.rule_enclose("metal1", "pdiff", 0.0)
    tech.rule_enclose("metal1", "ndiff", 0.0)
    tech.rule_enclose("metal1", "subcontact", 0.0)
    tech.rule_enclose("nwell", "pdiff", 1.2)
    tech.rule_enclose("locos", "pdiff", 0.0)
    tech.rule_enclose("locos", "ndiff", 0.0)

    tech.rule_extend("poly", "pdiff", 0.5)
    tech.rule_extend("poly", "ndiff", 0.5)
    tech.rule_extend("pdiff", "poly", 1.2)
    tech.rule_extend("ndiff", "poly", 1.2)

    tech.rule_area("metal1", 1.0)
    tech.rule_area("metal2", 1.5)
    tech.rule_latchup("subcontact", 25.0)

    um2 = tech.dbu_per_micron ** 2
    um = tech.dbu_per_micron
    tech.rules.set_capacitance("poly", 90.0 / um2, 60.0 / um)
    tech.rules.set_capacitance("pdiff", 400.0 / um2, 350.0 / um)
    tech.rules.set_capacitance("ndiff", 300.0 / um2, 300.0 / um)
    tech.rules.set_capacitance("metal1", 35.0 / um2, 45.0 / um)
    tech.rules.set_capacitance("metal2", 25.0 / um2, 35.0 / um)

    tech.rules.set_sheet("poly", 8.0)   # silicided
    tech.rules.set_sheet("pdiff", 90.0)
    tech.rules.set_sheet("ndiff", 70.0)
    tech.rules.set_sheet("metal1", 0.08)
    tech.rules.set_sheet("metal2", 0.05)
    return tech.freeze()


#: Registry of built-in technologies by name.
BUILTIN_TECHNOLOGIES = {
    "generic_bicmos_1u": generic_bicmos_1u,
    "generic_cmos_05u": generic_cmos_05u,
}


def get_technology(name: str) -> Technology:
    """Instantiate a built-in technology by name."""
    try:
        factory = BUILTIN_TECHNOLOGIES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_TECHNOLOGIES))
        raise ValueError(f"unknown technology {name!r}; built-ins: {known}") from None
    return factory()
