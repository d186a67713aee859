"""The contact row module: the paper's Fig. 2/3 behaviours."""

import pytest

from repro.drc import run_drc
from repro.geometry import Direction
from repro.lang import Interpreter
from repro.library import CONTACT_ROW_SOURCE, contact_row


def test_fig3_left_both_omitted(tech):
    """W and L omitted: the minimum structure holding one contact."""
    row = contact_row(tech, "poly")
    cuts = row.rects_on("contact")
    assert len(cuts) == 1
    need = tech.cut_size("contact") + 2 * tech.enclosure("poly", "contact")
    assert row.rects_on("poly")[0].width >= need
    assert row.rects_on("poly")[0].height >= need


def test_fig3_middle_length_omitted(tech):
    """W given, L omitted: minimal length, W-determined height."""
    row = contact_row(tech, "pdiff", w=8.0)
    assert row.rects_on("pdiff")[0].height == 8000
    # Vertical column of contacts.
    cuts = row.rects_on("contact")
    assert len(cuts) >= 2
    assert len({c.x1 for c in cuts}) == 1


def test_fig3_right_both_given(tech):
    """W and L given: maximal equidistant array."""
    row = contact_row(tech, "poly", w=1.0, length=10.0)
    cuts = row.rects_on("contact")
    assert len(cuts) == 4
    xs = sorted(c.x1 for c in cuts)
    gaps = [b - a for a, b in zip(xs, xs[1:])]
    assert max(gaps) - min(gaps) <= 2


def test_row_is_drc_clean(tech):
    row = contact_row(tech, "poly", w=2.0, length=12.0, net="g")
    assert run_drc(row, include_latchup=False) == []


def test_variable_metal_flag(tech):
    variable = contact_row(tech, "poly", variable_metal=True)
    fixed = contact_row(tech, "poly", variable_metal=False)
    v_metal = variable.rects_on("metal1")[0]
    f_metal = fixed.rects_on("metal1")[0]
    assert all(v_metal.edge_variable(d) for d in Direction)
    assert not any(f_metal.edge_variable(d) for d in Direction)


def test_metal_min_width_bounds_shrink(tech):
    row = contact_row(tech, "pdiff", w=10.0, metal_min_width=2.8)
    seq = row.store().seqs_on("metal1")[0]
    metal = row.rects[seq]
    limit = row.shrink_limit(seq, Direction.EAST)
    other = row.shrink_limit(seq, Direction.WEST)
    assert other - limit >= -2800  # cannot narrow below the landing
    assert metal.edge(Direction.EAST).min_coord is not None


def test_dsl_source_matches_builder(tech):
    """CONTACT_ROW_SOURCE builds the same row as the Python builder."""
    interp = Interpreter(tech)
    interp.load(CONTACT_ROW_SOURCE)
    via_dsl = interp.call("ContactRow", layer="poly", W=1.0, L=10.0)
    via_python = contact_row(tech, "poly", w=1.0, length=10.0)
    assert via_dsl.bbox().as_tuple() == via_python.bbox().as_tuple()
    assert len(via_dsl.rects_on("contact")) == len(via_python.rects_on("contact"))


def test_paper_source_is_three_calls(tech):
    """The paper's point: a complete generator in three primitive calls."""
    body_lines = [
        line.strip()
        for line in CONTACT_ROW_SOURCE.splitlines()
        if line.strip() and not line.strip().startswith(("ENT", "END"))
    ]
    assert len(body_lines) == 3
