"""Golden-cell regression: content hashes over library × technology."""

import json

from repro.library import GOLDEN_CELLS
from repro.verify import (
    GOLDEN_PATH,
    cell_fingerprint,
    compute_fingerprints,
    load_golden,
    update_golden,
    verify_golden,
)


def test_committed_golden_file_matches_current_code():
    """The heart of the regression: rebuild every cell, compare hashes."""
    assert GOLDEN_PATH.exists()
    assert verify_golden() == []


def test_fingerprint_is_deterministic(tech):
    cell = GOLDEN_CELLS[0]
    assert cell_fingerprint(cell, tech) == cell_fingerprint(cell, tech)


def test_fingerprints_cover_all_supported_cells(tech, tech05):
    prints = compute_fingerprints()
    assert set(prints) == {"generic_bicmos_1u", "generic_cmos_05u"}
    for tech_obj, name in ((tech, "generic_bicmos_1u"), (tech05, "generic_cmos_05u")):
        expected = {c.name for c in GOLDEN_CELLS if c.supported(tech_obj)}
        assert set(prints[name]) == expected
    # The bipolar cells exist only where the bipolar layers do.
    assert "npn_transistor" in prints["generic_bicmos_1u"]
    assert "npn_transistor" not in prints["generic_cmos_05u"]


def test_verify_golden_detects_changes(tmp_path):
    path = tmp_path / "golden.json"
    techs = ["generic_cmos_05u"]  # one technology keeps the test quick
    update_golden(path=path, tech_names=techs)
    assert verify_golden(path=path, tech_names=techs) == []

    data = load_golden(path)
    tech_name = sorted(data)[0]
    cell_name = sorted(data[tech_name])[0]
    data[tech_name][cell_name] = "0" * 64
    removed = sorted(data[tech_name])[1]
    del data[tech_name][removed]
    data[tech_name]["no_such_cell"] = "f" * 64
    path.write_text(json.dumps(data))

    mismatches = verify_golden(path=path, tech_names=techs)
    kinds = {(m.cell, m.kind) for m in mismatches}
    assert (cell_name, "changed") in kinds
    assert (removed, "missing") in kinds
    assert ("no_such_cell", "stale") in kinds


def test_verify_golden_reports_drc_dirty_cells(tmp_path, monkeypatch):
    """A cell whose hash matches still fails when it is not DRC-clean."""
    from repro.db import LayoutObject
    from repro.geometry import Rect
    from repro.library import CellSpec
    from repro.verify import golden

    def thin_wire(tech):
        obj = LayoutObject("thin", tech)
        obj.add_rect(Rect(0, 0, 10_000, 100, "metal1", "n"))
        return obj

    monkeypatch.setattr(golden, "GOLDEN_CELLS", (CellSpec("thin_wire", thin_wire),))
    path = tmp_path / "golden.json"
    techs = ["generic_cmos_05u"]
    update_golden(path=path, tech_names=techs)
    mismatches = verify_golden(path=path, tech_names=techs)
    assert [(m.cell, m.kind) for m in mismatches] == [("thin_wire", "dirty")]
    assert "not DRC-clean" in str(mismatches[0])
    assert "100 dbu wide" in str(mismatches[0])
