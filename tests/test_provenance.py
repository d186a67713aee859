"""Layout provenance: recording, lineage through compaction, explainability.

The provenance recorder must be inert when disabled (no records, byte
identical output), and when enabled must give every rect a usable origin
story: the PLDL/builder entity stack, the creating builtin, the compaction
step, and merge/rebuild lineage back to pre-compaction ancestors
(Fig. 5a/5b).  On top sit the DRC explainer and the HTML run report.
"""

import pytest

from repro.compact import Compactor
from repro.db import LayoutObject
from repro.drc import run_drc
from repro.geometry import Direction, Rect
from repro.io import dumps_cif, dumps_gds, read_gds
from repro.lang import Interpreter, Runtime, translate
from repro.library import contact_row, diff_pair
from repro.obs import ProvenanceRecorder, get_recorder, recording
from repro.obs.report import explain_violations, render_report, write_report

CONTACT_ROW = """
ENT ContactRow(layer, <W>, <L>)
  INBOX(layer, W, L)
  INBOX("metal1")
  ARRAY("contact")
END
"""


@pytest.fixture
def recorder():
    rec = ProvenanceRecorder(enabled=True)
    with recording(rec):
        yield rec


# ---------------------------------------------------------------------------
# recording basics
# ---------------------------------------------------------------------------
def test_disabled_recorder_stamps_nothing(tech):
    assert not get_recorder().enabled  # process default stays off
    obj = LayoutObject("o", tech)
    rect = obj.add_rect(Rect(0, 0, 1000, 1000, "metal1"))
    assert rect.prov is None


def test_interpreter_records_entity_stack_and_builtin(tech, recorder):
    interp = Interpreter(tech)
    interp.load(CONTACT_ROW)
    row = interp.call("ContactRow", layer="poly", W=1.0, L=10.0)
    for rect in row.nonempty_rects:
        assert rect.prov is not None
        assert rect.prov.entity_stack == ("ContactRow",)
        assert rect.prov.builtin in ("INBOX", "ARRAY")
    # Parameter bindings ride along in the frame.
    name, params = row.nonempty_rects[0].prov.entities[0]
    assert name == "ContactRow"
    assert dict(params)["W"] == 1.0
    cuts = row.rects_on("contact")
    assert cuts and all(r.prov.builtin == "ARRAY" for r in cuts)


def test_translated_runtime_records_entity_stack(tech, recorder):
    namespace = {}
    exec(compile(translate(CONTACT_ROW), "<generated>", "exec"), namespace)
    row = namespace["ContactRow"](Runtime(tech), layer="poly", W=1.0, L=10.0)
    for rect in row.nonempty_rects:
        assert rect.prov is not None
        assert rect.prov.entity_stack == ("ContactRow",)
    # The frame must be popped again after the generated entity returns.
    assert recorder.current().entities == ()


def test_python_builder_decorator_records_stack(tech, recorder):
    pair = diff_pair(tech, w=10.0, length=1.0)
    for rect in pair.nonempty_rects:
        assert rect.prov is not None
        assert rect.prov.entity_stack[0] == "DiffPair"


# ---------------------------------------------------------------------------
# lineage through compaction (Fig. 5a / 5b)
# ---------------------------------------------------------------------------
def test_array_rebuild_links_new_cuts_to_ancestor(tech, recorder, tmp_path):
    """Fig. 5b: cuts added by a rebuild carry "rebuild" lineage and join
    the object, so DRC, nets and GDS see every cut and snapshots copy
    them."""
    row = contact_row(tech, "pdiff", w=4.0, length=6.0, net="a")
    link = next(l for l in row.links if hasattr(l, "cut_layer"))
    creation = link.prov
    assert creation is not None and creation.entity_stack[0] == "ContactRow"
    def cuts():
        return [row.rects[seq] for seq in link.cuts if not row.rects[seq].is_empty]

    before = len(cuts())
    # Stretch the outers as an auto-connection would; the array grows.
    for seq, _ in link.outers:
        outer = row.rects[seq]
        row.set_rect(seq, outer.x1, outer.y1, outer.x2 + 20000, outer.y2)
    row.rebuild_links()
    grown = cuts()
    assert len(grown) > before
    for rect in grown[before:]:
        assert rect.prov is not None
        assert ("rebuild", creation) in rect.prov.lineage
        assert rect.prov.entity_stack == creation.entity_stack
    assert [r for r in row.rects if r.layer == "contact" and not r.is_empty] == grown
    path = tmp_path / "row.gds"
    path.write_bytes(dumps_gds(row))
    (read,) = read_gds(path, tech)
    written = sorted(r.as_tuple() for r in read.rects if r.layer == "contact")
    assert written == sorted(r.as_tuple() for r in grown)
    twin = row.snapshot()
    twin_link = next(l for l in twin.links if hasattr(l, "cut_layer"))
    assert twin_link is not link and twin_link.cuts == link.cuts
    assert not {id(twin.rects[s]) for s in twin_link.cuts} & {id(row.rects[s]) for s in link.cuts}


def test_compacted_contact_row_keeps_ancestry(tech, compactor, recorder):
    """End-to-end Fig. 5b: post-compaction cuts still name their entity."""
    target = LayoutObject("t", tech)
    wide = contact_row(tech, "pdiff", w=8.0, length=12.0, net="a", name="wide")
    compactor.compact(target, wide, Direction.SOUTH)
    mover = LayoutObject("m", tech)
    mover.add_rect(Rect(-20000, 50000, -7000, 58000, "metal1", "b"))
    compactor.compact(target, mover, Direction.EAST)
    cuts = target.rects_on("contact")
    assert cuts
    for rect in cuts:
        assert rect.prov is not None
        assert rect.prov.entity_stack[0] == "ContactRow"


def test_auto_connect_records_merge_lineage(tech, compactor, recorder):
    """Fig. 5a: the stretched resident links to the arriving rect's record."""
    target = LayoutObject("t", tech)
    base = LayoutObject("base", tech)
    with recorder.entity("Base"):
        base.add_rect(Rect(0, 0, 2000, 10000, "metal1", "sig"))
        base.add_rect(Rect(10000, 0, 12000, 11500, "metal1", "gate"))
    compactor.compact(target, base, Direction.SOUTH)
    strap = LayoutObject("c", tech)
    with recorder.entity("Strap"):
        strap.add_rect(Rect(0, 50000, 12000, 52000, "metal1", "sig"))
    result = compactor.compact(target, strap, Direction.SOUTH)
    assert result.connected == 1
    stretched = [
        r for r in target.nonempty_rects
        if r.prov is not None and r.prov.lineage
    ]
    assert len(stretched) == 1
    kind, ancestor = stretched[0].prov.lineage[0]
    assert kind == "auto_connect"
    assert ancestor.entity_stack == ("Strap",)
    assert stretched[0].prov.entity_stack == ("Base",)


def test_compaction_assigns_step_indices(tech, compactor, recorder):
    target = LayoutObject("t", tech)
    first = LayoutObject("a", tech)
    first.add_rect(Rect(0, 0, 2000, 2000, "metal1", "x"))
    second = LayoutObject("b", tech)
    second.add_rect(Rect(0, 50000, 2000, 52000, "metal1", "y"))
    compactor.compact(target, first, Direction.SOUTH)
    compactor.compact(target, second, Direction.SOUTH)
    steps = sorted(r.prov.step for r in target.nonempty_rects)
    assert steps == [1, 2]


# ---------------------------------------------------------------------------
# zero-cost contract: output is byte identical with recording on or off
# ---------------------------------------------------------------------------
def test_output_identical_with_and_without_provenance(tech):
    plain = diff_pair(tech, w=10.0, length=1.0)
    with recording(ProvenanceRecorder(enabled=True)):
        recorded = diff_pair(tech, w=10.0, length=1.0)
    assert recorded.nonempty_rects[0].prov is not None
    assert dumps_cif([plain]) == dumps_cif([recorded])
    assert dumps_gds([plain]) == dumps_gds([recorded])


# ---------------------------------------------------------------------------
# explanations and the HTML report
# ---------------------------------------------------------------------------
def test_explain_spacing_violation(tech, recorder):
    obj = LayoutObject("bad", tech)
    with recorder.entity("Left"):
        obj.add_rect(Rect(0, 0, 2000, 2000, "metal1", "a"))
    with recorder.entity("Right"):
        obj.add_rect(Rect(2500, 0, 4500, 2000, "metal1", "b"))
    violations = [v for v in run_drc(obj) if v.kind == "spacing"]
    assert violations
    explanation = explain_violations(obj, violations)[0]
    assert explanation.rule_text.startswith("SPACE metal1 metal1")
    chains = [chain for _, chain in explanation.provenances]
    assert any("Left" in chain for chain in chains)
    assert any("Right" in chain for chain in chains)
    assert "further apart" in explanation.suggestion
    text = explanation.format()
    assert "rule:" in text and "fix:" in text


def test_explanations_without_recording_fall_back(tech):
    obj = LayoutObject("bad", tech)
    obj.add_rect(Rect(0, 0, 2000, 2000, "metal1", "a"))
    obj.add_rect(Rect(2500, 0, 4500, 2000, "metal1", "b"))
    explanations = explain_violations(obj)
    assert explanations
    assert all(
        chain == "(no provenance recorded)"
        for e in explanations
        for _, chain in e.provenances
    )


def test_render_report_is_self_contained(tech, tmp_path):
    recorder = ProvenanceRecorder(enabled=True, capture_stages=True)
    compactor = Compactor()
    with recording(recorder):
        target = LayoutObject("demo", tech)
        compactor.compact(
            target, contact_row(tech, "pdiff", w=4.0, net="a", name="a"),
            Direction.SOUTH,
        )
        compactor.compact(
            target, contact_row(tech, "poly", w=2.0, length=8.0, net="b",
                                name="b"),
            Direction.SOUTH,
        )
        recorder.add_trial(engine="tree", order=(0, 1), score=1.0, best=True)
    html = render_report(target, recorder=recorder)
    assert "<svg" in html and "</html>" in html
    assert "Compaction stages" in html and "step 1" in html
    assert "Optimizer trials" in html
    assert "provenance coverage" in html
    out = write_report(target, tmp_path / "r.html", recorder=recorder)
    assert out.read_text(encoding="utf-8") == render_report(
        target, recorder=recorder
    )


def test_report_highlights_violations(tech):
    obj = LayoutObject("bad", tech)
    obj.add_rect(Rect(0, 0, 2000, 2000, "metal1", "a"))
    obj.add_rect(Rect(2500, 0, 4500, 2000, "metal1", "b"))
    html = render_report(obj)
    assert "stroke-dasharray" in html  # violation overlay drawn
    assert "[spacing]" in html or "spacing" in html


# ---------------------------------------------------------------------------
# the amplifier resolves completely
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def recorded_amplifier():
    from repro.amplifier import build_amplifier
    from repro.tech import generic_bicmos_1u

    recorder = ProvenanceRecorder(enabled=True)
    with recording(recorder):
        amp = build_amplifier(generic_bicmos_1u())
    return amp, recorder


def test_amplifier_every_rect_resolves(recorded_amplifier):
    amp, _ = recorded_amplifier
    missing = [
        rect for rect in amp.nonempty_rects
        if rect.prov is None or not rect.prov.entities
    ]
    assert missing == []
    stacks = {rect.prov.entity_stack[0] for rect in amp.nonempty_rects}
    assert "BiCMOSAmplifier" in stacks


def test_amplifier_report_renders(recorded_amplifier):
    amp, recorder = recorded_amplifier
    html = render_report(amp, recorder=recorder, violations=[])
    assert "<svg" in html
    assert "Violations" in html
    assert "BiCMOSAmplifier" in html  # provenance tooltips reach the SVG
