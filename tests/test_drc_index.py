"""The sweep-indexed DRC checker equals the brute-force reference.

:class:`repro.drc.index.DrcIndex` must be invisible: every indexed check
returns the *identical* violation list — kind, message, location, rect
identity, order — as its ``check_*_brute`` counterpart in
:mod:`repro.verify.reference`, for any rect soup in any builtin
technology, and for a fresh index after any in-place mutation or append.  Hypothesis drives random soups through
all six check pairs; the golden-cell matrix pins the acceptance contract;
the counter tests pin the ≥10x pairs-scanned reduction and the
one-build-per-run behaviour.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import LayoutObject
from repro.drc import run_drc
from repro.drc.checker import CHECKS, check_enclosures, check_widths
from repro.drc.index import DrcIndex
from repro.geometry import Rect
from repro.library import GOLDEN_CELLS
from repro.obs import StatsSink, Tracer, activate
from repro.tech import BUILTIN_TECHNOLOGIES, dumps_tech, loads_tech
from repro.verify.reference import (
    CHECKS_BRUTE,
    check_enclosures_brute,
    check_widths_brute,
    run_drc_brute,
)

TECHS = {name: build() for name, build in BUILTIN_TECHNOLOGIES.items()}
TECH_NAMES = sorted(TECHS)
LAYERS = {name: [layer.name for layer in tech.layers] for name, tech in TECHS.items()}

#: Raw rect specs; the layer choice is an index so one strategy serves
#: every technology's layer table.
specs = st.tuples(
    st.integers(min_value=-12_000, max_value=12_000),
    st.integers(min_value=-12_000, max_value=12_000),
    st.integers(min_value=100, max_value=8_000),
    st.integers(min_value=100, max_value=8_000),
    st.integers(min_value=0, max_value=63),
    st.sampled_from(["a", "b", "c", None]),
)


def _soup(tech_name, spec_list):
    layers = LAYERS[tech_name]
    obj = LayoutObject("soup", TECHS[tech_name])
    for x, y, w, h, layer_choice, net in spec_list:
        obj.add_rect(Rect(x, y, x + w, y + h, layers[layer_choice % len(layers)], net))
    return obj


def _ids(obj, violations):
    """Violation fingerprints: layout rects by identity, synthesized rects
    (extension body boxes, latchup report rects) by value."""
    layout_ids = {id(r) for r in obj.rects}
    def rect_key(r):
        if id(r) in layout_ids:
            return id(r)
        return ("synthesized", r.x1, r.y1, r.x2, r.y2, r.layer, r.net)
    return [
        (v.kind, v.message, v.where, tuple(rect_key(r) for r in v.rects))
        for v in violations
    ]


def _assert_equivalent(obj, index=None):
    """Every indexed check matches its brute twin byte-for-byte."""
    if index is None:
        index = DrcIndex(obj)
    for (rule_class, indexed), (_, brute) in zip(CHECKS, CHECKS_BRUTE):
        assert _ids(obj, indexed(obj, index)) == _ids(obj, brute(obj)), rule_class
    return index


# ----------------------------------------------------------------------
# Hypothesis: indexed vs brute on random soups, every builtin technology
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tech_name", TECH_NAMES)
@settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(st.lists(specs, min_size=0, max_size=18))
def test_indexed_equals_brute_on_random_soups(tech_name, spec_list):
    obj = _soup(tech_name, spec_list)
    _assert_equivalent(obj)
    assert _ids(obj, run_drc(obj, include_latchup=False)) == _ids(
        obj, run_drc_brute(obj, include_latchup=False)
    )


@pytest.mark.parametrize("tech_name", TECH_NAMES)
@settings(
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(
    st.lists(specs, min_size=1, max_size=10),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=-3_000, max_value=3_000),
            st.integers(min_value=-3_000, max_value=3_000),
        ),
        min_size=1,
        max_size=4,
    ),
    st.lists(specs, min_size=0, max_size=4),
)
def test_invalidate_after_mutation_equals_scratch(tech_name, spec_list, moves, appended):
    """A fresh index after a mutation equals the brute path.

    The index is a snapshot: after in-place coordinate moves (through
    ``set_rect``, which keeps the object's store exact) and after appends,
    a newly built index must agree with the reference again.
    """
    obj = _soup(tech_name, spec_list)
    _assert_equivalent(obj)
    seqs = obj.store().live_seqs()
    for which, dx, dy in moves:
        seq = seqs[which % len(seqs)]
        rect = obj.rects[seq]
        obj.set_rect(seq, rect.x1 + dx, rect.y1 + dy, rect.x2 + dx, rect.y2 + dy)
    _assert_equivalent(obj)
    for x, y, w, h, layer_choice, net in appended:
        layers = LAYERS[tech_name]
        obj.add_rect(
            Rect(x, y, x + w, y + h, layers[layer_choice % len(layers)], net)
        )
    _assert_equivalent(obj)


# ----------------------------------------------------------------------
# Hypothesis: swept enclosure candidates on cut-heavy soups
# ----------------------------------------------------------------------
def _split(box, pieces, vertical, gap, draw):
    """*box* cut into *pieces* abutting parts (or parts *gap* dbu apart)."""
    x1, y1, x2, y2 = box
    lo, hi = (x1, x2) if vertical else (y1, y2)
    if hi - lo < 2 * pieces:
        return [box]
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=lo + 1, max_value=hi - 1),
                min_size=pieces - 1,
                max_size=pieces - 1,
                unique=True,
            )
        )
    )
    edges = [lo, *cuts, hi]
    parts = []
    for a, b in zip(edges, edges[1:]):
        a = a + gap if a != lo else a
        if a < b:
            parts.append((a, y1, b, y2) if vertical else (x1, a, x2, b))
    return parts


@st.composite
def cut_soups(draw, tech):
    """Vias and contacts on, beside and half off their conductors, whose
    conductors are often split into 2–3 pieces that only enclose the cut
    as a merged shape; sites share a small grid so cuts and conductors of
    neighbouring sites overlap."""
    rects = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        cut_layer = draw(st.sampled_from(["contact", "via"]))
        size = tech.rules.cut_size(cut_layer)
        x = draw(st.integers(min_value=0, max_value=6)) * 2 * size
        y = draw(st.integers(min_value=0, max_value=6)) * 2 * size
        net = draw(st.sampled_from(["a", "b", None]))
        rects.append(Rect(x, y, x + size, y + size, cut_layer, net))
        pairs = tech.connected_layers(cut_layer)
        for role in (0, 1):
            if not draw(st.sampled_from([True] * 8 + [False])):
                continue  # a missing conductor
            layer = draw(st.sampled_from(sorted({pair[role] for pair in pairs})))
            grow = tech.enclosure_or_zero(layer, cut_layer) + draw(
                st.sampled_from([0, 0, 0, 0, 0, -1, 1, size])
            )
            offset = draw(st.sampled_from([0, 0, 0, 0, 0, 0, size // 2, size + grow]))
            dx, dy = draw(
                st.sampled_from([(offset, 0), (-offset, 0), (0, offset), (0, -offset)])
            )
            box = (x - grow + dx, y - grow + dy, x + size + grow + dx, y + size + grow + dy)
            pieces = draw(st.integers(min_value=1, max_value=3))
            gap = draw(st.sampled_from([0, 0, 0, 0, 0, 0, 0, 1]))
            for part in _split(box, pieces, draw(st.booleans()), gap, draw):
                rects.append(Rect(*part, layer, net))
    order = draw(st.permutations(range(len(rects))))
    obj = LayoutObject("cuts", tech)
    for position in order:
        obj.add_rect(rects[position])
    return obj


@pytest.mark.parametrize("tech_name", TECH_NAMES)
@settings(
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(st.data())
def test_swept_enclosures_equal_brute_on_cut_soups(tech_name, data):
    obj = data.draw(cut_soups(TECHS[tech_name]))
    assert _ids(obj, check_enclosures(obj, DrcIndex(obj))) == _ids(
        obj, check_enclosures_brute(obj)
    )


@pytest.mark.parametrize("tech_name", TECH_NAMES)
@settings(
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(st.data())
def test_swept_enclosures_equal_brute_with_negative_margins(tech_name, data):
    """Technology files may declare negative ENCLOSE values; the sweep must
    shrink (or flip, then normalise) each cut exactly as ``Rect.grown``.

    A loaded technology is frozen, so the drawn margins go in through the
    file format: the builtin's text with those ENCLOSE lines replaced."""
    base = TECHS[tech_name]
    margins = {}
    for cut_layer in ("contact", "via"):
        size = base.rules.cut_size(cut_layer)
        conductors = {layer for pair in base.connected_layers(cut_layer) for layer in pair}
        for layer in sorted(conductors):
            margin = data.draw(st.integers(min_value=-size, max_value=0))
            margins[(layer, cut_layer)] = margin
    lines = [
        line for line in dumps_tech(base).splitlines()
        if not (line.startswith("RULE ENCLOSE ")
                and tuple(line.split()[2:4]) in margins)
    ]
    lines += [
        f"RULE ENCLOSE {outer} {inner} {margin / base.dbu_per_micron!r}"
        for (outer, inner), margin in margins.items()
    ]
    tech = loads_tech("\n".join(lines))
    for (outer, inner), margin in margins.items():
        assert tech.rules.enclose(outer, inner) == margin
    obj = data.draw(cut_soups(tech))
    assert _ids(obj, check_enclosures(obj, DrcIndex(obj))) == _ids(
        obj, check_enclosures_brute(obj)
    )


def test_split_conductor_encloses_only_when_merged(tech):
    """A via pad split in two abutting halves encloses the via; a 1-dbu
    slit between the halves does not."""
    margin = tech.enclosure_or_zero("metal1", "via")
    size = tech.rules.cut_size("via")

    def layout(slit):
        obj = LayoutObject("split", tech)
        obj.add_rect(Rect(0, 0, size, size, "via", "n"))
        half = size // 2
        obj.add_rect(Rect(-margin, -margin, half, size + margin, "metal1", "n"))
        obj.add_rect(
            Rect(half + slit, -margin, size + margin, size + margin, "metal1", "n")
        )
        obj.add_rect(
            Rect(-margin, -margin, size + margin, size + margin, "metal2", "n")
        )
        return obj

    clean = layout(0)
    assert check_enclosures(clean, DrcIndex(clean)) == []
    assert check_enclosures_brute(clean) == []
    slit = layout(1)
    found = check_enclosures(slit, DrcIndex(slit))
    assert [v.message for v in found] == [
        "cut on 'via' lacks a bottom conductor (metal1) with rule enclosure"
    ]
    assert _ids(slit, found) == _ids(slit, check_enclosures_brute(slit))


# ----------------------------------------------------------------------
# acceptance: the golden-cell matrix, all builtin technologies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tech_name", TECH_NAMES)
def test_golden_cells_byte_identical(tech_name):
    tech = TECHS[tech_name]
    checked = 0
    for spec in GOLDEN_CELLS:
        if not spec.supported(tech):
            continue
        obj = spec.build(tech)
        _assert_equivalent(obj)
        # The full run (latchup included) must agree as well; latchup
        # synthesizes its report rects each run, which _ids keys by value.
        assert _ids(obj, run_drc(obj)) == _ids(obj, run_drc_brute(obj))
        checked += 1
    assert checked > 0


# ----------------------------------------------------------------------
# the absorbed-thin-stub scan (quadratic fix) regression
# ----------------------------------------------------------------------
def _stub_forest(tech, stubs=120):
    """Many thin stubs hanging off one wide spine, spine listed last —
    the worst case for the old full-list scan per thin rect."""
    obj = LayoutObject("stubs", tech)
    rule = tech.rules.width("metal1")
    pitch = 4 * rule  # stubs well clear of each other
    for i in range(stubs):
        x = i * pitch
        obj.add_rect(Rect(x, 1000, x + rule // 3, 4000, "metal1", "n"))
    obj.add_rect(Rect(-rule, 0, stubs * pitch + rule, 2000, "metal1", "n"))
    return obj


def _counted(fn):
    tracer = Tracer(enabled=True)
    stats = StatsSink()
    tracer.add_sink(stats)
    with activate(tracer):
        result = fn()
    return result, stats


def test_absorbed_stub_scan_equals_brute(tech):
    obj = _stub_forest(tech)
    index = DrcIndex(obj)  # built outside the counted region
    assert _ids(obj, check_widths(obj, index)) == _ids(obj, check_widths_brute(obj))
    assert check_widths(obj, index) == []  # every stub is absorbed


def test_absorbed_stub_scan_is_bucket_served(tech):
    """The indexed scan tests only same-layer touchers, not the whole
    rect list per thin stub."""
    obj = _stub_forest(tech)
    index = DrcIndex(obj)
    _, indexed_stats = _counted(lambda: check_widths(obj, index))
    _, brute_stats = _counted(lambda: check_widths_brute(obj))
    indexed_pairs = indexed_stats.counter("drc.pairs_scanned")
    brute_pairs = brute_stats.counter("drc.pairs_scanned")
    assert indexed_pairs * 10 <= brute_pairs


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
def test_run_drc_builds_once_and_scans_fewer_pairs(tech):
    grid = LayoutObject("grid", tech)
    for x in range(10):
        for y in range(10):
            grid.add_rect(
                Rect(x * 4000, y * 4000, x * 4000 + 2000, y * 4000 + 2000, "metal1", "n")
            )
    indexed, indexed_stats = _counted(
        lambda: run_drc(grid, include_latchup=False)
    )
    brute, brute_stats = _counted(
        lambda: run_drc_brute(grid, include_latchup=False)
    )
    assert _ids(grid, indexed) == _ids(grid, brute)
    assert indexed_stats.counter("drc.index_builds") == 1
    assert brute_stats.counter("drc.index_builds") == 0
    assert indexed_stats.counter("drc.pairs_scanned") * 10 <= brute_stats.counter(
        "drc.pairs_scanned"
    )


def test_candidates_counter_reports_emitted_pairs(tech):
    obj = LayoutObject("pair", tech)
    rule = tech.rules.space("metal1", "metal1")
    obj.add_rect(Rect(0, 0, 2000, 2000, "metal1", "a"))
    obj.add_rect(Rect(2000 + rule - 1, 0, 4000 + rule, 2000, "metal1", "b"))
    violations, stats = _counted(
        lambda: run_drc(obj, include_latchup=False)
    )
    assert [v.kind for v in violations] == ["spacing"]
    assert stats.counter("drc.candidates") == 1


def test_enclosure_sweep_scans_fewer_pairs(tech):
    """On a 10x10 via grid the swept enclosure pass tests each via only
    against the pads its x-interval reaches, not every pad on the layer."""
    grid = LayoutObject("vias", tech)
    size = tech.rules.cut_size("via")
    margin = max(
        tech.enclosure_or_zero("metal1", "via"), tech.enclosure_or_zero("metal2", "via")
    )
    pitch = 4 * (size + 2 * margin)
    for x in range(10):
        for y in range(10):
            x1, y1 = x * pitch, y * pitch
            grid.add_rect(Rect(x1, y1, x1 + size, y1 + size, "via", "n"))
            for layer in ("metal1", "metal2"):
                grid.add_rect(
                    Rect(x1 - margin, y1 - margin, x1 + size + margin,
                         y1 + size + margin, layer, "n")
                )
    index = DrcIndex(grid)  # built outside the counted region
    indexed, indexed_stats = _counted(lambda: check_enclosures(grid, index))
    brute, brute_stats = _counted(lambda: check_enclosures_brute(grid))
    assert indexed == brute == []
    assert indexed_stats.counter("drc.pairs_scanned") * 10 <= brute_stats.counter(
        "drc.pairs_scanned"
    )
