"""The indexed connectivity extraction equals the brute-force reference.

:class:`repro.db.netindex.ConnectivityIndex` must be invisible: the same
partition, in the same order, as :func:`repro.verify.reference.
extract_connectivity_brute` — for any rect soup, after any sequence of
appends, and for every per-net query built on top of it.  Hypothesis
drives random soups and append schedules through both paths; the explicit
cases pin the semantics the paper's extractor needs (unlabelled diffusion
is a device body, labelled diffusion merges same-net only, cuts join the
declared layer pairs, diffused junctions connect by overlap).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.db import extract_connectivity
from repro.db.netindex import ConnectivityIndex
from repro.db.nets import net_is_connected
from repro.geometry import Rect
from repro.obs import StatsSink, Tracer, activate
from repro.tech import generic_bicmos_1u
from repro.verify.reference import extract_connectivity_brute

TECH = generic_bicmos_1u()

#: Every interaction class: same-layer metal/poly, diffusion (same-net-only
#: merging + unlabelled exclusion), both cut layers with their plates, the
#: declared emitter/buried diffused junction, and a non-conducting layer.
LAYERS = [
    "metal1", "metal2", "poly", "ndiff", "pdiff",
    "contact", "via", "emitter", "buried", "nwell",
]

rects = st.builds(
    lambda x, y, w, h, layer, net: Rect(x, y, x + w, y + h, layer, net),
    st.integers(min_value=-15_000, max_value=15_000),
    st.integers(min_value=-15_000, max_value=15_000),
    st.integers(min_value=500, max_value=12_000),
    st.integers(min_value=500, max_value=12_000),
    st.sampled_from(LAYERS),
    st.sampled_from(["a", "b", "c", None]),
)


def _ids(components):
    return [[id(r) for r in component] for component in components]


def _nets(rect_list):
    return sorted({r.net for r in rect_list if r.net is not None}) + ["absent"]


# ----------------------------------------------------------------------
# Hypothesis: index vs brute force
# ----------------------------------------------------------------------
@settings(
    max_examples=120,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(st.lists(rects, min_size=0, max_size=24))
def test_index_equals_brute_on_random_soups(rect_list):
    """Identical partition, identical order, identical per-net answers."""
    index = ConnectivityIndex(rect_list, TECH)
    assert _ids(index.components()) == _ids(
        extract_connectivity_brute(rect_list, TECH)
    )
    for net in _nets(rect_list):
        assert index.net_is_connected(net) == net_is_connected(
            rect_list, TECH, net
        )


@settings(
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
@given(
    st.lists(rects, min_size=0, max_size=12),
    st.lists(st.lists(rects, min_size=1, max_size=4), min_size=1, max_size=4),
)
def test_incremental_appends_equal_full_rebuild(initial, batches):
    """Appends folded in by sweep-kernel calls match re-extracting from scratch.

    Queries interleave with the appends so warm component caches must be
    invalidated, not just built lazily once at the end.
    """
    live = list(initial)
    index = ConnectivityIndex(live, TECH)
    index.components()  # warm the cache before the first append
    for batch in batches:
        live.extend(batch)
        assert _ids(index.components()) == _ids(
            extract_connectivity_brute(live, TECH)
        )
        for net in _nets(batch):
            assert index.net_is_connected(net) == net_is_connected(
                live, TECH, net
            )
    assert index.extractions == 1


# ----------------------------------------------------------------------
# pinned semantics (each asserted through index AND brute)
# ----------------------------------------------------------------------
def _both(rect_list):
    indexed = ConnectivityIndex(rect_list, TECH).components()
    brute = extract_connectivity_brute(rect_list, TECH)
    assert _ids(indexed) == _ids(brute)
    return indexed


def test_unlabelled_diffusion_is_excluded():
    """An unlabelled active region is a device body, not interconnect."""
    body = Rect(0, 0, 6000, 2000, "ndiff", None)
    source = Rect(0, 0, 2000, 2000, "ndiff", "s")
    drain = Rect(4000, 0, 6000, 2000, "ndiff", "d")
    components = _both([body, source, drain])
    # Both sides touch the body, yet stay electrically separate.
    assert len(components) == 2
    assert all(len(component) == 1 for component in components)


def test_diffusion_merges_same_net_only():
    touching = [
        Rect(0, 0, 2000, 2000, "ndiff", "s"),
        Rect(2000, 0, 4000, 2000, "ndiff", "d"),
        Rect(4000, 0, 6000, 2000, "ndiff", "d"),
    ]
    components = _both(touching)
    assert sorted(len(c) for c in components) == [1, 2]
    # The same geometry on metal merges regardless of net labels.
    metal = [r.copy() for r in touching]
    for rect in metal:
        rect.layer = "metal1"
    assert len(_both(metal)) == 1


def test_cut_joins_declared_layer_pairs():
    plates = [
        Rect(0, 0, 3000, 3000, "ndiff", "n"),
        Rect(0, 0, 3000, 3000, "metal1", "n"),
        Rect(0, 0, 3000, 3000, "metal2", "n"),
    ]
    cut = Rect(1000, 1000, 2000, 2000, "contact", "n")
    # contact joins ndiff to metal1; metal2 needs a via.
    assert len(_both(plates + [cut])) == 2
    via = Rect(1000, 1000, 2000, 2000, "via", "n")
    assert len(_both(plates + [cut, via])) == 1
    # Edge-touching a cut is not a connection: interiors must overlap.
    outside = Rect(3000, 0, 4000, 1000, "contact", "n")
    assert len(_both(plates[:2] + [outside])) == 3


def test_overlap_junction_connects_by_overlap():
    """emitter over buried is a declared diffused junction."""
    sinker = Rect(0, 0, 2000, 2000, "emitter", "c")
    collector = Rect(1000, 1000, 5000, 5000, "buried", "c")
    assert len(_both([sinker, collector])) == 1
    # Abutting without overlap does not connect across layers.
    abutting = Rect(2000, 0, 5000, 2000, "buried", "c")
    assert len(_both([sinker, abutting])) == 2


def test_net_on_nonconducting_layer_is_never_whole():
    rects = [
        Rect(0, 0, 3000, 3000, "nwell", "w"),
        Rect(0, 0, 3000, 3000, "metal1", "w"),
    ]
    index = ConnectivityIndex(rects, TECH)
    assert not index.net_is_connected("w")
    assert not net_is_connected(rects, TECH, "w")
    # A single labelled rect is trivially connected, wherever it sits.
    assert ConnectivityIndex(rects[:1], TECH).net_is_connected("w")


def test_wrapper_delegates_to_index(tech):
    rects = [
        Rect(0, 0, 10, 10, "metal1", "a"),
        Rect(10, 0, 20, 10, "metal1", "a"),
    ]
    assert _ids(extract_connectivity(rects, tech)) == _ids(
        extract_connectivity_brute(rects, tech)
    )


# ----------------------------------------------------------------------
# caching + counters
# ----------------------------------------------------------------------
def test_components_are_cached_until_appends():
    live = [Rect(0, 0, 10, 10, "metal1", "a")]
    index = ConnectivityIndex(live, TECH)
    first = index.components()
    assert index.components() is first  # served from cache
    assert index.connected_components_by_net() == {"a": [first[0]]}
    assert index.extractions == 1

    live.append(Rect(10, 0, 20, 10, "metal1", "a"))
    second = index.components()
    assert second is not first
    assert len(second) == 1 and len(second[0]) == 2
    assert index.extractions == 1  # appended, never re-extracted


def test_invalidate_forces_full_rebuild():
    """After an in-place mutation a fresh index equals the reference;
    truncating the source list rebuilds on the next query."""
    live = [Rect(0, 0, 10, 10, "metal1", "a"), Rect(50, 0, 60, 10, "metal1", "a")]
    assert len(ConnectivityIndex(live, TECH).components()) == 2
    live[1].x1, live[1].x2 = 10, 20  # in-place mutation: build a fresh index
    index = ConnectivityIndex(live, TECH)
    assert _ids(index.components()) == _ids(extract_connectivity_brute(live, TECH))
    assert len(index.components()) == 1
    assert index.extractions == 1
    del live[1]
    assert len(index.components()) == 1
    assert index.extractions == 2


def test_counters_report_fewer_pairs_than_brute():
    """On a dense grid the sweeps test far fewer pairs than all-pairs."""
    grid = [
        Rect(x * 300, y * 300, x * 300 + 200, y * 300 + 200, "metal1", "n")
        for x in range(12)
        for y in range(12)
    ]

    def counted(fn):
        tracer = Tracer(enabled=True)
        stats = StatsSink()
        tracer.add_sink(stats)
        with activate(tracer):
            result = fn()
        return result, stats

    brute_components, brute_stats = counted(
        lambda: extract_connectivity_brute(grid, TECH)
    )
    indexed, stats = counted(lambda: ConnectivityIndex(grid, TECH).components())
    assert _ids(indexed) == _ids(brute_components)
    assert stats.counter("nets.extractions") == 1
    assert stats.counter("nets.candidates") == stats.counter("nets.pairs_scanned")
    assert stats.counter("nets.pairs_scanned") * 10 <= brute_stats.counter(
        "nets.pairs_scanned"
    )


def test_cut_sweeps_each_plate_layer_once():
    """``contact`` lands ``metal1`` through six BiCMOS connections; the
    build and an append each test the cut against ``metal1`` once."""
    pad = Rect(0, 0, 2_000, 2_000, "metal1", "a")
    cut = Rect(500, 500, 1_500, 1_500, "contact", "a")

    def scanned(fn):
        stats = StatsSink()
        with activate(Tracer(sinks=[stats])):
            fn()
        return stats.counter("nets.pairs_scanned")

    assert scanned(lambda: ConnectivityIndex([pad, cut], TECH).components()) == 1
    source = [pad]
    index = ConnectivityIndex(source, TECH)
    index.components()
    source.append(cut)
    assert scanned(index.components) == 1
    assert len(index.components()) == 1


def test_cache_hits_are_counted():
    index = ConnectivityIndex([Rect(0, 0, 10, 10, "metal1", "a")], TECH)
    tracer = Tracer(enabled=True)
    stats = StatsSink()
    tracer.add_sink(stats)
    with activate(tracer):
        index.components()
        index.components()  # hit
        index.connected_components_by_net()  # hit (reads cached components)
        index.connected_components_by_net()  # hit
    assert stats.counter("nets.cache_hits") == 3


# ----------------------------------------------------------------------
# one extraction per routing pass
# ----------------------------------------------------------------------
def test_global_routing_extracts_once():
    """The router's per-net queries share one build + incremental appends."""
    from repro.amplifier import build_amplifier

    tracer = Tracer(enabled=True)
    stats = StatsSink()
    tracer.add_sink(stats)
    with activate(tracer):
        build_amplifier(generic_bicmos_1u())
    assert stats.counter("nets.extractions") == 1
