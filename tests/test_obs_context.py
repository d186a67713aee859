"""Span distributions and the run ledger's failure records.

* :class:`LogHistogram` — the fixed bucket grid is deterministic, merging
  is exactly equal to single-process recording, and percentile estimates
  stay within the bucket-width error bound;
* a traced order search returns byte-identical output to an untraced one,
  and every span's histogram counts exactly its recorded calls;
* the CLI records failed and errored runs in the ledger.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.geometry import Direction
from repro.io import dumps_cif
from repro.library import contact_row
from repro.obs import (
    ChromeTraceSink,
    LogHistogram,
    StatsSink,
    Tracer,
    validate_chrome_trace,
)
from repro.obs.ledger import snapshot_metrics
from repro.opt import OrderOptimizer, Step
from repro.tech import generic_bicmos_1u

TECH = generic_bicmos_1u()


# ---------------------------------------------------------------------------
# LogHistogram
# ---------------------------------------------------------------------------
def test_bucket_zero_and_negatives():
    assert LogHistogram.bucket_index(0) == 0
    assert LogHistogram.bucket_index(-5) == 0
    assert LogHistogram.bucket_bounds(0) == (0.0, 0.0)


@given(st.integers(min_value=1, max_value=2**62))
def test_bucket_bounds_contain_the_value(value):
    index = LogHistogram.bucket_index(value)
    lo, hi = LogHistogram.bucket_bounds(index)
    assert lo <= value < hi


@given(st.integers(min_value=1, max_value=2**62))
def test_bucket_relative_error_bound(value):
    """A bucket midpoint is within one sub-bucket width of any member."""
    lo, hi = LogHistogram.bucket_bounds(LogHistogram.bucket_index(value))
    mid = (lo + hi) / 2.0
    assert abs(mid - value) / value <= 1.0 / LogHistogram.SUBBUCKETS


@given(
    st.lists(st.integers(min_value=0, max_value=10**12), max_size=60),
    st.lists(st.integers(min_value=0, max_value=10**12), max_size=60),
)
def test_merge_equals_single_process_recording(left, right):
    a = LogHistogram()
    b = LogHistogram()
    combined = LogHistogram()
    for v in left:
        a.add(v)
        combined.add(v)
    for v in right:
        b.add(v)
        combined.add(v)
    merged = LogHistogram(a.to_dict()).merge(b)
    assert merged == combined
    assert merged.count == combined.count == len(left) + len(right)


def test_percentiles_on_a_known_distribution():
    hist = LogHistogram()
    for v in range(1, 101):  # 1..100, uniform
        hist.add(v)
    p50, p90, p99 = hist.percentiles((50, 90, 99))
    assert p50 == pytest.approx(50, rel=0.125)
    assert p90 == pytest.approx(90, rel=0.125)
    assert p99 == pytest.approx(99, rel=0.125)
    assert hist.percentile(100) >= hist.percentile(1)


def test_empty_histogram_percentile_is_zero():
    assert LogHistogram().percentile(99) == 0.0
    assert LogHistogram().percentiles() == (0.0, 0.0, 0.0)


def test_percentile_range_is_validated():
    hist = LogHistogram()
    hist.add(7)
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_histogram_restores_from_bucket_dict():
    hist = LogHistogram()
    for v in (0, 3, 900, 900, 2**40):
        hist.add(v)
    clone = LogHistogram(hist.to_dict())
    assert clone == hist
    assert clone.count == hist.count


# ---------------------------------------------------------------------------
# span stats carry distributions
# ---------------------------------------------------------------------------
def test_span_stats_histogram_and_table_percentiles():
    from repro.obs.tracer import SpanRecord

    stats = StatsSink()
    for dur in (1_000_000, 2_000_000, 50_000_000):
        stats.on_span(SpanRecord("compact.step", 0, dur, 0, {}))
    span = stats.spans["compact.step"]
    assert span.hist.count == 3
    assert span.percentile_ns(99) >= span.percentile_ns(50) > 0
    header, row = stats.format_table().splitlines()[:2]
    for column in ("p50 ms", "p90 ms", "p99 ms"):
        assert column in header
    assert row.split()[0] == "compact.step" or "compact.step" in row


def test_snapshot_metrics_include_percentiles():
    from repro.obs.tracer import SpanRecord

    stats = StatsSink()
    stats.on_span(SpanRecord("opt.rate", 0, 4_000_000, 0, {}))
    metrics = snapshot_metrics(stats)
    assert metrics["span.opt.rate.calls"] == 1.0
    for key in ("span.opt.rate.p50_s", "span.opt.rate.p90_s",
                "span.opt.rate.p99_s"):
        assert metrics[key] > 0.0
        # seconds-suffixed => classified as noisy by perf-check
        assert key.endswith("_s")


# ---------------------------------------------------------------------------
# a traced order search
# ---------------------------------------------------------------------------
def _contact_row_steps():
    return [
        Step(contact_row(TECH, "pdiff", w=4.0, net="a", name="a"),
             Direction.WEST),
        Step(contact_row(TECH, "pdiff", w=8.0, net="b", name="b"),
             Direction.SOUTH),
        Step(contact_row(TECH, "poly", w=2.0, length=12.0, net="c", name="c"),
             Direction.WEST),
    ]


@pytest.fixture(scope="module")
def traced_run():
    """One order search, untraced and traced, shared by the asserts."""
    result_untraced = OrderOptimizer().optimize(
        "order_demo", TECH, _contact_row_steps()
    )
    tracer = Tracer(enabled=True)
    stats = tracer.add_sink(StatsSink())
    chrome = tracer.add_sink(ChromeTraceSink())
    with obs.activate(tracer):
        result_traced = OrderOptimizer().optimize(
            "order_demo", TECH, _contact_row_steps()
        )
    tracer.close()
    return result_untraced, result_traced, stats, chrome


def test_traced_and_untraced_output_identical(traced_run):
    result_untraced, result_traced, stats, _ = traced_run
    assert result_traced.best_order == result_untraced.best_order
    assert result_traced.best_score == result_untraced.best_score
    assert dumps_cif([result_traced.best]) == dumps_cif([result_untraced.best])
    assert stats.counter("opt.trials") == result_traced.evaluated


def test_span_histograms_match_span_durations(traced_run):
    _, _, stats, chrome = traced_run
    trace = chrome.to_json()
    assert validate_chrome_trace(trace) == []
    expected = LogHistogram()
    for event in trace["traceEvents"]:
        if event["ph"] == "X" and event["name"] == "compact.step":
            expected.add(round(event["dur"] * 1000))
    hist = stats.spans["compact.step"].hist
    assert expected.count > 0
    assert hist == expected


def test_stats_table_shows_percentiles_for_hot_spans(traced_run):
    _, _, stats, _ = traced_run
    table = stats.format_table()
    assert "p50 ms" in table and "p99 ms" in table
    for span in ("compact.step", "compact.solve", "opt.rate", "opt.search"):
        assert span in stats.spans, span
        assert stats.spans[span].hist.count == stats.spans[span].calls


# ---------------------------------------------------------------------------
# failed runs reach the ledger
# ---------------------------------------------------------------------------
def test_cli_records_errored_runs_with_exception_type(monkeypatch, tmp_path):
    from repro.cli import main
    from repro.obs.ledger import Ledger

    monkeypatch.setenv("REPRO_LEDGER", "1")
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    with pytest.raises(FileNotFoundError):
        main(["build", str(tmp_path / "missing.pldl"), "X"])
    with Ledger(tmp_path / "ledger") as ledger:
        record = ledger.last()
    assert record.command == "build"
    assert record.status == 1
    assert record.extra == {"error": "FileNotFoundError"}


def test_cli_records_system_exit_status(monkeypatch, tmp_path):
    from repro.cli import main
    from repro.obs.ledger import Ledger

    monkeypatch.setenv("REPRO_LEDGER", "1")
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    with pytest.raises(SystemExit):
        main(["render", str(tmp_path / "missing.cif"),
              "-o", str(tmp_path / "out.svg")])
    with Ledger(tmp_path / "ledger") as ledger:
        record = ledger.last()
    assert record.command == "render"
    assert record.status != 0
    assert record.extra["error"] == "SystemExit"
