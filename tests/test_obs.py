"""The observability layer: tracer, sinks, logging, CLI wiring, determinism.

The tracer must be correct when enabled (nesting, exception safety, counter
arithmetic), free when disabled (shared null span, no sink traffic), and
inert with respect to results: tracing a build must never change the layout
it produces.
"""

import json
import logging

import pytest

from repro import obs
from repro.obs import (
    ChromeTraceSink,
    StatsSink,
    Tracer,
    activate,
    configure_logging,
    get_logger,
    get_tracer,
    set_tracer,
    validate_chrome_trace,
)


class RecordingSink(obs.Sink):
    """Collects everything, for assertions."""

    def __init__(self):
        self.spans = []
        self.counts = []
        self.closed = 0

    def on_span(self, record):
        self.spans.append(record)

    def on_count(self, name, n, ts_ns):
        self.counts.append((name, n))

    def close(self):
        self.closed += 1


@pytest.fixture
def tracer():
    sink = RecordingSink()
    tracer = Tracer(enabled=True, sinks=[sink])
    return tracer, sink


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
def test_span_nesting_depths(tracer):
    tracer, sink = tracer
    with tracer.span("outer"):
        with tracer.span("middle"):
            with tracer.span("inner"):
                pass
    # Sinks see spans innermost-first (completion order).
    names = [record.name for record in sink.spans]
    assert names == ["inner", "middle", "outer"]
    depths = {record.name: record.depth for record in sink.spans}
    assert depths == {"outer": 0, "middle": 1, "inner": 2}


def test_span_timing_and_containment(tracer):
    tracer, sink = tracer
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = sink.spans
    assert inner.duration_ns >= 0
    assert outer.duration_ns >= inner.duration_ns
    assert outer.start_ns <= inner.start_ns
    assert (inner.start_ns + inner.duration_ns
            <= outer.start_ns + outer.duration_ns)


def test_span_exception_safety(tracer):
    tracer, sink = tracer
    with pytest.raises(ValueError):
        with tracer.span("outer"):
            with tracer.span("boom"):
                raise ValueError("no")
    # Both spans closed despite the raise, error marked, stack empty again.
    assert [r.name for r in sink.spans] == ["boom", "outer"]
    assert sink.spans[0].attrs["error"] == "ValueError"
    assert sink.spans[1].attrs["error"] == "ValueError"
    assert tracer._stack() == []
    with tracer.span("after"):
        pass
    assert sink.spans[-1].depth == 0


def test_span_attrs_and_set(tracer):
    tracer, sink = tracer
    with tracer.span("s", a=1) as span:
        span.set(b=2)
    assert sink.spans[0].attrs == {"a": 1, "b": 2}


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------
def test_counter_correctness(tracer):
    tracer, sink = tracer
    stats = tracer.add_sink(StatsSink())
    tracer.count("hits")
    tracer.count("hits", 4)
    tracer.count("hits", 0)  # no-op: never reaches the sinks
    tracer.count("other", 2)
    assert stats.counter("hits") == 5
    assert stats.counter("other") == 2
    assert stats.counter("missing") == 0
    assert stats.counter_calls == {"hits": 2, "other": 1}
    assert [c for c in sink.counts if c[0] == "hits"] == [("hits", 1), ("hits", 4)]


# ---------------------------------------------------------------------------
# disabled tracer
# ---------------------------------------------------------------------------
def test_disabled_tracer_is_noop():
    sink = RecordingSink()
    tracer = Tracer(enabled=False, sinks=[sink])
    span_a = tracer.span("a", x=1)
    span_b = tracer.span("b")
    assert span_a is span_b  # shared null object, no allocation per call
    with span_a as span:
        span.set(y=2)
        tracer.count("n")
    assert sink.spans == sink.counts == []


def test_process_tracer_disabled_by_default_and_restored():
    assert get_tracer().enabled is False
    live = Tracer(enabled=True)
    with activate(live):
        assert get_tracer() is live
    assert get_tracer().enabled is False
    previous = set_tracer(live)
    try:
        assert get_tracer() is live
    finally:
        set_tracer(previous)


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------
def test_stats_sink_table(tracer):
    tracer, _ = tracer
    stats = tracer.add_sink(StatsSink())
    with tracer.span("compact.step"):
        pass
    tracer.count("steps", 3)
    table = stats.format_table()
    assert "compact.step" in table
    assert "steps" in table
    assert stats.spans["compact.step"].calls == 1
    assert stats.total_s("compact.step") >= 0.0
    assert StatsSink().format_table() == "(no spans or counters recorded)"


def test_chrome_trace_sink_valid(tmp_path):
    path = tmp_path / "trace.json"
    tracer = Tracer(enabled=True)
    tracer.add_sink(ChromeTraceSink(path))
    with tracer.span("compact.step", obj="t1"):
        with tracer.span("compact.inner"):
            pass
    tracer.count("compact.steps")
    tracer.close()
    data = json.loads(path.read_text())
    assert validate_chrome_trace(data) == []
    phases = {event["ph"] for event in data["traceEvents"]}
    assert {"X", "C"} <= phases
    x_events = [e for e in data["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in x_events} == {"compact.step", "compact.inner"}
    assert all(e["cat"] == "compact" for e in x_events)


@pytest.fixture
def obs_log_records():
    """Records emitted on the repro.obs logger (propagation-independent:
    the CLI's configure_logging turns propagation off for the suite)."""
    records = []
    handler = logging.Handler(level=logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("repro.obs")
    logger.addHandler(handler)
    yield records
    logger.removeHandler(handler)


def test_chrome_trace_sink_balanced_run_stays_quiet(tmp_path, obs_log_records):
    path = tmp_path / "trace.json"
    tracer = Tracer(enabled=True)
    sink = tracer.add_sink(ChromeTraceSink(path))
    with tracer.span("compact.step"):
        pass
    tracer.close()
    assert sink.unbalanced_spans == 0
    assert obs_log_records == []


def test_chrome_trace_sink_warns_on_unfinished_spans(tmp_path, obs_log_records):
    """A span still open at close leaves the trace incomplete — say so."""
    path = tmp_path / "trace.json"
    tracer = Tracer(enabled=True)
    sink = tracer.add_sink(ChromeTraceSink(path))
    with tracer.span("compact.outer"):
        tracer.span("compact.leaked").__enter__()  # never exits
    tracer.close()
    assert sink.unbalanced_spans == 1
    messages = [r.getMessage() for r in obs_log_records]
    assert any("imbalance of 1" in m for m in messages)
    # The trace is still written and valid — just missing the leaked span.
    data = json.loads(path.read_text())
    assert validate_chrome_trace(data) == []
    names = {e["name"] for e in data["traceEvents"] if e["ph"] == "X"}
    assert names == {"compact.outer"}


def test_validate_chrome_trace_rejects_garbage():
    assert validate_chrome_trace({"no": "events"})
    assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]})  # missing keys
    assert validate_chrome_trace({"traceEvents": [
        {"ph": "Z", "name": "x", "ts": 0, "pid": 1, "tid": 1}
    ]})
    assert validate_chrome_trace([]) == []  # bare-array form is legal


def test_validate_chrome_trace_checks_stack_frames():
    sample = {"name": "s", "ph": "P", "ts": 0, "pid": 1, "tid": 1, "sf": "1"}
    good = {"traceEvents": [sample],
            "stackFrames": {"1": {"name": "f", "parent": "2"},
                            "2": {"name": "root"}}}
    assert validate_chrome_trace(good) == []
    # a frame without a name, a dangling parent, a dangling sample ref
    assert validate_chrome_trace({"traceEvents": [],
                                  "stackFrames": {"1": {}}})
    assert validate_chrome_trace({"traceEvents": [],
                                  "stackFrames": {"1": {"name": "f",
                                                        "parent": "9"}}})
    assert validate_chrome_trace({"traceEvents": [sample], "stackFrames": {}})


def test_counters_survive_a_truncated_trace(tmp_path, obs_log_records):
    """Spans and counters recorded before a leaked span must still be
    written, counter timestamps inside their enclosing span: the
    unbalanced-span warning documents the hole, it does not void the rest
    of the trace."""
    path = tmp_path / "trace.json"
    tracer = Tracer(enabled=True)
    sink = tracer.add_sink(ChromeTraceSink(path))
    with tracer.span("opt.trial"):
        tracer.count("opt.trials")
        tracer.count("opt.trials", 2)
    tracer.span("opt.leaked").__enter__()  # never exits
    tracer.close()
    assert sink.unbalanced_spans == 1
    assert any("imbalance of 1" in r.getMessage() for r in obs_log_records)
    data = json.loads(path.read_text())
    assert validate_chrome_trace(data) == []
    counters = [e for e in data["traceEvents"] if e["ph"] == "C"]
    assert [c["args"]["value"] for c in counters] == [1, 3]
    trial = next(e for e in data["traceEvents"] if e["ph"] == "X")
    assert trial["name"] == "opt.trial"
    assert all(trial["ts"] <= c["ts"] <= trial["ts"] + trial["dur"]
               for c in counters)


def test_chrome_sink_interns_sampled_stack_frames(tmp_path):
    sink = ChromeTraceSink(tmp_path / "trace.json")
    sink.add_sample(1000, ("root", "mid", "leaf"))
    sink.add_sample(2000, ("root", "mid", "leaf"))
    sink.add_sample(3000, ("root", "other"))
    payload = sink.to_json()
    assert validate_chrome_trace(payload) == []
    # shared prefixes intern to shared frames: root, mid, leaf, other
    assert len(payload["stackFrames"]) == 4
    samples = [e for e in payload["traceEvents"] if e["ph"] == "P"]
    assert len(samples) == 3
    assert samples[0]["sf"] == samples[1]["sf"] != samples[2]["sf"]
    leaf = payload["stackFrames"][samples[0]["sf"]]
    assert leaf["name"] == "leaf"


def test_stats_sink_sort_and_top(tracer):
    tracer, _ = tracer
    stats = tracer.add_sink(StatsSink())
    for name, calls in (("c.slow", 1), ("a.mid", 2), ("b.fast", 3)):
        for _ in range(calls):
            with tracer.span(name):
                pass
    for name, value in (("n.big", 100), ("n.small", 1), ("n.mid", 10)):
        tracer.count(name, value)

    by_name = stats.format_table()
    rows = [line.split()[0] for line in by_name.splitlines()[1:4]]
    assert rows == ["a.mid", "b.fast", "c.slow"]

    by_calls = stats.format_table(sort="calls")
    rows = [line.split()[0] for line in by_calls.splitlines()[1:4]]
    assert rows == ["b.fast", "a.mid", "c.slow"]

    for sort in ("total", "mean", "max"):
        assert stats.format_table(sort=sort)  # valid, timing-dependent order

    topped = stats.format_table(sort="calls", top=1)
    assert "b.fast" in topped
    assert "a.mid" not in topped
    assert "2 more spans" in topped
    assert "n.big" in topped  # counters sort by value when sort != name
    assert "n.small" not in topped
    assert "2 more counters" in topped

    with pytest.raises(ValueError):
        stats.format_table(sort="bogus")


def test_cli_stats_sort_and_top_flags(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "t.tech"
    status = main(["stats", "--sort", "total", "--top", "3",
                   "tech", "dump", "generic_bicmos_1u", "-o", str(out)])
    assert status == 0
    captured = capsys.readouterr().out
    assert "span" in captured


# ---------------------------------------------------------------------------
# logging
# ---------------------------------------------------------------------------
def test_get_logger_hierarchy():
    assert get_logger("compact").name == "repro.compact"
    assert get_logger("repro.compact").name == "repro.compact"
    assert get_logger().name == "repro"


def test_configure_logging_levels_and_idempotence():
    root = configure_logging(0)
    assert root.level == logging.INFO
    handlers = list(root.handlers)
    configure_logging(1)
    assert root.level == logging.DEBUG
    assert root.handlers == handlers  # reconfigured, not stacked
    configure_logging(-1)
    assert root.level == logging.WARNING


# ---------------------------------------------------------------------------
# end to end: instrumented pipeline under a live tracer
# ---------------------------------------------------------------------------
def test_traced_build_covers_layers(tmp_path):
    from repro.core import Environment
    from repro.drc import run_drc
    from repro.library.dsl_sources import TRANSISTOR_SOURCE
    from repro.tech import generic_bicmos_1u

    tech = generic_bicmos_1u()
    tracer = Tracer(enabled=True)
    stats = tracer.add_sink(StatsSink())
    chrome = tracer.add_sink(ChromeTraceSink())
    with activate(tracer):
        env = Environment(tech=tech)
        env.load(TRANSISTOR_SOURCE)
        transistor = env.build("Transistor", W=4.0, L=1.0)
        run_drc(transistor)
    assert stats.counter("interp.entity_calls") >= 1
    assert stats.counter("compact.steps") >= 3
    assert stats.counter("drc.rules_checked") >= 6
    assert "interp.entity" in stats.spans
    assert "compact.step" in stats.spans
    assert "drc.run" in stats.spans
    assert validate_chrome_trace(chrome.to_json()) == []


def test_tracing_does_not_change_results():
    """Determinism: tracing on vs off must give byte-identical layouts."""
    from repro.amplifier import build_amplifier
    from repro.io import dumps_cif
    from repro.tech import generic_bicmos_1u

    tech = generic_bicmos_1u()
    plain = dumps_cif(build_amplifier(tech))
    tracer = Tracer(enabled=True)
    tracer.add_sink(StatsSink())
    with activate(tracer):
        traced_run = dumps_cif(build_amplifier(tech))
    assert plain == traced_run


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------
def test_cli_trace_flag(tmp_path, capsys):
    from repro.cli import main
    from repro.library import CONTACT_ROW_SOURCE

    source = tmp_path / "row.pldl"
    source.write_text(
        CONTACT_ROW_SOURCE + 'gatecon = ContactRow(layer = "poly", W = 1)\n',
        encoding="utf-8",
    )
    trace_path = tmp_path / "trace.json"
    status = main([
        "--trace", str(trace_path),
        "build", str(source), "ContactRow",
        "-p", "layer=poly", "-p", "W=1", "-p", "L=10",
    ])
    assert status == 0
    data = json.loads(trace_path.read_text())
    assert validate_chrome_trace(data) == []
    assert any(e["name"].startswith("interp.") for e in data["traceEvents"])
    # The tracer is uninstalled after the command.
    assert get_tracer().enabled is False


def test_cli_stats_command(tmp_path, capsys):
    from repro.cli import main
    from repro.library import CONTACT_ROW_SOURCE

    source = tmp_path / "row.pldl"
    source.write_text(
        CONTACT_ROW_SOURCE + 'gatecon = ContactRow(layer = "poly", W = 1)\n',
        encoding="utf-8",
    )
    status = main([
        "stats", "build", str(source), "ContactRow",
        "-p", "layer=poly", "-p", "W=1", "-p", "L=10",
    ])
    assert status == 0
    out = capsys.readouterr().out
    assert "span" in out and "counter" in out
    assert "interp.entity" in out


def test_cli_stats_requires_command():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["stats"])
    with pytest.raises(SystemExit):
        main(["stats", "stats", "tech", "list"])


def test_cli_quiet_suppresses_diagnostics(tmp_path, capsys):
    from repro.cli import main

    out_file = tmp_path / "t.tech"
    assert main(["-q", "tech", "dump", "generic_bicmos_1u",
                 "-o", str(out_file)]) == 0
    assert "wrote" not in capsys.readouterr().out
    assert main(["tech", "dump", "generic_bicmos_1u",
                 "-o", str(out_file)]) == 0
    assert "wrote" in capsys.readouterr().out
