"""The run ledger and `repro perf`: storage, run references, regression checks.

The ledger appends one JSON line per run to its only store, skips a torn
line without shifting later rowids, never fails the command it records and
stays opt-out-able.  `perf check` judges each command's newest run exactly
against the committed reports: it fails on any counter increase beyond the
floor and on a `--metric` pattern that matches nothing.
"""

import json
import logging
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs import regress
from repro.obs.ledger import (
    Ledger,
    RunRecord,
    flatten_metrics,
    ledger_enabled,
    peak_rss_kb,
    resolve_ledger_dir,
    snapshot_metrics,
)
from repro.obs.sinks import StatsSink
from repro.obs.tracer import Tracer


@pytest.fixture
def ledger(tmp_path):
    with Ledger(tmp_path / "ledger") as led:
        yield led


def _bench_record(metrics, command="bench:BENCH_X", **kwargs):
    return RunRecord(command, kind="bench", metrics=metrics, **kwargs)


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------
def test_append_writes_one_jsonl_line(ledger):
    ledger.append(RunRecord(
        "amplifier", argv=["amplifier", "-o", "out"], tech="generic_bicmos_1u",
        git_sha="abc123", status=0, wall_s=1.5, cpu_s=1.4, peak_rss_kb=5000,
        metrics={"compact.steps": 12.0},
    ))
    assert sorted(path.name for path in ledger.root.iterdir()) == ["ledger.jsonl"]
    lines = ledger.jsonl_path.read_text().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["command"] == "amplifier"
    assert payload["metrics"] == {"compact.steps": 12.0}
    fetched = ledger.get(1)
    assert fetched.command == "amplifier"
    assert fetched.tech == "generic_bicmos_1u"
    assert fetched.all_metrics()["wall_s"] == 1.5
    assert fetched.all_metrics()["compact.steps"] == 12.0
    assert fetched.rowid == 1


def _capture_obs_warnings():
    # Handler attached directly: the CLI's configure_logging may have turned
    # propagation off for the repro hierarchy earlier in the session.
    records = []
    handler = logging.Handler(level=logging.WARNING)
    handler.emit = records.append
    logging.getLogger("repro.obs").addHandler(handler)
    return handler, records


def test_torn_line_is_skipped_and_later_rowids_keep_their_line(ledger):
    ledger.append(RunRecord("build", wall_s=1.0))
    ledger.append(RunRecord("build", wall_s=2.0))
    with open(ledger.jsonl_path, "r+b") as stream:  # tear the second append
        stream.truncate(stream.seek(0, 2) - 40)
        stream.write(b"\n")
    ledger.append(RunRecord("build", wall_s=3.0))
    handler, records = _capture_obs_warnings()
    try:
        runs = ledger.runs()
    finally:
        logging.getLogger("repro.obs").removeHandler(handler)
    assert [(r.rowid, r.wall_s) for r in runs] == [(3, 3.0), (1, 1.0)]
    assert any("line 2" in r.getMessage() for r in records)
    assert ledger.get(3).wall_s == 3.0
    assert ledger.get(2) is None
    assert regress.resolve_run(ledger, "3").wall_s == 3.0
    with open(ledger.jsonl_path, "r+b") as stream:  # torn before its newline
        stream.truncate(stream.seek(0, 2) - 40)
    ledger.append(RunRecord("build", wall_s=4.0))  # continues line 3
    assert [(r.rowid, r.wall_s) for r in ledger.runs()] == [(3, 4.0), (1, 1.0)]


def test_reads_cross_block_boundaries(ledger, monkeypatch):
    from repro.obs import ledger as ledger_module

    monkeypatch.setattr(ledger_module, "_BLOCK", 7)  # lines span many blocks
    for index in range(5):
        ledger.append(RunRecord("build", wall_s=float(index)))
    with open(ledger.jsonl_path, "ab") as stream:
        stream.write(b"{\"command\": \"tail\"}")  # no final newline
    assert [(r.rowid, r.command) for r in ledger.runs()] == [
        (6, "tail"), (5, "build"), (4, "build"), (3, "build"), (2, "build"),
        (1, "build"),
    ]
    assert [r.wall_s for r in ledger.runs(command="build", limit=2)] == [4.0, 3.0]


def test_runs_filtering_and_last(ledger):
    for index in range(3):
        ledger.append(RunRecord("build", wall_s=float(index)))
    ledger.append(RunRecord("drc", wall_s=9.0))
    assert [r.command for r in ledger.runs(limit=2)] == ["drc", "build"]
    assert len(ledger.runs(command="build")) == 3
    assert ledger.last().command == "drc"
    assert ledger.last(command="build").wall_s == 2.0
    assert ledger.last(command="build", offset=2).wall_s == 0.0
    assert ledger.last(command="missing") is None
    assert ledger.runs(limit=0) == []
    newest = ledger.newest(["build", "drc", "missing"])
    assert {cmd: r.wall_s for cmd, r in newest.items()} == {"build": 2.0, "drc": 9.0}


def test_empty_ledger_reads(tmp_path):
    led = Ledger(tmp_path / "nowhere")
    assert led.runs() == []
    assert led.get(1) is None
    assert led.last() is None
    assert not (tmp_path / "nowhere").exists()  # reads never create the store


def test_try_append_degrades_to_warning(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file where the directory should be")
    led = Ledger(target / "ledger")
    handler, records = _capture_obs_warnings()
    try:
        assert led.try_append(RunRecord("amplifier")) is None
    finally:
        logging.getLogger("repro.obs").removeHandler(handler)
    assert any("could not record run" in r.getMessage() for r in records)


def test_ledger_enabled_env(monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    assert ledger_enabled()
    assert not ledger_enabled(opt_out=True)
    monkeypatch.setenv("REPRO_LEDGER", "0")
    assert not ledger_enabled()
    monkeypatch.setenv("REPRO_LEDGER", "off")
    assert not ledger_enabled()
    monkeypatch.setenv("REPRO_LEDGER", "1")
    assert ledger_enabled()


def test_resolve_ledger_dir_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
    assert resolve_ledger_dir().name == "ledger"
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "env"))
    assert resolve_ledger_dir() == tmp_path / "env"
    assert resolve_ledger_dir(tmp_path / "flag") == tmp_path / "flag"


# ---------------------------------------------------------------------------
# metric helpers
# ---------------------------------------------------------------------------
def test_flatten_metrics():
    flat = flatten_metrics({
        "amplifier": {"indexed": {"compact_s": 0.5, "pairs_scanned": 1200}},
        "smoke": True,            # booleans dropped
        "name": "row",            # strings dropped
        "sizes": {"12": {"speedup": 2.0}},
        "orders": [1, 2, 3],      # lists dropped
    })
    assert flat == {
        "amplifier.indexed.compact_s": 0.5,
        "amplifier.indexed.pairs_scanned": 1200.0,
        "sizes.12.speedup": 2.0,
    }


def test_snapshot_metrics_from_stats_sink():
    tracer = Tracer(enabled=True)
    stats = tracer.add_sink(StatsSink())
    with tracer.span("compact.step"):
        pass
    tracer.count("compact.pairs_scanned", 7)
    metrics = snapshot_metrics(stats)
    assert metrics["compact.pairs_scanned"] == 7.0
    assert metrics["span.compact.step.calls"] == 1.0
    assert metrics["span.compact.step.total_s"] >= 0.0


def test_peak_rss_is_positive():
    assert peak_rss_kb() > 0


# ---------------------------------------------------------------------------
# run references
# ---------------------------------------------------------------------------
def test_resolve_run_references(ledger):
    ledger.append(RunRecord("build", wall_s=1.0))
    ledger.append(RunRecord("amplifier", wall_s=2.0))
    ledger.append(RunRecord("build", wall_s=3.0))
    assert regress.resolve_run(ledger, "last").wall_s == 3.0
    assert regress.resolve_run(ledger, "last~1").wall_s == 2.0
    assert regress.resolve_run(ledger, "last:amplifier").wall_s == 2.0
    assert regress.resolve_run(ledger, "last:build~1").wall_s == 1.0
    assert regress.resolve_run(ledger, "2").command == "amplifier"
    with pytest.raises(SystemExit):
        regress.resolve_run(ledger, "99")
    with pytest.raises(SystemExit):
        regress.resolve_run(ledger, "nonsense")


# ---------------------------------------------------------------------------
# the regression rule
# ---------------------------------------------------------------------------
def _write_baseline_dir(tmp_path, compact_s=1.0, pairs=1000):
    results = tmp_path / "results"
    results.mkdir(exist_ok=True)
    (results / "BENCH_X.json").write_text(json.dumps({
        "amplifier": {"compact_s": compact_s, "pairs_scanned": pairs},
    }))
    return results


def test_perf_check_passes_on_unmodified_run(ledger, tmp_path):
    results = _write_baseline_dir(tmp_path)
    ledger.append(_bench_record({
        "amplifier.compact_s": 1.0,
        "amplifier.pairs_scanned": 1000.0,
    }))
    status, report = regress.perf_check(
        ledger, str(results), patterns=("*compact_s", "*pairs_scanned")
    )
    assert status == 0, report
    assert "REGRESSED" not in report
    assert "1 command" not in report  # sanity: report lists metrics
    assert "0 regression(s)" in report


def test_perf_check_fails_on_2x_slowdown(ledger, tmp_path):
    results = _write_baseline_dir(tmp_path)
    for _ in range(3):  # the injected regression: every metric doubled
        ledger.append(_bench_record({
            "amplifier.compact_s": 2.0,
            "amplifier.pairs_scanned": 2000.0,
        }))
    status, report = regress.perf_check(
        ledger, str(results), patterns=("*compact_s", "*pairs_scanned")
    )
    assert status == 1
    assert report.count("REGRESSED") == 2


def test_perf_check_counter_is_exact_but_floor_allows_slack(ledger, tmp_path):
    results = _write_baseline_dir(tmp_path)
    ledger.append(_bench_record({"amplifier.pairs_scanned": 1001.0}))
    status, _ = regress.perf_check(
        ledger, str(results), patterns=("*pairs_scanned",)
    )
    assert status == 1  # deterministic counter: +1 is a real regression
    status, _ = regress.perf_check(
        ledger, str(results), patterns=("*pairs_scanned",), floor=5.0
    )
    assert status == 0


def test_perf_check_judges_the_newest_run_alone(ledger, tmp_path):
    results = _write_baseline_dir(tmp_path)
    for value in (1000.0, 1000.0, 1200.0):  # +20% on the newest run
        ledger.append(_bench_record({"amplifier.pairs_scanned": value}))
    status, report = regress.perf_check(
        ledger, str(results), patterns=("*pairs_scanned",)
    )
    assert status == 1, report
    assert "1000 ->           1200" in report


def test_perf_check_rejects_a_pattern_that_matches_nothing(ledger, tmp_path):
    results = _write_baseline_dir(tmp_path)
    ledger.append(_bench_record({"amplifier.pairs_scanned": 1000.0}))
    status, report = regress.perf_check(
        ledger, str(results), patterns=("*pairs_scanned", "*tree_compactz")
    )
    assert status == 2
    assert "*tree_compactz" in report
    # The default patterns need not all match: only this run's counters.
    status, report = regress.perf_check(ledger, str(results))
    assert status == 0, report


def test_perf_check_errors_when_nothing_compares(ledger, tmp_path):
    status, report = regress.perf_check(ledger, str(tmp_path / "no-such-dir"))
    assert status == 2 and "unknown" in report
    results = _write_baseline_dir(tmp_path)
    status, report = regress.perf_check(ledger, str(results))
    assert status == 2  # baseline exists but the ledger has no fresh runs


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
@pytest.fixture
def live_ledger_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_LEDGER", "1")
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    return tmp_path / "ledger"


def test_cli_records_every_command(live_ledger_env, tmp_path, capsys):
    out = tmp_path / "t.tech"
    assert main(["tech", "dump", "generic_bicmos_1u", "-o", str(out)]) == 0
    with Ledger(live_ledger_env) as ledger:
        record = ledger.last()
        assert record.command == "tech"
        assert record.wall_s > 0.0
        assert record.cpu_s > 0.0
        assert record.peak_rss_kb > 0
        assert record.status == 0


def test_repro_run_creates_no_sqlite_store(live_ledger_env, tmp_path, capsys):
    out = tmp_path / "t.tech"
    assert main(["tech", "dump", "generic_bicmos_1u", "-o", str(out)]) == 0
    assert sorted(p.name for p in live_ledger_env.iterdir()) == ["ledger.jsonl"]


def test_import_repro_stays_light():
    code = ("import sys, repro\n"
            "print(sorted({'sqlite3', 'statistics', 'uuid'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_no_ledger_flag_and_env_opt_out(live_ledger_env, tmp_path,
                                            monkeypatch, capsys):
    out = tmp_path / "t.tech"
    assert main(["--no-ledger", "tech", "dump", "generic_bicmos_1u",
                 "-o", str(out)]) == 0
    assert not live_ledger_env.exists()
    monkeypatch.setenv("REPRO_LEDGER", "0")
    assert main(["tech", "dump", "generic_bicmos_1u", "-o", str(out)]) == 0
    assert not live_ledger_env.exists()


def test_cli_ledger_captures_tracer_metrics(live_ledger_env, tmp_path, capsys):
    from repro.library import CONTACT_ROW_SOURCE

    source = tmp_path / "row.pldl"
    source.write_text(
        CONTACT_ROW_SOURCE + 'gatecon = ContactRow(layer = "poly", W = 1)\n',
        encoding="utf-8",
    )
    assert main(["build", str(source), "ContactRow",
                 "-p", "layer=poly", "-p", "W=1", "-p", "L=10"]) == 0
    with Ledger(live_ledger_env) as ledger:
        metrics = ledger.last().all_metrics()
    assert metrics["interp.entity_calls"] >= 1
    assert metrics["span.interp.entity.calls"] >= 1


def test_cli_perf_commands_do_not_grow_the_ledger(live_ledger_env, tmp_path,
                                                  capsys):
    out = tmp_path / "t.tech"
    assert main(["tech", "dump", "generic_bicmos_1u", "-o", str(out)]) == 0
    assert main(["perf", "log"]) == 0
    assert main(["perf", "show", "last"]) == 0
    with Ledger(live_ledger_env) as ledger:
        assert len(ledger.runs()) == 1
    output = capsys.readouterr().out
    assert "tech" in output and "metrics" in output


def test_cli_perf_check_exit_codes(tmp_path, capsys):
    ledger_dir = tmp_path / "ledger"
    results = _write_baseline_dir(tmp_path)
    check = ["perf", "check", "--ledger", str(ledger_dir),
             "--baseline", str(results)]
    with Ledger(ledger_dir) as ledger:
        ledger.append(_bench_record({"amplifier.pairs_scanned": 1000.0}))
    assert main(check + ["--metric", "*pairs_scanned"]) == 0
    with Ledger(ledger_dir) as ledger:
        ledger.append(_bench_record({"amplifier.pairs_scanned": 1001.0}))
    assert main(check + ["--metric", "*pairs_scanned"]) == 1
    assert main(check + ["--metric", "*pairs_scanned", "--floor", "1"]) == 0
    assert main(check + ["--metric", "*pairs_scannedz"]) == 2
    assert main(["perf", "check", "--ledger", str(ledger_dir),
                 "--baseline", str(tmp_path / "missing")]) == 2
    assert "REGRESSED" in capsys.readouterr().out


def test_cli_perf_diff(tmp_path, capsys):
    ledger_dir = tmp_path / "ledger"
    with Ledger(ledger_dir) as ledger:
        ledger.append(_bench_record({"compact_s": 1.0}))
        ledger.append(_bench_record({"compact_s": 1.5}))
    assert main(["perf", "diff", "1", "last",
                 "--ledger", str(ledger_dir)]) == 0
    output = capsys.readouterr().out
    assert "A: run #1 bench:BENCH_X" in output
    assert "+50.0%" in output


def test_perf_log_empty_ledger_message(tmp_path, capsys):
    assert main(["perf", "log", "--ledger", str(tmp_path / "none")]) == 0
    assert "no matching runs" in capsys.readouterr().out
