"""The run ledger and `repro perf`: storage, baselines, regression checks.

The ledger must append to both stores (JSONL is the durable log, SQLite the
query index), never fail the command it records, stay opt-out-able, and the
`perf check` noise policy must fail on a real (2x) slowdown while passing
identical and merely-jittery reruns.
"""

import json

import pytest

from repro.cli import main
from repro.obs import regress
from repro.obs.ledger import (
    BaselineStat,
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
def test_append_writes_jsonl_and_sqlite(ledger):
    record = ledger.append(RunRecord(
        "amplifier", argv=["amplifier", "-o", "out"], tech="generic_bicmos_1u",
        git_sha="abc123", status=0, wall_s=1.5, cpu_s=1.4, peak_rss_kb=5000,
        metrics={"compact.steps": 12.0},
    ))
    assert record.rowid == 1
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
    assert ledger.commands() == ["drc", "build"]


def test_empty_ledger_reads(tmp_path):
    led = Ledger(tmp_path / "nowhere")
    assert led.runs() == []
    assert led.get(1) is None
    assert led.last() is None
    assert led.baseline("x") == {}
    assert not (tmp_path / "nowhere").exists()  # reads never create the store


def test_try_append_degrades_to_warning(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file where the directory should be")
    led = Ledger(target / "ledger")
    # Handler attached directly: the CLI's configure_logging may have turned
    # propagation off for the repro hierarchy earlier in the session.
    import logging

    records = []
    handler = logging.Handler(level=logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("repro.obs")
    logger.addHandler(handler)
    try:
        assert led.try_append(RunRecord("amplifier")) is None
    finally:
        logger.removeHandler(handler)
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
# baselines and run references
# ---------------------------------------------------------------------------
def test_save_and_load_baseline(ledger):
    for value in (1.0, 1.1, 0.9):
        ledger.append(_bench_record({"compact_s": value, "pairs": 100.0}))
    stats = ledger.save_baseline("release", k=3)
    assert set(stats) == {"bench:BENCH_X"}
    loaded = ledger.baseline("release")["bench:BENCH_X"]
    assert loaded["compact_s"].median == 1.0
    assert loaded["compact_s"].mad == pytest.approx(0.1)
    assert loaded["compact_s"].samples == 3
    assert loaded["pairs"].mad == 0.0
    assert ledger.baseline_names() == ["release"]
    with pytest.raises(ValueError):
        ledger.save_baseline("empty", command="missing")


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
# the noise policy
# ---------------------------------------------------------------------------
def test_noise_classification_and_bands():
    assert regress.is_noisy("wall_s")
    assert regress.is_noisy("est_disabled_overhead_pct")
    assert regress.is_noisy("peak_rss_kb")
    assert not regress.is_noisy("compact.pairs_scanned")
    noisy = BaselineStat(median=10.0, mad=1.0, samples=5)
    assert regress.allowed_band("compact_s", noisy, rel=0.25, mads=3.0,
                                floor=0.0) == pytest.approx(3.0)  # 3·MAD wins
    assert regress.allowed_band("compact_s", noisy, rel=0.5, mads=0.0,
                                floor=0.0) == pytest.approx(5.0)  # rel wins
    exact = BaselineStat(median=1000.0, mad=50.0, samples=5)
    assert regress.allowed_band("pairs_scanned", exact, rel=0.25, mads=3.0,
                                floor=0.0) == 0.0
    assert regress.allowed_band("pairs_scanned", exact, rel=0.25, mads=3.0,
                                floor=2.0) == 2.0


def _write_baseline_dir(tmp_path, compact_s=1.0, pairs=1000):
    results = tmp_path / "results"
    results.mkdir(exist_ok=True)
    (results / "BENCH_X.json").write_text(json.dumps({
        "amplifier": {"compact_s": compact_s, "pairs_scanned": pairs},
    }))
    return results


def test_perf_check_passes_on_unmodified_run(ledger, tmp_path):
    results = _write_baseline_dir(tmp_path)
    for jitter in (1.00, 1.05, 0.97):  # timer noise well inside the band
        ledger.append(_bench_record({
            "amplifier.compact_s": jitter,
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


def test_perf_check_median_of_k_rides_over_one_outlier(ledger, tmp_path):
    results = _write_baseline_dir(tmp_path)
    for value in (1.0, 9.0, 1.02):  # one GC-pause-style outlier
        ledger.append(_bench_record({"amplifier.compact_s": value}))
    status, report = regress.perf_check(
        ledger, str(results), k=3, patterns=("*compact_s",)
    )
    assert status == 0, report


def test_perf_check_against_named_baseline(ledger):
    for value in (1.0, 1.1, 0.9):
        ledger.append(_bench_record({"compact_s": value}))
    ledger.save_baseline("good", k=3)
    ledger.append(_bench_record({"compact_s": 5.0}))
    status, report = regress.perf_check(
        ledger, "good", k=1, patterns=("compact_s",)
    )
    assert status == 1
    assert "REGRESSED" in report


def test_perf_check_errors_when_nothing_compares(ledger, tmp_path):
    status, report = regress.perf_check(ledger, "no-such-baseline")
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
    with Ledger(ledger_dir) as ledger:
        ledger.append(_bench_record({
            "amplifier.compact_s": 1.02,
            "amplifier.pairs_scanned": 1000.0,
        }))
    assert main(["perf", "check", "--ledger", str(ledger_dir),
                 "--baseline", str(results),
                 "--metric", "*compact_s", "--metric", "*pairs_scanned"]) == 0
    with Ledger(ledger_dir) as ledger:
        for _ in range(3):
            ledger.append(_bench_record({
                "amplifier.compact_s": 2.04,
                "amplifier.pairs_scanned": 1000.0,
            }))
    assert main(["perf", "check", "--ledger", str(ledger_dir),
                 "--baseline", str(results),
                 "--metric", "*compact_s", "--metric", "*pairs_scanned"]) == 1
    assert main(["perf", "check", "--ledger", str(ledger_dir),
                 "--baseline", str(tmp_path / "missing")]) == 2
    assert "REGRESSED" in capsys.readouterr().out


def test_cli_perf_diff_and_baseline(tmp_path, capsys):
    ledger_dir = tmp_path / "ledger"
    with Ledger(ledger_dir) as ledger:
        ledger.append(_bench_record({"compact_s": 1.0}))
        ledger.append(_bench_record({"compact_s": 1.5}))
    assert main(["perf", "baseline", "rel1", "--ledger", str(ledger_dir)]) == 0
    assert main(["perf", "diff", "rel1", "last",
                 "--ledger", str(ledger_dir)]) == 0
    output = capsys.readouterr().out
    assert "baseline rel1" in output
    assert "compact_s" in output


def test_perf_log_empty_ledger_message(tmp_path, capsys):
    assert main(["perf", "log", "--ledger", str(tmp_path / "none")]) == 0
    assert "no matching runs" in capsys.readouterr().out
