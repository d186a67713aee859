"""Self-test of the end-to-end benchmark: checkers, determinism, tooling.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (about two
minutes; not part of the tier-1 suite).
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads
from repro.amplifier import measure_amplifier
from repro.drc import run_drc
from repro.db import ConnectivityIndex
from repro.io import dumps_gds
from repro.verify.inject import inject_spacing_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


# ---------------------------------------------------------------------------
# every checker counts a corrupted output as failed
# ---------------------------------------------------------------------------
def _fails(workload, inp, out):
    """Whether the benchmark loop counts *out* as a failed op."""
    loop = worker.Loop(workload)
    workload.op = lambda _inp: out
    return math.isnan(loop.run(inp)) and loop.failed == loop.attempted == 1


def test_amplifier_check_fails_on_a_dropped_rect():
    amp = workloads.Amplifier(0)
    inp = amp.next_input()
    out = amp.op(inp)
    assert amp.check(inp, out) > 0
    layout = out.layout
    layout.rects.remove(next(r for r in layout.rects if r.layer == "metal1"))
    layout.invalidate_index()
    corrupted = workloads.Output(layout, dumps_gds(layout), measure_amplifier(layout))
    with pytest.raises(workloads.CheckFailed):
        amp.check(inp, corrupted)
    assert _fails(amp, inp, corrupted)


def test_pldl_check_fails_when_the_translated_cell_differs():
    cells = workloads.PldlCells(0)
    inp = ("bicmos_1u", "Transistor", "translated", dict(W=8.0, L=1.0))
    out = cells.op(inp)
    assert cells.check(inp, out) > 0
    rect = out.layout.rects_on("metal1")[0]
    rect.x2 += 100
    with pytest.raises(workloads.CheckFailed, match="paths differ"):
        cells.check(inp, out)
    assert _fails(cells, inp, out)


def test_order_check_fails_on_a_wrong_score():
    search = workloads.OrderSearch(0)
    inp = search.next_input()
    out = search.op(inp)
    assert search.check(inp, out) > 0
    out.extra.best_score *= 0.5
    with pytest.raises(workloads.CheckFailed):
        search.check(inp, out)
    assert _fails(search, inp, out)


def test_chip_check_fails_on_a_planted_spacing_violation():
    chip = workloads.ChipDrc(0)
    inp = chip.next_input()
    out = chip.op(inp)
    assert chip.check(inp, out) > 0
    assert inject_spacing_probe(out.layout) is not None
    layout = out.layout
    components = len(ConnectivityIndex(layout.rects, layout.tech).components())
    corrupted = workloads.Output(layout, out.gds, (run_drc(layout), components))
    with pytest.raises(workloads.CheckFailed):
        chip.check(inp, corrupted)
    assert _fails(chip, inp, corrupted)


def test_pldl_inputs_cover_every_stratum_without_repeats():
    cells = workloads.PldlCells(7)
    inputs = [cells.next_input() for _ in range(len(cells.strata) * 20)]
    keys = [(t, e, json.dumps(p, sort_keys=True)) for t, e, _path, p in inputs]
    assert len(set(keys)) == len(keys)
    per_stratum = {}
    for tech, entity, path, _point in inputs:
        per_stratum.setdefault((tech, entity), []).append(path)
    assert len(per_stratum) == 14
    assert all(paths.count("interp") == 10 for paths in per_stratum.values())
    again = workloads.PldlCells(7)
    assert [again.next_input() for _ in range(len(inputs))] == inputs


# ---------------------------------------------------------------------------
# deterministic metrics do not depend on the hash seed
# ---------------------------------------------------------------------------
def _smoke(tmp_path, hash_seed):
    out = tmp_path / f"smoke_{hash_seed}.json"
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), REPRO_LEDGER="0")
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5",
         "--trace", "1", "--out", str(out)],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=600,
    )
    return json.loads(out.read_text())["workloads"]


def _deterministic(results):
    return {
        workload: (
            result["attempted"], result["failed"], result["correct"],
            result["info"]["layout_area_um2"],
            {name: m["value"] for name, m in result["metrics"].items()
             if not m["unit"].startswith("s") and m["unit"] != "%"},
        )
        for workload, result in results.items()
    }


def test_smoke_counters_are_identical_across_hash_seeds(tmp_path):
    first = _deterministic(_smoke(tmp_path, 0))
    second = _deterministic(_smoke(tmp_path, 4242))
    assert first == second
    assert set(first) == set(run.workload_names())
    for attempted, failed, correct, area, counts in first.values():
        assert failed == 0 and correct and area > 0
        assert "compact.calls" in counts and "io.gds_bytes" in counts


# ---------------------------------------------------------------------------
# tooling
# ---------------------------------------------------------------------------
def test_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert run.verdict(base, base, "lower", 0.1)[0] == "unchanged"
    assert run.verdict(base, [v * 1.2 for v in base], "lower", 0.1)[0] == "worse"
    assert run.verdict(base, [v * 0.8 for v in base], "lower", 0.1)[0] == "improved"
    assert run.verdict(base, [v * 0.8 for v in base], "higher", 0.1)[0] == "worse"
    # A 3% gain won 10/10 pairs and beats the parent's spread: improved.
    assert run.verdict(base, [v * 0.97 for v in base], "lower", 0.1)[0] == "improved"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8]
    assert run.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert run.verdict([0.0], [0.0], "lower", 0.0)[0] == "unchanged"
    assert run.verdict([0.0], [0.1], "lower", 0.0)[0] == "worse"


def _results(op_p50, failed=0):
    metrics = {spec["name"]: {"value": 1.0, "unit": spec["unit"]}
               for spec in run.load_benchmark()["end_to_end"]}
    metrics["op_p50_s"]["value"] = op_p50
    workload = {"attempted": 10, "failed": failed, "metrics": metrics}
    return {"workloads": {name: workload for name in run.workload_names()}}


def test_compare_exits_nonzero_on_a_regression(tmp_path, capsys):
    files = {}
    for name, results in (("a", _results(1.0)), ("b", _results(1.0)),
                          ("slow", _results(1.5)), ("failing", _results(1.0, 1))):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(results))
    assert run.compare([str(files["a"]), str(files["b"])]) == 0
    verdicts = [line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(verdicts) == len(run.workload_names()) * 8
    assert set(verdicts) == {"unchanged"}
    assert run.compare([str(files["a"]), str(files["slow"])]) == 1
    assert run.compare([str(files["a"]), str(files["failing"])]) == 1


def test_ledger_records_each_workload_and_honours_the_switch(tmp_path, monkeypatch):
    from repro.obs.ledger import Ledger

    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"op_p50_s": {"value": 0.3, "unit": "s"}},
              "info": {"peak_rss_kb": 1000}}
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_LEDGER", "0")
    run.ledger_append("amplifier", result, ["--seed", "0"], 1.0)
    assert not (tmp_path / "ledger.jsonl").exists()
    monkeypatch.setenv("REPRO_LEDGER", "1")
    run.ledger_append("amplifier", result, ["--seed", "0"], 1.0)
    with Ledger(tmp_path) as ledger:
        record = ledger.last("bench:e2e.amplifier")
    assert record is not None and record.kind == "bench"
    assert record.metrics == {"op_p50_s": 0.3, "failed_frac": 0.0}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "amplifier",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
