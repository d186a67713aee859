"""The sampling profiler: folded stacks, top-function tables, trace overlay.

Wall-clock mode samples real threads, so these tests use a deterministic
spin-loop hot enough (≈0.2 s at 1 ms/sample) that missing it entirely would
mean the sampler never ran.  Memory mode is deterministic via tracemalloc.
"""

import re
import sys
import time

import pytest

from repro.cli import main
from repro.obs.profiler import SamplingProfiler, _frame_label
from repro.obs.sinks import ChromeTraceSink, validate_chrome_trace

FOLDED_LINE = re.compile(r"^\S+(;\S+)* \d+$")


def _spin(duration_s):
    """Burn CPU on this line for ``duration_s`` seconds."""
    deadline = time.perf_counter() + duration_s
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(50))
    return total


def _profiled_spin(duration_s=0.2, **kwargs):
    profiler = SamplingProfiler(interval_s=0.001, **kwargs)
    profiler.start()
    try:
        _spin(duration_s)
    finally:
        profiler.stop()
    return profiler


def test_wall_mode_catches_the_hot_function():
    profiler = _profiled_spin()
    assert profiler.sample_count > 20  # 0.2s at 1ms/sample, generous margin
    folded = profiler.folded()
    assert "_spin" in folded
    for line in folded.splitlines():
        assert FOLDED_LINE.match(line), line
    # stacks are root-first: the test runner is an ancestor of _spin
    hot = [ln for ln in folded.splitlines() if "_spin" in ln]
    assert hot and all(ln.split()[0].split(";")[-1].endswith("._spin")
                       or "_spin" in ln.split()[0] for ln in hot)


def test_fast_sampler_shortens_the_switch_interval():
    """A sub-5 ms sampler lowers the GIL switch interval while it runs, so
    it can wake at its own period; stop restores the interval."""
    default = sys.getswitchinterval()
    profiler = SamplingProfiler(interval_s=default / 10)
    with profiler:
        assert sys.getswitchinterval() == pytest.approx(profiler.interval_s)
    assert sys.getswitchinterval() == default
    with SamplingProfiler(interval_s=default * 2):
        assert sys.getswitchinterval() == default


def test_top_table_ranks_spin_first():
    profiler = _profiled_spin()
    table = profiler.top_table(top=5)
    lines = table.splitlines()
    assert "samples over" in lines[0]
    # first ranked row (after header + column header) is the spin loop
    body = [ln for ln in lines if "_spin" in ln]
    assert body, table
    assert "_spin" in lines[2] or "_spin" in lines[3], table


def test_write_folded(tmp_path):
    profiler = _profiled_spin(duration_s=0.05)
    out = tmp_path / "prof.folded"
    profiler.write_folded(out)
    assert out.read_text() == profiler.folded()


def test_sampler_excludes_its_own_thread():
    profiler = _profiled_spin(duration_s=0.05)
    assert "_sample_loop" not in profiler.folded()


def test_chrome_overlay_emits_valid_samples(tmp_path):
    sink = ChromeTraceSink(tmp_path / "trace.json")
    profiler = _profiled_spin(duration_s=0.1, chrome_sink=sink)
    payload = sink.to_json()
    samples = [e for e in payload["traceEvents"] if e.get("ph") == "P"]
    assert len(samples) == profiler.sample_count > 0
    assert payload["stackFrames"]
    assert validate_chrome_trace(payload) == []
    # every sample resolves through the frame table down to a root
    leaf = samples[0]["sf"]
    depth = 0
    while leaf is not None:
        frame = payload["stackFrames"][leaf]
        leaf = frame.get("parent")
        depth += 1
        assert depth < 300
    assert any("_spin" in f["name"] for f in payload["stackFrames"].values())


def _allocate_kib(kib):
    keep = [bytearray(1024) for _ in range(kib)]
    return keep


def test_memory_mode_attributes_allocations():
    profiler = SamplingProfiler(mode="memory")
    profiler.start()
    try:
        keep = _allocate_kib(512)
    finally:
        profiler.stop()
    assert len(keep) == 512
    assert profiler.peak_kib >= 512
    folded = profiler.folded()
    assert "test_profiler.py:" in folded
    for line in folded.splitlines():
        assert FOLDED_LINE.match(line), line


def test_frame_label_sanitizes_separators():
    class FakeCode:
        co_qualname = "outer.<locals> x;y"
        co_filename = "/tmp/pkg/mod.py"

    class FakeFrame:
        f_code = FakeCode()
        f_globals = {"__name__": "pkg.mod"}

    label = _frame_label(FakeFrame())
    assert ";" not in label and " " not in label
    assert label.startswith("pkg.mod.")


def test_cli_profile_writes_folded_and_table(tmp_path, capsys):
    out = tmp_path / "tech.folded"
    tech_out = tmp_path / "t.tech"
    status = main([
        "--profile", str(out), "--profile-interval", "1",
        "tech", "dump", "generic_bicmos_1u", "-o", str(tech_out),
    ])
    assert status == 0
    assert out.exists()
    # `tech dump` may finish inside one sampling interval; the profile file
    # and its confirmation line must appear either way.
    assert "wrote profile" in capsys.readouterr().out


def test_cli_profile_memory_mode(tmp_path, capsys):
    out = tmp_path / "tech.mem.folded"
    tech_out = tmp_path / "t.tech"
    status = main([
        "--profile", str(out), "--profile-memory",
        "tech", "dump", "generic_bicmos_1u", "-o", str(tech_out),
    ])
    assert status == 0
    assert out.exists()
    assert "KiB over" in capsys.readouterr().out
