"""T-PROFILE — sampled wall-clock profile of the amplifier build.

Runs the Sec. 3 amplifier build + measurement under the zero-dependency
sampling profiler (``repro.obs.SamplingProfiler``) and records the
top-functions table to ``benchmarks/results/t_profile_amplifier.txt``.
This is the repository's standing answer to "where does the time go?": the
table pins the current hotspot ranking so later optimisation PRs can diff
against it.  The folded stacks land next to the table for flamegraph
tooling.

Acceptance: connectivity extraction — the pre-index top hotspot, now the
swept :class:`~repro.db.netindex.ConnectivityIndex` — must stay OUT of the
top-5 frames by self weight.  A reappearance means the index stopped being
shared or its sweeps regressed to quadratic.  Likewise the DRC checker's
``check_spacing`` / ``_Components`` (the post-netindex dominant hotspot,
now served by :class:`~repro.drc.index.DrcIndex`) and the per-cut
enclosure layer scan ``_enclosed_by_any`` (now served by the index's
enclosure sweep) must stay out of the top-5 — their reappearance means
``run_drc`` fell back to the all-pairs reference path.

Run ``BENCH_SMOKE=1 pytest benchmarks/bench_profile_amplifier.py`` for the
CI variant (identical workload; one build is already only a few seconds).
"""

import time
from pathlib import Path

from repro.amplifier import build_amplifier, measure_amplifier
from repro.obs import SamplingProfiler

RESULTS_DIR = Path(__file__).parent / "results"

#: Sampling period — 0.5 ms; the indexed DRC dropped the build+measure
#: to well under a second, so the workload repeats to keep the sample
#: count statistically useful.
INTERVAL_S = 0.0005
BUILDS = 3


def test_profile_amplifier(tech, record, ledger_append):
    profiler = SamplingProfiler(interval_s=INTERVAL_S)
    profiler.start()
    start = time.perf_counter()
    try:
        for _ in range(BUILDS):
            amp = build_amplifier(tech)
            report = measure_amplifier(amp)
    finally:
        profiler.stop()
    wall_s = time.perf_counter() - start
    assert report.drc_violations == 0

    assert profiler.sample_count > 50, "workload too fast to profile?"
    self_w, _ = profiler.totals()
    top5 = sorted(self_w, key=lambda name: -self_w[name])[:5]
    assert not any(
        "extract_connectivity" in name or "netindex" in name for name in top5
    ), f"connectivity extraction is a top-5 hotspot again: {top5}"
    assert not any(
        "check_spacing" in name
        or "_Components" in name
        or "_enclosed_by_any" in name
        for name in top5
    ), f"the all-pairs DRC path is a top-5 hotspot again: {top5}"

    RESULTS_DIR.mkdir(exist_ok=True)
    profiler.write_folded(RESULTS_DIR / "t_profile_amplifier.folded")

    table = profiler.top_table(top=15)
    record("t_profile_amplifier", [
        "T-PROFILE — sampled profile of amplifier build + measure:",
        *("  " + line for line in table.splitlines()),
        "folded stacks: benchmarks/results/t_profile_amplifier.folded",
        "(load in speedscope.app or flamegraph.pl; `repro --profile` makes",
        "the same artifact for any command)",
    ])
    ledger_append("BENCH_profile", {
        "wall_s": wall_s,
        "samples": profiler.sample_count,
        "interval_ms": INTERVAL_S * 1e3,
    }, wall_s=wall_s)
