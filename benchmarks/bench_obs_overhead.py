"""T-OBS — cost of the observability layer on the amplifier workload.

The instrumentation in interpreter/compactor/optimizer/DRC stays in the hot
paths permanently, so its *disabled* cost must be negligible: every site
fetches the process tracer and takes one ``enabled`` check (spans return a
shared null object, counters return immediately).  This bench measures

* the Sec. 3 amplifier build + DRC with the tracer disabled vs enabled
  (a :class:`~repro.obs.StatsSink` attached),
* the microbenchmarked per-call cost of a disabled span and counter, and
* the estimated disabled overhead: (instrumentation calls actually made by
  the workload) × (disabled per-call cost) / (workload time),

and writes ``benchmarks/results/BENCH_obs.json``.  Acceptance: the
estimated disabled overhead is under 2% of the workload.  (The estimate is
the honest number — two back-to-back wall-clock runs of a ~2 s workload
differ by more than the disabled instrumentation costs, so a measured
disabled-vs-disabled delta would be noise.)

The provenance recorder (``repro.obs.provenance``) follows the same
zero-cost-when-disabled contract, so the bench measures it the same way:
an enabled run counts the recorder-site hits (rect stamps, entity frames,
builtin tags), a microbenchmark prices the disabled ``get_recorder()`` +
``enabled`` check, and the product must stay under 1% of the workload.

Histogram recording lives inside ``StatsSink.on_span`` — the *enabled*
path — so a disabled span is the same shared null object as before and
``_disabled_call_ns`` already prices the histogram-bearing instrumentation
exactly.

Run ``BENCH_SMOKE=1 pytest benchmarks/bench_obs_overhead.py`` for the quick
CI variant (one repetition per mode).
"""

import json
import os
import time
from pathlib import Path

from repro.amplifier import build_amplifier, measure_amplifier
from repro.obs import (
    ProvenanceRecorder,
    StatsSink,
    Tracer,
    activate,
    get_recorder,
    get_tracer,
    recording,
)

RESULTS_DIR = Path(__file__).parent / "results"
SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
REPS = 1 if SMOKE else 3

#: Acceptance threshold for the disabled-tracer overhead estimate.
MAX_DISABLED_OVERHEAD_PCT = 2.0
#: Acceptance threshold for the disabled-provenance overhead estimate.
MAX_DISABLED_PROV_OVERHEAD_PCT = 1.0
#: Acceptance threshold for the opted-out run-ledger overhead estimate.
MAX_DISABLED_LEDGER_OVERHEAD_PCT = 1.0


def _workload(tech):
    amp = build_amplifier(tech)
    return measure_amplifier(amp)


def _best_of(reps, func, *args):
    """Fastest of *reps* runs (the standard way to suppress timer noise)."""
    best = None
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = func(*args)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _disabled_call_ns(loops=200_000):
    """Per-call cost of one disabled span plus one disabled counter."""
    tracer = get_tracer()
    assert not tracer.enabled
    start = time.perf_counter_ns()
    for _ in range(loops):
        with tracer.span("bench.noop", k=1):
            pass
        tracer.count("bench.noop")
    return (time.perf_counter_ns() - start) / loops


def _disabled_prov_check_ns(loops=200_000):
    """Per-site cost of a disabled provenance check (what add_rect pays)."""
    assert not get_recorder().enabled
    start = time.perf_counter_ns()
    for _ in range(loops):
        recorder = get_recorder()
        if recorder.enabled:  # pragma: no cover - disabled by assertion
            recorder.current()
    return (time.perf_counter_ns() - start) / loops


def _disabled_ledger_check_ns(loops=200_000):
    """Per-call cost of the one ``ledger_enabled()`` check an opted-out
    CLI command pays (REPRO_LEDGER=0: the whole ledger reduces to this)."""
    from repro.obs.ledger import ledger_enabled

    previous = os.environ.get("REPRO_LEDGER")
    os.environ["REPRO_LEDGER"] = "0"  # price the opted-out path itself
    try:
        assert not ledger_enabled()
        start = time.perf_counter_ns()
        for _ in range(loops):
            ledger_enabled()
        return (time.perf_counter_ns() - start) / loops
    finally:
        if previous is None:
            os.environ.pop("REPRO_LEDGER", None)
        else:
            os.environ["REPRO_LEDGER"] = previous


def test_obs_overhead(tech, record, ledger_append):
    # Tracer disabled: the production default.
    disabled_s, report = _best_of(REPS, _workload, tech)
    assert report.drc_violations == 0

    # Tracer enabled with a stats sink: the `repro stats` / `--trace` mode.
    def enabled_run():
        tracer = Tracer(enabled=True)
        stats = StatsSink()
        tracer.add_sink(stats)
        with activate(tracer):
            _workload(tech)
        return stats

    enabled_s, stats = _best_of(REPS, enabled_run)
    enabled_overhead_pct = 100.0 * (enabled_s - disabled_s) / disabled_s

    # How many instrumentation calls the workload actually makes: every
    # recorded span plus every counter increment batch is one call site hit.
    span_calls = sum(s.calls for s in stats.spans.values())
    counter_calls = sum(stats.counter_calls.values())
    instrumentation_calls = span_calls + counter_calls

    per_call_ns = _disabled_call_ns()
    est_disabled_overhead_pct = (
        100.0 * (instrumentation_calls * per_call_ns) / (disabled_s * 1e9)
    )

    # Provenance recorder: count the sites an enabled run actually hits,
    # then price the disabled check they all reduce to.
    recorder = ProvenanceRecorder(enabled=True)
    with recording(recorder):
        _workload(tech)
    prov_sites = recorder.stamps + recorder.entity_calls + recorder.builtin_calls
    prov_check_ns = _disabled_prov_check_ns()
    est_disabled_prov_overhead_pct = (
        100.0 * (prov_sites * prov_check_ns) / (disabled_s * 1e9)
    )

    # Run ledger: an opted-out CLI command pays exactly one env check.
    ledger_check_ns = _disabled_ledger_check_ns()
    est_disabled_ledger_overhead_pct = (
        100.0 * ledger_check_ns / (disabled_s * 1e9)
    )

    report_json = {
        "workload": "Sec. 3 amplifier build + measure (DRC included)",
        "smoke": SMOKE,
        "reps": REPS,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "enabled_overhead_pct": enabled_overhead_pct,
        "instrumentation_calls": instrumentation_calls,
        "disabled_per_call_ns": per_call_ns,
        "est_disabled_overhead_pct": est_disabled_overhead_pct,
        "max_disabled_overhead_pct": MAX_DISABLED_OVERHEAD_PCT,
        "provenance_sites": prov_sites,
        "disabled_prov_check_ns": prov_check_ns,
        "est_disabled_prov_overhead_pct": est_disabled_prov_overhead_pct,
        "max_disabled_prov_overhead_pct": MAX_DISABLED_PROV_OVERHEAD_PCT,
        "disabled_ledger_check_ns": ledger_check_ns,
        "est_disabled_ledger_overhead_pct": est_disabled_ledger_overhead_pct,
        "max_disabled_ledger_overhead_pct": MAX_DISABLED_LEDGER_OVERHEAD_PCT,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_obs.json").write_text(
        json.dumps(report_json, indent=2) + "\n", encoding="utf-8"
    )

    record("t_obs_overhead", [
        "T-OBS — observability layer cost on the amplifier workload:",
        f"  tracer off  {disabled_s:7.3f}s   (production default)",
        f"  tracer on   {enabled_s:7.3f}s   ({enabled_overhead_pct:+.1f}%,"
        " stats sink attached)",
        f"  {instrumentation_calls} instrumentation hits ×"
        f" {per_call_ns:.0f} ns/disabled call"
        f" → {est_disabled_overhead_pct:.3f}% estimated disabled overhead",
        f"  acceptance: < {MAX_DISABLED_OVERHEAD_PCT}% disabled overhead",
        f"  {prov_sites} provenance sites ×"
        f" {prov_check_ns:.0f} ns/disabled check"
        f" → {est_disabled_prov_overhead_pct:.3f}% estimated disabled"
        " provenance overhead"
        f" (acceptance: < {MAX_DISABLED_PROV_OVERHEAD_PCT}%)",
        f"  1 opted-out ledger check × {ledger_check_ns:.0f} ns"
        f" → {est_disabled_ledger_overhead_pct:.6f}% estimated disabled"
        " ledger overhead"
        f" (acceptance: < {MAX_DISABLED_LEDGER_OVERHEAD_PCT}%)",
    ])
    ledger_append("BENCH_obs", report_json, wall_s=disabled_s)

    assert est_disabled_overhead_pct < MAX_DISABLED_OVERHEAD_PCT, (
        f"disabled-tracer overhead {est_disabled_overhead_pct:.2f}% exceeds"
        f" {MAX_DISABLED_OVERHEAD_PCT}%"
    )
    assert est_disabled_prov_overhead_pct < MAX_DISABLED_PROV_OVERHEAD_PCT, (
        f"disabled-provenance overhead {est_disabled_prov_overhead_pct:.2f}%"
        f" exceeds {MAX_DISABLED_PROV_OVERHEAD_PCT}%"
    )
    assert est_disabled_ledger_overhead_pct < MAX_DISABLED_LEDGER_OVERHEAD_PCT, (
        f"opted-out ledger overhead {est_disabled_ledger_overhead_pct:.4f}%"
        f" exceeds {MAX_DISABLED_LEDGER_OVERHEAD_PCT}%"
    )
