"""repro.obs — structured tracing, metrics and profiling for the pipeline.

A zero-dependency observability layer instrumenting the four hot stages of
the module generator environment: PLDL interpretation (entity calls, ALT
backtracking, builtin primitives), successive compaction (per-object spans,
constraints, relaxations, auto-connects), order optimization (tree nodes,
branch-and-bound cuts, prefix-cache hits, trial ratings) and DRC (per-check
spans, violations by class, latch-up subtraction cases).  The verification
subsystem (``repro.verify``) reports through the same tracer: oracle runs
(``verify.oracle.checks`` / ``verify.oracle.violations.*``), differential
trials (``verify.differential.trials`` / ``.failures``), fuzz outcomes
(``verify.fuzz.ok`` / ``.graceful`` / ``.diverged`` / ``.crash``) and
golden-cell fingerprints (``verify.golden.cells`` / ``.skipped``), plus
``baseline.graph.*`` counters from the constraint-graph compactor.

Quick start::

    from repro import obs

    tracer = obs.Tracer()
    stats = tracer.add_sink(obs.StatsSink())
    tracer.add_sink(obs.ChromeTraceSink("trace.json"))
    with obs.activate(tracer):
        build_amplifier(tech)          # all stages record spans/counters
    tracer.close()                     # writes trace.json (open in Perfetto)
    print(stats.format_table())

From the command line: ``repro --trace trace.json amplifier`` and
``repro stats amplifier``.  See ``docs/observability.md`` for the API, the
sink catalogue, the per-layer instrumentation map and the Perfetto how-to.
"""

from .hist import LogHistogram
from .ledger import (
    Ledger,
    RunRecord,
    current_git_sha,
    flatten_metrics,
    ledger_enabled,
    peak_rss_kb,
    resolve_ledger_dir,
    snapshot_metrics,
)
from .logsetup import ROOT_LOGGER_NAME, configure_logging, get_logger
from .profiler import SamplingProfiler
from .provenance import (
    Provenance,
    ProvenanceRecorder,
    StageSnapshot,
    builtin_call,
    format_provenance,
    get_recorder,
    provenance_entity,
    recording,
    set_recorder,
)
from .sinks import (
    ChromeTraceSink,
    Sink,
    SpanStats,
    StatsSink,
    validate_chrome_trace,
)
from .tracer import SpanRecord, Tracer, activate, get_tracer, set_tracer

# NOTE: repro.obs.report is deliberately not imported here — it depends on
# repro.drc (which itself imports repro.obs); access it as repro.obs.report.
# repro.obs.regress (the `repro perf` engine) is likewise loaded on demand.

__all__ = [
    "Tracer",
    "SpanRecord",
    "get_tracer",
    "set_tracer",
    "activate",
    "Sink",
    "StatsSink",
    "SpanStats",
    "ChromeTraceSink",
    "validate_chrome_trace",
    "LogHistogram",
    "SamplingProfiler",
    "Ledger",
    "RunRecord",
    "ledger_enabled",
    "resolve_ledger_dir",
    "current_git_sha",
    "flatten_metrics",
    "snapshot_metrics",
    "peak_rss_kb",
    "configure_logging",
    "get_logger",
    "ROOT_LOGGER_NAME",
    "Provenance",
    "ProvenanceRecorder",
    "StageSnapshot",
    "get_recorder",
    "set_recorder",
    "recording",
    "provenance_entity",
    "builtin_call",
    "format_provenance",
]
