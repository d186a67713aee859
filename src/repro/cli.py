"""Command-line interface: ``python -m repro <command> ...``.

Turns the environment into a usable tool without writing Python:

==============  ==============================================================
tech list       list built-in technologies
tech dump       write a technology description file
build           run a PLDL entity and emit GDS/SVG, optionally DRC
run             execute a PLDL file's top-level statements
translate       translate PLDL source to Python (the paper's to-C step)
drc             design-rule-check a layout file (GDS or text dump)
render          render a layout file to SVG
session         record the two-window design session as HTML
amplifier       build the Sec. 3 BiCMOS amplifier example
stats           run any command under the tracer, print a profiling summary
verify          golden-cell hashes, PLDL fuzzing, differential compaction
explain         build a cell with provenance on and explain its DRC violations
report          write the self-contained HTML run report for a cell
perf            run-ledger history, diffs and perf-regression checks
==============  ==============================================================

``--trace out.json`` (before the command) records a Chrome trace-event
profile of any command; ``--profile out.folded`` samples wall-clock stacks
into flamegraph/speedscope collapsed-stack output (``--profile-memory``
swaps in the tracemalloc allocation profiler); ``-v``/``-q`` widen or
silence diagnostics, which flow through the ``repro.*`` logging hierarchy.
Every command appends one record (timings, peak RSS, tracer counters) to
the run ledger under ``~/.cache/repro/ledger`` unless ``--no-ledger`` or
``REPRO_LEDGER=0`` opts out; ``repro perf`` reads that history back.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .core import DesignSession, Environment
from .db import LayoutObject
from .drc import format_report, run_drc
from .io import dumps_object, read_gds, render_svg, write_gds, write_svg
from .io.textdump import load_object
from .obs import (
    ChromeTraceSink,
    ProvenanceRecorder,
    StatsSink,
    Tracer,
    configure_logging,
    get_logger,
    get_tracer,
    set_recorder,
    set_tracer,
)
from .tech import (
    BUILTIN_TECHNOLOGIES,
    Technology,
    dump_tech,
    dumps_tech,
    get_technology,
    load_tech,
)

log = get_logger("cli")


def _resolve_tech(spec: str) -> Technology:
    """A technology name or a path to a technology description file."""
    if spec in BUILTIN_TECHNOLOGIES:
        return get_technology(spec)
    path = Path(spec)
    if path.exists():
        return load_tech(path)
    known = ", ".join(sorted(BUILTIN_TECHNOLOGIES))
    raise SystemExit(
        f"error: unknown technology {spec!r} (built-ins: {known}; or pass a"
        " .tech file path)"
    )


def _parse_params(pairs: List[str]) -> Dict[str, Any]:
    """Parse ``K=V`` entity parameters; numeric values become floats."""
    params: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"error: parameter {pair!r} is not of the form K=V")
        key, value = pair.split("=", 1)
        try:
            params[key] = float(value)
        except ValueError:
            params[key] = value
    return params


def _load_layout(path: str, tech: Technology) -> LayoutObject:
    """Load a layout from a .gds or text-dump file."""
    file_path = Path(path)
    if not file_path.exists():
        raise SystemExit(f"error: no such file {path!r}")
    if file_path.suffix.lower() == ".gds":
        objects = read_gds(file_path, tech)
        if not objects:
            raise SystemExit(f"error: {path!r} contains no structures")
        return objects[0]
    return load_object(file_path, tech)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------
def cmd_tech(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in sorted(BUILTIN_TECHNOLOGIES):
            tech = get_technology(name)
            print(f"{name}: {len(tech.layers)} layers, "
                  f"{tech.dbu_per_micron} dbu/µm")
        return 0
    tech = _resolve_tech(args.name)
    if args.output:
        dump_tech(tech, args.output)
        log.info("wrote %s", args.output)
    else:
        print(dumps_tech(tech), end="")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    env = Environment(tech=_resolve_tech(args.tech))
    env.load(Path(args.source).read_text(encoding="utf-8"))
    params = _parse_params(args.param or [])
    module = env.build(args.entity, **params)
    dbu = env.tech.dbu_per_micron
    print(f"{args.entity}: {module.width / dbu:.2f} × {module.height / dbu:.2f} µm, "
          f"{len(module.nonempty_rects)} rects")
    status = 0
    if args.drc:
        violations = env.drc(module)
        print(format_report(violations))
        status = 1 if violations else 0
    if args.gds:
        write_gds(module, args.gds)
        log.info("wrote %s", args.gds)
    if args.cif:
        from .io import write_cif

        write_cif(module, args.cif)
        log.info("wrote %s", args.cif)
    if args.svg:
        write_svg(module, args.svg, scale=args.scale)
        log.info("wrote %s", args.svg)
    if args.dump:
        Path(args.dump).write_text(dumps_object(module), encoding="utf-8")
        log.info("wrote %s", args.dump)
    return status


def cmd_run(args: argparse.Namespace) -> int:
    env = Environment(tech=_resolve_tech(args.tech))
    result = env.run(Path(args.source).read_text(encoding="utf-8"))
    dbu = env.tech.dbu_per_micron
    for name, value in result.items():
        if isinstance(value, LayoutObject):
            print(f"{name}: layout {value.width / dbu:.2f} × "
                  f"{value.height / dbu:.2f} µm ({len(value.nonempty_rects)} rects)")
        else:
            print(f"{name} = {value}")
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    env = Environment(tech=_resolve_tech(args.tech))
    code = env.translate(Path(args.source).read_text(encoding="utf-8"))
    if args.output:
        Path(args.output).write_text(code, encoding="utf-8")
        log.info("wrote %s", args.output)
    else:
        print(code, end="")
    return 0


def cmd_drc(args: argparse.Namespace) -> int:
    tech = _resolve_tech(args.tech)
    layout = _load_layout(args.layout, tech)
    violations = run_drc(layout, include_latchup=not args.no_latchup)
    print(format_report(violations))
    return 1 if violations else 0


def cmd_render(args: argparse.Namespace) -> int:
    tech = _resolve_tech(args.tech)
    layout = _load_layout(args.layout, tech)
    write_svg(layout, args.output, scale=args.scale)
    log.info("wrote %s", args.output)
    return 0


def cmd_session(args: argparse.Namespace) -> int:
    session = DesignSession(tech=_resolve_tech(args.tech))
    session.run(Path(args.source).read_text(encoding="utf-8"))
    session.save_html(args.output)
    log.info("recorded %d snapshots → %s", len(session.snapshots), args.output)
    return 0


def cmd_rc(args: argparse.Namespace) -> int:
    from .db import rc_report

    tech = _resolve_tech(args.tech)
    layout = _load_layout(args.layout, tech)
    report = rc_report(layout.rects, tech)
    if not report:
        print("no labelled nets in the layout")
        return 0
    print(f"{'net':12s} {'R (ohm)':>10s} {'C (fF)':>10s} {'RC (ps)':>10s}")
    for net, (resistance, capacitance, rc_ps) in report.items():
        print(f"{net:12s} {resistance:10.1f} {capacitance / 1000:10.2f}"
              f" {rc_ps:10.4f}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import (
        fuzz,
        load_golden,
        run_differential,
        update_golden,
        verify_golden,
    )

    tech_names = [args.tech] if args.tech else None
    run_all = args.all or not (
        args.golden or args.fuzz or args.differential or args.update_golden
    )
    report_dir = Path(args.report) if args.report else None
    failures = 0

    if args.update_golden:
        fingerprints = update_golden(tech_names=tech_names)
        cells = sum(len(v) for v in fingerprints.values())
        print(f"recorded {cells} golden hashes across"
              f" {len(fingerprints)} technologies")

    if run_all or args.golden:
        mismatches = verify_golden(tech_names=tech_names)
        checked = sum(len(cells) for cells in load_golden().values())
        if mismatches:
            failures += len(mismatches)
            for mismatch in mismatches:
                print(f"golden FAIL: {mismatch}")
        else:
            print(f"golden: all cell fingerprints match ({checked} recorded),"
                  " every cell DRC-clean")

    fuzz_tech = _resolve_tech(args.tech or "generic_bicmos_1u")

    fuzz_cases = args.fuzz if args.fuzz else (200 if run_all else 0)
    if fuzz_cases:
        results = fuzz(fuzz_cases, args.seed, fuzz_tech)
        failed = [r for r in results if r.failed]
        graceful = sum(1 for r in results if r.status == "graceful")
        print(f"fuzz: {len(results)} cases, {len(failed)} failing"
              f" ({graceful} gracefully rejected)")
        for result in failed:
            failures += 1
            print(f"fuzz FAIL case {result.case} (seed {result.seed}):"
                  f" {result.status}: {result.detail}")
            if report_dir is not None:
                report_dir.mkdir(parents=True, exist_ok=True)
                out = report_dir / f"fuzz_case_{result.case}.pldl"
                out.write_text(result.source, encoding="utf-8")
                log.info("wrote failing program %s", out)

    diff_trials = args.differential if args.differential else (50 if run_all else 0)
    if diff_trials:
        reports = run_differential(fuzz_tech, trials=diff_trials, seed=args.seed)
        bad = [r for r in reports if not r.ok]
        print(f"differential: {len(reports)} trials, {len(bad)} failing")
        for report in bad:
            failures += 1
            print(f"differential FAIL trial {report.trial}"
                  f" (seed {report.seed}, {report.direction},"
                  f" {report.objects} objects):")
            for problem in report.problems:
                print(f"  {problem}")
            if report_dir is not None:
                from .verify.differential import random_object_set

                report_dir.mkdir(parents=True, exist_ok=True)
                import random as _random

                from .geometry import Direction

                rng = _random.Random(report.seed)
                direction = rng.choice(list(Direction))
                count = rng.randint(2, 4)
                objects = random_object_set(fuzz_tech, rng, count, direction)
                out = report_dir / f"diff_trial_{report.trial}.gds"
                write_gds(objects, out)
                log.info("wrote failing object set %s", out)

    if failures:
        print(f"verify: {failures} failure(s)")
        return 1
    print("verify: OK")
    return 0


def cmd_amplifier(args: argparse.Namespace) -> int:
    from .amplifier import build_amplifier, measure_amplifier

    tech = _resolve_tech(args.tech)
    if not args.no_selfcheck:
        _pipeline_selfcheck(tech)
    amp = build_amplifier(tech)
    report = measure_amplifier(amp)
    print(f"amplifier: {report.width_um:.0f} × {report.height_um:.0f} µm = "
          f"{report.area_um2:,.0f} µm², DRC violations: {report.drc_violations}")
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    write_gds(amp, out / "bicmos_amplifier.gds")
    write_svg(amp, out / "bicmos_amplifier.svg", scale=0.004)
    log.info("wrote %s/bicmos_amplifier.gds and .svg", out)
    return 0


def _pipeline_selfcheck(tech: Technology) -> None:
    """Exercise interpreter and order optimizer ahead of the amplifier build.

    The amplifier itself is assembled in Python (compactor + DRC); a traced
    run should show spans from all four instrumented layers, so build the
    library transistor from its PLDL source (interpreter → compactor) and
    sweep a small compaction-order search (optimizer) first.
    """
    from .geometry import Direction
    from .library import contact_row
    from .library.dsl_sources import TRANSISTOR_SOURCE
    from .opt import OrderOptimizer, Step

    env = Environment(tech=tech)
    env.load(TRANSISTOR_SOURCE)
    transistor = env.build("Transistor", W=4.0, L=1.0)
    log.info(
        "selfcheck: PLDL Transistor %d × %d dbu (%d rects)",
        transistor.width, transistor.height, len(transistor.nonempty_rects),
    )
    steps = [
        Step(contact_row(tech, "pdiff", w=4.0, net="a", name="a"), Direction.WEST),
        Step(contact_row(tech, "pdiff", w=8.0, net="b", name="b"), Direction.SOUTH),
        Step(contact_row(tech, "poly", w=2.0, length=12.0, net="c", name="c"),
             Direction.WEST),
    ]
    result = OrderOptimizer().optimize("order_demo", tech, steps)
    log.info(
        "selfcheck: order search best=%s score=%.0f (%d trials, exact=%s)",
        list(result.best_order), result.best_score, result.evaluated,
        result.exact,
    )


def _build_cell(name: str, tech: Technology) -> LayoutObject:
    """Build a named cell: the amplifier or any golden-regression cell."""
    if name == "amplifier":
        from .amplifier import build_amplifier

        return build_amplifier(tech)
    from .library import GOLDEN_CELLS

    for cell in GOLDEN_CELLS:
        if cell.name == name:
            if not cell.supported(tech):
                missing = ", ".join(
                    layer for layer in cell.requires if not tech.has_layer(layer)
                )
                raise SystemExit(
                    f"error: cell {name!r} needs layers this technology"
                    f" lacks ({missing})"
                )
            return cell.build(tech)
    known = ", ".join(["amplifier"] + [cell.name for cell in GOLDEN_CELLS])
    raise SystemExit(f"error: unknown cell {name!r} (known cells: {known})")


def cmd_explain(args: argparse.Namespace) -> int:
    from .obs.report import explain_violations

    tech = _resolve_tech(args.tech)
    recorder = ProvenanceRecorder(enabled=True)
    previous = set_recorder(recorder)
    try:
        cell = _build_cell(args.cell, tech)
    finally:
        set_recorder(previous)
    violations = run_drc(cell)
    explanations = explain_violations(cell, violations)
    if args.json:
        import json

        payload = [
            {
                "kind": e.violation.kind,
                "message": e.violation.message,
                "where": list(e.violation.where),
                "rule": e.rule_text,
                "why": e.gloss,
                "suggestion": e.suggestion,
                "latchup_case": e.latchup_case,
                "rects": [
                    {
                        "layer": rect.layer,
                        "net": rect.net,
                        "bbox": [rect.x1, rect.y1, rect.x2, rect.y2],
                        "provenance": chain,
                    }
                    for rect, chain in e.provenances
                ],
            }
            for e in explanations
        ]
        print(json.dumps(payload, indent=2))
    elif not explanations:
        print(f"{cell.name}: DRC clean — nothing to explain")
    else:
        print(f"{cell.name}: {len(explanations)} violation(s)")
        for explanation in explanations:
            print(explanation.format())
    return 1 if violations else 0


def cmd_report(args: argparse.Namespace) -> int:
    from .obs.report import write_report

    tech = _resolve_tech(args.tech)
    recorder = ProvenanceRecorder(enabled=True, capture_stages=False)
    tracer = get_tracer()
    own_tracer = not tracer.enabled
    if own_tracer:
        tracer = Tracer(enabled=True)
    stats_sink = StatsSink()
    tracer.add_sink(stats_sink)
    previous_recorder = set_recorder(recorder)
    previous_tracer = set_tracer(tracer) if own_tracer else None
    try:
        if args.cell == "amplifier":
            # Populates the optimizer trial table; stage capture stays off so
            # the gallery shows only the requested cell's compaction stages.
            _pipeline_selfcheck(tech)
        recorder.capture_stages = True
        cell = _build_cell(args.cell, tech)
    finally:
        if previous_tracer is not None:
            set_tracer(previous_tracer)
        set_recorder(previous_recorder)
        tracer.sinks.remove(stats_sink)
    violations = run_drc(cell)
    out = write_report(
        cell,
        args.output,
        recorder=recorder,
        violations=violations,
        stats_table=stats_sink.format_table(),
    )
    covered = sum(
        1 for rect in cell.nonempty_rects
        if rect.prov is not None and rect.prov.entities
    )
    print(
        f"{cell.name}: report → {out} ({len(recorder.stages)} stages,"
        f" {len(recorder.trials)} trials, {len(violations)} violations,"
        f" provenance on {covered}/{len(cell.nonempty_rects)} rects)"
    )
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    from .obs import regress
    from .obs.ledger import Ledger

    with Ledger(args.ledger) as ledger:
        if args.perf_action == "log":
            print(regress.perf_log(
                ledger, limit=args.limit,
                command=args.filter_command, kind=args.kind,
            ))
            return 0
        if args.perf_action == "show":
            print(regress.perf_show(ledger, args.run))
            return 0
        if args.perf_action == "diff":
            print(regress.perf_diff(
                ledger, args.run_a, args.run_b,
                patterns=args.metric or ("*",),
            ))
            return 0
        status, report = regress.perf_check(
            ledger,
            args.baseline,
            commands=args.filter_command or None,
            floor=args.floor,
            patterns=args.metric,
        )
        print(report)
        return status


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Analog module generator environment (DATE 1996 reproduction)",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="write a Chrome trace-event JSON of the command to PATH"
             " (open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--profile", metavar="PATH",
        help="sample the command's stacks and write collapsed stacks to"
             " PATH (flamegraph.pl / speedscope format); with --trace the"
             " samples also overlay the span timeline",
    )
    parser.add_argument(
        "--profile-interval", type=float, default=5.0, metavar="MS",
        help="sampling period in milliseconds (default: 5)",
    )
    parser.add_argument(
        "--profile-memory", action="store_true",
        help="profile memory instead of time: tracemalloc allocation"
             " tracebacks weighted in KiB",
    )
    parser.add_argument(
        "--profile-top", type=int, default=15, metavar="N",
        help="rows in the printed top-functions table (default: 15)",
    )
    parser.add_argument(
        "--ledger", metavar="DIR",
        help="run-ledger directory (default: $REPRO_LEDGER_DIR or"
             " ~/.cache/repro/ledger)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="do not record this run in the ledger (REPRO_LEDGER=0 does"
             " the same globally)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more diagnostics (repeatable; -v enables DEBUG logging)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress status diagnostics (warnings and errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tech = sub.add_parser("tech", help="list or dump technologies")
    tech.add_argument("action", choices=["list", "dump"])
    tech.add_argument("name", nargs="?", default="generic_bicmos_1u")
    tech.add_argument("-o", "--output")
    tech.set_defaults(func=cmd_tech)

    build = sub.add_parser("build", help="build one entity from a PLDL file")
    build.add_argument("source")
    build.add_argument("entity")
    build.add_argument("-p", "--param", action="append", metavar="K=V")
    build.add_argument("--tech", default="generic_bicmos_1u")
    build.add_argument("--gds")
    build.add_argument("--cif")
    build.add_argument("--svg")
    build.add_argument("--dump")
    build.add_argument("--scale", type=float, default=0.02)
    build.add_argument("--drc", action="store_true")
    build.set_defaults(func=cmd_build)

    run = sub.add_parser("run", help="execute a PLDL file's top level")
    run.add_argument("source")
    run.add_argument("--tech", default="generic_bicmos_1u")
    run.set_defaults(func=cmd_run)

    translate = sub.add_parser("translate", help="translate PLDL to Python")
    translate.add_argument("source")
    translate.add_argument("-o", "--output")
    translate.add_argument("--tech", default="generic_bicmos_1u")
    translate.set_defaults(func=cmd_translate)

    drc = sub.add_parser("drc", help="design-rule-check a layout file")
    drc.add_argument("layout")
    drc.add_argument("--tech", default="generic_bicmos_1u")
    drc.add_argument("--no-latchup", action="store_true")
    drc.set_defaults(func=cmd_drc)

    render = sub.add_parser("render", help="render a layout file to SVG")
    render.add_argument("layout")
    render.add_argument("-o", "--output", required=True)
    render.add_argument("--tech", default="generic_bicmos_1u")
    render.add_argument("--scale", type=float, default=0.02)
    render.set_defaults(func=cmd_render)

    session = sub.add_parser("session", help="record a two-window session")
    session.add_argument("source")
    session.add_argument("-o", "--output", required=True)
    session.add_argument("--tech", default="generic_bicmos_1u")
    session.set_defaults(func=cmd_session)

    rc = sub.add_parser("rc", help="per-net RC report of a layout file")
    rc.add_argument("layout")
    rc.add_argument("--tech", default="generic_bicmos_1u")
    rc.set_defaults(func=cmd_rc)

    amplifier = sub.add_parser("amplifier", help="build the Sec. 3 amplifier")
    amplifier.add_argument("-o", "--output", default="amplifier_out")
    amplifier.add_argument("--tech", default="generic_bicmos_1u")
    amplifier.add_argument(
        "--no-selfcheck", action="store_true",
        help="skip the interpreter/optimizer pipeline exercise",
    )
    amplifier.set_defaults(func=cmd_amplifier)

    verify = sub.add_parser(
        "verify",
        help="run the verification harness (golden cells, fuzzer,"
             " differential compaction)",
    )
    verify.add_argument(
        "--all", action="store_true",
        help="golden regression plus fuzz and differential smoke runs"
             " (the default when no other selection is given)",
    )
    verify.add_argument(
        "--golden", action="store_true",
        help="check library-cell CIF/GDS hashes against golden_hashes.json"
        " and that every golden cell is DRC-clean",
    )
    verify.add_argument(
        "--update-golden", action="store_true",
        help="regenerate golden_hashes.json from current output",
    )
    verify.add_argument(
        "--fuzz", type=int, metavar="N", default=0,
        help="run N seeded PLDL fuzz cases (interpreter vs translated)",
    )
    verify.add_argument(
        "--differential", type=int, metavar="N", default=0,
        help="run N seeded differential compaction trials",
    )
    verify.add_argument("--seed", type=int, default=0,
                        help="base seed for fuzz and differential runs")
    verify.add_argument(
        "--tech", default=None,
        help="restrict to one technology (default: all builtins for golden,"
             " generic_bicmos_1u for fuzz/differential)",
    )
    verify.add_argument(
        "--report", metavar="DIR",
        help="write failing fuzz programs and object sets to DIR",
    )
    verify.set_defaults(func=cmd_verify)

    explain = sub.add_parser(
        "explain",
        help="build a cell with provenance recording and explain every DRC"
             " violation (rule text, provenance chains, suggested fix)",
    )
    explain.add_argument(
        "cell",
        help="'amplifier' or any golden-regression cell name"
             " (e.g. diff_pair, mos_transistor)",
    )
    explain.add_argument("--tech", default="generic_bicmos_1u")
    explain.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the text rendering",
    )
    explain.set_defaults(func=cmd_explain)

    report = sub.add_parser(
        "report",
        help="write the self-contained HTML run report (per-stage SVGs,"
             " provenance tooltips, violation table, optimizer trials)",
    )
    report.add_argument(
        "cell",
        help="'amplifier' or any golden-regression cell name",
    )
    report.add_argument("-o", "--output", default="run_report.html")
    report.add_argument("--tech", default="generic_bicmos_1u")
    report.set_defaults(func=cmd_report)

    stats = sub.add_parser(
        "stats",
        help="run a repro command under the tracer and print a span/counter"
             " summary table",
    )
    stats.add_argument(
        "--sort", choices=["name", "total", "mean", "calls", "max"],
        default="name",
        help="span table order: by name (default) or descending"
             " total/mean/calls/max time",
    )
    stats.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the first N spans and N largest counters",
    )
    stats.add_argument(
        "stats_argv", nargs=argparse.REMAINDER, metavar="command",
        help="the repro command to run, e.g. 'repro stats amplifier'",
    )
    stats.set_defaults(func=None)

    perf = sub.add_parser(
        "perf",
        help="query the run ledger: history, diffs and counter"
             " regression checks against committed BENCH_*.json reports",
    )
    psub = perf.add_subparsers(dest="perf_action", required=True)

    # `--ledger` also works after the perf action (the natural position in
    # scripts); SUPPRESS keeps the sub-level default from clobbering the
    # root-level flag when the option is absent.
    ledger_opt = argparse.ArgumentParser(add_help=False)
    ledger_opt.add_argument(
        "--ledger", metavar="DIR", default=argparse.SUPPRESS,
        help="run-ledger directory (default: $REPRO_LEDGER_DIR or"
             " ~/.cache/repro/ledger)",
    )

    plog = psub.add_parser("log", parents=[ledger_opt],
                           help="list recorded runs, newest first")
    plog.add_argument("-n", "--limit", type=int, default=20)
    plog.add_argument("--command", dest="filter_command", default=None,
                      help="only runs of one command (e.g. amplifier)")
    plog.add_argument("--kind", default=None, choices=["cli", "bench"],
                      help="only CLI or only benchmark records")
    plog.set_defaults(func=cmd_perf)

    pshow = psub.add_parser("show", parents=[ledger_opt],
                            help="one run's full metric snapshot")
    pshow.add_argument(
        "run", nargs="?", default="last",
        help="run id, 'last', 'last~N' or 'last:<command>' (default: last)",
    )
    pshow.set_defaults(func=cmd_perf)

    pdiff = psub.add_parser(
        "diff", parents=[ledger_opt], help="compare two runs metric by metric",
    )
    pdiff.add_argument("run_a", help="run reference")
    pdiff.add_argument("run_b", help="run reference")
    pdiff.add_argument(
        "--metric", action="append", metavar="PATTERN",
        help="fnmatch pattern(s) selecting metrics (default: all shared)",
    )
    pdiff.set_defaults(func=cmd_perf)

    pcheck = psub.add_parser(
        "check", parents=[ledger_opt],
        help="exit non-zero when a tracked metric of a command's newest run"
             " exceeds its committed BENCH_*.json value by more than --floor",
    )
    pcheck.add_argument(
        "--baseline", required=True, metavar="DIR",
        help="a directory of committed BENCH_*.json reports"
             " (e.g. benchmarks/results)",
    )
    pcheck.add_argument(
        "--command", dest="filter_command", action="append", metavar="CMD",
        help="restrict the check to these command(s)",
    )
    pcheck.add_argument("--floor", type=float, default=0.0,
                        help="absolute slack per metric (default: 0 —"
                             " counters must not grow at all)")
    pcheck.add_argument(
        "--metric", action="append", metavar="PATTERN",
        help="fnmatch pattern(s) selecting tracked metrics; each must match"
             " a compared metric (default: *pairs_scanned, *rebuild_calls,"
             " *tree_compacts)",
    )
    pcheck.set_defaults(func=cmd_perf)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    from .obs.ledger import ledger_enabled

    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(-1 if args.quiet else args.verbose)

    want_stats = args.command == "stats"
    outer = args
    if want_stats:
        inner = list(args.stats_argv)
        if inner and inner[0] == "--":
            inner = inner[1:]
        if not inner:
            parser.error("stats: expected a command to run, e.g. 'repro stats"
                         " amplifier'")
        args = parser.parse_args(inner)
        if args.command == "stats":
            parser.error("stats: cannot be nested")
        # Global flags compose: values given on either side of `stats` win
        # over defaults.
        if outer.trace and not args.trace:
            args.trace = outer.trace
        if outer.profile and not args.profile:
            args.profile = outer.profile
        if outer.ledger and not args.ledger:
            args.ledger = outer.ledger
        args.no_ledger = args.no_ledger or outer.no_ledger
        args.profile_memory = args.profile_memory or outer.profile_memory
        configure_logging(-1 if (args.quiet or outer.quiet)
                          else max(args.verbose, outer.verbose))

    # The ledger records every command except `perf` itself (reading the
    # history should not grow it).
    record_run = ledger_enabled(opt_out=args.no_ledger) and args.command != "perf"

    if not (want_stats or args.trace or args.profile or record_run):
        return args.func(args)

    tracer = Tracer(enabled=True)
    stats_sink = StatsSink()
    tracer.add_sink(stats_sink)
    chrome = None
    if args.trace:
        chrome = ChromeTraceSink(args.trace)
        tracer.add_sink(chrome)
    profiler = None
    if args.profile:
        from .obs import SamplingProfiler

        profiler = SamplingProfiler(
            interval_s=args.profile_interval / 1000.0,
            mode="memory" if args.profile_memory else "wall",
            chrome_sink=chrome,
            epoch_ns=tracer.epoch_ns,
        )
    previous = set_tracer(tracer)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    status = 1
    error: Optional[str] = None
    try:
        if profiler is not None:
            profiler.start()
        try:
            status = args.func(args)
        except SystemExit as exc:
            # Crashed runs stay in the ledger: keep the real exit status and
            # the exception type, then let the exception propagate.
            error = type(exc).__name__
            status = exc.code if isinstance(exc.code, int) else (
                0 if exc.code is None else 1
            )
            raise
        except BaseException as exc:
            error = type(exc).__name__
            status = 1
            raise
    finally:
        wall_s = time.perf_counter() - wall_start
        cpu_s = time.process_time() - cpu_start
        if profiler is not None:
            profiler.stop()
        set_tracer(previous)
        tracer.close()
        if args.trace:
            log.info("wrote trace %s", args.trace)
        if profiler is not None:
            profiler.write_folded(args.profile)
            print(profiler.top_table(top=args.profile_top))
            log.info("wrote profile %s (%d samples)", args.profile,
                     profiler.sample_count)
        if want_stats:
            print(stats_sink.format_table(sort=outer.sort, top=outer.top))
        if record_run:
            _record_ledger_run(args, argv, status, wall_s, cpu_s,
                               stats_sink, profiler, error=error)
    return status


def _record_ledger_run(
    args: argparse.Namespace,
    argv: Optional[List[str]],
    status: int,
    wall_s: float,
    cpu_s: float,
    stats_sink: StatsSink,
    profiler: Any,
    error: Optional[str] = None,
) -> None:
    """Append one run record; a broken ledger only warns, never fails.

    *error* is the exception type name for a run that raised (including
    ``SystemExit`` with a non-zero code) — stored under ``extra`` so
    crash-rate regressions are visible in ``repro perf log``.
    """
    from .obs.ledger import (
        Ledger,
        RunRecord,
        current_git_sha,
        peak_rss_kb,
        snapshot_metrics,
    )

    metrics = snapshot_metrics(stats_sink)
    if profiler is not None:
        metrics["profile.samples"] = float(profiler.sample_count)
    record = RunRecord(
        args.command,
        argv=list(argv) if argv is not None else sys.argv[1:],
        tech=getattr(args, "tech", None),
        git_sha=current_git_sha(),
        status=status if isinstance(status, int) else 1,
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_kb=peak_rss_kb(),
        metrics=metrics,
        extra={"error": error} if error else None,
    )
    with Ledger(args.ledger) as ledger:
        ledger.try_append(record)


if __name__ == "__main__":
    sys.exit(main())
