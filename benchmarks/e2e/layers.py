"""Outside-in per-layer tracing for the end-to-end benchmark.

The program's own spans mark a few stages; they do not cover every layer
boundary.  For the traced run, :class:`Instrumentation` wraps the public
entry points of each ``repro`` layer in a ``bench.<layer>`` span on the
process tracer, and restores the originals afterwards.  A function is
patched in every module that holds it, so ``from ..route import wire``
call sites are covered too.

:class:`LayerSink` turns those spans into self times: a span's duration
minus the time its ``bench.*`` child spans cover.  The op itself is the
``bench.op`` span, so its self time is the part of the op no layer claims.
:func:`layer_metrics` adds the program's own counters and per-rule DRC
spans, read through a :class:`~repro.obs.StatsSink`.
"""

from __future__ import annotations

import functools
import sys
from types import ModuleType
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro import obs
from repro.amplifier import build_amplifier
from repro.amplifier.blocks import BLOCK_BUILDERS
from repro.compact import Compactor
from repro.core import Environment
from repro.db import ArrayLink, ConnectivityIndex, LayoutObject, capacitance_report
from repro.drc import run_drc
from repro.io import dumps_gds
from repro.lang import Interpreter
from repro.library import substrate_ring
from repro.opt import Rating
from repro.route import via_stack, wire

PREFIX = "bench."
OP_SPAN = PREFIX + "op"

#: layer -> the class methods wrapped as that layer's spans.
METHODS: Dict[str, List[Tuple[type, str]]] = {
    "lang.interp": [(Interpreter, "call")],
    "compact": [(Compactor, "compact")],
    "links.solve": [(LayoutObject, "move_edge"), (LayoutObject, "move_stretch")],
    "links.rebuild": [(ArrayLink, "rebuild")],
    "db.copy": [(LayoutObject, "copy"), (LayoutObject, "snapshot")],
    "db.merge": [(LayoutObject, "merge")],
    "nets": [
        (ConnectivityIndex, "sync"),
        (ConnectivityIndex, "components"),
        (ConnectivityIndex, "net_is_connected"),
        (ConnectivityIndex, "connected_components_by_net"),
    ],
    "opt": [(Environment, "optimize_order")],
    "opt.rate": [(Rating, "evaluate")],
}

#: layer -> the functions wrapped wherever a module or registry holds them.
FUNCTIONS: Dict[str, List[Callable]] = {
    "library": [build_amplifier, substrate_ring, *BLOCK_BUILDERS.values()],
    "nets": [capacitance_report],
    "route": [wire, via_stack],
    "drc": [run_drc],
    "io": [dumps_gds],
}

#: Registries whose entries are patched like module attributes.
REGISTRIES: List[Dict[str, Any]] = [BLOCK_BUILDERS]


def _spanned(func: Callable, name: str) -> Callable:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with obs.get_tracer().span(name):
            return func(*args, **kwargs)

    return wrapper


class Instrumentation:
    """The patch sites of every layer; ``with`` installs the spans.

    Sites are found once, at construction: class methods, every module
    attribute or registry entry that is one of :data:`FUNCTIONS`, and the
    translated PLDL functions the workload names.  Installing and
    restoring is then one assignment per site, cheap enough to do between
    two ops.
    """

    def __init__(
        self,
        modules: Iterable[ModuleType] = (),
        translated: Iterable[Tuple[Dict[str, Any], str]] = (),
    ) -> None:
        #: (container, key, original, wrapper); containers are classes,
        #: modules or dicts.
        self.sites: List[Tuple[Any, str, Any, Any]] = []
        for layer, methods in METHODS.items():
            for cls, attr in methods:
                original = cls.__dict__[attr]
                self.sites.append((cls, attr, original, _spanned(original, PREFIX + layer)))
        wrappers = {}
        for layer, functions in FUNCTIONS.items():
            for func in functions:
                wrappers[id(func)] = (func, _spanned(func, PREFIX + layer))
        scanned = [m for name, m in sorted(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for container in [*scanned, *modules, *REGISTRIES]:
            items = container if isinstance(container, dict) else vars(container)
            for key, value in list(items.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self.sites.append((container, key, value, hit[1]))
        for namespace, name in translated:
            original = namespace[name]
            self.sites.append((namespace, name, original,
                               _spanned(original, PREFIX + "lang.translated")))

    @staticmethod
    def _set(container: Any, key: str, value: Any) -> None:
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    def __enter__(self) -> "Instrumentation":
        for container, key, _original, wrapper in self.sites:
            self._set(container, key, wrapper)
        return self

    def __exit__(self, *exc: Any) -> bool:
        for container, key, original, _wrapper in self.sites:
            self._set(container, key, original)
        return False


class LayerSink(obs.Sink):
    """Self time and outermost call count per ``bench.*`` layer."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: Open bench spans, innermost last: [layer, ns covered by children].
        self._open: List[List[Any]] = []

    def on_span_start(self, name: str) -> None:
        if name.startswith(PREFIX):
            self._open.append([name[len(PREFIX):], 0])

    def on_span(self, record: "obs.SpanRecord") -> None:
        if not record.name.startswith(PREFIX):
            return
        layer, child_ns = self._open.pop()
        if layer != record.name[len(PREFIX):]:
            raise RuntimeError(f"bench span {record.name} closed out of order")
        self.self_ns[layer] = self.self_ns.get(layer, 0) + record.duration_ns - child_ns
        if self._open:
            self._open[-1][1] += record.duration_ns
        if all(entry[0] != layer for entry in self._open):
            self.calls[layer] = self.calls.get(layer, 0) + 1

    def self_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9


#: Per-rule DRC spans of the program -> metric stem.
DRC_RULES = {
    "width": "widths", "spacing": "spacing", "enclosure": "enclosures",
    "extension": "extensions", "area": "areas", "short": "shorts",
    "latchup": "latchup",
}

#: Metric -> layer whose self time it reports.  Together with
#: ``unattributed_s`` these partition the traced op time.
SELF_TIMES = {
    "lang.interp_s": "lang.interp",
    "lang.translated_s": "lang.translated",
    "library.self_s": "library",
    "compact.self_s": "compact",
    "links.solve_s": "links.solve",
    "links.rebuild_s": "links.rebuild",
    "db.copy_s": "db.copy",
    "db.merge_s": "db.merge",
    "opt.self_s": "opt",
    "opt.rate_s": "opt.rate",
    "route.self_s": "route",
    "nets.extract_s": "nets",
    "drc.run_s": "drc",
    "io.gds_s": "io",
    "unattributed_s": "op",
}

#: Metric -> layer whose outermost calls it counts.
CALLS = {
    "links.moves": "links.solve",
    "links.rebuilds": "links.rebuild",
    "compact.calls": "compact",
    "lang.interp_calls": "lang.interp",
    "route.calls": "route",
    "db.copies": "db.copy",
    "db.merges": "db.merge",
}

#: Metric -> program counter it reports.
COUNTERS = {
    "compact.steps": "compact.steps",
    "compact.pairs_scanned": "compact.pairs_scanned",
    "opt.trials": "opt.trials",
    "drc.pairs_scanned": "drc.pairs_scanned",
    "drc.candidates": "drc.candidates",
    "nets.pairs_scanned": "nets.pairs_scanned",
    "nets.extractions": "nets.extractions",
    "interp.builtin_calls": "interp.builtin_calls",
}


def layer_metrics(
    layers: LayerSink, stats: obs.StatsSink, ops: int
) -> Dict[str, Tuple[float, str]]:
    """Per-op layer metrics of *ops* traced ops: name -> (value, unit)."""
    metrics: Dict[str, Tuple[float, str]] = {}
    for name, layer in SELF_TIMES.items():
        metrics[name] = (layers.self_s(layer) / ops, "s/op")
    for rule, stem in DRC_RULES.items():
        metrics[f"drc.{stem}_s"] = (stats.total_s(f"drc.{rule}") / ops, "s/op")
    for name, layer in CALLS.items():
        metrics[name] = (layers.calls.get(layer, 0) / ops, "count/op")
    for name, counter in COUNTERS.items():
        metrics[name] = (stats.counter(counter) / ops, "count/op")
    trials = stats.counter("opt.trials")
    metrics["opt.compacts_per_order"] = (
        layers.calls.get("compact", 0) / trials if trials else 0.0, "ratio")
    scanned = stats.counter("drc.pairs_scanned")
    metrics["drc.candidate_ratio"] = (
        stats.counter("drc.candidates") / scanned if scanned else 0.0, "ratio")
    metrics["trace.op_s"] = (stats.total_s(OP_SPAN) / ops, "s/op")
    return metrics
