"""Golden-cell regression: content hashes of every library cell's output.

Each cell in :data:`repro.library.GOLDEN_CELLS` is built for every builtin
technology that supports it, serialised to CIF and GDS (both byte-stable:
CIF sorts its rects, GDS carries a fixed timestamp), and fingerprinted with
SHA-256.  The expected hashes live next to this module in
``golden_hashes.json`` and are regenerated with ``repro verify
--update-golden`` — a reviewed diff of that file is the audit trail for any
intentional geometry change.  :func:`verify_golden` also runs DRC
(without the latch-up examination, which needs a module's guard rings) on
every cell it fingerprints: a golden cell must be clean, not just stable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..db import LayoutObject
from ..drc import run_drc
from ..io import dumps_cif, dumps_gds
from ..library import GOLDEN_CELLS
from ..obs import get_tracer
from ..tech import BUILTIN_TECHNOLOGIES, get_technology

#: Where the expected fingerprints live (inside the package, shipped).
GOLDEN_PATH = Path(__file__).with_name("golden_hashes.json")


@dataclass
class GoldenMismatch:
    """One cell whose output hash differs from the recorded golden value."""

    tech: str
    cell: str
    kind: str  # "changed" | "missing" | "stale" | "dirty"
    expected: Optional[str] = None
    actual: Optional[str] = None  # for "dirty": the DRC violations

    def __str__(self) -> str:
        if self.kind == "dirty":
            return f"{self.tech}/{self.cell}: not DRC-clean: {self.actual}"
        if self.kind == "missing":
            return (
                f"{self.tech}/{self.cell}: no recorded golden hash"
                " (run `repro verify --update-golden`)"
            )
        if self.kind == "stale":
            return (
                f"{self.tech}/{self.cell}: recorded but no longer built"
                " (cell removed or unsupported; update goldens)"
            )
        return (
            f"{self.tech}/{self.cell}: output changed"
            f" (expected {self.expected}, got {self.actual})"
        )


def cell_fingerprint(cell, tech) -> str:
    """SHA-256 over the cell's CIF text and GDS bytes."""
    return _fingerprint(cell.build(tech))


def _fingerprint(obj) -> str:
    digest = hashlib.sha256()
    digest.update(dumps_cif(obj).encode("utf-8"))
    digest.update(dumps_gds(obj))
    return digest.hexdigest()


def _built_cells(tech_name: str) -> Iterator[Tuple[str, LayoutObject]]:
    """``(cell name, layout)`` for every golden cell *tech_name* supports."""
    tech = get_technology(tech_name)
    tracer = get_tracer()
    for cell in GOLDEN_CELLS:
        if not cell.supported(tech):
            tracer.count("verify.golden.skipped")
            continue
        with tracer.span("verify.golden.cell", tech=tech_name, cell=cell.name):
            obj = cell.build(tech)
        tracer.count("verify.golden.cells")
        yield cell.name, obj


def compute_fingerprints(
    tech_names: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, str]]:
    """``{technology: {cell: sha256}}`` for every supported combination."""
    if tech_names is None:
        tech_names = sorted(BUILTIN_TECHNOLOGIES)
    return {
        tech_name: {name: _fingerprint(obj) for name, obj in _built_cells(tech_name)}
        for tech_name in tech_names
    }


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, Dict[str, str]]:
    """The recorded fingerprints, or an empty mapping when none exist."""
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def update_golden(
    path: Path = GOLDEN_PATH,
    tech_names: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, str]]:
    """Recompute and store the fingerprints; returns what was written."""
    fingerprints = compute_fingerprints(tech_names)
    path.write_text(
        json.dumps(fingerprints, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return fingerprints


def verify_golden(
    path: Path = GOLDEN_PATH,
    tech_names: Optional[Sequence[str]] = None,
) -> List[GoldenMismatch]:
    """Compare current output against the recorded hashes, and report
    every cell that is not DRC-clean."""
    if tech_names is None:
        tech_names = sorted(BUILTIN_TECHNOLOGIES)
    recorded = load_golden(path)
    mismatches: List[GoldenMismatch] = []
    current: Dict[str, Dict[str, str]] = {}
    for tech_name in tech_names:
        cells = current[tech_name] = {}
        for cell_name, obj in _built_cells(tech_name):
            cells[cell_name] = _fingerprint(obj)
            violations = run_drc(obj, include_latchup=False)
            if violations:
                summary = f"{len(violations)} violation(s), first: {violations[0]}"
                mismatches.append(
                    GoldenMismatch(tech_name, cell_name, "dirty", None, summary)
                )
    for tech_name, cells in current.items():
        known = recorded.get(tech_name, {})
        for cell_name, digest in cells.items():
            expected = known.get(cell_name)
            if expected is None:
                mismatches.append(
                    GoldenMismatch(tech_name, cell_name, "missing", None, digest)
                )
            elif expected != digest:
                mismatches.append(
                    GoldenMismatch(
                        tech_name, cell_name, "changed", expected, digest
                    )
                )
        for cell_name in sorted(set(known) - set(cells)):
            mismatches.append(
                GoldenMismatch(tech_name, cell_name, "stale", known[cell_name])
            )
    get_tracer().count("verify.golden.mismatches", len(mismatches))
    return mismatches
