"""F2/F3 — Figs. 2 and 3: the contact-row module from its paper source.

Runs the paper's three-line PLDL source for the three parameterizations of
Fig. 3 (both omitted / only W / W and L) and reports the resulting module
dimensions and contact counts; benchmarks translation-based interpretation
+ generation against the tree-walking oracle.
"""

import pytest

from repro.drc import run_drc
from repro.lang import Interpreter
from repro.library import CONTACT_ROW_SOURCE


@pytest.fixture(scope="module")
def interpreter(tech):
    interp = Interpreter(tech)
    interp.load(CONTACT_ROW_SOURCE)
    return interp


def row_stats(tech, row):
    dbu = tech.dbu_per_micron
    return (
        row.width / dbu,
        row.height / dbu,
        len(row.rects_on("contact")),
    )


def test_f2_f3_three_parameterizations(tech, interpreter, record, benchmark):
    variants = {
        "W and L omitted": {},
        "only W given (W=1)": {"W": 1.0},
        "W=1 and L=10": {"W": 1.0, "L": 10.0},
    }
    rows = {
        label: interpreter.call("ContactRow", layer="poly", **kwargs)
        for label, kwargs in variants.items()
    }
    for label, row in rows.items():
        assert run_drc(row, include_latchup=False) == [], label

    benchmark(
        lambda: interpreter.call("ContactRow", layer="poly", W=1.0, L=10.0)
    )

    lines = [
        "Figs. 2/3 — contact row from the paper's 3-call source:",
        "  ENT ContactRow(layer, <W>, <L>)",
        '    INBOX(layer, W, L) / INBOX("metal1") / ARRAY("contact")',
        "",
        f"{'variant':24s} {'W×L (µm)':>14s} {'contacts':>9s}",
    ]
    for label, row in rows.items():
        w, h, cuts = row_stats(tech, row)
        lines.append(f"{label:24s} {w:6.1f}×{h:<6.1f} {cuts:9d}")
    lines += [
        "",
        "paper (Fig. 3): left = minimal single-contact row; middle = W only;",
        "right = maximal equidistant array.  Shape reproduced: omitted",
        "parameters default per design rules with automatic expansion, and",
        "the explicit row packs the maximum number of contacts.",
    ]
    record("f2_contact_row", lines)
    assert row_stats(tech, rows["W and L omitted"])[2] == 1
    assert row_stats(tech, rows["W=1 and L=10"])[2] == 4


def test_f2_translated_generation_speed(tech, interpreter, record, benchmark):
    """The paper translates module source to C; we translate to Python and
    run the result.  Compare the production interpreter (translated code)
    with the tree-walking oracle that interprets the syntax tree."""
    import time

    from repro.verify.reference import TreeWalker

    walker = TreeWalker(tech)
    walker.load(CONTACT_ROW_SOURCE)

    benchmark(lambda: interpreter.call("ContactRow", layer="poly", W=1.0, L=10.0))
    start = time.perf_counter()
    for _ in range(20):
        walker.call("ContactRow", layer="poly", W=1.0, L=10.0)
    walked_ms = (time.perf_counter() - start) / 20 * 1e3
    start = time.perf_counter()
    for _ in range(20):
        interpreter.call("ContactRow", layer="poly", W=1.0, L=10.0)
    translated_ms = (time.perf_counter() - start) / 20 * 1e3
    record("f2_translation_speed", [
        "Sec. 2.1 — 'the source code is automatically translated into C':",
        f"  tree-walking oracle:    {walked_ms:7.3f} ms/module",
        f"  translated (Python):    {translated_ms:7.3f} ms/module",
        f"  speedup: {walked_ms / max(translated_ms, 1e-9):.2f}x",
        "shape: the translated form is at least as fast as interpretation.",
    ])
