"""The PLDL fuzzer, plus regression cases for the bugs it surfaced."""

import random

import pytest

from repro.verify import fuzz, generate_program, run_fuzz_case
from repro.verify.fuzzer import _geometry, _run_interpreter, _run_oracle


def test_generated_programs_are_seeded(tech):
    assert generate_program(random.Random("x")) == generate_program(random.Random("x"))
    a, _ = generate_program(random.Random(1))
    b, _ = generate_program(random.Random(2))
    assert a != b


def test_generated_program_has_main_entity(tech):
    source, entry = generate_program(random.Random(5))
    assert entry == "Main"
    assert f"ENT {entry}()" in source


def test_fuzz_case_is_deterministic(tech):
    first = run_fuzz_case(11, seed=0, tech=tech)
    second = run_fuzz_case(11, seed=0, tech=tech)
    assert (first.status, first.detail) == (second.status, second.detail)


def test_fuzz_smoke_no_failures(tech):
    results = fuzz(cases=40, seed=0, tech=tech)
    assert len(results) == 40
    failing = [r for r in results if r.failed]
    assert failing == [], "\n".join(f"case {r.case}: {r.detail}" for r in failing)
    # The generator must exercise both healthy runs and graceful rejections.
    statuses = {r.status for r in results}
    assert "ok" in statuses and "graceful" in statuses


def _both_paths(source, tech):
    return (
        _geometry(_run_oracle(source, "Main", tech)),
        _geometry(_run_interpreter(source, "Main", tech)),
    )


def test_alt_rollback_regression(tech):
    """Fuzzer-found bug (seed 0 family): translated ALT kept branch-local
    variable writes after a failing branch, while the interpreter rolls the
    whole frame back.  The fallback branch then built differently-sized
    geometry on the two paths."""
    source = (
        "ENT Main()\n"
        "  x = 1\n"
        "  ALT\n"
        "    x = 2\n"
        '    ERROR("reject")\n'
        "  ELSEALT\n"
        '    INBOX("poly", x + 1, x + 1, "n")\n'
        "  ENDALT\n"
        "END\n"
    )
    interp, translated = _both_paths(source, tech)
    assert interp == translated
    # The surviving branch must have seen the rolled-back x = 1.
    rect = next(row for row in interp if row[0] == "poly")
    assert rect[3] - rect[1] == 2 * tech.dbu_per_micron


def test_alt_rollback_nested_regression(tech):
    source = (
        "ENT Main()\n"
        "  a = 1\n"
        "  ALT\n"
        "    a = 5\n"
        "    ALT\n"
        "      a = 7\n"
        '      ERROR("inner")\n'
        "    ELSEALT\n"
        '      ERROR("inner fallback too")\n'
        "    ENDALT\n"
        "  ELSEALT\n"
        '    INBOX("metal1", a + 1, 2, "n")\n'
        "  ENDALT\n"
        "END\n"
    )
    interp, translated = _both_paths(source, tech)
    assert interp == translated
    rect = next(row for row in interp if row[0] == "metal1")
    assert rect[3] - rect[1] == 2 * tech.dbu_per_micron


def test_alt_rolls_back_unbound_names(tech):
    """A variable first assigned inside a failing branch must be unbound
    again, in the oracle and in the translated code alike, so later
    branches cannot observe the dead write."""
    source = (
        "ENT Main()\n"
        "  ALT\n"
        "    fresh = 9\n"
        '    ERROR("reject")\n'
        "  ELSEALT\n"
        '    INBOX("poly", 2, 2, "n")\n'
        "  ENDALT\n"
        "END\n"
    )
    interp, translated = _both_paths(source, tech)
    assert interp == translated
