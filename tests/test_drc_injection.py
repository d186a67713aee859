"""Checker recall: planted violations are caught — by both paths.

The equivalence suite proves indexed == brute; it cannot prove either
actually catches defects (they could agree on an empty list).  Here the
:mod:`repro.verify.inject` harness plants one known violation per rule
class into DRC-clean golden cells and both checker paths must report
exactly that violation: same new-violation set vs. the clean baseline,
expected class, target rect involved, and byte-identical between the
indexed run and the :mod:`repro.verify.reference` brute run.  Undo must
restore cleanliness on both paths.
"""

import pytest

from repro.drc import run_drc
from repro.library import GOLDEN_CELLS
from repro.tech import BUILTIN_TECHNOLOGIES
from repro.verify.inject import INJECTORS, PROBE_NET, inject_violation
from repro.verify.reference import run_drc_brute

TECHS = {name: build() for name, build in BUILTIN_TECHNOLOGIES.items()}
TECH_NAMES = sorted(TECHS)

#: Stop after this many successful plants per (technology, rule class) —
#: coverage comes from planting in several distinct cells, bounded runtime
#: from not sweeping the whole matrix in every test.
PLANTS_PER_CASE = 2


def _keys(violations):
    return sorted((v.kind, v.message, v.where) for v in violations)


def _clean_cells(tech):
    for spec in GOLDEN_CELLS:
        if not spec.supported(tech):
            continue
        obj = spec.build(tech)
        if not run_drc_brute(obj, include_latchup=False):
            yield spec, obj


@pytest.mark.parametrize("tech_name", TECH_NAMES)
@pytest.mark.parametrize("kind", sorted(INJECTORS))
def test_planted_violation_is_caught_by_both_paths(tech_name, kind):
    tech = TECHS[tech_name]
    planted = 0
    for spec, obj in _clean_cells(tech):
        injection = inject_violation(obj, kind)
        if injection is None:
            continue  # no viable site in this cell (e.g. no transistor)

        # The harness's own contract.
        assert injection.violations, spec.name
        assert all(v.kind == kind for v in injection.violations), spec.name
        assert all(
            any(r is injection.target for r in v.rects)
            for v in injection.violations
        ), spec.name

        # Both checker paths report exactly the planted violations.
        indexed = run_drc(obj, include_latchup=False)
        brute = run_drc_brute(obj, include_latchup=False)
        assert _keys(indexed) == _keys(brute) == _keys(injection.violations), (
            spec.name
        )
        for path in (indexed, brute):
            for violation, reported in zip(injection.violations, path):
                assert reported.kind == violation.kind
                assert reported.message == violation.message
                assert reported.where == violation.where

        # Undo restores a clean layout on both paths.
        injection.undo()
        assert run_drc(obj, include_latchup=False) == []
        assert run_drc_brute(obj, include_latchup=False) == []

        planted += 1
        if planted >= PLANTS_PER_CASE:
            break
    assert planted >= 1, (
        f"no golden cell of {tech_name} accepted a {kind!r} injection"
    )


def test_unknown_kind_raises():
    tech = TECHS[TECH_NAMES[0]]
    spec = next(s for s in GOLDEN_CELLS if s.supported(tech))
    with pytest.raises(ValueError, match="no injector"):
        inject_violation(spec.build(tech), "latchup")


def test_probe_net_never_collides(tech):
    """The spacing probe's reserved net must not appear in library cells —
    otherwise the same-net spacing exemption could hide the plant."""
    for spec in GOLDEN_CELLS:
        if spec.supported(tech):
            assert PROBE_NET not in spec.build(tech).nets()
