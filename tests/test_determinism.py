"""Determinism: generators must be exactly reproducible.

A layout generator that produces different geometry on different runs is
useless for tape-out review; these tests pin byte-identical output for the
main generators and the IO formats.
"""

import pytest

from repro.io import dumps_cif, dumps_object
from repro.lang import Interpreter
from repro.library import (
    DIFF_PAIR_SOURCE,
    centroid_cross_coupled_pair,
    contact_row,
    cross_coupled_pair,
    mos_capacitor,
    poly_resistor,
    symmetric_current_mirror,
)


def normalized_dump(obj):
    return dumps_object(obj).replace(obj.name, "X")


@pytest.mark.parametrize(
    "builder",
    [
        lambda t: contact_row(t, "poly", w=1.0, length=10.0, net="g"),
        lambda t: symmetric_current_mirror(t, 8.0, 1.0),
        lambda t: cross_coupled_pair(t, 10.0, 1.0),
        lambda t: poly_resistor(t, segments=4),
        lambda t: mos_capacitor(t, 15.0, 15.0),
        lambda t: centroid_cross_coupled_pair(t),
    ],
    ids=["row", "mirror", "crosscoupled", "resistor", "cap", "moduleE"],
)
def test_builders_are_deterministic(tech, builder):
    first = normalized_dump(builder(tech))
    second = normalized_dump(builder(tech))
    assert first == second


def test_interpreter_is_deterministic(tech):
    def run():
        interp = Interpreter(tech)
        interp.load(DIFF_PAIR_SOURCE)
        return normalized_dump(interp.call("DiffPair", W=10.0, L=1.0))

    assert run() == run()


def test_amplifier_is_deterministic(tech):
    from repro.amplifier import build_amplifier

    first = normalized_dump(build_amplifier(tech))
    second = normalized_dump(build_amplifier(tech))
    assert first == second


def test_gds_bytes_are_deterministic(tech, tmp_path):
    from repro.io import write_gds

    row = contact_row(tech, "poly", w=1.0, length=10.0, name="ROW")
    a, b = tmp_path / "a.gds", tmp_path / "b.gds"
    write_gds(row, a)
    write_gds(row, b)
    assert a.read_bytes() == b.read_bytes()


def test_cif_text_is_deterministic(tech):
    row = contact_row(tech, "poly", w=1.0, length=10.0, name="ROW")
    assert dumps_cif(row) == dumps_cif(row)


def test_order_optimizer_is_deterministic(tech):
    from repro.geometry import Direction
    from repro.opt import OrderOptimizer, Step
    from repro.verify.reference import ReplayOrderOptimizer

    def steps():
        return [
            Step(contact_row(tech, "pdiff", w=4.0 + i, net=f"n{i}", name=f"s{i}"),
                 Direction.WEST)
            for i in range(4)
        ]

    a = OrderOptimizer().optimize("m", tech, steps())
    b = OrderOptimizer().optimize("m", tech, steps())
    assert a.best_order == b.best_order
    assert a.best_score == b.best_score
    assert a.scores == b.scores
    reference = ReplayOrderOptimizer().optimize("m", tech, steps())
    assert (a.best_order, a.best_score) == (
        reference.best_order, reference.best_score
    )
