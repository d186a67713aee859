"""The interpreter and the tree-walking oracle agree, valid program or not.

Each case runs through both runners of the fuzzer: the production
:class:`~repro.lang.Interpreter` (translated code) and the oracle
:class:`~repro.verify.reference.TreeWalker`.  Both must raise the same
exception class, or both must build the same geometry, edge variable/fixed
flags included.  Valid cases must succeed; malformed ones must raise the
class given.
"""

import inspect

import pytest

from repro.geometry import Direction
from repro.lang import BUILTIN_NAMES, EvalError, ParseError, Runtime, TokenKind, tokenize
from repro.lang.runtime import BUILTINS
from repro.lang import Interpreter
from repro.verify.fuzzer import _geometry, _run_interpreter, _run_oracle
from repro.verify.reference import TreeWalker

CELL = """
ENT Cell()
  INBOX("poly", 2, 2, "a")
END
"""


SIZED = """
ENT Sized(w)
  INBOX("poly", w, 2)
END
"""


def main(*body):
    """A program whose entry entity ``Main`` runs *body*."""
    return CELL + "ENT Main()\n" + "".join(f"  {line}\n" for line in body) + "END\n"


VALID = {
    "inbox": main('INBOX("poly", 2, 2, net = "a", variable = TRUE)'),
    "contact_row": main('INBOX("poly", 2, 2)', 'INBOX("metal1")', 'ARRAY("contact")'),
    "tworects": main('TWORECTS("poly", "pdiff", W = 4, L = 1, gatenet = "g")'),
    "around_ring": main(
        'INBOX("pdiff", 4, 4)', 'AROUND("nwell")', 'RING("subcontact", net = "sub")'
    ),
    "routing": main(
        'ADAPTOR("poly", "metal1", 0, 0, 1, 1, net = "n")',
        'WIRE("metal2", 0, 10, 10, 10, width = 2)',
        'VIA(20, 20, "poly", "metal1", "v")',
    ),
    "placement": main(
        "c = Cell()",
        "compact(c, WEST)",
        "d = COPY(c)",
        "MOVE(d, 10, 0)",
        "MIRRORX(d)",
        "MIRRORY(d, 1)",
        'SETNET(d, "z", "poly")',
        'COMPACT(d, "EAST", "metal1")',
    ),
    "variable_literal": main('INBOX("poly", 2, 2)', 'VARIABLE("poly")'),
    "variable_held_layer": main('l = "poly"', "INBOX(l, 2, 2)", "VARIABLE(l)"),
    "variable_then_fixed": main(
        'INBOX("poly", 2, 2)', 'INBOX("metal1")', 'VARIABLE("poly", "metal1")',
        'FIXED("metal1")',
    ),
    "edges_of_object": main(
        "c = Cell()", 'VARIABLE(c, "poly")', "compact(c, WEST)",
        "d = Cell()", 'VARIABLE(d, "poly")', 'FIXED(d, "poly")', "compact(d, EAST)",
    ),
    "error_in_alt": main(
        "ALT", '  ERROR("no")', "ELSEALT", '  INBOX("metal1", 2, 2)', "ENDALT"
    ),
    "label": main('INBOX("metal1", 2, 2)', 'LABEL("out", 0, 0, "metal1")'),
    "rule_queries": main(
        'w = WIDTHRULE("poly")', 's = SPACERULE("poly", "poly")', 'INBOX("poly", w + s, w)'
    ),
    "numeric": main(
        'INBOX("poly", MOD(7, 4) + FLOOR(1.5) + ABS(-1), MIN(3, 2, 4) + MAX(1, 2))'
    ),
    "attributes": main("c = Cell()", 'INBOX("metal1", c.width, c.height + c.area)'),
    "direction_shadowed_later": main(
        "c = Cell()", "compact(c, NORTH)", "NORTH = 1", 'INBOX("poly", NORTH, 2)'
    ),
    "for_down": main(
        "FOR i = 3 TO 1 STEP -1", '  WIRE("metal1", 0, i * 4, 5, i * 4)', "ENDFOR"
    ),
}

MALFORMED = {
    "tworects_without_w_l": (main('TWORECTS("poly", "pdiff")'), EvalError),
    "mod_by_zero": (main("x = MOD(1, 0)"), EvalError),
    "variable_without_layer": (main('INBOX("poly", 2, 2)', "VARIABLE()"), EvalError),
    "fixed_without_layer": (main('INBOX("poly", 2, 2)', "FIXED()"), EvalError),
    "for_step_zero": (main("FOR i = 0 TO 3 STEP 0", "ENDFOR"), EvalError),
    "inbox_number_layer": (main("INBOX(3, 2, 2)"), EvalError),
    "widthrule_number_layer": (main("w = WIDTHRULE(3)"), EvalError),
    "too_many_positionals": (main('INBOX("poly", 2, 2, "n", FALSE, 1)'), EvalError),
    "unknown_keyword": (main('INBOX("poly", 2, 2, bogus = 1)'), EvalError),
    "keyword_to_compact": (main("c = Cell()", "compact(c, WEST, bogus = 1)"), EvalError),
    "label_arity": (main('INBOX("metal1", 2, 2)', 'LABEL("out", 0, 0)'), EvalError),
    "spacerule_arity": (main('s = SPACERULE("poly")'), EvalError),
    "move_arity": (main("c = Cell()", "MOVE(c, 1)"), EvalError),
    "floor_of_string": (main('x = FLOOR("a")'), EvalError),
    "min_of_nothing": (main("x = MIN()"), EvalError),
    "bad_attribute": (main("c = Cell()", "x = c.bogus"), EvalError),
    "attribute_of_number": (main("x = 3", "y = x.width"), EvalError),
    "compact_bad_direction": (main("c = Cell()", 'compact(c, "UP")'), EvalError),
    "copy_of_number": (main("c = COPY(1)"), EvalError),
    "keyword_given_twice": (main('INBOX("poly", 2, layer = "metal1")'), EvalError),
    # Arithmetic takes numbers only, and AND/OR give booleans, on both paths.
    "true_plus_one": (main("x = TRUE + 1"), EvalError),
    "negated_true": (main("x = -TRUE"), EvalError),
    "divide_by_zero": (main("x = 1 / 0"), EvalError),
    "string_plus_number": (main('x = "a" + 1'), EvalError),
    "and_is_not_a_number": (main("x = 1 AND 2", 'INBOX("poly", x, 2)'), EvalError),
    # Entity call shapes and names: rejected at load by the interpreter,
    # when reached by the oracle.
    "entity_unknown_keyword": (main("c = Cell(bogus = 1)"), EvalError),
    "entity_too_many_positionals": (main("c = Cell(1)"), EvalError),
    "entity_missing_required": (SIZED + main("c = Sized()"), EvalError),
    "unknown_name": (main("x = missing"), EvalError),
    "top_level_name_in_entity": (
        "g = 2\n" + main('INBOX("poly", g, 2)'), EvalError
    ),
    "read_before_assignment": (
        main("IF FALSE", "  x = 1", "ENDIF", 'INBOX("poly", x, 2)'), EvalError
    ),
    "read_after_rolled_back_alt": (
        main(
            "ALT", "  x = 2", '  ERROR("no")', "ELSEALT", '  INBOX("poly", 2, 2)',
            "ENDALT", 'INBOX("poly", x, 2)',
        ),
        EvalError,
    ),
    "recursive_entity": (
        "ENT Loop()\n  x = Loop()\nEND\n" + main("x = Loop()"), EvalError
    ),
    "top_level_alt": (
        CELL + "ALT\n  x = Cell()\nENDALT\nENT Main()\n  INBOX(\"poly\", 2, 2)\nEND\n",
        ParseError,
    ),
}


def _outcome(runner, source, tech):
    """The geometry a path builds, or the class of what it raised."""
    try:
        return _geometry(runner(source, "Main", tech))
    except Exception as error:  # noqa: BLE001 — a raw error is a finding
        return type(error)


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_call_builds_the_same_on_both_paths(name, tech):
    oracle = _outcome(_run_oracle, VALID[name], tech)
    production = _outcome(_run_interpreter, VALID[name], tech)
    assert isinstance(oracle, list), oracle
    assert oracle == production


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_call_raises_the_same_on_both_paths(name, tech):
    source, expected = MALFORMED[name]
    assert _outcome(_run_oracle, source, tech) is expected
    assert _outcome(_run_interpreter, source, tech) is expected


@pytest.mark.parametrize("runner", [_run_oracle, _run_interpreter])
def test_runtime_error_carries_its_line(runner, tech):
    """A runtime error names the innermost statement that raised it."""
    source = SIZED + main("x = 1", "FOR i = 1 TO 2", "  y = MOD(1, i - 1)", "ENDFOR")
    with pytest.raises(EvalError) as error:
        runner(source, "Main", tech)
    assert error.value.line == source.splitlines().index("    y = MOD(1, i - 1)") + 1
    inner = "ENT Bad()\n  x = FLOOR(\"a\")\nEND\n" + main("b = Bad()")
    with pytest.raises(EvalError) as error:
        runner(inner, "Main", tech)
    assert error.value.line == 2


def test_trace_hook_sees_the_same_statements(tech):
    """Both fire the hook after every statement, nested ones first."""
    source = SIZED + main(
        "FOR i = 1 TO 2",
        "  IF i > 1",
        '    INBOX("metal1", i, i)',
        "  ENDIF",
        "ENDFOR",
        "ALT",
        '  INBOX("poly", 4, 4)',
        '  ERROR("no")',
        "ELSEALT",
        "  s = Sized(2)",
        "  compact(s, WEST)",
        "ENDALT",
    ) + "m = Main()\n"
    steps = []
    for executor in (TreeWalker, Interpreter):
        seen = []

        def hook(line, obj, seen=seen):
            seen.append((line, obj and obj.name, obj and len(obj.rects)))

        executor(tech, trace=hook).run(source)
        steps.append(seen)
    assert steps[0] == steps[1]
    assert len(steps[0]) >= 10


def test_every_builtin_has_a_valid_call_case():
    called = set()
    for source in VALID.values():
        tokens = tokenize(source)
        called.update(
            token.value
            for token, after in zip(tokens, tokens[1:])
            if token.kind is TokenKind.IDENT and after.kind is TokenKind.LPAREN
        )
    assert set(BUILTIN_NAMES) - called == set()


def test_variable_on_held_layer_name_marks_poly(tech):
    """``VARIABLE(l)`` with ``l = "poly"`` targets the entity structure."""
    source = main('l = "poly"', "INBOX(l, 2, 2)", "VARIABLE(l)")
    for runner in (_run_oracle, _run_interpreter):
        rect = runner(source, "Main", tech).rects_on("poly")[0]
        assert rect.edge_variable(Direction.NORTH)


def test_table_keywords_match_runtime_signatures():
    """A keyword builtin's table row names its method's parameters."""
    for name, spec in BUILTINS.items():
        if spec.keywords is not None:
            params = inspect.signature(getattr(Runtime, name)).parameters
            assert tuple(params)[2:] == spec.keywords, name  # after self, obj
