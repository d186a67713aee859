"""PLDL interpreter: the paper's sources, control flow, backtracking."""

import pytest

from repro.db import LayoutObject
from repro.geometry import Direction
from repro.lang import EvalError, Interpreter
from repro.tech import RuleError

CONTACT_ROW = """
ENT ContactRow(layer, <W>, <L>)
  INBOX(layer, W, L)
  INBOX("metal1")
  ARRAY("contact")
END
"""


def interp(tech):
    return Interpreter(tech)


def test_contact_row_paper_example(tech):
    """Fig. 2: `gatecon = ContactRow(layer = "poly", W = 1)`."""
    i = interp(tech)
    result = i.run(CONTACT_ROW + 'gatecon = ContactRow(layer = "poly", W = 1)\n')
    row = result["gatecon"]
    assert isinstance(row, LayoutObject)
    assert row.rects_on("poly") and row.rects_on("metal1") and row.rects_on("contact")


def test_optional_parameters_default(tech):
    """Fig. 3: W and L omitted → minimum row with one contact."""
    i = interp(tech)
    i.load(CONTACT_ROW)
    minimal = i.call("ContactRow", layer="poly")
    assert len(minimal.rects_on("contact")) == 1
    longer = i.call("ContactRow", layer="poly", L=10.0)
    assert len(longer.rects_on("contact")) > 1


def test_missing_required_parameter(tech):
    i = interp(tech)
    i.load(CONTACT_ROW)
    with pytest.raises(EvalError):
        i.call("ContactRow")


def test_unknown_parameter(tech):
    i = interp(tech)
    i.load(CONTACT_ROW)
    with pytest.raises(EvalError):
        i.call("ContactRow", layer="poly", bogus=1)


def test_unknown_entity(tech):
    with pytest.raises(EvalError):
        interp(tech).call("Nothing")


def test_geometry_outside_entity_fails(tech):
    with pytest.raises(EvalError):
        interp(tech).run('INBOX("poly")\n')


def test_unknown_name_and_function(tech):
    with pytest.raises(EvalError):
        interp(tech).run("x = missing\n")
    with pytest.raises(EvalError):
        interp(tech).run("x = missing(1)\n")


def test_direction_names_resolve(tech):
    result = interp(tech).run("d = SOUTH\n")
    assert result["d"] is Direction.SOUTH


def test_arithmetic_and_comparisons(tech):
    result = interp(tech).run(
        "a = 1 + 2 * 3\n"
        "b = (1 + 2) * 3\n"
        "c = 7 / 2\n"
        "d = a > b\n"
        "e = NOT d\n"
        "f = a == 7 AND b == 9\n"
    )
    assert result["a"] == 7
    assert result["b"] == 9
    assert result["c"] == 3.5
    assert result["d"] is False
    assert result["e"] is True
    assert result["f"] is True


def test_division_by_zero(tech):
    with pytest.raises(EvalError):
        interp(tech).run("x = 1 / 0\n")


def test_if_else(tech):
    src = CONTACT_ROW + """
ENT Sized(<W>)
  IF W > 5
    INBOX("poly", W, 20)
  ELSE
    INBOX("poly", 3, 3)
  ENDIF
END
big = Sized(W = 10)
small = Sized(W = 1)
"""
    result = interp(tech).run(src)
    assert result["big"].width > result["small"].width


def test_for_loop(tech):
    src = """
ENT Ruler()
  FOR i = 0 TO 4
    WIRE("metal1", i * 10, 0, i * 10 + 4, 0)
  ENDFOR
END
r = Ruler()
"""
    result = interp(tech).run(src)
    assert len(result["r"].rects_on("metal1")) == 5


def test_for_loop_with_negative_step(tech):
    result = interp(tech).run(
        """
ENT Count()
  total = 0
  FOR i = 10 TO 2 STEP -4
    total = total + i
  ENDFOR
  WIRE("metal1", 0, 0, total, 0)
END
c = Count()
"""
    )
    # 10 + 6 + 2 = 18 µm wire
    assert result["c"].rects_on("metal1")[0].width == 18000


def test_for_zero_step_rejected(tech):
    with pytest.raises(EvalError):
        interp(tech).run("ENT E()\nFOR i = 0 TO 3 STEP 0\nENDFOR\nEND\nx = E()\n")


def test_alt_backtracks_on_rule_error(tech):
    """Sec. 2.1 backtracking: failed branch rolls back, next branch runs."""
    src = """
ENT Variant()
  ALT
    INBOX("poly", 2, 2)
    ERROR("this topology fails its rules")
  ELSEALT
    INBOX("metal1", 5, 5)
  ENDALT
END
v = Variant()
"""
    result = interp(tech).run(src)
    obj = result["v"]
    # The failed branch's geometry was rolled back.
    assert obj.rects_on("poly") == []
    assert len(obj.rects_on("metal1")) == 1


def test_alt_rolls_back_variables(tech):
    src = """
ENT Variant()
  x = 1
  ALT
    x = 99
    ERROR("fail")
  ELSEALT
    WIRE("metal1", 0, 0, x, 0)
  ENDALT
END
v = Variant()
"""
    result = interp(tech).run(src)
    assert result["v"].rects_on("metal1")[0].width == 1000  # x restored to 1


def test_alt_all_branches_fail(tech):
    src = """
ENT Bad()
  ALT
    ERROR("a")
  ELSEALT
    ERROR("b")
  ENDALT
END
v = Bad()
"""
    with pytest.raises(RuleError):
        interp(tech).run(src)


def test_copy_and_compact(tech):
    """The DiffPair idiom: COPY plus five compaction steps."""
    src = CONTACT_ROW + """
ENT Pair(<W>)
  row1 = ContactRow(layer = "pdiff", W = W)
  SETNET(row1, "a")
  row2 = COPY(row1)
  SETNET(row2, "b")
  compact(row1, WEST)
  compact(row2, WEST)
END
p = Pair(W = 6)
"""
    result = interp(tech).run(src)
    pair = result["p"]
    assert len(pair.rects_on("pdiff")) == 2
    rects = sorted(pair.rects_on("pdiff"), key=lambda r: r.x1)
    gap = rects[1].x1 - rects[0].x2
    assert gap == tech.min_space("pdiff", "pdiff")


def test_object_attributes(tech):
    src = CONTACT_ROW + """
row = ContactRow(layer = "poly", W = 2, L = 10)
w = row.width
h = row.height
a = row.area
"""
    result = interp(tech).run(src)
    assert result["w"] == pytest.approx(10.0)
    assert result["a"] == pytest.approx(result["w"] * result["h"])


def test_bad_attribute(tech):
    src = CONTACT_ROW + 'row = ContactRow(layer = "poly")\nx = row.bogus\n'
    with pytest.raises(EvalError):
        interp(tech).run(src)


def test_move_mirror_setnet(tech):
    src = CONTACT_ROW + """
row = ContactRow(layer = "poly", W = 2, L = 10)
MOVE(row, 100, 0)
MIRRORY(row, 0)
SETNET(row, "sig", "metal1")
"""
    result = interp(tech).run(src)
    row = result["row"]
    assert row.bbox().x2 < 0  # moved east then mirrored about x=0
    assert row.rects_on("metal1")[0].net == "sig"
    assert row.rects_on("poly")[0].net is None


def test_variable_and_fixed(tech):
    src = CONTACT_ROW + """
ENT Obj()
  INBOX("poly", 4, 4)
  VARIABLE("poly")
END
o = Obj()
FIXED(o, "poly")
"""
    result = interp(tech).run(src)
    rect = result["o"].rects_on("poly")[0]
    assert not any(rect.edge_variable(d) for d in Direction)


def test_rule_queries(tech):
    result = interp(tech).run('w = WIDTHRULE("poly")\ns = SPACERULE("poly", "poly")\n')
    assert result["w"] == pytest.approx(1.0)
    assert result["s"] == pytest.approx(1.2)
    with pytest.raises(RuleError):
        interp(tech).run('s = SPACERULE("poly", "metal2")\n')


def test_label_builtin(tech):
    src = """
ENT L()
  INBOX("poly", 4, 4)
  LABEL("out", 0, 0, "metal1")
END
o = L()
"""
    result = interp(tech).run(src)
    assert result["o"].labels[0].text == "out"


def test_trace_hook_fires(tech):
    lines = []
    i = Interpreter(tech, trace=lambda line, obj: lines.append(line))
    i.run(CONTACT_ROW + 'r = ContactRow(layer = "poly")\n')
    assert lines  # entity body statements plus the top-level assignment


def test_entity_instances_get_unique_names(tech):
    i = interp(tech)
    i.load(CONTACT_ROW)
    a = i.call("ContactRow", layer="poly")
    b = i.call("ContactRow", layer="poly")
    assert a.name != b.name


def test_malformed_call_fails_at_load_even_if_never_run(tech):
    """Load translates the whole source, so a branch never taken is checked."""
    source = 'ENT E()\n  IF FALSE\n    INBOX("poly", bogus = 1)\n  ENDIF\nEND\n'
    with pytest.raises(EvalError) as error:
        interp(tech).load(source)
    assert error.value.line == 3


@pytest.mark.parametrize("source", [
    "ENT main()\nEND\n",
    "ENT E(rt)\nEND\n",
    "ENT F()\nEND\nENT E(F)\nEND\n",
    "ENT E(_x)\nEND\n",
])
def test_names_the_generated_code_needs_are_rejected(tech, source):
    with pytest.raises(EvalError):
        interp(tech).load(source)


def test_variables_may_take_any_name(tech):
    """Variables live in a dict, so Python keywords and generated names work."""
    result = interp(tech).run(
        "ENT Row()\n  INBOX(\"poly\", 2, 2)\nEND\n"
        "from = 1\nobj = 2\nv = from + obj\nRow = Row()\n"
    )
    assert result["v"] == 3 and isinstance(result["Row"], LayoutObject)
