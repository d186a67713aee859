"""A seeded PLDL fuzzer: random programs over the full language grammar.

Generates programs exercising entities, parameters, assignments, FOR loops,
IF/ELSE conditionals, ALT rollback, geometry builtins and entity calls (and,
in one program of ten, a malformed builtin or entity call), then races the
oracle :class:`~repro.verify.reference.TreeWalker`, which walks the syntax
tree, against the production :class:`~repro.lang.Interpreter`, which runs
the translated code, asserting:

* neither ever crashes ungracefully (only :class:`RuleError` /
  :class:`EvalError` are acceptable failures, and both must agree);
* when both succeed, the resulting geometry is identical rect-for-rect,
  edge variable/fixed flags included.

Everything is driven by :class:`random.Random` with an explicit seed, so
any failure is reproducible from its case number alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..compact import Compactor
from ..db import LayoutObject
from ..geometry import Direction
from ..lang import Interpreter
from ..lang.errors import EvalError, PldlError
from ..obs import get_tracer
from ..tech import RuleError, Technology
from .reference import TreeWalker

#: Failure classes both executors may legitimately raise.
GRACEFUL = (RuleError, EvalError)

#: Share of programs that get one malformed builtin or entity call.
MALFORMED_RATE = 0.1


# ---------------------------------------------------------------------------
# program generation
# ---------------------------------------------------------------------------
class _ProgramBuilder:
    """One random program; all choices come from the shared ``rng``."""

    LAYERS = ("poly", "metal1", "metal2")
    #: Wrong arity, unknown or repeated keywords and missing parameters:
    #: the interpreter rejects these when it loads the source, the oracle
    #: when it reaches the call, so they open Main, which the oracle always
    #: reaches first.  A program without helpers calls Sub0 as an unknown
    #: function instead.
    SHAPE_ERRORS = (
        'SPACERULE("poly")',
        'LABEL("x", 0, 0)',
        'INBOX("poly", 1, 1, "n", FALSE, 1)',
        'INBOX("poly", bogus = 1)',
        "x = ABS(x = 1)",
        "x = Main(1)",
        "x = Main(bogus = 1)",
        "x = Sub0()",
        "x = Sub0(1, p = 2)",
    )
    #: Wrong argument types and a zero divisor fail when run on both,
    #: so they go anywhere in Main.
    VALUE_ERRORS = (
        "INBOX(3, 2, 2)",
        'x = FLOOR("a")',
        "w = WIDTHRULE(1)",
        "x = MOD(3, 0)",
        "VARIABLE(1)",
    )

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.net_counter = 0

    def fresh_net(self) -> str:
        self.net_counter += 1
        return f"net{self.net_counter}"

    # -- expressions ---------------------------------------------------
    def num_expr(self, scope: List[str], depth: int = 0) -> str:
        rng = self.rng
        roll = rng.random()
        if depth >= 2 or roll < 0.35 or not scope:
            if scope and roll < 0.5:
                return rng.choice(scope)
            return str(rng.randint(1, 5))
        if roll < 0.55:
            op = rng.choice(("+", "-", "*"))
            return (
                f"({self.num_expr(scope, depth + 1)} {op}"
                f" {self.num_expr(scope, depth + 1)})"
            )
        if roll < 0.7:
            fn = rng.choice(("MIN", "MAX"))
            return (
                f"{fn}({self.num_expr(scope, depth + 1)},"
                f" {self.num_expr(scope, depth + 1)})"
            )
        if roll < 0.85:
            return f"ABS({self.num_expr(scope, depth + 1)})"
        return f"MOD({self.num_expr(scope, depth + 1)}, {self.rng.randint(2, 5)})"

    def dim_expr(self, scope: List[str]) -> str:
        """A strictly positive size expression (ABS + 1 keeps it legal)."""
        return f"(1 + ABS({self.num_expr(scope)}))"

    def cond_expr(self, scope: List[str]) -> str:
        op = self.rng.choice(("<", ">", "<=", ">=", "==", "<>"))
        return f"{self.num_expr(scope)} {op} {self.num_expr(scope)}"

    # -- statements ----------------------------------------------------
    def geometry_stmt(self, scope: List[str], pad: str) -> List[str]:
        rng = self.rng
        roll = rng.randrange(3)
        if roll == 0:
            layer = rng.choice(self.LAYERS)
            return [
                f'{pad}INBOX("{layer}", {self.dim_expr(scope)},'
                f' {self.dim_expr(scope)}, "{self.fresh_net()}")'
            ]
        if roll == 1:
            x = rng.randint(-10, 10)
            y = rng.randint(-10, 10)
            length = rng.randint(2, 8)
            if rng.random() < 0.5:
                end = (x + length, y)
            else:
                end = (x, y + length)
            layer = rng.choice(("metal1", "metal2"))
            return [
                f'{pad}WIRE("{layer}", {x}, {y}, {end[0]}, {end[1]},'
                f' {rng.randint(1, 2)}, "{self.fresh_net()}")'
            ]
        x = rng.randint(-8, 8)
        y = rng.randint(-8, 8)
        return [f'{pad}VIA({x}, {y}, "poly", "metal1", "{self.fresh_net()}")']

    def block(
        self, scope: List[str], pad: str, budget: int, depth: int,
        entities: List[str],
    ) -> List[str]:
        rng = self.rng
        lines: List[str] = []
        for _ in range(budget):
            roll = rng.random()
            if roll < 0.3:
                name = f"v{len(scope)}"
                lines.append(f"{pad}{name} = {self.num_expr(scope)}")
                scope.append(name)
            elif roll < 0.55:
                lines.extend(self.geometry_stmt(scope, pad))
            elif roll < 0.7 and depth < 2:
                lines.append(f"{pad}IF {self.cond_expr(scope)}")
                lines.extend(
                    self.block(list(scope), pad + "  ", rng.randint(1, 2),
                               depth + 1, entities)
                )
                if rng.random() < 0.5:
                    lines.append(f"{pad}ELSE")
                    lines.extend(
                        self.block(list(scope), pad + "  ", rng.randint(1, 2),
                                   depth + 1, entities)
                    )
                lines.append(f"{pad}ENDIF")
            elif roll < 0.8 and depth < 2:
                var = f"i{depth}{len(scope)}"
                stop = rng.randint(2, 4)
                lines.append(f"{pad}FOR {var} = 1 TO {stop}")
                inner = scope + [var]
                lines.extend(
                    self.block(inner, pad + "  ", rng.randint(1, 2),
                               depth + 1, entities)
                )
                lines.append(f"{pad}ENDFOR")
            elif roll < 0.92 and depth < 2:
                lines.extend(self.alt(scope, pad, depth, entities))
            elif entities:
                callee = rng.choice(entities)
                name = f"s{len(scope)}"
                lines.append(f"{pad}{name} = {callee}({rng.randint(1, 4)})")
                direction = rng.choice(("WEST", "EAST", "NORTH", "SOUTH"))
                lines.append(f"{pad}compact({name}, {direction})")
            else:
                lines.extend(self.geometry_stmt(scope, pad))
        return lines

    def alt(
        self, scope: List[str], pad: str, depth: int, entities: List[str]
    ) -> List[str]:
        rng = self.rng
        lines = [f"{pad}ALT"]
        branches = rng.randint(2, 3)
        # Usually the last branch succeeds; sometimes all fail, which must
        # surface as the same graceful RuleError on both executors.
        all_fail = rng.random() < 0.15
        for index in range(branches):
            if index:
                lines.append(f"{pad}ELSEALT")
            inner = list(scope)
            lines.extend(
                self.block(inner, pad + "  ", rng.randint(1, 2),
                           depth + 1, entities)
            )
            fails = all_fail or index < branches - 1 and rng.random() < 0.7
            if fails:
                lines.append(f'{pad}  ERROR("branch {index} rejected")')
        lines.append(f"{pad}ENDALT")
        return lines

    def entity(self, name: str, entities: List[str]) -> List[str]:
        # The harness calls the entry entity with no arguments; parameter
        # passing is exercised through the helper entities instead.
        lines = [f"ENT {name}()"]
        scope: List[str] = []
        lines.extend(self.block(scope, "  ", self.rng.randint(2, 5), 0, entities))
        lines.append("END")
        return lines

    def malform(self, lines: List[str]) -> None:
        """Insert one malformed builtin or entity call into Main's *lines*."""
        rng = self.rng
        if rng.random() < 0.5:
            lines.insert(1, "  " + rng.choice(self.SHAPE_ERRORS))
        else:
            at = rng.randint(1, len(lines) - 1)  # after ENT, before END
            lines.insert(at, "  " + rng.choice(self.VALUE_ERRORS))

    def program(self) -> Tuple[str, str]:
        """Generate (source, main entity name)."""
        rng = self.rng
        lines: List[str] = []
        helpers: List[str] = []
        for index in range(rng.randint(0, 2)):
            name = f"Sub{index}"
            # Helper entities always take the parameter their callers pass.
            lines.append(f"ENT {name}(p)")
            scope = ["p"]
            lines.extend(self.block(scope, "  ", rng.randint(1, 3), 1, []))
            lines.append(f'  INBOX("poly", (1 + ABS(p)), 2, "{self.fresh_net()}")')
            lines.append("END")
            lines.append("")
            helpers.append(name)
        main_lines = self.entity("Main", helpers)
        if rng.random() < MALFORMED_RATE:
            self.malform(main_lines)
        lines.extend(main_lines)
        return "\n".join(lines) + "\n", "Main"


def generate_program(rng: random.Random) -> Tuple[str, str]:
    """One random PLDL program; returns (source, entry entity name)."""
    return _ProgramBuilder(rng).program()


# ---------------------------------------------------------------------------
# execution + comparison
# ---------------------------------------------------------------------------
@dataclass
class FuzzResult:
    """Outcome of one fuzz case."""

    case: int
    seed: str
    status: str  # "ok" | "graceful" | "diverged" | "crash"
    detail: str = ""
    source: str = ""

    @property
    def failed(self) -> bool:
        return self.status in ("diverged", "crash")


def _geometry(obj: LayoutObject) -> List[Tuple]:
    """Rects with their per-edge variable flags, then labels, sorted."""
    rows = sorted(
        (r.layer, r.x1, r.y1, r.x2, r.y2, r.net,
         tuple(r.edge_variable(d) for d in Direction))
        for r in obj.nonempty_rects
    )
    rows.extend(sorted(
        ("label", l.layer, l.x, l.y, l.text) for l in obj.labels
    ))
    return rows


def _run_interpreter(source: str, entry: str, tech: Technology):
    interp = Interpreter(tech, Compactor())
    interp.load(source)
    return interp.call(entry)


def _run_oracle(source: str, entry: str, tech: Technology):
    walker = TreeWalker(tech, Compactor())
    walker.load(source)
    return walker.call(entry)


def run_fuzz_case(case: int, seed: int, tech: Technology) -> FuzzResult:
    """Generate and differentially execute one case; fully deterministic."""
    case_seed = f"{seed}:{case}"
    rng = random.Random(case_seed)
    source, entry = generate_program(rng)

    outcomes = []
    for runner in (_run_oracle, _run_interpreter):
        try:
            outcomes.append(("ok", _geometry(runner(source, entry, tech))))
        except GRACEFUL as error:
            outcomes.append((type(error).__name__, str(error)))
        except PldlError as error:  # parse errors must hit both alike
            outcomes.append((type(error).__name__, str(error)))
        except Exception as error:  # noqa: BLE001 — the point of the fuzzer
            return FuzzResult(
                case, case_seed, "crash",
                f"{type(error).__name__}: {error}", source,
            )

    (kind_a, payload_a), (kind_b, payload_b) = outcomes
    if kind_a == "ok" and kind_b == "ok":
        if payload_a == payload_b:
            return FuzzResult(case, case_seed, "ok")
        return FuzzResult(
            case, case_seed, "diverged",
            f"geometry differs: oracle={payload_a!r}"
            f" interpreter={payload_b!r}", source,
        )
    if kind_a == kind_b:
        return FuzzResult(case, case_seed, "graceful", f"{kind_a}: {payload_a}")
    return FuzzResult(
        case, case_seed, "diverged",
        f"oracle={kind_a}({payload_a!r})"
        f" interpreter={kind_b}({payload_b!r})", source,
    )


def fuzz(
    cases: int, seed: int, tech: Technology
) -> List[FuzzResult]:
    """Run *cases* seeded fuzz cases; returns every result."""
    tracer = get_tracer()
    results: List[FuzzResult] = []
    with tracer.span("verify.fuzz", cases=cases, seed=seed):
        for case in range(cases):
            result = run_fuzz_case(case, seed, tech)
            tracer.count(f"verify.fuzz.{result.status}")
            results.append(result)
    return results
