"""PLDL → Python source translation, the one way PLDL runs.

"The source code is automatically translated into C" (Sec. 2.1); here the
target language is Python, and :class:`~repro.lang.interpreter.Interpreter`
compiles and runs what this module emits.  Numeric values are microns.
Each entity becomes a function taking the shared
:class:`~repro.lang.runtime.Runtime` plus its (keyword-defaulted)
parameters, which start its variable dict ``v``; it builds and returns a
fresh :class:`~repro.db.LayoutObject`, ``obj``.  Each builtin becomes a
call of the runtime method of its name, with ``obj`` threaded as the first
argument where :data:`~repro.lang.runtime.BUILTINS` says so, so geometry
builtins target the innermost entity under construction, as in the
paper's listings.

Everything that can be checked without running is checked here and raised
as an :class:`EvalError` with its line: builtin and entity call shapes,
unknown names, structure builtins outside an entity, and entity and
parameter names the generated code cannot carry.  An entity body sees its
parameters, its own variables and the direction names, nothing bound at
the top level.  The first Python line of every statement ends in
``# line N``, its PLDL line, and the statement is followed by
``rt.step(N, obj)`` for the trace hook.
"""

from __future__ import annotations

import dataclasses
import keyword
from typing import Any, Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Set

from . import ast_nodes as ast
from .errors import EvalError
from .parser import parse
from .runtime import bind_keywords, check_call

_DIRECTIONS = frozenset({"NORTH", "SOUTH", "EAST", "WEST"})
#: Python names the generated module and its entity functions use.
_GENERATED = frozenset(
    {"rt", "v", "obj", "main", "bool", "Direction", *_DIRECTIONS}
)
_INDENT = "    "


def translate(source: str) -> str:
    """Translate PLDL source into a runnable Python module string."""
    return translate_program(parse(source))


def translate_program(program: ast.Program) -> str:
    """Translate a parsed program into Python source."""
    translator = _Translator({entity.name: entity for entity in program.entities})
    lines: List[str] = [
        '"""Generated from PLDL by repro.lang.translate — do not edit."""',
        "",
        "from repro.geometry import Direction",
        "",
        "NORTH = Direction.NORTH",
        "SOUTH = Direction.SOUTH",
        "EAST = Direction.EAST",
        "WEST = Direction.WEST",
        "",
    ]
    for entity in program.entities:
        lines.extend(translator.entity(entity))
        lines.append("")
    if program.statements:
        lines.extend(translator.main(program.statements))
        lines.append("")
    return "\n".join(lines)


def check_entity_call(
    entity: ast.Entity, positional: int, keywords: Sequence[str], line: Optional[int]
) -> None:
    """An ``EvalError`` unless a call of this shape binds *entity*'s
    parameters: as :func:`~repro.lang.runtime.bind_keywords`, and every
    required parameter given (an omitted optional one is NIL)."""
    given = bind_keywords(
        entity.name, [param.name for param in entity.params], positional, keywords, line
    )
    for param in entity.params:
        if not param.optional and param.name not in given:
            raise EvalError(
                f"{entity.name}: missing required parameter {param.name!r}", line
            )


def _check_name(name: str, kind: str, taken: Collection[str], line: int) -> None:
    """A Python keyword, a leading underscore or a *taken* name cannot
    become a Python name in the generated code."""
    if keyword.iskeyword(name) or name.startswith("_") or name in taken:
        raise EvalError(f"{name!r} cannot name {kind} in translated code", line)


class _Translator:
    """Stateful expression/statement emitter."""

    def __init__(self, entities: Dict[str, ast.Entity]) -> None:
        self.entities = entities
        self._alt_counter = 0
        #: Names bound somewhere in the current scope (params + assigns),
        #: the only names its expressions may read besides the directions.
        self._scope: Set[str] = set()

    # ------------------------------------------------------------------
    def entity(self, entity: ast.Entity) -> List[str]:
        _check_name(entity.name, "an entity", _GENERATED, entity.line)
        params = ["rt"]
        for param in entity.params:
            _check_name(param.name, "a parameter", {"rt", *self.entities}, param.line)
            params.append(f"{param.name}=None" if param.optional else param.name)
        self._scope = {param.name for param in entity.params}
        self._scope |= _names(entity.body, reads=False)
        bindings = ", ".join(f"{p.name!r}: {p.name}" for p in entity.params)
        return [
            f"def {entity.name}({', '.join(params)}):",
            f'{_INDENT}"""Generated from entity {entity.name}."""',
            f"{_INDENT}v = {{{bindings}}}",
            f"{_INDENT}obj = rt.begin({entity.name!r}, v)",
            f"{_INDENT}try:",
            *self.block(entity.body, depth=2, obj_var="obj"),
            f"{_INDENT}finally:",
            f"{_INDENT * 2}rt.end()",
            f"{_INDENT}return obj",
        ]

    def main(self, statements: List[ast.Statement]) -> List[str]:
        self._scope = _names(statements, reads=False)
        return [
            "def main(rt):",
            f'{_INDENT}"""Top-level calling sequence; returns its bindings."""',
            f"{_INDENT}v = {{}}",
            *self.block(statements, depth=1, obj_var=None),
            f"{_INDENT}return v",
        ]

    def block(
        self, statements: List[ast.Statement], depth: int, obj_var: Optional[str]
    ) -> List[str]:
        lines: List[str] = []
        for statement in statements:
            lines.extend(self.statement(statement, depth, obj_var))
        return lines or [f"{_INDENT * depth}pass"]

    # ------------------------------------------------------------------
    def statement(
        self, statement: ast.Statement, depth: int, obj_var: Optional[str]
    ) -> List[str]:
        """The statement's lines: the first marked with its PLDL line, and
        an ``rt.step`` call after the last."""
        pad = _INDENT * depth
        tag = f"  # line {statement.line}"
        if isinstance(statement, ast.Assign):
            value = self.expr(statement.value, obj_var)
            lines = [f"{pad}v[{statement.target!r}] = {value}{tag}"]
        elif isinstance(statement, ast.ExprStatement):
            lines = [f"{pad}{self.expr(statement.value, obj_var)}{tag}"]
        elif isinstance(statement, ast.If):
            lines = [f"{pad}if {self.expr(statement.condition, obj_var)}:{tag}"]
            lines.extend(self.block(statement.then_body, depth + 1, obj_var))
            if statement.else_body:
                lines.append(f"{pad}else:")
                lines.extend(self.block(statement.else_body, depth + 1, obj_var))
        elif isinstance(statement, ast.For):
            start = self.expr(statement.start, obj_var)
            stop = self.expr(statement.stop, obj_var)
            step = self.expr(statement.step, obj_var) if statement.step else "1.0"
            lines = [
                f"{pad}for v[{statement.var!r}] in"
                f" rt.frange({start}, {stop}, {step}):{tag}"
            ]
            lines.extend(self.block(statement.body, depth + 1, obj_var))
        elif isinstance(statement, ast.Alt):
            lines = self._alt(statement, depth, obj_var)
            lines[-1] += tag
        else:
            raise EvalError(f"cannot translate statement {statement!r}", statement.line)
        lines.append(f"{pad}rt.step({statement.line}, {obj_var})")
        return lines

    def _alt(self, statement: ast.Alt, depth: int, obj_var: Optional[str]) -> List[str]:
        """Each branch becomes a closure over ``v`` and ``obj``; the runtime
        snapshots the variables a branch touches and rolls them back."""
        pad = _INDENT * depth
        self._alt_counter += 1
        branches: List[str] = []
        lines: List[str] = []
        for index, body in enumerate(statement.branches):
            branches.append(f"_alt{self._alt_counter}_branch{index}")
            lines.append(f"{pad}def {branches[-1]}():")
            lines.extend(self.block(body, depth + 1, obj_var))
        touched = tuple(sorted(_names([statement], reads=True) & self._scope))
        lines.append(
            f"{pad}rt.alt({obj_var}, [{', '.join(branches)}], v, {touched!r},"
            f" {statement.line})"
        )
        return lines

    # ------------------------------------------------------------------
    def expr(self, expr: ast.Expr, obj_var: Optional[str]) -> str:
        if isinstance(expr, (ast.Number, ast.String)):
            return repr(expr.value)
        if isinstance(expr, ast.Boolean):
            return "True" if expr.value else "False"
        if isinstance(expr, ast.Nil):
            return "None"
        if isinstance(expr, ast.Name):
            if expr.ident in _DIRECTIONS:
                # A variable may shadow a direction once it is bound.
                if expr.ident in self._scope:
                    return f"v.get({expr.ident!r}, {expr.ident})"
                return expr.ident
            if expr.ident in self._scope:
                return f"v[{expr.ident!r}]"
            raise EvalError(f"unknown name {expr.ident!r}", expr.line)
        if isinstance(expr, ast.Attribute):
            return f"rt.attr({self.expr(expr.value, obj_var)}, {expr.attr!r})"
        if isinstance(expr, ast.Unary):
            if expr.op == "NOT":
                return f"(not {self.expr(expr.operand, obj_var)})"
            return f"rt.arith('-', {self.expr(expr.operand, obj_var)})"
        if isinstance(expr, ast.Binary):
            left = self.expr(expr.left, obj_var)
            right = self.expr(expr.right, obj_var)
            if expr.op in ("AND", "OR"):
                return f"(bool({left}) {expr.op.lower()} bool({right}))"
            if expr.op in ("==", "!="):
                return f"({left} {expr.op} {right})"
            return f"rt.arith({expr.op!r}, {left}, {right})"
        if isinstance(expr, ast.Call):
            return self._call(expr, obj_var)
        raise EvalError(f"cannot translate expression {expr!r}", expr.line)

    def _call(self, expr: ast.Call, obj_var: Optional[str]) -> str:
        args = [self.expr(arg, obj_var) for arg in expr.args]
        keys = [key for key, _ in expr.kwargs]
        kwargs = [f"{key}={self.expr(value, obj_var)}" for key, value in expr.kwargs]
        entity = self.entities.get(expr.func)
        if entity is not None:
            check_entity_call(entity, len(args), keys, expr.line)
            return f"{expr.func}({', '.join(['rt'] + args + kwargs)})"
        spec = check_call(expr.func, len(args), keys, obj_var is not None, expr.line)
        if spec.structure is not None:
            args.insert(0, obj_var or "None")
        return f"rt.{expr.func}({', '.join(args + kwargs)})"


def _names(nodes: Iterable[ast.Node], reads: bool) -> Set[str]:
    """Every name the nodes assign, recursively (ALT branches, IF and FOR
    bodies included), and with *reads* every name they read."""
    names: Set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign):
            names.add(node.target)
        elif isinstance(node, ast.For):
            names.add(node.var)
        elif isinstance(node, ast.Name) and reads:
            names.add(node.ident)
        for field in dataclasses.fields(node):
            stack.extend(_nodes(getattr(node, field.name)))
    return names


def _nodes(value: Any) -> Iterator[ast.Node]:
    """The syntax nodes in a field value: a node, or lists and tuples of them."""
    if isinstance(value, ast.Node):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _nodes(item)
