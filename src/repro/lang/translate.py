"""PLDL → Python source translation.

"The source code is automatically translated into C" (Sec. 2.1); here the
target language is Python.  Each entity becomes a function taking the shared
:class:`~repro.lang.runtime.Runtime` plus its (keyword-defaulted) parameters;
builtins become calls of the runtime methods the interpreter also runs, with
the structure object threaded as the first argument where
:data:`~repro.lang.runtime.BUILTINS` says so, and call shapes checked
against that table here.  The emitted module is self-contained apart from the
runtime import and is meant to be ``exec``-uted or written to disk.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from . import ast_nodes as ast
from .errors import EvalError
from .parser import parse
from .runtime import check_call

_DIRECTIONS = frozenset({"NORTH", "SOUTH", "EAST", "WEST"})
_INDENT = "    "


def translate(source: str) -> str:
    """Translate PLDL source into a runnable Python module string."""
    return translate_program(parse(source))


def translate_program(program: ast.Program) -> str:
    """Translate a parsed program into Python source."""
    translator = _Translator({entity.name for entity in program.entities})
    lines: List[str] = [
        '"""Generated from PLDL by repro.lang.translate — do not edit."""',
        "",
        "from repro.geometry import Direction",
        "from repro.lang.runtime import Runtime",
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
        lines.append("def main(rt):")
        lines.append(f'{_INDENT}"""Top-level calling sequence of the source file."""')
        body = translator.block(program.statements, depth=1, obj_var=None)
        lines.extend(body if body else [f"{_INDENT}pass"])
        lines.append("")
    return "\n".join(lines)


class _Translator:
    """Stateful expression/statement emitter."""

    def __init__(self, entity_names: Set[str]) -> None:
        self.entity_names = entity_names
        self._alt_counter = 0
        #: Names bound somewhere in the current entity (params + assigns);
        #: ``nonlocal`` in an ALT save/restore closure is only legal for these.
        self._scope: Set[str] = set()

    # ------------------------------------------------------------------
    def entity(self, entity: ast.Entity) -> List[str]:
        params = ["rt"]
        for param in entity.params:
            params.append(f"{param.name}=None" if param.optional else param.name)
        self._scope = {param.name for param in entity.params}
        self._scope |= self._bound_names(entity.body)
        lines = [f"def {entity.name}({', '.join(params)}):"]
        lines.append(f'{_INDENT}"""Generated from entity {entity.name}."""')
        # Forward the parameter bindings so provenance frames record them.
        begin_args = [f'"{entity.name}"']
        begin_args += [f"{p.name}={p.name}" for p in entity.params]
        lines.append(f"{_INDENT}obj = rt.begin({', '.join(begin_args)})")
        lines.append(f"{_INDENT}try:")
        body = self.block(entity.body, depth=2, obj_var="obj")
        lines.extend(body if body else [f"{_INDENT * 2}pass"])
        lines.append(f"{_INDENT}finally:")
        lines.append(f"{_INDENT * 2}rt.end(obj)")
        lines.append(f"{_INDENT}return obj")
        return lines

    def block(
        self, statements: List[ast.Statement], depth: int, obj_var: Optional[str]
    ) -> List[str]:
        lines: List[str] = []
        for statement in statements:
            lines.extend(self.statement(statement, depth, obj_var))
        return lines

    # ------------------------------------------------------------------
    def statement(
        self, statement: ast.Statement, depth: int, obj_var: Optional[str]
    ) -> List[str]:
        pad = _INDENT * depth
        if isinstance(statement, ast.Assign):
            return [f"{pad}{statement.target} = {self.expr(statement.value, obj_var)}"]
        if isinstance(statement, ast.ExprStatement):
            return [f"{pad}{self.expr(statement.value, obj_var)}"]
        if isinstance(statement, ast.If):
            lines = [f"{pad}if {self.expr(statement.condition, obj_var)}:"]
            body = self.block(statement.then_body, depth + 1, obj_var)
            lines.extend(body if body else [f"{pad}{_INDENT}pass"])
            if statement.else_body:
                lines.append(f"{pad}else:")
                lines.extend(self.block(statement.else_body, depth + 1, obj_var))
            return lines
        if isinstance(statement, ast.For):
            start = self.expr(statement.start, obj_var)
            stop = self.expr(statement.stop, obj_var)
            step = self.expr(statement.step, obj_var) if statement.step else "1.0"
            lines = [
                f"{pad}for {statement.var} in rt.frange({start}, {stop}, {step}):"
            ]
            body = self.block(statement.body, depth + 1, obj_var)
            lines.extend(body if body else [f"{pad}{_INDENT}pass"])
            return lines
        if isinstance(statement, ast.Alt):
            return self._alt(statement, depth, obj_var)
        raise EvalError(f"cannot translate statement {statement!r}", statement.line)

    def _alt(self, statement: ast.Alt, depth: int, obj_var: Optional[str]) -> List[str]:
        pad = _INDENT * depth
        self._alt_counter += 1
        tag = self._alt_counter

        assigned = sorted(set().union(*map(self._bound_names, statement.branches)))
        lines: List[str] = []
        # Pre-bind names assigned inside branches so nonlocal is legal —
        # guarded, so a binding made before the ALT survives (the interpreter
        # keeps it; an unconditional ``name = None`` would clobber it).
        for name in assigned:
            lines.append(f"{pad}try:")
            lines.append(f"{pad}{_INDENT}{name}")
            lines.append(f"{pad}except NameError:")
            lines.append(f"{pad}{_INDENT}{name} = None")

        branch_names: List[str] = []
        for index, branch in enumerate(statement.branches):
            func = f"_alt{tag}_branch{index}"
            branch_names.append(func)
            lines.append(f"{pad}def {func}():")
            if assigned:
                lines.append(f"{pad}{_INDENT}nonlocal {', '.join(assigned)}")
            body = self.block(branch, depth + 1, obj_var)
            lines.extend(body if body else [f"{pad}{_INDENT}pass"])

        # The interpreter snapshots the whole variable frame before trying a
        # branch and restores it on rollback; translated code must do the
        # same or a failed branch leaks its assignments and object mutations
        # into the next branch.  Snapshot every name a branch touches that
        # exists in the entity's scope (nonlocal is only legal for those).
        snapshot = sorted(
            (set(assigned) | self._branch_names(statement)) & self._scope
        )
        save, restore = f"_alt{tag}_save", f"_alt{tag}_restore"
        lines.append(f"{pad}def {save}():")
        lines.append(f"{pad}{_INDENT}_state = {{}}")
        for name in snapshot:
            lines.append(f"{pad}{_INDENT}try:")
            lines.append(f"{pad}{_INDENT * 2}_state[{name!r}] = {name}")
            lines.append(f"{pad}{_INDENT}except NameError:")
            lines.append(f"{pad}{_INDENT * 2}pass")
        lines.append(f"{pad}{_INDENT}return rt.alt_state(_state)")
        lines.append(f"{pad}def {restore}(_state):")
        if snapshot:
            lines.append(f"{pad}{_INDENT}nonlocal {', '.join(snapshot)}")
        for name in snapshot:
            lines.append(f"{pad}{_INDENT}{name} = _state.get({name!r})")
        if not snapshot:
            lines.append(f"{pad}{_INDENT}pass")
        lines.append(
            f"{pad}rt.alt({obj_var}, [{', '.join(branch_names)}],"
            f" save={save}, restore={restore})"
        )
        return lines

    @staticmethod
    def _bound_names(statements: List[ast.Statement]) -> Set[str]:
        """Every name assigned anywhere in a statement list (recursively)."""
        names: Set[str] = set()

        def visit(stmts: List[ast.Statement]) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.Assign):
                    names.add(stmt.target)
                elif isinstance(stmt, ast.If):
                    visit(stmt.then_body)
                    visit(stmt.else_body)
                elif isinstance(stmt, ast.For):
                    names.add(stmt.var)
                    visit(stmt.body)
                elif isinstance(stmt, ast.Alt):
                    for branch in stmt.branches:
                        visit(branch)

        visit(statements)
        return names

    def _branch_names(self, statement: ast.Alt) -> Set[str]:
        """Every variable an ALT branch reads or writes (for the snapshot)."""
        names: Set[str] = set()

        def visit_expr(expr: ast.Expr) -> None:
            if isinstance(expr, ast.Name):
                if expr.ident not in _DIRECTIONS:
                    names.add(expr.ident)
            elif isinstance(expr, ast.Attribute):
                visit_expr(expr.value)
            elif isinstance(expr, ast.Unary):
                visit_expr(expr.operand)
            elif isinstance(expr, ast.Binary):
                visit_expr(expr.left)
                visit_expr(expr.right)
            elif isinstance(expr, ast.Call):
                for arg in expr.args:
                    visit_expr(arg)
                for _, value in expr.kwargs:
                    visit_expr(value)

        def visit(stmts: List[ast.Statement]) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.Assign):
                    names.add(stmt.target)
                    visit_expr(stmt.value)
                elif isinstance(stmt, ast.ExprStatement):
                    visit_expr(stmt.value)
                elif isinstance(stmt, ast.If):
                    visit_expr(stmt.condition)
                    visit(stmt.then_body)
                    visit(stmt.else_body)
                elif isinstance(stmt, ast.For):
                    names.add(stmt.var)
                    visit_expr(stmt.start)
                    visit_expr(stmt.stop)
                    if stmt.step is not None:
                        visit_expr(stmt.step)
                    visit(stmt.body)
                elif isinstance(stmt, ast.Alt):
                    for branch in stmt.branches:
                        visit(branch)

        for branch in statement.branches:
            visit(branch)
        return names

    # ------------------------------------------------------------------
    def expr(self, expr: ast.Expr, obj_var: Optional[str]) -> str:
        if isinstance(expr, ast.Number):
            return repr(expr.value)
        if isinstance(expr, ast.String):
            return repr(expr.value)
        if isinstance(expr, ast.Boolean):
            return "True" if expr.value else "False"
        if isinstance(expr, ast.Nil):
            return "None"
        if isinstance(expr, ast.Name):
            return expr.ident
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
        kwargs = [f"{key}={self.expr(value, obj_var)}" for key, value in expr.kwargs]

        if expr.func in self.entity_names:
            return f"{expr.func}({', '.join(['rt'] + args + kwargs)})"

        spec = check_call(
            expr.func, len(args), [key for key, _ in expr.kwargs],
            obj_var is not None, expr.line,
        )
        if spec.structure is not None:
            args.insert(0, obj_var or "None")
        return f"rt.{spec.method}({', '.join(args + kwargs)})"
