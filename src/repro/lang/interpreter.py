"""Tree-walking interpreter for the PLDL.

"The implemented language interpreter evaluates and fulfills the design rules
automatically" (Sec. 2.1): every geometry builtin delegates to the
design-rule-driven primitives, and a rule that cannot be fulfilled surfaces
as :class:`~repro.tech.rules.RuleError` — which the ``ALT`` statement catches
to backtrack between topology variants.  Builtins, FOR ranges, attribute
reads and ALT rollback run on :mod:`repro.lang.runtime`, the code translated
programs run on.

Conventions:

* numeric values are **microns** (the technology converts to database units
  at the primitive boundary);
* an entity call builds and returns a fresh :class:`LayoutObject`;
* geometry builtins implicitly target the innermost entity under
  construction, exactly like the paper's listings.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..compact import Compactor
from ..db import LayoutObject
from ..geometry import Direction
from ..obs import get_tracer
from ..obs.provenance import get_recorder
from ..tech import RuleError, Technology
from . import ast_nodes as ast
from .errors import EvalError
from .parser import parse
from .runtime import Runtime, check_call

#: Statement-trace callback: (line number, entity frame object or None).
TraceHook = Callable[[int, Optional[LayoutObject]], None]

#: Maximum entity-call nesting — a recursive module definition would
#: otherwise exhaust the Python stack with an unhelpful error.
MAX_CALL_DEPTH = 64


class Frame:
    """One entity invocation: its variables and structure under construction."""

    def __init__(self, name: str, obj: Optional[LayoutObject]) -> None:
        self.name = name
        self.obj = obj
        self.vars: Dict[str, Any] = {}


class Interpreter:
    """Executes PLDL programs against a technology."""

    def __init__(
        self,
        tech: Technology,
        compactor: Optional[Compactor] = None,
        trace: Optional[TraceHook] = None,
    ) -> None:
        self.tech = tech
        self.runtime = Runtime(tech, compactor)
        self.trace = trace
        self.entities: Dict[str, ast.Entity] = {}
        self.globals = Frame("<global>", None)
        self._counters: Dict[str, int] = {}
        self._depth = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def load(self, source: str) -> ast.Program:
        """Parse *source* and register its entities (no execution)."""
        program = parse(source)
        for entity in program.entities:
            self.entities[entity.name] = entity
        return program

    def run(self, source: str) -> Dict[str, Any]:
        """Load *source*, execute its top-level statements, return globals."""
        program = self.load(source)
        with get_tracer().span("interp.run", statements=len(program.statements)):
            for statement in program.statements:
                self._exec(statement, self.globals)
        return self.globals.vars

    def call(self, entity_name: str, **kwargs: Any) -> LayoutObject:
        """Invoke a loaded entity from Python (dimensions in microns)."""
        entity = self.entities.get(entity_name)
        if entity is None:
            raise EvalError(f"unknown entity {entity_name!r}")
        return self._call_entity(entity, [], list(kwargs.items()), line=entity.line)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _exec(self, statement: ast.Statement, frame: Frame) -> None:
        try:
            if isinstance(statement, ast.Assign):
                frame.vars[statement.target] = self._eval(statement.value, frame)
            elif isinstance(statement, ast.ExprStatement):
                self._eval(statement.value, frame)
            elif isinstance(statement, ast.If):
                branch = (
                    statement.then_body
                    if self._eval(statement.condition, frame)
                    else statement.else_body
                )
                for inner in branch:
                    self._exec(inner, frame)
            elif isinstance(statement, ast.For):
                self._exec_for(statement, frame)
            elif isinstance(statement, ast.Alt):
                self._exec_alt(statement, frame)
            else:  # pragma: no cover - parser produces no other nodes
                raise EvalError(f"unknown statement {statement!r}", statement.line)
        except EvalError as error:
            # The runtime does not know source lines; the statement does.
            if error.line is not None:
                raise
            raise EvalError(str(error), statement.line) from None
        if self.trace is not None:
            self.trace(statement.line, frame.obj)

    def _exec_for(self, statement: ast.For, frame: Frame) -> None:
        values = self.runtime.frange(
            self._eval(statement.start, frame),
            self._eval(statement.stop, frame),
            self._eval(statement.step, frame) if statement.step is not None else 1.0,
        )
        for value in values:
            frame.vars[statement.var] = value
            for inner in statement.body:
                self._exec(inner, frame)

    def _exec_alt(self, statement: ast.Alt, frame: Frame) -> None:
        """Backtracking: try branches until one satisfies all design rules."""
        tracer = get_tracer()

        def branch(index: int, body: Sequence[ast.Statement]) -> Callable[[], None]:
            def run() -> None:
                tracer.count("interp.alt_attempts")
                for inner in body:
                    self._exec(inner, frame)
                span.set(taken=index)

            return run

        def restore(state: Dict[str, Any]) -> None:
            tracer.count("interp.alt_rollbacks")
            frame.vars.clear()
            frame.vars.update(state)

        with tracer.span("interp.alt", line=statement.line) as span:
            try:
                self.runtime.alt(
                    frame.obj,  # type: ignore[arg-type] - the parser keeps ALT in entities
                    [branch(n, body) for n, body in enumerate(statement.branches)],
                    save=lambda: Runtime.alt_state(frame.vars),
                    restore=restore,
                )
            except RuleError as error:
                tracer.count("interp.alt_exhausted")
                raise RuleError(f"line {statement.line}: {error}") from error

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _eval(self, expr: ast.Expr, frame: Frame) -> Any:
        if isinstance(expr, ast.Number):
            return expr.value
        if isinstance(expr, ast.String):
            return expr.value
        if isinstance(expr, ast.Boolean):
            return expr.value
        if isinstance(expr, ast.Nil):
            return None
        if isinstance(expr, ast.Name):
            return self._lookup(expr, frame)
        if isinstance(expr, ast.Attribute):
            return self._attribute(expr, frame)
        if isinstance(expr, ast.Unary):
            return self._unary(expr, frame)
        if isinstance(expr, ast.Binary):
            return self._binary(expr, frame)
        if isinstance(expr, ast.Call):
            return self._call(expr, frame)
        raise EvalError(f"unknown expression {expr!r}", expr.line)

    def _lookup(self, expr: ast.Name, frame: Frame) -> Any:
        if expr.ident in frame.vars:
            return frame.vars[expr.ident]
        if expr.ident in self.globals.vars:
            return self.globals.vars[expr.ident]
        try:
            return Direction.from_name(expr.ident)
        except ValueError:
            pass
        raise EvalError(f"unknown name {expr.ident!r}", expr.line)

    def _attribute(self, expr: ast.Attribute, frame: Frame) -> Any:
        return self.runtime.attr(self._eval(expr.value, frame), expr.attr)

    def _unary(self, expr: ast.Unary, frame: Frame) -> Any:
        value = self._eval(expr.operand, frame)
        if expr.op == "-":
            return self.runtime.arith("-", value)
        if expr.op == "NOT":
            return not value
        raise EvalError(f"unknown unary operator {expr.op!r}", expr.line)

    def _binary(self, expr: ast.Binary, frame: Frame) -> Any:
        if expr.op == "AND":
            return bool(self._eval(expr.left, frame)) and bool(
                self._eval(expr.right, frame)
            )
        if expr.op == "OR":
            return bool(self._eval(expr.left, frame)) or bool(
                self._eval(expr.right, frame)
            )
        left = self._eval(expr.left, frame)
        right = self._eval(expr.right, frame)
        if expr.op == "==":
            return left == right
        if expr.op == "!=":
            return left != right
        if expr.op in ("+", "-", "*", "/", "<", ">", "<=", ">="):
            return self.runtime.arith(expr.op, left, right)
        raise EvalError(f"unknown operator {expr.op!r}", expr.line)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def _call(self, expr: ast.Call, frame: Frame) -> Any:
        args = [self._eval(arg, frame) for arg in expr.args]
        kwargs = [(key, self._eval(value, frame)) for key, value in expr.kwargs]

        entity = self.entities.get(expr.func)
        if entity is not None:
            return self._call_entity(entity, args, kwargs, expr.line)

        spec = check_call(
            expr.func, len(args), [key for key, _ in kwargs], frame.obj is not None,
            expr.line,
        )
        if spec.structure is not None:
            args.insert(0, frame.obj)
        method = getattr(self.runtime, spec.method)
        tracer = get_tracer()
        if not tracer.enabled:
            return method(*args, **dict(kwargs))
        with tracer.span("interp.builtin", builtin=expr.func, line=expr.line):
            result = method(*args, **dict(kwargs))
        tracer.count("interp.builtin_calls")
        tracer.count(f"interp.builtin.{expr.func}")
        return result

    def _call_entity(
        self,
        entity: ast.Entity,
        args: Sequence[Any],
        kwargs: Sequence[Tuple[str, Any]],
        line: int,
    ) -> LayoutObject:
        if len(args) > len(entity.params):
            raise EvalError(
                f"{entity.name}: too many positional arguments", line
            )
        bound: Dict[str, Any] = {}
        for param, value in zip(entity.params, args):
            bound[param.name] = value
        for key, value in kwargs:
            if all(param.name != key for param in entity.params):
                raise EvalError(f"{entity.name}: unknown parameter {key!r}", line)
            if key in bound:
                raise EvalError(f"{entity.name}: parameter {key!r} given twice", line)
            bound[key] = value
        for param in entity.params:
            if param.name not in bound:
                if not param.optional:
                    raise EvalError(
                        f"{entity.name}: missing required parameter {param.name!r}",
                        line,
                    )
                bound[param.name] = None

        if self._depth >= MAX_CALL_DEPTH:
            raise EvalError(
                f"{entity.name}: entity call depth exceeds {MAX_CALL_DEPTH}"
                " (recursive module definition?)",
                line,
            )
        index = self._counters.get(entity.name, 0)
        self._counters[entity.name] = index + 1
        inner = Frame(entity.name, LayoutObject(f"{entity.name}_{index}", self.tech))
        inner.vars.update(bound)
        tracer = get_tracer()
        tracer.count("interp.entity_calls")
        self._depth += 1
        try:
            with tracer.span(
                "interp.entity", entity=entity.name, line=line, depth=self._depth
            ):
                with get_recorder().entity(entity.name, bound):
                    for statement in entity.body:
                        self._exec(statement, inner)
        finally:
            self._depth -= 1
        return inner.obj  # type: ignore[return-value]
