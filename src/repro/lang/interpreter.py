"""The PLDL interpreter: translate, compile, run.

"The implemented language interpreter evaluates and fulfills the design rules
automatically" (Sec. 2.1).  :class:`Interpreter` runs a source by
translating it (:mod:`repro.lang.translate`, where the language's
conventions are documented) and executing the compiled Python on its
:class:`~repro.lang.runtime.Runtime`, so a malformed call anywhere in a
source fails when it is loaded.  A runtime :class:`EvalError` carries the
PLDL line of the statement that raised it, read off the ``# line N`` mark
of the generated code.
"""

from __future__ import annotations

import re
import traceback
from typing import Any, Callable, Dict, Optional

from ..compact import Compactor
from ..db import LayoutObject
from ..obs import get_tracer
from ..tech import Technology
from . import ast_nodes as ast
from .errors import EvalError
from .parser import parse
from .runtime import Runtime, TraceHook
from .translate import check_entity_call, translate_program

#: File name of compiled PLDL code in tracebacks.
_FILENAME = "<pldl>"
_LINE_MARK = re.compile(r"  # line (\d+)$")


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
        self.runtime.trace = trace
        self.entities: Dict[str, ast.Entity] = {}
        self._namespace: Dict[str, Any] = {}
        #: Generated-code line -> PLDL line, for the statement marks.
        self._lines: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def load(self, source: str) -> ast.Program:
        """Parse and translate *source*, registering its entities.

        Entities of earlier loads stay callable; one of the same name is
        replaced.  Nothing runs, but every statically detectable error
        (call shapes, unknown names) is raised here.
        """
        program = parse(source)
        entities = {**self.entities, **{e.name: e for e in program.entities}}
        code = translate_program(
            ast.Program(program.line, program.statements, list(entities.values()))
        )
        namespace: Dict[str, Any] = {}
        exec(compile(code, _FILENAME, "exec"), namespace)
        self.entities, self._namespace = entities, namespace
        self._lines = {
            number: int(mark.group(1))
            for number, text in enumerate(code.splitlines(), start=1)
            for mark in [_LINE_MARK.search(text)] if mark
        }
        return program

    def run(self, source: str) -> Dict[str, Any]:
        """Load *source*, execute its top-level statements, return their
        bindings."""
        program = self.load(source)
        if not program.statements:
            return {}
        with get_tracer().span("interp.run", statements=len(program.statements)):
            return self._execute(self._namespace["main"])

    def call(self, entity_name: str, **kwargs: Any) -> LayoutObject:
        """Invoke a loaded entity from Python (dimensions in microns)."""
        entity = self.entities.get(entity_name)
        if entity is None:
            raise EvalError(f"unknown entity {entity_name!r}")
        check_entity_call(entity, 0, list(kwargs), entity.line)
        return self._execute(self._namespace[entity_name], **kwargs)

    # ------------------------------------------------------------------
    def _execute(self, function: Callable[..., Any], **kwargs: Any) -> Any:
        """Call generated *function*.  A runtime error gets the PLDL line of
        the innermost statement running; a ``KeyError`` raised by generated
        code, which reads only names in scope, is a read before assignment."""
        try:
            return function(self.runtime, **kwargs)
        except (EvalError, KeyError) as error:
            line, generated = None, False
            for frame, number in traceback.walk_tb(error.__traceback__):
                generated = frame.f_code.co_filename == _FILENAME
                if generated:
                    line = self._lines.get(number, line)
            if isinstance(error, KeyError):
                if not generated:
                    raise
                raise EvalError(f"{error.args[0]!r} read before assignment", line) from None
            if error.line is not None or line is None:
                raise
            raise EvalError(str(error), line) from None
