"""The PLDL runtime: the one implementation of every builtin.

Code emitted by :mod:`repro.lang.translate` runs on this module, whether
:class:`~repro.lang.interpreter.Interpreter` compiled it or it was written
to disk.  A builtin call is a call of the :class:`Runtime` method of its
name, its shape checked against :data:`BUILTINS` at translation.
Arithmetic, FOR ranges, attribute reads, ALT rollback, entity frames and
the ``interp.*`` spans and counters live here too.  Dimensions are microns.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator
import sys
from typing import (
    Any, Callable, Container, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from ..compact import Compactor
from ..db import LayoutObject
from ..geometry import Direction, Rect
from ..obs import get_logger, get_tracer
from ..obs.provenance import get_recorder
from ..primitives import angle_adaptor, around, array, inbox, ring, tworects
from ..route import via_stack, wire
from ..tech import RuleError, Technology
from .errors import EvalError

log = get_logger("lang")

#: :attr:`Builtin.structure`: the call builds into the entity structure,
#: so it is an error outside an entity body.
BUILDS = "builds"
#: :attr:`Builtin.structure`: the call acts on the entity structure unless
#: its first argument is a layout object (see :meth:`Runtime.VARIABLE`).
TARGETS = "targets"


class Builtin(NamedTuple):
    """How one builtin name binds to its :class:`Runtime` method."""

    #: Parameter names in positional order, each also accepted as a
    #: keyword; None when the builtin takes positional arguments only.
    keywords: Optional[Tuple[str, ...]]
    #: None, :data:`BUILDS` or :data:`TARGETS`: whether the entity
    #: structure is passed ahead of the call's own arguments.
    structure: Optional[str]


#: Every builtin of the language, each a :class:`Runtime` method of its name.
BUILTINS: Dict[str, Builtin] = {
    "INBOX": Builtin(("layer", "W", "L", "net", "variable"), BUILDS),
    "ARRAY": Builtin(("layer", "net"), BUILDS),
    "TWORECTS": Builtin(("gate", "body", "W", "L", "gatenet", "bodynet"), BUILDS),
    "AROUND": Builtin(("layer", "margin", "net"), BUILDS),
    "RING": Builtin(("layer", "width", "gap", "net"), BUILDS),
    "ADAPTOR": Builtin(("hlayer", "vlayer", "x", "y", "hwidth", "vwidth", "net"), BUILDS),
    "WIRE": Builtin(("layer", "x1", "y1", "x2", "y2", "width", "net"), BUILDS),
    "VIA": Builtin(("x", "y", "bottom", "top", "net"), BUILDS),
    "compact": Builtin(None, BUILDS),
    "COMPACT": Builtin(None, BUILDS),
    "COPY": Builtin(None, None),
    "MOVE": Builtin(None, None),
    "MIRRORX": Builtin(None, None),
    "MIRRORY": Builtin(None, None),
    "SETNET": Builtin(None, None),
    "VARIABLE": Builtin(None, TARGETS),
    "FIXED": Builtin(None, TARGETS),
    "ERROR": Builtin(None, None),
    "LABEL": Builtin(None, BUILDS),
    "WIDTHRULE": Builtin(None, None),
    "SPACERULE": Builtin(None, None),
    "MOD": Builtin(None, None),
    "FLOOR": Builtin(None, None),
    "ABS": Builtin(None, None),
    "MIN": Builtin(None, None),
    "MAX": Builtin(None, None),
}

#: Public list of builtin names (used by the docs and tests).
BUILTIN_NAMES = tuple(sorted(BUILTINS))


def check_call(
    name: str,
    positional: int,
    keywords: Sequence[str],
    in_entity: bool,
    line: Optional[int],
) -> Builtin:
    """The table row for a builtin call of this shape, or an ``EvalError``.

    Binding is strict: too many or too few positional arguments, an unknown
    or repeated keyword, and a keyword to a positional-only builtin are all
    errors, as is a structure-building call outside an entity body.
    """
    spec = BUILTINS.get(name)
    if spec is None:
        raise EvalError(f"unknown function or entity {name!r}", line)
    if spec.structure == BUILDS and not in_entity:
        raise EvalError(f"{name} is only allowed inside an entity body", line)
    if spec.keywords is None:
        if keywords:
            raise EvalError(f"{name} takes no keyword arguments", line)
        low, high = _ARITY[name]
        if positional < low or (high is not None and positional > high):
            if high is None:
                wanted = f"at least {low}"
            else:
                wanted = str(low) if low == high else f"{low} to {high}"
            raise EvalError(
                f"{name} takes {wanted} arguments, got {positional}", line
            )
        return spec
    bind_keywords(name, spec.keywords, positional, keywords, line)
    return spec


def bind_keywords(
    name: str,
    names: Sequence[str],
    positional: int,
    keywords: Sequence[str],
    line: Optional[int],
) -> Set[str]:
    """The *names* a call of *name* binds with *positional* arguments then
    *keywords*; too many positionals and an unknown or repeated keyword are
    an ``EvalError``."""
    if positional > len(names):
        raise EvalError(
            f"{name} takes at most {len(names)} positional"
            f" arguments ({', '.join(names)})",
            line,
        )
    given = set(names[:positional])
    for key in keywords:
        if key not in names:
            raise EvalError(f"{name}: unknown argument {key!r}", line)
        if key in given:
            raise EvalError(f"{name}: argument {key!r} given twice", line)
        given.add(key)
    return given


#: The binary operators :meth:`Runtime.arith` evaluates.
_BINARY: Dict[str, Callable[[float, float], Any]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "<": operator.lt, ">": operator.gt,
    "<=": operator.le, ">=": operator.ge,
}


def number(value: Any) -> float:
    """*value* as a float; anything but an int or float is an ``EvalError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvalError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _expect_str(value: Any, what: str) -> str:
    if not isinstance(value, str):
        raise EvalError(f"{what} must be a string")
    return value


def _expect_obj(value: Any, usage: str) -> LayoutObject:
    if not isinstance(value, LayoutObject):
        raise EvalError(f"{usage}: expected an object, got {type(value).__name__}")
    return value


#: Maximum entity-call nesting: a recursive module definition would
#: otherwise exhaust the Python stack with an unhelpful error.
MAX_CALL_DEPTH = 64

#: Statement-trace callback: (line number, entity structure or None).
TraceHook = Callable[[int, Optional[LayoutObject]], None]


class Runtime:
    """Execution context of PLDL code on one technology."""

    def __init__(self, tech: Technology, compactor: Optional[Compactor] = None) -> None:
        self.tech = tech
        self.compactor = compactor if compactor is not None else Compactor()
        #: Called by :meth:`step` after every statement when set.
        self.trace: Optional[TraceHook] = None
        #: Instances built so far per entity name (structure ``{name}_{n}``).
        self._instances: Dict[str, int] = {}
        #: The span and provenance contexts of each entity call in progress.
        self._frames: List[Tuple[Any, Any]] = []

    # ------------------------------------------------------------------
    # entity frames and statement trace
    # ------------------------------------------------------------------
    def begin(self, entity_name: str, params: Dict[str, Any]) -> LayoutObject:
        """Open a call of entity *entity_name* bound to *params*: its
        structure, ``interp.entity`` span and provenance frame.

        Every generated entity body runs between ``begin`` and an
        :meth:`end` in a ``finally`` clause.  A call nested deeper than
        :data:`MAX_CALL_DEPTH` is an :class:`EvalError`.
        """
        depth = len(self._frames) + 1
        if depth > MAX_CALL_DEPTH:
            raise EvalError(
                f"{entity_name}: entity call depth exceeds {MAX_CALL_DEPTH}"
                " (recursive module definition?)"
            )
        index = self._instances.get(entity_name, 0)
        self._instances[entity_name] = index + 1
        tracer = get_tracer()
        tracer.count("interp.entity_calls")
        frame = (
            tracer.span("interp.entity", entity=entity_name, depth=depth),
            get_recorder().entity(entity_name, params),
        )
        for context in frame:
            context.__enter__()
        self._frames.append(frame)
        return LayoutObject(f"{entity_name}_{index}", self.tech)

    def end(self) -> None:
        """Close the innermost entity call opened by :meth:`begin`."""
        for context in reversed(self._frames.pop()):
            context.__exit__(*sys.exc_info())

    def step(self, line: int, obj: Optional[LayoutObject]) -> None:
        """Statement *line* finished, building *obj* (None at top level)."""
        if self.trace is not None:
            self.trace(line, obj)

    def _dbu(self, value: Any) -> Optional[int]:
        """Microns to database units; NIL passes through."""
        return None if value is None else self.tech.um(number(value))

    # ------------------------------------------------------------------
    # geometry builtins
    # ------------------------------------------------------------------
    def INBOX(
        self,
        obj: LayoutObject,
        layer: Any = None,
        W: Any = None,
        L: Any = None,
        net: Optional[str] = None,
        variable: Any = False,
    ) -> None:
        """INBOX(layer, <W>, <L>, net=, variable=)."""
        inbox(
            obj,
            _expect_str(layer, "INBOX layer"),
            w=self._dbu(W),
            length=self._dbu(L),
            net=net,
            variable=bool(variable),
        )

    def ARRAY(self, obj: LayoutObject, layer: Any = None, net: Optional[str] = None) -> None:
        """ARRAY(layer, net=)."""
        array(obj, _expect_str(layer, "ARRAY layer"), net=net)

    def TWORECTS(
        self,
        obj: LayoutObject,
        gate: Any = None,
        body: Any = None,
        W: Any = None,
        L: Any = None,
        gatenet: Optional[str] = None,
        bodynet: Optional[str] = None,
    ) -> None:
        """TWORECTS(gate, body, W, L, gatenet=, bodynet=)."""
        gate = _expect_str(gate, "TWORECTS gate layer")
        body = _expect_str(body, "TWORECTS body layer")
        w, length = self._dbu(W), self._dbu(L)
        if w is None or length is None:
            raise EvalError("TWORECTS requires W and L")
        tworects(obj, gate, body, w, length, gate_net=gatenet, body_net=bodynet)

    def AROUND(
        self,
        obj: LayoutObject,
        layer: Any = None,
        margin: Any = None,
        net: Optional[str] = None,
    ) -> None:
        """AROUND(layer, margin=, net=)."""
        around(obj, _expect_str(layer, "AROUND layer"), margin=self._dbu(margin), net=net)

    def RING(
        self,
        obj: LayoutObject,
        layer: Any = None,
        width: Any = None,
        gap: Any = None,
        net: Optional[str] = None,
    ) -> None:
        """RING(layer, width=, gap=, net=)."""
        ring(
            obj,
            _expect_str(layer, "RING layer"),
            width=self._dbu(width),
            gap=self._dbu(gap),
            net=net,
        )

    def ADAPTOR(
        self,
        obj: LayoutObject,
        hlayer: Any = None,
        vlayer: Any = None,
        x: Any = None,
        y: Any = None,
        hwidth: Any = None,
        vwidth: Any = None,
        net: Optional[str] = None,
    ) -> None:
        """ADAPTOR(hlayer, vlayer, x, y, hwidth=, vwidth=, net=)."""
        angle_adaptor(
            obj,
            _expect_str(hlayer, "ADAPTOR hlayer"),
            _expect_str(vlayer, "ADAPTOR vlayer"),
            self._dbu(x) or 0,
            self._dbu(y) or 0,
            h_width=self._dbu(hwidth),
            v_width=self._dbu(vwidth),
            net=net,
        )

    def WIRE(
        self,
        obj: LayoutObject,
        layer: Any = None,
        x1: Any = None,
        y1: Any = None,
        x2: Any = None,
        y2: Any = None,
        width: Any = None,
        net: Optional[str] = None,
    ) -> None:
        """WIRE(layer, x1, y1, x2, y2, width=, net=)."""
        wire(
            obj,
            _expect_str(layer, "WIRE layer"),
            (self._dbu(x1) or 0, self._dbu(y1) or 0),
            (self._dbu(x2) or 0, self._dbu(y2) or 0),
            width=self._dbu(width),
            net=net,
        )

    def VIA(
        self,
        obj: LayoutObject,
        x: Any = None,
        y: Any = None,
        bottom: Any = None,
        top: Any = None,
        net: Optional[str] = None,
    ) -> None:
        """VIA(x, y, bottom, top, net=)."""
        via_stack(
            obj,
            self._dbu(x) or 0,
            self._dbu(y) or 0,
            _expect_str(bottom, "VIA bottom layer"),
            _expect_str(top, "VIA top layer"),
            net=net,
        )

    # ------------------------------------------------------------------
    # structural builtins
    # ------------------------------------------------------------------
    def compact(self, obj: LayoutObject, child: Any, direction: Any, *ignore: Any) -> None:
        """compact(obj, DIRECTION, ignored layers...); COMPACT is the same."""
        child = _expect_obj(child, "compact(obj, DIRECTION, ignored layers...)")
        if isinstance(direction, str):
            try:
                direction = Direction.from_name(direction)
            except ValueError as error:
                raise EvalError(f"compact: {error}") from None
        if not isinstance(direction, Direction):
            raise EvalError("compact: second argument must be a direction")
        layers = tuple(_expect_str(layer, "ignored layer") for layer in ignore)
        self.compactor.compact(obj, child, direction, layers)

    COMPACT = compact

    def COPY(self, child: Any) -> LayoutObject:
        """COPY(obj)."""
        return _expect_obj(child, "COPY(obj)").copy()

    def MOVE(self, child: Any, dx: Any, dy: Any) -> None:
        """MOVE(obj, dx, dy)."""
        _expect_obj(child, "MOVE(obj, dx, dy)").translate(
            self._dbu(dx) or 0, self._dbu(dy) or 0
        )

    def MIRRORX(self, child: Any, axis: Any = None) -> None:
        """MIRRORX(obj, [axis])."""
        _expect_obj(child, "MIRRORX(obj, [axis])").mirror_x(self._dbu(axis) or 0)

    def MIRRORY(self, child: Any, axis: Any = None) -> None:
        """MIRRORY(obj, [axis])."""
        _expect_obj(child, "MIRRORY(obj, [axis])").mirror_y(self._dbu(axis) or 0)

    def SETNET(self, child: Any, net: Any, layer: Any = None) -> None:
        """SETNET(obj, net, [layer])."""
        _expect_obj(child, "SETNET(obj, net, [layer])").set_net(
            _expect_str(net, "net name"),
            None if layer is None else _expect_str(layer, "layer"),
        )

    def VARIABLE(self, obj: Optional[LayoutObject], *args: Any) -> None:
        """VARIABLE(layers...) / VARIABLE(obj, layers...): mark edges variable."""
        for rect in self._edge_targets("VARIABLE", obj, args):
            rect.set_variable()

    def FIXED(self, obj: Optional[LayoutObject], *args: Any) -> None:
        """FIXED(layers...) / FIXED(obj, layers...): mark edges fixed."""
        for rect in self._edge_targets("FIXED", obj, args):
            rect.set_fixed()

    @staticmethod
    def _edge_targets(
        name: str, obj: Optional[LayoutObject], args: Sequence[Any]
    ) -> List[Rect]:
        """The rects VARIABLE/FIXED act on.

        A leading layout object is the target; otherwise the target is the
        entity structure *obj* (None outside an entity body).
        """
        if args and isinstance(args[0], LayoutObject):
            target, layers = args[0], args[1:]
        elif obj is None:
            raise EvalError(f"{name} is only allowed inside an entity body")
        else:
            target, layers = obj, args
        if not layers:
            raise EvalError(f"{name} needs at least one layer name")
        return [
            rect
            for layer in layers
            for rect in target.rects_on(_expect_str(layer, "layer"))
        ]

    def ERROR(self, message: Any = "explicit ERROR") -> None:
        """ERROR(msg): an explicit rule failure."""
        raise RuleError(str(message))

    def LABEL(self, obj: LayoutObject, text: Any, x: Any, y: Any, layer: Any) -> None:
        """LABEL(text, x, y, layer)."""
        obj.add_label(
            _expect_str(text, "label text"),
            self._dbu(x) or 0,
            self._dbu(y) or 0,
            _expect_str(layer, "layer"),
        )

    def WIDTHRULE(self, layer: Any) -> float:
        """WIDTHRULE(layer) in microns."""
        return self.tech.min_width(_expect_str(layer, "layer")) / self.tech.dbu_per_micron

    def SPACERULE(self, layer_a: Any, layer_b: Any) -> float:
        """SPACERULE(a, b) in microns."""
        a = _expect_str(layer_a, "layer")
        b = _expect_str(layer_b, "layer")
        rule = self.tech.min_space(a, b)
        if rule is None:
            raise RuleError(f"no SPACE rule between {a!r} and {b!r}")
        return rule / self.tech.dbu_per_micron

    # ------------------------------------------------------------------
    # numeric builtins
    # ------------------------------------------------------------------
    def MOD(self, a: Any, b: Any) -> float:
        """MOD(a, b)."""
        divisor = number(b)
        if divisor == 0:
            raise EvalError("MOD: division by zero")
        return number(a) % divisor

    def FLOOR(self, x: Any) -> float:
        """FLOOR(x)."""
        return float(math.floor(number(x)))

    def ABS(self, x: Any) -> float:
        """ABS(x)."""
        return abs(number(x))

    def MIN(self, value: Any, *values: Any) -> float:
        """MIN(values...)."""
        return min(number(v) for v in (value, *values))

    def MAX(self, value: Any, *values: Any) -> float:
        """MAX(values...)."""
        return max(number(v) for v in (value, *values))

    # ------------------------------------------------------------------
    # expressions and control support
    # ------------------------------------------------------------------
    @staticmethod
    def arith(op: str, *operands: Any) -> Any:
        """Unary ``-x``, or ``x op y`` for ``+ - * / < > <= >=``.

        Operands must be numbers (booleans are not), and dividing by zero
        is an :class:`EvalError`, not Python's ``ZeroDivisionError``.
        """
        values = [number(value) for value in operands]
        if len(values) == 1:
            return -values[0]
        left, right = values
        if op == "/" and right == 0:
            raise EvalError("division by zero")
        return _BINARY[op](left, right)

    @staticmethod
    def frange(start: Any, stop: Any, step: Any = 1.0) -> List[float]:
        """The values of ``FOR i = start TO stop STEP step``: inclusive."""
        value, stop, step = number(start), number(stop), number(step)
        if step == 0:
            raise EvalError("FOR step must not be zero")
        values: List[float] = []
        # Inclusive bounds, tolerant of float accumulation.
        epsilon = abs(step) * 1e-9
        while (step > 0 and value <= stop + epsilon) or (
            step < 0 and value >= stop - epsilon
        ):
            values.append(value)
            value += step
        return values

    def attr(self, value: Any, name: str) -> float:
        """``obj.width`` / ``obj.height`` (µm) and ``obj.area`` (µm²)."""
        if not isinstance(value, LayoutObject):
            raise EvalError(f"cannot read attribute of {type(value).__name__}")
        dbu = self.tech.dbu_per_micron
        if name == "width":
            return value.width / dbu
        if name == "height":
            return value.height / dbu
        if name == "area":
            return value.area() / dbu ** 2
        raise EvalError(
            f"objects have no attribute {name!r} (use width, height or area)"
        )

    def alt(
        self,
        obj: LayoutObject,
        branches: Sequence[Callable[[], None]],
        variables: Dict[str, Any],
        names: Container[str],
        line: int,
    ) -> None:
        """ALT at *line*: try *branches* in order until one fulfils its rules.

        Before each branch the structure *obj* and the *names* of the
        caller's *variables* (those bound; layout objects copied) are
        snapshotted.  A branch that raises :class:`RuleError` is rolled back
        in place, so outer references to *obj* stay valid, and each of the
        *names* gets its value back, or is unbound again if it was unbound.
        When every branch fails, a ``RuleError`` naming the line and the
        last failure propagates.
        """
        tracer = get_tracer()
        last: Optional[RuleError] = None
        with tracer.span("interp.alt", line=line) as span:
            for index, branch in enumerate(branches):
                snapshot = obj.copy()
                state = {
                    name: value.copy() if isinstance(value, LayoutObject) else value
                    for name, value in variables.items() if name in names
                }
                tracer.count("interp.alt_attempts")
                try:
                    branch()
                except RuleError as error:
                    last = error
                    log.debug("ALT branch %d rolled back (%s)", index, error)
                    obj.restore(snapshot)
                    tracer.count("interp.alt_rollbacks")
                    for name in [name for name in variables if name in names]:
                        del variables[name]
                    variables.update(state)
                    continue
                span.set(taken=index)
                return
            tracer.count("interp.alt_exhausted")
            raise RuleError(f"line {line}: all ALT branches failed (last: {last})")


def _traced(name: str, method: Callable[..., Any]) -> Callable[..., Any]:
    """*method* as builtin *name*: an ``interp.builtin`` span when tracing."""

    @functools.wraps(method)
    def builtin(self: Runtime, *args: Any, **kwargs: Any) -> Any:
        tracer = get_tracer()
        if not tracer.enabled:
            return method(self, *args, **kwargs)
        with tracer.span("interp.builtin", builtin=name):
            result = method(self, *args, **kwargs)
        tracer.count("interp.builtin_calls")
        tracer.count(f"interp.builtin.{name}")
        return result

    return builtin


for _name in BUILTINS:
    setattr(Runtime, _name, _traced(_name, vars(Runtime)[_name]))


def _arity(method: Callable[..., Any], structure: Optional[str]) -> Tuple[int, Optional[int]]:
    """(fewest, most or None) positional arguments a PLDL call passes *method*."""
    params = list(inspect.signature(method).parameters.values())
    params = params[1 if structure is None else 2:]  # self, then the structure
    variadic = any(p.kind is p.VAR_POSITIONAL for p in params)
    required = sum(p.default is p.empty and p.kind is not p.VAR_POSITIONAL for p in params)
    return required, None if variadic else len(params)


#: Positional arity per positional-only builtin, read off its signature.
_ARITY: Dict[str, Tuple[int, Optional[int]]] = {
    name: _arity(getattr(Runtime, name), spec.structure)
    for name, spec in BUILTINS.items()
    if spec.keywords is None
}
