"""Layout provenance: where did this rectangle come from?

Every rectangle and wire in a layout can carry a cheap, optional
:class:`Provenance` record answering the debugging questions the tracer's
aggregate counters cannot:

* which PLDL **entity stack** (with parameter bindings) was executing when
  the rect was created — captured by the PLDL runtime and the Python
  library builders;
* which **builtin** produced it (``INBOX``, ``ARRAY``, ``TWORECTS``, a
  ``WIRE``/``VIA`` route call, ...);
* which **compaction step** merged it into its final structure;
* its **lineage**: auto-connected rects link to the arrival that triggered
  the stretch (Fig. 5a), rebuilt array cuts link to their pre-compaction
  ancestors (Fig. 5b).

The write side mirrors the tracer exactly: a process-local
:class:`ProvenanceRecorder` that is *disabled* by default.  Hot sites
(``LayoutObject.add_rect``, the primitives, the compactor) fetch the
recorder and take one ``enabled`` check; disabled context managers are a
shared no-op object.  The cost is measured by
``benchmarks/bench_obs_overhead.py`` next to the tracer's.

Records are immutable and shared: every rect stamped under the same entity
frame and builtin holds the *same* ``Provenance`` object, so memory cost is
one slot per rect plus one small record per distinct creation context.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Provenance",
    "ProvenanceRecorder",
    "StageSnapshot",
    "get_recorder",
    "set_recorder",
    "recording",
    "provenance_entity",
    "builtin_call",
    "format_provenance",
]


def _freeze_value(value: Any) -> Any:
    """A parameter value made safe to hold forever in a shared record."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return name
    return type(value).__name__


def _freeze_params(params: Optional[Dict[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    if not params:
        return ()
    return tuple((key, _freeze_value(value)) for key, value in params.items())


class Provenance:
    """One immutable creation record, shared between rects.

    ``entities`` is the entity stack at creation time, outermost first, as
    ``(name, ((param, value), ...))`` tuples.  ``builtin`` names the
    primitive that drew the rect (``None`` for direct ``add_rect`` calls).
    ``step`` is the global compaction step that merged the rect into its
    final structure (``None`` before any merge).  ``lineage`` records
    derivations as ``(kind, ancestor)`` pairs — ``"auto_connect"`` ancestors
    are the arrival rects' records, ``"rebuild"`` ancestors the array's
    creation-time record.
    """

    __slots__ = ("entities", "builtin", "step", "lineage")

    def __init__(
        self,
        entities: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = (),
        builtin: Optional[str] = None,
        step: Optional[int] = None,
        lineage: Tuple[Tuple[str, "Provenance"], ...] = (),
    ) -> None:
        self.entities = entities
        self.builtin = builtin
        self.step = step
        self.lineage = lineage

    # ------------------------------------------------------------------
    @property
    def entity_stack(self) -> Tuple[str, ...]:
        """Just the entity names, outermost first."""
        return tuple(name for name, _ in self.entities)

    def with_step(self, step: int) -> "Provenance":
        """A copy recording the compaction step that merged the rect."""
        return Provenance(self.entities, self.builtin, step, self.lineage)

    def derived(self, kind: str, ancestor: "Provenance") -> "Provenance":
        """A copy whose lineage gains one ``(kind, ancestor)`` entry."""
        return Provenance(
            self.entities, self.builtin, self.step,
            self.lineage + ((kind, ancestor),),
        )

    # ------------------------------------------------------------------
    def describe(self, with_lineage: bool = True) -> str:
        """One-line human rendering of the full chain."""
        if self.entities:
            frames = []
            for name, params in self.entities:
                if params:
                    inner = ", ".join(f"{k}={v}" for k, v in params)
                    frames.append(f"{name}({inner})")
                else:
                    frames.append(name)
            text = " > ".join(frames)
        else:
            text = "(no entity)"
        if self.builtin:
            text += f" · {self.builtin}"
        if self.step is not None:
            text += f" · step {self.step}"
        if with_lineage:
            for kind, ancestor in self.lineage:
                text += f" · {kind} of [{ancestor.describe(with_lineage=False)}]"
        return text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Provenance({self.describe()!r})"


def format_provenance(prov: Optional[Provenance]) -> str:
    """Render a rect's provenance, tolerating unstamped rects."""
    if prov is None:
        return "(no provenance recorded)"
    return prov.describe()


# ---------------------------------------------------------------------------
class StageSnapshot:
    """One compaction stage kept for the visual run report."""

    __slots__ = ("index", "label", "obj", "meta")

    def __init__(self, index: int, label: str, obj: Any, meta: Dict[str, Any]) -> None:
        self.index = index
        self.label = label
        self.obj = obj
        self.meta = meta


class _NullContext:
    """Shared no-op context manager returned by a disabled recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _EntityContext:
    __slots__ = ("_recorder", "_name", "_params")

    def __init__(self, recorder: "ProvenanceRecorder", name: str,
                 params: Optional[Dict[str, Any]]) -> None:
        self._recorder = recorder
        self._name = name
        self._params = params

    def __enter__(self) -> "_EntityContext":
        recorder = self._recorder
        recorder._frames.append((self._name, _freeze_params(self._params)))
        recorder._cache = None
        recorder.entity_calls += 1
        return self

    def __exit__(self, *exc: Any) -> bool:
        recorder = self._recorder
        recorder._frames.pop()
        recorder._cache = None
        return False


class _BuiltinContext:
    __slots__ = ("_recorder", "_name", "_previous")

    def __init__(self, recorder: "ProvenanceRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_BuiltinContext":
        recorder = self._recorder
        self._previous = recorder._builtin
        recorder._builtin = self._name
        recorder._cache = None
        recorder.builtin_calls += 1
        return self

    def __exit__(self, *exc: Any) -> bool:
        recorder = self._recorder
        recorder._builtin = self._previous
        recorder._cache = None
        return False


class ProvenanceRecorder:
    """Collects creation context and stamps rects with shared records.

    ``enabled`` is the master switch, exactly like the tracer's: a disabled
    recorder never builds a record, and its ``entity``/``builtin`` context
    managers are a shared no-op.  ``capture_stages`` additionally snapshots
    the main structure after every compaction step (used by ``repro
    report``; off by default because snapshots are not cheap).
    """

    def __init__(
        self,
        enabled: bool = True,
        capture_stages: bool = False,
        stage_limit: int = 200,
    ) -> None:
        self.enabled = enabled
        self.capture_stages = capture_stages
        self.stage_limit = stage_limit
        #: Entity frames, outermost first: (name, frozen params).
        self._frames: List[Tuple[str, Tuple[Tuple[str, Any], ...]]] = []
        self._builtin: Optional[str] = None
        self._cache: Optional[Provenance] = None
        self._step = 0
        #: Instrumentation-site hit counts (the overhead bench reads these).
        self.stamps = 0
        self.entity_calls = 0
        self.builtin_calls = 0
        self.stages: List[StageSnapshot] = []
        self.stages_dropped = 0
        self.trials: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # context capture
    # ------------------------------------------------------------------
    def entity(self, name: str, params: Optional[Dict[str, Any]] = None):
        """Context manager pushing one entity frame (no-op when disabled)."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _EntityContext(self, name, params)

    def builtin(self, name: str):
        """Context manager naming the active builtin (no-op when disabled)."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _BuiltinContext(self, name)

    # ------------------------------------------------------------------
    # record construction and stamping
    # ------------------------------------------------------------------
    def current(self) -> Provenance:
        """The shared record for the current creation context."""
        record = self._cache
        if record is None:
            record = self._cache = Provenance(tuple(self._frames), self._builtin)
        return record

    def stamp(self, rect: Any) -> None:
        """Attach the current record to *rect* (callers check ``enabled``)."""
        rect.prov = self.current()
        self.stamps += 1

    def next_step(self) -> int:
        """Advance and return the global compaction step index (1-based)."""
        self._step += 1
        return self._step

    # ------------------------------------------------------------------
    # report inputs
    # ------------------------------------------------------------------
    def record_stage(self, obj: Any, label: str, **meta: Any) -> None:
        """Keep a snapshot of *obj* as one compaction stage."""
        if len(self.stages) >= self.stage_limit:
            self.stages_dropped += 1
            return
        self.stages.append(
            StageSnapshot(len(self.stages) + self.stages_dropped, label,
                          obj.snapshot(), meta)
        )

    def add_trial(self, **fields: Any) -> None:
        """Record one optimizer trial summary for the report's table."""
        self.trials.append(fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (
            f"ProvenanceRecorder({state}, frames={len(self._frames)},"
            f" stamps={self.stamps})"
        )


#: The process recorder: disabled until someone installs a live one.
_PROCESS_RECORDER = ProvenanceRecorder(enabled=False)


def get_recorder() -> ProvenanceRecorder:
    """The process-local provenance recorder (disabled by default)."""
    return _PROCESS_RECORDER


def set_recorder(recorder: ProvenanceRecorder) -> ProvenanceRecorder:
    """Install *recorder* as the process recorder; returns the previous one."""
    global _PROCESS_RECORDER
    previous = _PROCESS_RECORDER
    _PROCESS_RECORDER = recorder
    return previous


class recording:
    """``with recording(recorder):`` — install a recorder for the block."""

    def __init__(self, recorder: ProvenanceRecorder) -> None:
        self.recorder = recorder
        self._previous: Optional[ProvenanceRecorder] = None

    def __enter__(self) -> ProvenanceRecorder:
        self._previous = set_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc: Any) -> bool:
        assert self._previous is not None
        set_recorder(self._previous)
        return False


# ---------------------------------------------------------------------------
# decorators for the Python-side builders and primitives
# ---------------------------------------------------------------------------
def provenance_entity(name: Optional[str] = None) -> Callable:
    """Decorator: run the builder under an entity frame named *name*.

    The Python library builders (``mos_transistor``, the amplifier blocks,
    ...) are the paper's entities written in the host language; this gives
    their rects the same entity-stack capture the interpreter provides for
    PLDL entities.  Keyword arguments become the frame's parameter bindings.
    With the recorder disabled the wrapper costs one attribute check.
    """

    def decorate(func: Callable) -> Callable:
        label = name if name is not None else func.__name__

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            recorder = _PROCESS_RECORDER
            if not recorder.enabled:
                return func(*args, **kwargs)
            with recorder.entity(label, kwargs):
                return func(*args, **kwargs)

        return wrapper

    return decorate


def builtin_call(name: str) -> Callable:
    """Decorator: mark every rect the function creates as built by *name*.

    Applied to the geometry primitives (``INBOX``, ``ARRAY``, ``WIRE``, ...)
    so the originating builtin is captured no matter the entry path — PLDL
    or direct Python.  Nested primitives
    (a via stack drawing plates) record the innermost builtin.
    """

    def decorate(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            recorder = _PROCESS_RECORDER
            if not recorder.enabled:
                return func(*args, **kwargs)
            with recorder.builtin(name):
                return func(*args, **kwargs)

        return wrapper

    return decorate
