"""Design-rule tables.

The environment stores every design rule in the technology description file
(Sec. 1); module source never contains a rule value.  The rule kinds needed by
the paper's primitives and checks are:

========== =====================================================================
WIDTH      minimum width of a shape on a layer
SPACE      minimum spacing between shapes (same layer or a layer pair)
ENCLOSE    minimum enclosure of an inner layer by an outer layer (INBOX/ARRAY)
EXTEND     minimum extension of one layer past another (gate poly endcaps)
CUTSIZE    the fixed square size of a cut layer (contacts, vias)
AREA       minimum area of a shape on a layer
LATCHUP    half-size of the temporary rectangle drawn around a substrate
           contact for the latch-up examination of Fig. 1
CAP        area / perimeter capacitance of a layer (electrical rating)
========== =====================================================================

All distance values are stored in database units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


def _pair(a: str, b: str) -> Tuple[str, str]:
    """Canonical unordered layer pair."""
    return (a, b) if a <= b else (b, a)


def _checked(kind: str, subject: str, value: int, positive: bool) -> int:
    """*value* as an int, or :class:`RuleError` when it is out of range."""
    value = int(value)
    if value < 0 or (positive and value == 0):
        bound = "positive" if positive else "non-negative"
        raise RuleError(f"{kind} {subject} must be {bound}, got {value} dbu")
    return value


@dataclass
class CapacitanceRule:
    """Parasitic capacitance model of a layer.

    ``area`` is in aF per dbu², ``perimeter`` in aF per dbu — only the ratio
    matters to the rating function, so the absolute unit is conventional.
    """

    area: float
    perimeter: float


class RuleSet:
    """All design rules of a technology, queryable by the primitives.

    Lookup methods return ``None`` when no rule constrains the query (the
    compactor then treats the pair as unconstrained) except where a rule is
    mandatory for the requested operation, in which case :class:`RuleError`
    is raised by the caller-facing :class:`repro.tech.Technology` wrappers.
    """

    def __init__(self) -> None:
        self._width: Dict[str, int] = {}
        self._space: Dict[Tuple[str, str], int] = {}
        self._enclose: Dict[Tuple[str, str], int] = {}
        self._extend: Dict[Tuple[str, str], int] = {}
        self._cut_size: Dict[str, int] = {}
        self._area: Dict[str, int] = {}
        self._latchup: Dict[str, int] = {}
        self._cap: Dict[str, CapacitanceRule] = {}
        self._sheet: Dict[str, float] = {}
        #: Set by :meth:`repro.tech.Technology.freeze`; registration is
        #: closed from then on, so compiled rule answers cannot go stale.
        self.frozen = False

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def require_open(self) -> None:
        """Raise :class:`RuleError` once the rule set is frozen."""
        if self.frozen:
            raise RuleError("rule registered after the technology was frozen")

    def _register(self, table: dict, key, value) -> None:
        self.require_open()
        table[key] = value

    def set_width(self, layer: str, value: int) -> None:
        """Register a minimum width (positive)."""
        value = _checked("WIDTH", layer, value, positive=True)
        self._register(self._width, layer, value)

    def set_space(self, layer_a: str, layer_b: str, value: int) -> None:
        """Register a minimum spacing (>= 0) between two (possibly equal) layers."""
        value = _checked("SPACE", f"{layer_a} {layer_b}", value, positive=False)
        self._register(self._space, _pair(layer_a, layer_b), value)

    def set_enclose(self, outer: str, inner: str, value: int) -> None:
        """Register a minimum enclosure of *inner* by *outer* (ordered; a
        negative margin lets the inner shape overhang)."""
        self._register(self._enclose, (outer, inner), int(value))

    def set_extend(self, layer: str, over: str, value: int) -> None:
        """Register a minimum extension of *layer* past *over* (ordered)."""
        self._register(self._extend, (layer, over), int(value))

    def set_cut_size(self, layer: str, value: int) -> None:
        """Register the fixed square size (positive) of a cut layer."""
        value = _checked("CUTSIZE", layer, value, positive=True)
        self._register(self._cut_size, layer, value)

    def set_area(self, layer: str, value: int) -> None:
        """Register a minimum area (>= 0)."""
        value = _checked("AREA", layer, value, positive=False)
        self._register(self._area, layer, value)

    def set_latchup(self, contact_layer: str, half_size: int) -> None:
        """Register the latch-up temporary-rectangle half size."""
        self._register(self._latchup, contact_layer, int(half_size))

    def set_capacitance(self, layer: str, area: float, perimeter: float) -> None:
        """Register the parasitic capacitance model of a layer."""
        self._register(self._cap, layer, CapacitanceRule(area, perimeter))

    def set_sheet(self, layer: str, ohms_per_square: float) -> None:
        """Register the sheet resistance of a layer (Ω/□)."""
        self._register(self._sheet, layer, float(ohms_per_square))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def width(self, layer: str) -> Optional[int]:
        """Minimum width of *layer*, or None."""
        return self._width.get(layer)

    def space(self, layer_a: str, layer_b: str) -> Optional[int]:
        """Minimum spacing between the two layers, or None."""
        return self._space.get(_pair(layer_a, layer_b))

    def enclose(self, outer: str, inner: str) -> Optional[int]:
        """Minimum enclosure of *inner* inside *outer*, or None."""
        return self._enclose.get((outer, inner))

    def extend(self, layer: str, over: str) -> Optional[int]:
        """Minimum extension of *layer* beyond *over*, or None."""
        return self._extend.get((layer, over))

    def cut_size(self, layer: str) -> Optional[int]:
        """Fixed cut size of *layer*, or None."""
        return self._cut_size.get(layer)

    def area(self, layer: str) -> Optional[int]:
        """Minimum area of *layer*, or None."""
        return self._area.get(layer)

    def latchup(self, contact_layer: str) -> Optional[int]:
        """Latch-up half-size for *contact_layer*, or None."""
        return self._latchup.get(contact_layer)

    def capacitance(self, layer: str) -> Optional[CapacitanceRule]:
        """Capacitance model of *layer*, or None."""
        return self._cap.get(layer)

    def sheet(self, layer: str) -> Optional[float]:
        """Sheet resistance of *layer* (Ω/□), or None."""
        return self._sheet.get(layer)

    def space_items(self) -> List[Tuple[Tuple[str, str], int]]:
        """All SPACE rules as ((layer_a, layer_b), value) in registration order.

        The pairs are canonical (``layer_a <= layer_b``); sweep-based
        checkers iterate exactly these pairs instead of probing every layer
        combination through :meth:`space`.
        """
        return list(self._space.items())

    def enclosing_layers(self, inner: str) -> List[str]:
        """All layers registered to enclose *inner* (used by ARRAY/INBOX)."""
        return [outer for (outer, inn) in self._enclose if inn == inner]

    # ------------------------------------------------------------------
    # iteration (file writer / introspection)
    # ------------------------------------------------------------------
    def iter_rules(self) -> Iterable[Tuple[str, tuple]]:
        """Yield (kind, payload) for every registered rule, sorted."""
        for layer, value in sorted(self._width.items()):
            yield ("WIDTH", (layer, value))
        for (a, b), value in sorted(self._space.items()):
            yield ("SPACE", (a, b, value))
        for (outer, inner), value in sorted(self._enclose.items()):
            yield ("ENCLOSE", (outer, inner, value))
        for (layer, over), value in sorted(self._extend.items()):
            yield ("EXTEND", (layer, over, value))
        for layer, value in sorted(self._cut_size.items()):
            yield ("CUTSIZE", (layer, value))
        for layer, value in sorted(self._area.items()):
            yield ("AREA", (layer, value))
        for layer, value in sorted(self._latchup.items()):
            yield ("LATCHUP", (layer, value))
        for layer, cap in sorted(self._cap.items()):
            yield ("CAP", (layer, cap.area, cap.perimeter))
        for layer, rho in sorted(self._sheet.items()):
            yield ("SHEET", (layer, rho))


class RuleError(Exception):
    """A mandatory design rule is missing or cannot be satisfied.

    The paper: "The implemented language interpreter evaluates and fulfills
    the design rules automatically.  If a rule cannot be fulfilled an error
    message occurs."  This exception is that error message.
    """
