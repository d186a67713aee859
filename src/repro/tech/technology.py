"""The Technology object: layers + rules + connectivity + units.

Primitives and the compactor never hard-code a dimension; everything is
looked up here, which is what makes module source technology independent.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from .layer import Layer, LayerKind
from .rules import CapacitanceRule, RuleError, RuleSet


class PairRules(NamedTuple):
    """The compiled rule answers for one ordered layer pair ``(a, b)``."""

    #: ``SPACE a b``, or None when the pair is unconstrained.
    space: Optional[int]
    #: Same-net shapes on the two layers may merge by abutment.
    connectable: bool
    #: Both layers carry electrical potentials.
    conducting: bool
    #: ``EXTEND a b`` (a past b), or None.
    extend: Optional[int]
    #: ``EXTEND b a`` (b past a), or None.
    extended_by: Optional[int]


class RuleTable(dict):
    """Ordered layer pair -> :class:`PairRules` for every pair of defined
    layers; a pair naming an undefined layer raises :class:`RuleError`.

    Empty until :meth:`Technology.freeze` fills it; a lookup in the table
    of an unfrozen technology freezes it first.
    """

    def __init__(self, tech: "Technology") -> None:
        super().__init__()
        self.tech = tech

    def __missing__(self, pair: Tuple[str, str]) -> PairRules:
        if not self.tech.rules.frozen:
            self.tech.freeze()
            return self[pair]
        raise RuleError(
            f"layer pair {pair!r} names a layer not defined in"
            f" technology {self.tech.name!r}"
        )


class Technology:
    """A process technology: named layers, design rules, connectivity.

    ``dbu_per_micron`` fixes the database grid; rule values supplied through
    the micron-based helpers are snapped to integers on that grid.

    Layers, connections and rules are registered first; :meth:`freeze`
    then compiles the derived answers once and closes registration.
    ``loads_tech`` and the builtin factories return frozen technologies;
    a hand-built one freezes on its first :attr:`table` lookup.
    """

    def __init__(self, name: str, dbu_per_micron: int = 1000) -> None:
        if dbu_per_micron <= 0:
            raise ValueError("dbu_per_micron must be positive")
        self.name = name
        self.dbu_per_micron = int(dbu_per_micron)
        self.rules = RuleSet()
        self._layers: Dict[str, Layer] = {}
        # cut layer -> (bottom conducting layer(s), top layer)
        self._connections: List[Tuple[str, str, str]] = []
        # layer pairs whose overlap is a diffused junction (e.g. an n+
        # sinker into a buried collector): overlap = electrical connection.
        self._overlap_connections: List[Tuple[str, str]] = []
        #: The compiled per-layer-pair rules (see :meth:`freeze`).
        self.table = RuleTable(self)

    def freeze(self) -> "Technology":
        """Compile the rule table and close registration; returns *self*.

        One pass over every ordered pair of defined layers fills
        :attr:`table` (:class:`PairRules`), and sets :attr:`space_rules`
        (every SPACE rule as ``(layer_a, layer_b, value)``, canonical
        ``layer_a <= layer_b``, in registration order) and
        :attr:`max_space_radius` (the largest SPACE value, 0 without any —
        the dilation radius of the sweep indexes); those two exist from
        the freeze on.  Afterwards every registration raises
        :class:`RuleError`, so no compiled answer can go stale.  Freezing
        twice is a no-op.
        """
        rules = self.rules
        if rules.frozen:
            return self
        for a, layer_a in self._layers.items():
            for b, layer_b in self._layers.items():
                self.table[(a, b)] = PairRules(
                    rules.space(a, b),
                    a == b or self.cut_between(a, b) is not None,
                    layer_a.conducting and layer_b.conducting,
                    rules.extend(a, b),
                    rules.extend(b, a),
                )
        self.space_rules = tuple(
            (a, b, value) for (a, b), value in rules.space_items()
        )
        self.max_space_radius = max(
            (value for _, _, value in self.space_rules), default=0
        )
        rules.frozen = True
        return self

    def _require_layers(self, *names: str) -> None:
        """Raise :class:`RuleError` for an undefined name or after freezing."""
        self.rules.require_open()
        for name in names:
            self.layer(name)

    # ------------------------------------------------------------------
    # units
    # ------------------------------------------------------------------
    def um(self, microns: float) -> int:
        """Convert microns to database units (rounded to the grid)."""
        return int(round(microns * self.dbu_per_micron))

    def to_um(self, dbu: float) -> float:
        """Convert database units back to microns."""
        return dbu / self.dbu_per_micron

    # ------------------------------------------------------------------
    # layers
    # ------------------------------------------------------------------
    def add_layer(self, layer: Layer) -> Layer:
        """Register a layer; duplicate names are an error."""
        self.rules.require_open()
        if layer.name in self._layers:
            raise ValueError(f"layer {layer.name!r} already defined")
        self._layers[layer.name] = layer
        return layer

    def layer(self, name: str) -> Layer:
        """Look up a layer by name; unknown names raise ``RuleError``."""
        try:
            return self._layers[name]
        except KeyError:
            raise RuleError(
                f"layer {name!r} is not defined in technology {self.name!r}"
            ) from None

    def has_layer(self, name: str) -> bool:
        """True when *name* is a known layer."""
        return name in self._layers

    @property
    def layers(self) -> List[Layer]:
        """All layers in registration order."""
        return list(self._layers.values())

    def layers_of_kind(self, kind: LayerKind) -> List[Layer]:
        """All layers of the given functional kind."""
        return [layer for layer in self._layers.values() if layer.kind is kind]

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def add_connection(self, cut_layer: str, bottom: str, top: str) -> None:
        """Declare that *cut_layer* connects *bottom* to *top* electrically."""
        self._require_layers(cut_layer, bottom, top)
        self._connections.append((cut_layer, bottom, top))

    def add_overlap_connection(self, layer_a: str, layer_b: str) -> None:
        """Declare that overlapping shapes of the two layers connect.

        Models diffused junctions (sinker into buried layer); consumed by
        the connectivity extractor.
        """
        self._require_layers(layer_a, layer_b)
        self._overlap_connections.append((layer_a, layer_b))

    def overlap_connected(self, layer_a: str, layer_b: str) -> bool:
        """True when overlap of the two layers is a declared junction."""
        return (layer_a, layer_b) in self._overlap_connections or (
            layer_b,
            layer_a,
        ) in self._overlap_connections

    def overlap_connections(self) -> List[Tuple[str, str]]:
        """All declared diffused-junction layer pairs, in declaration order.

        The indexed connectivity extractor sweeps exactly these pairs
        instead of asking :meth:`overlap_connected` for every rect pair.
        """
        return list(self._overlap_connections)

    def connected_layers(self, cut_layer: str) -> List[Tuple[str, str]]:
        """(bottom, top) pairs a cut layer connects."""
        return [(b, t) for (c, b, t) in self._connections if c == cut_layer]

    def cut_between(self, layer_a: str, layer_b: str) -> Optional[str]:
        """The cut layer connecting two conducting layers, or None."""
        for cut, bottom, top in self._connections:
            if {bottom, top} == {layer_a, layer_b}:
                return cut
        return None

    def connectable(self, layer_a: str, layer_b: str) -> bool:
        """True when same-net shapes on the two layers may merge by abutment.

        Holds for equal layers and for layer pairs a declared cut joins.
        Deliberately NOT true for a cut layer against its plate layer: the
        contact-to-gate spacing rule applies regardless of potential, so the
        compactor must keep enforcing it (a same-net contact still may not
        sit 0.5 µm from a gate edge).
        """
        return self.table[(layer_a, layer_b)].connectable

    # ------------------------------------------------------------------
    # mandatory-rule accessors (raise when the rule is missing)
    # ------------------------------------------------------------------
    def min_width(self, layer: str) -> int:
        """Minimum width; mandatory for any layer geometry is drawn on."""
        self.layer(layer)
        value = self.rules.width(layer)
        if value is None:
            raise RuleError(f"no WIDTH rule for layer {layer!r} in {self.name!r}")
        return value

    def min_space(self, layer_a: str, layer_b: str) -> Optional[int]:
        """Minimum spacing between two layers; None when unconstrained."""
        return self.table[(layer_a, layer_b)].space

    def enclosure(self, outer: str, inner: str) -> int:
        """Mandatory enclosure of *inner* by *outer*."""
        value = self.rules.enclose(outer, inner)
        if value is None:
            raise RuleError(
                f"no ENCLOSE rule for {outer!r} around {inner!r} in {self.name!r}"
            )
        return value

    def enclosure_or_zero(self, outer: str, inner: str) -> int:
        """Enclosure value, defaulting to 0 when no rule exists."""
        value = self.rules.enclose(outer, inner)
        return 0 if value is None else value

    def extension(self, layer: str, over: str) -> int:
        """Mandatory extension of *layer* past *over* (e.g. gate endcap)."""
        value = self.rules.extend(layer, over)
        if value is None:
            raise RuleError(
                f"no EXTEND rule for {layer!r} over {over!r} in {self.name!r}"
            )
        return value

    def cut_size(self, layer: str) -> int:
        """Mandatory fixed size of a cut layer."""
        value = self.rules.cut_size(layer)
        if value is None:
            raise RuleError(f"no CUTSIZE rule for layer {layer!r} in {self.name!r}")
        return value

    def latchup_half_size(self, contact_layer: str) -> int:
        """Mandatory latch-up temporary-rectangle half size."""
        value = self.rules.latchup(contact_layer)
        if value is None:
            raise RuleError(
                f"no LATCHUP rule for layer {contact_layer!r} in {self.name!r}"
            )
        return value

    def capacitance(self, layer: str) -> CapacitanceRule:
        """Capacitance model, defaulting to zero when unspecified."""
        model = self.rules.capacitance(layer)
        return model if model is not None else CapacitanceRule(0.0, 0.0)

    def sheet_rho(self, layer: str) -> float:
        """Sheet resistance (Ω/□), defaulting to zero when unspecified.

        The paper's partitioning considers "poly-wire resistance"; the
        estimators in :mod:`repro.db.nets` use this value.
        """
        rho = self.rules.sheet(layer)
        return rho if rho is not None else 0.0

    # ------------------------------------------------------------------
    # micron-based rule registration sugar (used by builtin technologies)
    # ------------------------------------------------------------------
    def rule_width(self, layer: str, microns: float) -> None:
        """Register a WIDTH rule given in microns."""
        self._require_layers(layer)
        self.rules.set_width(layer, self.um(microns))

    def rule_space(self, layer_a: str, layer_b: str, microns: float) -> None:
        """Register a SPACE rule given in microns."""
        self._require_layers(layer_a, layer_b)
        self.rules.set_space(layer_a, layer_b, self.um(microns))

    def rule_enclose(self, outer: str, inner: str, microns: float) -> None:
        """Register an ENCLOSE rule given in microns."""
        self._require_layers(outer, inner)
        self.rules.set_enclose(outer, inner, self.um(microns))

    def rule_extend(self, layer: str, over: str, microns: float) -> None:
        """Register an EXTEND rule given in microns."""
        self._require_layers(layer, over)
        self.rules.set_extend(layer, over, self.um(microns))

    def rule_cut_size(self, layer: str, microns: float) -> None:
        """Register a CUTSIZE rule given in microns."""
        self._require_layers(layer)
        self.rules.set_cut_size(layer, self.um(microns))

    def rule_area(self, layer: str, square_microns: float) -> None:
        """Register an AREA rule given in µm²."""
        self._require_layers(layer)
        self.rules.set_area(layer, int(round(square_microns * self.dbu_per_micron ** 2)))

    def rule_latchup(self, contact_layer: str, microns: float) -> None:
        """Register a LATCHUP rule given in microns."""
        self._require_layers(contact_layer)
        self.rules.set_latchup(contact_layer, self.um(microns))

    def __repr__(self) -> str:
        return f"Technology({self.name!r}, layers={len(self._layers)})"
