"""The module generator environment façade.

One object wires together everything the paper's environment offers:
technology, language interpreter, successive compactor, optimizer, DRC and
output generation.  Typical use::

    env = Environment()                 # generic 1 µm BiCMOS
    env.load(CONTACT_ROW_SOURCE)        # register PLDL entities
    row = env.build("ContactRow", layer="poly", W=1.0)
    assert not env.drc(row)
    env.write_gds(row, "row.gds")
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..compact import Compactor
from ..db import LayoutObject, capacitance_report
from ..drc import Violation, run_drc
from ..io import write_gds, write_svg
from ..lang import Interpreter, translate
from ..opt import OrderOptimizer, OrderResult, Rating, Step
from ..tech import Technology, get_technology


class Environment:
    """Front door of the module generator environment."""

    def __init__(
        self,
        tech: Union[str, Technology] = "generic_bicmos_1u",
        variable_edges: bool = True,
        auto_connect: bool = True,
        rating: Optional[Rating] = None,
    ) -> None:
        self.tech = get_technology(tech) if isinstance(tech, str) else tech
        self.compactor = Compactor(
            variable_edges=variable_edges, auto_connect=auto_connect
        )
        self.rating = rating if rating is not None else Rating()
        self.interpreter = Interpreter(self.tech, self.compactor)

    # ------------------------------------------------------------------
    # language
    # ------------------------------------------------------------------
    def load(self, source: str) -> None:
        """Register the entities of a PLDL source file."""
        self.interpreter.load(source)

    def run(self, source: str) -> Dict[str, Any]:
        """Load and execute PLDL source; returns the global bindings."""
        return self.interpreter.run(source)

    def build(self, entity: str, **params: Any) -> LayoutObject:
        """Invoke a loaded entity (dimensions in microns)."""
        return self.interpreter.call(entity, **params)

    def translate(self, source: str) -> str:
        """Translate PLDL source to Python (the paper's to-C step)."""
        return translate(source)

    # ------------------------------------------------------------------
    # verification / reporting
    # ------------------------------------------------------------------
    def drc(
        self,
        obj: LayoutObject,
        include_latchup: bool = True,
    ) -> List[Violation]:
        """Run the full design-rule check."""
        return run_drc(obj, include_latchup=include_latchup)

    def rate(self, obj: LayoutObject) -> float:
        """Score a module with the environment's rating function."""
        return self.rating.evaluate(obj)

    def parasitics(self, obj: LayoutObject) -> Dict[str, float]:
        """Per-net parasitic capacitance (aF) — the paper's quality metric."""
        return capacitance_report(obj.rects, self.tech)

    def area_um2(self, obj: LayoutObject) -> float:
        """Bounding-box area in µm²."""
        return obj.area() / self.tech.dbu_per_micron ** 2

    # ------------------------------------------------------------------
    # optimization
    # ------------------------------------------------------------------
    def optimize_order(
        self, name: str, steps: Sequence[Step], **kwargs: Any
    ) -> OrderResult:
        """Search compaction orders for the best-rated result (Sec. 2.4)."""
        optimizer = OrderOptimizer(self.compactor, self.rating, **kwargs)
        return optimizer.optimize(name, self.tech, steps)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def write_gds(
        self, obj: Union[LayoutObject, Sequence[LayoutObject]], path: Union[str, Path]
    ) -> None:
        """Write GDSII output."""
        write_gds(obj, path)

    def write_svg(self, obj: LayoutObject, path: Union[str, Path], **kwargs: Any) -> None:
        """Write an SVG rendering."""
        write_svg(obj, path, **kwargs)
