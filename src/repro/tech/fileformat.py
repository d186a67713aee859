"""Text format for technology description files.

"The design rules are stored in a technology description file" (Sec. 1).
The format is line-based; distances are given in microns and converted to
database units via the file's ``UNITS`` declaration::

    # comment
    TECH generic_bicmos_1u
    UNITS 1000                        # database units per micron
    LAYER poly 10 poly hatch-right #cc2222
    LAYER contact 40 cut cross-hatch #222222
    CONNECT contact poly metal1       # cut layer joins bottom to top
    RULE WIDTH poly 1.0
    RULE SPACE poly poly 1.2
    RULE ENCLOSE metal1 contact 0.5
    RULE EXTEND poly pdiff 1.0
    RULE CUTSIZE contact 1.0
    RULE AREA metal1 4.0
    RULE LATCHUP subcontact 50.0
    RULE CAP poly 60 50               # aF/µm² area, aF/µm perimeter
    RULE SHEET poly 25                # Ω per square
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from .layer import Layer, LayerKind
from .rules import RuleError
from .technology import Technology


class TechFileError(Exception):
    """Malformed technology description file."""


def loads_tech(text: str) -> Technology:
    """Parse a technology from its text representation."""
    tech: Technology = None  # type: ignore[assignment]
    dbu = 1000

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokens(raw)
        if not tokens:
            continue
        keyword = tokens[0].upper()
        try:
            if keyword == "TECH":
                tech = Technology(tokens[1], dbu_per_micron=dbu)
            elif keyword == "UNITS":
                dbu = int(tokens[1])
                if tech is not None:
                    tech.dbu_per_micron = dbu
            elif keyword == "LAYER":
                _require(tech, keyword, lineno)
                name, gds, kind = tokens[1], int(tokens[2]), tokens[3]
                pattern = tokens[4] if len(tokens) > 4 else "solid"
                color = tokens[5] if len(tokens) > 5 else "#888888"
                tech.add_layer(Layer(name, gds, LayerKind(kind), pattern, color))
            elif keyword == "CONNECT":
                _require(tech, keyword, lineno)
                tech.add_connection(tokens[1], tokens[2], tokens[3])
            elif keyword == "OVERLAP":
                _require(tech, keyword, lineno)
                tech.add_overlap_connection(tokens[1], tokens[2])
            elif keyword == "RULE":
                _require(tech, keyword, lineno)
                _parse_rule(tech, tokens[1:], lineno)
            else:
                raise TechFileError(f"line {lineno}: unknown keyword {keyword!r}")
        except (IndexError, ValueError, RuleError) as exc:
            raise TechFileError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc

    if tech is None:
        raise TechFileError("file contains no TECH declaration")
    return tech.freeze()


def _tokens(raw: str) -> List[str]:
    """The tokens of one line before its comment.

    A ``#`` starts a comment only where it begins a token, and never in
    the colour field (token 5) of a ``LAYER`` line: ``#cc2222`` is data.
    """
    tokens = raw.split()
    for index, token in enumerate(tokens):
        if token.startswith("#") and not (
            index == 5 and tokens[0].upper() == "LAYER"
        ):
            return tokens[:index]
    return tokens


def _require(tech: Technology, keyword: str, lineno: int) -> None:
    if tech is None:
        raise TechFileError(f"line {lineno}: {keyword} before TECH declaration")


def _parse_rule(tech: Technology, tokens: List[str], lineno: int) -> None:
    kind = tokens[0].upper()
    if kind == "WIDTH":
        tech.rule_width(tokens[1], float(tokens[2]))
    elif kind == "SPACE":
        tech.rule_space(tokens[1], tokens[2], float(tokens[3]))
    elif kind == "ENCLOSE":
        tech.rule_enclose(tokens[1], tokens[2], float(tokens[3]))
    elif kind == "EXTEND":
        tech.rule_extend(tokens[1], tokens[2], float(tokens[3]))
    elif kind == "CUTSIZE":
        tech.rule_cut_size(tokens[1], float(tokens[2]))
    elif kind == "AREA":
        tech.rule_area(tokens[1], float(tokens[2]))
    elif kind == "LATCHUP":
        tech.rule_latchup(tokens[1], float(tokens[2]))
    elif kind == "CAP":
        tech.layer(tokens[1])
        um2 = tech.dbu_per_micron ** 2
        tech.rules.set_capacitance(
            tokens[1],
            float(tokens[2]) / um2,
            float(tokens[3]) / tech.dbu_per_micron,
        )
    elif kind == "SHEET":
        tech.layer(tokens[1])
        tech.rules.set_sheet(tokens[1], float(tokens[2]))
    else:
        raise TechFileError(f"line {lineno}: unknown rule kind {kind!r}")


def load_tech(path: Union[str, Path]) -> Technology:
    """Load a technology description file from disk."""
    return loads_tech(Path(path).read_text(encoding="utf-8"))


def dumps_tech(tech: Technology) -> str:
    """Serialise a technology back to the text format (round-trippable)."""
    lines: List[str] = [
        f"# technology description file — {tech.name}",
        f"UNITS {tech.dbu_per_micron}",
        f"TECH {tech.name}",
    ]
    for layer in tech.layers:
        lines.append(
            f"LAYER {layer.name} {layer.gds_number} {layer.kind.value}"
            f" {layer.fill_pattern} {layer.color}"
        )
    for cut, bottom, top in tech._connections:
        lines.append(f"CONNECT {cut} {bottom} {top}")
    for layer_a, layer_b in tech._overlap_connections:
        lines.append(f"OVERLAP {layer_a} {layer_b}")
    dbu = tech.dbu_per_micron
    for kind, payload in tech.rules.iter_rules():
        if kind == "CAP":
            layer, area, perim = payload
            lines.append(f"RULE CAP {layer} {area * dbu ** 2:g} {perim * dbu:g}")
        elif kind == "SHEET":
            layer, rho = payload
            lines.append(f"RULE SHEET {layer} {rho:g}")
        elif kind in ("WIDTH", "CUTSIZE", "LATCHUP"):
            layer, value = payload
            lines.append(f"RULE {kind} {layer} {value / dbu:g}")
        elif kind == "AREA":
            layer, value = payload
            lines.append(f"RULE AREA {layer} {value / dbu ** 2:g}")
        else:  # SPACE / ENCLOSE / EXTEND: two layers + value
            a, b, value = payload
            lines.append(f"RULE {kind} {a} {b} {value / dbu:g}")
    return "\n".join(lines) + "\n"


def dump_tech(tech: Technology, path: Union[str, Path]) -> None:
    """Write a technology description file to disk."""
    Path(path).write_text(dumps_tech(tech), encoding="utf-8")
