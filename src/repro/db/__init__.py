"""Layout database: hierarchical objects, rebuild links, connectivity."""

from .links import ArrayLink, InsideLink, Link
from .netindex import ConnectivityIndex
from .nets import (
    DisjointSet,
    capacitance_report,
    estimate_net_capacitance,
    estimate_net_resistance,
    extract_connectivity,
    net_is_connected,
    rc_report,
)
from .object import Label, LayoutObject

__all__ = [
    "ArrayLink",
    "InsideLink",
    "Link",
    "ConnectivityIndex",
    "DisjointSet",
    "capacitance_report",
    "estimate_net_capacitance",
    "estimate_net_resistance",
    "extract_connectivity",
    "net_is_connected",
    "rc_report",
    "Label",
    "LayoutObject",
]
