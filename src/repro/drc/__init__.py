"""Design-rule checking, including the Fig. 1 latch-up examination."""

from .checker import (
    CHECKS,
    check_areas,
    check_enclosures,
    check_extensions,
    check_shorts,
    check_spacing,
    check_widths,
    run_drc,
)
from .index import DrcIndex
from .latchup import (
    check_latchup,
    insert_protection_contacts,
    temporary_rectangles,
    uncovered_active_area,
)
from .violations import Violation, format_report

__all__ = [
    "CHECKS",
    "DrcIndex",
    "check_areas",
    "check_enclosures",
    "check_extensions",
    "check_shorts",
    "check_spacing",
    "check_widths",
    "run_drc",
    "check_latchup",
    "insert_protection_contacts",
    "temporary_rectangles",
    "uncovered_active_area",
    "Violation",
    "format_report",
]
