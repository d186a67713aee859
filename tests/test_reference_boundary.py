"""Production code never reaches for the test oracles.

:mod:`repro.verify.reference` holds the slow all-pairs twins of the fast
paths (brute DRC checks, brute connectivity, the from-scratch compactor,
the PLDL tree walker).  They are oracles for tests and benchmarks only: no
module under ``src/repro`` outside ``repro/verify/`` may import that
module, and none may define or export a brute twin of its own (nor the
from-scratch compaction scans ``frontier_filter`` and ``gather_constraints``,
nor a ``TreeWalker``).
"""

import ast
import fnmatch
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
REFERENCE = "repro.verify.reference"
#: Names only the oracle module may define or export.
ORACLE_NAMES = (
    "*_brute", "_Components", "CHECKS_BRUTE", "_enclosed_by_any",
    "frontier_filter", "gather_constraints", "TreeWalker",
)


def _production_modules():
    """(path, package parts) of every module outside ``repro/verify/``."""
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        parts = list(path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts)
        if parts[:2] == ["repro", "verify"]:
            continue
        yield path, parts[:-1]


def _imported_modules(tree, package):
    """Absolute names of every module (and from-imported member) *tree*
    imports, relative imports resolved against *package*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            yield module
            for alias in node.names:
                yield f"{module}.{alias.name}"


def _bound_names(tree):
    """Names a module defines, imports or lists in ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            for element in getattr(node.value, "elts", ()):
                if isinstance(element, ast.Constant):
                    yield element.value


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_walker_resolves_relative_imports():
    tree = ast.parse(
        "from ..verify.reference import ScanCompactor\n"
        "from ..verify import reference\n"
        "import repro.verify.reference as oracles\n"
    )
    found = set(_imported_modules(tree, ["repro", "drc"]))
    assert {
        "repro.verify.reference",
        "repro.verify.reference.ScanCompactor",
        "repro.verify",
    } <= found


def test_production_never_imports_the_reference():
    offenders = []
    for path, package in _production_modules():
        for name in _imported_modules(_parse(path), package):
            if name == REFERENCE or name.startswith(REFERENCE + "."):
                offenders.append(f"{path.relative_to(PACKAGE_ROOT)}: {name}")
    assert not offenders, offenders


def test_production_defines_no_brute_twin():
    offenders = []
    checked = 0
    for path, _ in _production_modules():
        checked += 1
        for name in _bound_names(_parse(path)):
            if any(fnmatch.fnmatchcase(name, pattern) for pattern in ORACLE_NAMES):
                offenders.append(f"{path.relative_to(PACKAGE_ROOT)}: {name}")
    assert checked > 50  # the walk really covered the package
    assert not offenders, offenders
