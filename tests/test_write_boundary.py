"""Every rect write in ``src/repro`` goes through its ``LayoutObject``.

A layout object's rect store and link solver stay exact only because
each write reaches them: ``set_rect`` for coordinates, ``tag_rect`` for a
net or ``no_overlap`` flag, ``restore`` for an ALT rollback.  Outside
``repro/db`` (the object and its links) and ``repro/geometry`` (the
``Rect`` class itself), no module may assign a rect field on anything but
``self``, assign the ``rects``, ``links`` or ``labels`` of anything but
``self``, or call ``invalidate_index``.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
EXEMPT = ("db", "geometry")
RECT_FIELDS = {"x1", "y1", "x2", "y2", "net", "layer", "no_overlap"}
LISTS = {"rects", "links", "labels"}


def _targets(node):
    """Every assigned expression of an assignment, tuples unpacked."""
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        stack = [node.target]
    elif isinstance(node, ast.comprehension):
        stack = [node.target]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


def _is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def violations(source, name):
    found = []
    for node in ast.walk(ast.parse(source)):
        for target in _targets(node):
            if (
                isinstance(target, ast.Attribute)
                and target.attr in RECT_FIELDS | LISTS
                and not _is_self(target.value)
            ):
                found.append(f"{name}:{target.lineno} assigns .{target.attr}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "invalidate_index"
        ):
            found.append(f"{name}:{node.lineno} calls invalidate_index")
    return found


def test_rect_writes_go_through_the_layout_object():
    found = []
    for path in sorted(ROOT.rglob("*.py")):
        relative = path.relative_to(ROOT)
        if relative.parts[0] in EXEMPT:
            continue
        found += violations(path.read_text(encoding="utf-8"), str(relative))
    assert found == []


def test_the_rule_sees_every_form_of_write():
    source = "\n".join([
        "rect.x1 = 0",
        "rect.y2 += 5",
        "a.net, b.layer = 'n', 'm'",
        "for obj.no_overlap in (True,): pass",
        "obj.rects = []",
        "obj.links: list = []",
        "(obj.labels, x) = ([], 1)",
        "obj.invalidate_index()",
        "self.x1 = 0",
        "self.rects = []",
        "rect.prov = None",
    ])
    found = violations(source, "m")
    assert [line.split(" ", 1)[0] for line in found] == [
        f"m:{n}" for n in (1, 2, 3, 3, 4, 5, 6, 7, 8)
    ]
