"""Every public module-level name in gavel is used somewhere in gavel.

A function, class or constant that only tests reach is a mode the pipeline
does not run; this test fails on the first one that appears. A name counts
as used when other code in `src/gavel/` loads it, or when a module docstring
documents it in backticks as part of the library's interface (as the
segmenter's docstring does for `reconstruct`, the losslessness check).

Likewise every field of every dataclass in gavel is read somewhere: a field
that is only ever written holds data nothing looks at. And every public
method or property of a gavel class is called from gavel itself.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "gavel"
TESTS = Path(__file__).parent


def _defined(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _used(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_module_level_name_is_referenced():
    definitions = []  # (module, name)
    uses = []  # (module, names defined by the statement, names it uses)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        documented = re.findall(r"`(?:\w+\.)?(\w+)`", ast.get_docstring(tree) or "")
        uses.append((path.stem, set(), set(documented)))
        for stmt in tree.body:
            defined = _defined(stmt)
            definitions.extend((path.stem, name) for name in defined if not name.startswith("_"))
            uses.append((path.stem, defined, _used(stmt)))
    dead = [
        f"{module}.{name}"
        for module, name in definitions
        if not any(name in used and not (where == module and name in defined) for where, defined, used in uses)
    ]
    assert dead == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    """A field counts as read when some attribute load names it, or some string literal
    equals it (which covers `getattr` over a list of field names, as with META_COLUMNS)."""
    fields = []  # (class, field)
    read = set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and path.parent == SRC and _is_dataclass(node):
                fields.extend(
                    (node.name, stmt.target.id)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    assert len(fields) > 50
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []


def test_every_public_method_is_called():
    """A public method or property of a gavel class counts as called when some
    attribute load in `src/gavel/` names it; one that only tests reach is a
    mode the pipeline does not run."""
    methods = []  # (class, method)
    loaded = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.extend(
                    (node.name, stmt.name)
                    for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("_")
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    assert len(methods) > 5
    assert [f"{cls}.{name}" for cls, name in methods if name not in loaded] == []
