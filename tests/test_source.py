"""Static checks on the package source, standard library only."""

import ast
from pathlib import Path

import hyperbernardi

PACKAGE = Path(hyperbernardi.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never references by name (a
    ``__future__`` import is a directive, not a name)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_detected():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(c)\n"
    assert unused_imports(source) == ["line 3: d", "line 1: os", "line 2: system"]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}
