"""Source hygiene: every module under src/ and tests/ uses each name it
imports, and every name a module lists in ``__all__`` is bound in it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))
TESTS = sorted((ROOT / "tests").rglob("*.py"))


def _id(path: Path) -> str:
    return str(path.relative_to(SRC if SRC in path.parents else ROOT))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module -> line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _all_names(tree: ast.Module) -> list[str]:
    """The strings listed in the module's ``__all__``."""
    return [elt.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for elt in node.value.elts if isinstance(elt, ast.Constant)]


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings in ``__all__``."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return used | set(_all_names(tree))


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names bound by the module's top-level statements."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return bound


def _unused_imports(tree: ast.Module) -> list[str]:
    used = _used_names(tree)
    return [f"{name} (line {line})"
            for name, line in _imported_names(tree).items()
            if name not in used]


def _stale_exports(tree: ast.Module) -> list[str]:
    bound = _module_bindings(tree)
    return [name for name in _all_names(tree) if name not in bound]


def test_sources_found():
    assert any(path.name == "cli.py" for path in MODULES)
    assert any(path.name == "test_hygiene.py" for path in TESTS)


def test_checks_catch_what_they_name():
    tree = ast.parse("import os\nfrom x import gone\n__all__ = ['gone', 'lost']\n")
    assert _unused_imports(tree) == ["os (line 1)"]
    assert _stale_exports(tree) == ["lost"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=_id)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"unused imports in {_id(path)}: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=_id)
def test_all_names_are_bound(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    stale = _stale_exports(tree)
    assert not stale, f"__all__ of {_id(path)} lists unbound names: {stale}"
