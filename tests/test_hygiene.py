"""Source hygiene: every module under src/ and tests/ uses each name it
imports, every name a module lists in ``__all__`` is bound in it, and every
exported name has a reader under src/ or perfbench/ or serves a lab check."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))
TESTS = sorted((ROOT / "tests").rglob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").rglob("*.py"))

# Exported names that no module under src/ or perfbench/ reads, kept because
# an acceptance check or a README promise rests on them.
LAB_CHECKS = (
    "band_projections",  # README: Littlewood-Paley blocks, P_<=j + P_>=j+1 = Id
    "bilinear_G_direct",  # acceptance 2; README: the kernel in two forms
    "bilinear_G_projected",  # acceptance 2
    "convolution_power",  # acceptance 9
    "convolution_power_oracle",  # acceptance 9
    "duhamel_residual",  # acceptance 6; README: Duhamel-form self-verification
    "free_evolve",  # acceptance 1; README: the free propagator
    "kernel_bracket_4n",  # acceptance 7a/7b; README: the analytic bracket
    "lemma_triplets",  # README: triplets with machine-checked side conditions
    "lp_block",  # acceptance 1
    "minimal_power",  # acceptance 3; README: re-derives the minimal power 12
    "plane_wave_growth_exponent",  # acceptance 8
    "step",  # README: integrating-factor RK4, one step as a Field map
    "tilde_projection",  # acceptance 1
)


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


def _names_read(tree: ast.Module) -> set[str]:
    """Names the module reads as a Name or an Attribute, leaving out what a
    top-level definition reads of its own name."""
    read = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != own:
                read.add(name)
    return read


def _unread_exports(modules: list[ast.Module], readers: list[ast.Module]) -> set[str]:
    """Names some module lists in ``__all__`` that no reader reads."""
    read = set().union(*map(_names_read, readers))
    return {name for tree in modules for name in _all_names(tree)} - read


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
    lib = ast.parse("__all__ = ['used', 'unused', 'loop']\n"
                    "def loop(n):\n    return loop(n - 1)\n")
    user = ast.parse("import lib\nlib.used()\n")
    assert _unread_exports([lib], [lib, user]) == {"unused", "loop"}


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


def test_every_export_has_a_reader_or_a_lab_check():
    src = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    bench = [ast.parse(path.read_text(), filename=str(path)) for path in PERFBENCH]
    unread = _unread_exports(src, src + bench)
    assert not unread - set(LAB_CHECKS), (
        f"exported but read by no module under src/ or perfbench/: "
        f"{sorted(unread - set(LAB_CHECKS))}; delete them or name the check "
        f"they serve in LAB_CHECKS")
    assert not set(LAB_CHECKS) - unread, (
        f"LAB_CHECKS lists names that now have a reader or are gone: "
        f"{sorted(set(LAB_CHECKS) - unread)}")
