"""Source hygiene: every module under src/ and tests/ uses each name it
imports, every name a module lists in ``__all__`` is bound in it, every
public function or class of a module with an ``__all__`` is listed there (of
an ``experiments`` submodule, in the package's), every exported name has a
reader under src/ or perfbench/ or serves a lab check, and so does every
public method or property of a public class under src/ (read as an attribute
outside its own definition) and every option (a defaulted parameter or
dataclass field).  An option that the CLI feeds from a run's config counts
as set only if a config in README.md or perfbench/ gives that key another
value.  A private top-level name under src/ needs a reader under src/ or
perfbench/: code that only tests read belongs in tests/.  Outside
spectral.py no exp call under src/ reads _SIGMA: the propagator phase is
spectral._phases; nor does any module under src/ read the shifted transforms
_forward, _inverse or the grid's .signs: the (-1)^m convention lives in
spectral.py.  Only cli.py writes files: the run artifacts have one owner.
Only reporting.py builds the verdict strings "PASS" and "FAIL": a verdict is
ExperimentReport.verdict, the conjunction of a run's named checks.  No
function under src/ declares global or mutates a module-level name: src/
keeps no state between calls."""

import ast
import configparser
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))
TESTS = sorted((ROOT / "tests").rglob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").rglob("*.py"))
EXPERIMENTS = SRC / "gbolab" / "experiments"

# Exported names, and public methods or properties as "Class.name", that no
# module under src/ or perfbench/ reads, kept because an acceptance check or a
# README promise rests on them.
LAB_CHECKS = (
    "band_projections",  # README operator: Littlewood-Paley blocks, P_<=j + P_>=j+1 = Id
    "bilinear_G_direct",  # acceptance 2; README: the kernel in two forms
    "bilinear_G_projected",  # acceptance 2
    "duhamel_residual",  # acceptance 6; README: Duhamel-form self-verification
    "free_evolve",  # README operator: the free propagator; acceptance 1
    "hilbert",  # README operator; acceptance 1: i·H = P₊ − P₋
    "lemma_triplets",  # README: triplets with machine-checked side conditions
    "lp_block",  # README operator: Littlewood-Paley blocks; acceptance 1
    "minimal_power",  # acceptance 3; README: re-derives the minimal power 12
    "plane_wave_growth_exponent",  # acceptance 8
    "tilde_projection",  # README operator: Littlewood-Paley blocks; acceptance 1
)

# Options, as "owner.name", that nothing under src/ or perfbench/ sets, kept
# because a check needs values other than the default.
OPTION_CHECKS = (
    "torus_duhamel_oracle.modes_per_alpha",  # three comb geometries against the full-line reference
    "estimate_ladder.n_time",  # test_integer_inputs_are_integers: kato_ladder at n_time 32
    "estimate_ladder.s",  # test_xst_group_ladder at s = 0.3 and 0.45
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


def _unread_privates(modules: list[ast.Module], readers: list[ast.Module]) -> set[str]:
    """Private names that a module's top-level function, class or assignment
    binds and that no reader reads outside that definition."""
    read = set().union(*map(_names_read, readers))
    defined = {name for tree in modules for node in tree.body
               if not isinstance(node, (ast.Import, ast.ImportFrom))
               for name in _module_bindings(ast.Module([node], []))}
    return {name for name in defined
            if name.startswith("_") and not name.startswith("__")} - read


def _attributes_read(node: ast.AST, inside: frozenset = frozenset()) -> set[str]:
    """Attribute names read under node, leaving out what a function reads of
    its own name (or of the name of a function that encloses it)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside = inside | {node.name}
    read = set()
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        read = {node.attr} - inside
    for child in ast.iter_child_nodes(node):
        read |= _attributes_read(child, inside)
    return read


def _unread_methods(modules: list[ast.Module], readers: list[ast.Module]) -> set[str]:
    """"Class.name" of each public method or property of a public class that
    no reader reads as an attribute outside the method's own definition."""
    read = set().union(*map(_attributes_read, readers))
    return {f"{cls.name}.{fn.name}" for tree in modules for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not fn.name.startswith("_") and fn.name not in read}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(ast.unparse(d).split("(")[0].endswith("dataclass")
               for d in node.decorator_list)


def _options(modules: list[ast.Module]) -> dict[str, tuple[int | None, ast.expr]]:
    """Every option of the modules' public functions, methods and
    dataclasses: "owner.name" -> (positional index or None, default's node).
    A method's index leaves out self; a dataclass field counts the fields
    of the dataclass bases named in the same modules first."""
    options, fields = {}, {}

    def add_function(owner: str, fn: ast.FunctionDef, skip: int) -> None:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index, default in enumerate(args.defaults, start=first):
            options[f"{owner}.{positional[index].arg}"] = (index - skip, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                options[f"{owner}.{arg.arg}"] = (None, default)

    classes = [node for tree in modules for node in tree.body
               if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
    for tree in modules:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                add_function(node.name, node, 0)
    for cls in classes:
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                add_function(node.name, node, 1)
        if _is_dataclass(cls):
            fields[cls.name] = [n for n in cls.body if isinstance(n, ast.AnnAssign)]
    for cls in classes:
        if cls.name not in fields:
            continue
        inherited = [f for base in cls.bases
                     for f in fields.get(getattr(base, "id", ""), [])]
        for index, node in enumerate(inherited + fields[cls.name]):
            value = node.value
            if node in inherited or value is None:
                continue
            if isinstance(value, ast.Call) and ast.unparse(value.func) == "field":
                given = {kw.arg: kw.value for kw in value.keywords}
                value = given.get("default", given.get("default_factory"))
                if value is None:
                    continue
            options[f"{cls.name}.{node.target.id}"] = (index, value)
    return options


def _dispatch_sections(tree: ast.Module) -> dict[int, str]:
    """id of each call that a dispatch-table entry makes -> the entry's key.
    A dispatch table is a dict of string keys whose values are lambdas or
    names of the module's top-level functions; an entry's calls are those in
    its lambda or in the named function."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    owners = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Dict) and node.keys and all(
                isinstance(k, ast.Constant) and isinstance(k.value, str) for k in node.keys)):
            continue
        bodies = [v if isinstance(v, ast.Lambda) else functions.get(getattr(v, "id", None))
                  for v in node.values]
        if None in bodies:
            continue
        for key, body in zip(node.keys, bodies):
            owners.update({id(call): key.value for call in ast.walk(body)
                           if isinstance(call, ast.Call)})
    return owners


def _config_key(value: ast.expr) -> str | None:
    """The key a value reads from a run's parameters, as in ``p["key"]``."""
    index = getattr(value, "slice", None)
    if isinstance(index, ast.Constant) and isinstance(index.value, str):
        return index.value
    return None


def _literal(value):
    """A config value or an option's default node as a Python value: an INI
    string that is no literal stays a string, and a default that is no
    literal (say ``np.inf``) reads as None."""
    if not isinstance(value, (str, ast.AST)):
        return value
    try:
        return ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return value if isinstance(value, str) else None


def _unset_options(modules: list[ast.Module], readers: list[ast.Module],
                   configs: dict[str, dict[str, list]]) -> set[str]:
    """Options of the modules that no reader sets to a value other than the
    default: by keyword, by a positional argument at the option's index, by
    a keyword of ``replace(...)``, or by an attribute assignment.  A value
    read from a run's parameters (``p["key"]``) in a call that a dispatch
    table's entry makes sets its option only if ``configs`` (section ->
    key -> the values that configs give it) gives the key under the entry's
    section a value other than the default."""
    options = _options(modules)
    set_names = set()
    for tree in readers:
        sections = _dispatch_sections(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                set_names |= {key for t in targets if isinstance(t, ast.Attribute)
                              for key in options if key.endswith(f".{t.attr}")}
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee == "replace":
                set_names |= {key for kw in node.keywords for key in options
                              if key.endswith(f".{kw.arg}")}
                continue
            given = [(f"{callee}.{kw.arg}", kw.value) for kw in node.keywords]
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                given += [(key, arg) for key, (at, _) in options.items()
                          if key.startswith(f"{callee}.") and at == index]
            section = sections.get(id(node))
            for key, value in given:
                if key not in options:
                    continue
                default = options[key][1]
                if section is not None and _config_key(value) is not None:
                    values = configs.get(section, {}).get(_config_key(value), [])
                    if any(_literal(v) != _literal(default) for v in values):
                        set_names.add(key)
                elif ast.dump(value) != ast.dump(default):
                    set_names.add(key)
    return set(options) - set_names


def _configs() -> dict[str, dict[str, list]]:
    """Section -> key -> the values given it by README.md's INI configs and
    by every size and choice of the benchmark's CLI workloads."""
    configs: dict[str, dict[str, list]] = {}

    def add(section: str, items) -> None:
        for key, value in items:
            configs.setdefault(section, {}).setdefault(key, []).append(value)

    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"^    \[[\w-]+\]\n(?:    \S.*\n)+", readme, re.MULTILINE):
        cp = configparser.ConfigParser()
        cp.optionxform = str
        cp.read_string(re.sub(r"(?m)^    ", "", block))
        for section in cp.sections():
            add(section, cp[section].items())
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload, section in workloads.SUBCOMMANDS.items():
        for sizes in workloads.SIZES.values():
            for choice in workloads.CHOICES[workload]:
                add(section, {**sizes[workload], **choice}.items())
    return configs


def _unused_imports(tree: ast.Module) -> list[str]:
    used = _used_names(tree)
    return [f"{name} (line {line})"
            for name, line in _imported_names(tree).items()
            if name not in used]


def _stale_exports(tree: ast.Module) -> list[str]:
    bound = _module_bindings(tree)
    return [name for name in _all_names(tree) if name not in bound]


def _unlisted_publics(tree: ast.Module, listed: set[str]) -> list[str]:
    """Public top-level functions and classes of the module not in listed."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in listed]


def _phases_by_hand(tree: ast.Module) -> list[int]:
    """Lines of the exp calls whose arguments read _SIGMA (as a name or an
    attribute): a propagator phase written out beside spectral._phases.  A
    phase built from a value computed earlier, as in omega = _SIGMA * xi**2
    and then np.exp(1j * omega * t), reads no _SIGMA in the call and is not
    seen."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "exp"
            and any(getattr(n, "id", getattr(n, "attr", None)) == "_SIGMA"
                    for arg in node.args for n in ast.walk(arg))]


def _shifted_reads(tree: ast.Module) -> list[int]:
    """Lines that read spectral's shifted transforms _forward or _inverse, or
    the grid's (-1)^m signs .signs, as a name or an attribute."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(getattr(node, "ctx", None), ast.Load)
                  and (getattr(node, "id", None) in ("_forward", "_inverse")
                       or getattr(node, "attr", None) in ("_forward", "_inverse", "signs")))


def _file_writes(tree: ast.Module) -> list[int]:
    """Lines of the calls that write a file: open (builtin or a path's
    method) in a w, a or x mode or a mode that is no literal, write_text,
    write_bytes and json.dump."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "open":
            at = 1 if isinstance(node.func, ast.Name) else 0
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[at:at + 1]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax")
                   for m in modes):
                lines.append(node.lineno)
        elif name in ("write_text", "write_bytes") or ast.unparse(node.func) == "json.dump":
            lines.append(node.lineno)
    return sorted(lines)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_MUTATORS = frozenset({"clear", "update", "append", "extend", "pop", "popitem",
                       "setdefault", "add", "discard", "remove", "insert"})


def _own_nodes(scope: ast.AST):
    """The nodes of a scope, nested functions and lambdas themselves but none
    of their nodes."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _root(node: ast.expr) -> ast.expr:
    """The object an attribute or subscript chain starts from."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


def _state_writes(tree: ast.Module) -> list[int]:
    """Lines where a function or lambda declares global, or mutates a name the
    module binds at top level, other than by an import, and no enclosing
    function binds: a subscript or augmented assignment into it, or a call of
    one of its _MUTATORS (np.append, an imported module's, is none)."""
    module, lines = _module_bindings(tree) - set(_imported_names(tree)), []

    def visit(scope: ast.AST, local: frozenset) -> None:
        nodes = list(_own_nodes(scope))
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        local |= {a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg)}
        for node in nodes:
            if isinstance(node, _SCOPES):
                visit(node, local)
                continue
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                written = node.value
            elif isinstance(node, ast.AugAssign):
                written = node.target
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS):
                written = node.func.value
            else:
                written = None
            name = getattr(_root(written), "id", None)
            if isinstance(node, ast.Global) or name in module - local:
                lines.append(node.lineno)

    for node in _own_nodes(tree):
        if isinstance(node, _SCOPES):
            visit(node, frozenset())
    return sorted(set(lines))


def _verdict_words(tree: ast.Module) -> list[int]:
    """Lines of the string constants "PASS" and "FAIL" that are not an operand
    of a comparison: a verdict built in place of reading one."""
    compared = {id(operand) for node in ast.walk(tree) if isinstance(node, ast.Compare)
                for operand in [node.left, *node.comparators]}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in ("PASS", "FAIL")
                  and id(node) not in compared)


def test_sources_found():
    assert any(path.name == "cli.py" for path in MODULES)
    assert any(path.name == "test_hygiene.py" for path in TESTS)


def test_checks_catch_what_they_name():
    tree = ast.parse("import os\nfrom x import gone\n__all__ = ['gone', 'lost']\n")
    assert _unused_imports(tree) == ["os (line 1)"]
    assert _stale_exports(tree) == ["lost"]
    listing = ast.parse("__all__ = ['shown']\ndef shown():\n    pass\n"
                        "def hidden():\n    pass\nclass Hidden:\n    pass\n"
                        "def _private():\n    pass\n")
    assert _unlisted_publics(listing, set(_all_names(listing))) == ["hidden", "Hidden"]
    lib = ast.parse("__all__ = ['used', 'unused', 'loop']\n"
                    "def loop(n):\n    return loop(n - 1)\n")
    user = ast.parse("import lib\nlib.used()\n")
    assert _unread_exports([lib], [lib, user]) == {"unused", "loop"}
    private = ast.parse("from x import _imported\n_K = 2\n__all__ = []\n"
                        "def _used():\n    return _K\n"
                        "def _self(n):\n    return _self(n - 1)\n"
                        "class _Unread:\n    pass\n_used()\n")
    assert _unread_privates([private], [private, user]) == {"_self", "_Unread"}
    methods = ast.parse("class Shown:\n    def used(self):\n        return self.size\n"
                        "    def loop(self):\n        return self.loop()\n"
                        "    @property\n    def size(self):\n        return 1\n"
                        "    def _private(self):\n        pass\n"
                        "class _Hidden:\n    def unread(self):\n        pass\n")
    caller = ast.parse("s = Shown()\ns.used()\n")
    assert _unread_methods([methods], [methods, caller]) == {"Shown.loop"}
    phases = ast.parse("a = np.exp(_SIGMA * 1j * t * xi)\n"
                       "b = exp(-spectral._SIGMA * 1j * t)\n"
                       "omega = _SIGMA * xi\nc = np.exp(1j * omega * t)\n")
    assert _phases_by_hand(phases) == [1, 2]
    shifted = ast.parse("from gbolab.spectral import _forward\nc = _forward(g, v)\n"
                        "v = spectral._inverse(g, c)\nv *= grid.signs\nsigns = 1\n")
    assert _shifted_reads(shifted) == [2, 3, 4]
    writes = ast.parse("open(p)\nopen(p, 'w')\nwith open(p, mode='a') as fh:\n    pass\n"
                       "p.open('x')\np.write_text(s)\np.write_bytes(b)\njson.dump(r, fh)\n"
                       "json.dumps(r)\nopen(p, 'rb')\np.open()\nopen(p, m)\n")
    assert _file_writes(writes) == [2, 3, 5, 6, 7, 8, 12]
    verdicts = ast.parse("v = 'PASS' if ok else 'FAIL'\nexit = 0 if v == 'PASS' else 1\n"
                         "s = f\"{'FAIL'}\"\nt = 'PASSED'\nu = ('FAIL' != w)\n")
    assert _verdict_words(verdicts) == [1, 1, 3]
    state = ast.parse("import np\n_CACHE = {}\n_N = [0]\n"
                      "def f(k):\n    _CACHE[k] = 1\n    _CACHE.clear()\n"
                      "def g():\n    global _N\n    _N[0] += 1\n"
                      "h = lambda: _N.append(1)\n"
                      "def ok(_CACHE, k):\n    _CACHE[k] = np.append(_N, 1)\n"
                      "    def inner():\n        _CACHE.update(a=1)\n"
                      "    out = {}\n    out[k] = _N[0]\n    return _N.index(0)\n"
                      "_CACHE['a'] = 2\n")
    assert _state_writes(state) == [5, 6, 8, 9, 10]


def test_option_guard_catches_what_it_names():
    lib = ast.parse(
        "from dataclasses import dataclass, field, replace\n"
        "@dataclass\nclass Base:\n    a: int = 0\n"
        "@dataclass(frozen=True)\nclass Cfg(Base):\n"
        "    b: int = 1\n    c: list = field(default_factory=list)\n"
        "    d: int = 3\n    e: int = 4\n    f: int = field(repr=False)\n"
        "    def scaled(self, by=2.0):\n        return by\n"
        "def run(x, pos=1, kw=2, same=3, unset=0, *, only=4):\n    return x\n"
        "def audit(x, fed=1, kept=2, other=3, loose=4):\n    return x\n"
        "def _private(hidden=5):\n    return hidden\n")
    user = ast.parse(
        "cfg = Cfg(0, 7)\ncfg.c = [1]\nreplace(cfg, d=9)\ncfg.scaled(3.0)\n"
        "run(0, 5, kw=6, same=3)\nrun(0, *rest, only=8)\n"
        # a dispatch table's calls read p[...] keys from their section's configs
        "def _one(p):\n    return audit(p['x'], fed=p['fed'], kept=p['kept'])\n"
        "_TABLE = {'one': _one, 'two': lambda p: audit(0, other=p['other'])}\n"
        "audit(0, loose=params['loose'])\n")
    configs = {"one": {"fed": ["1"], "kept": ["2", "9"], "other": ["7"]},
               "two": {"other": [3]}}
    assert _unset_options([lib], [lib, user], configs) == {
        "Base.a", "Cfg.e", "run.same", "run.unset", "audit.fed", "audit.other"}


def test_every_option_is_set_or_serves_a_check():
    src = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    bench = [ast.parse(path.read_text(), filename=str(path)) for path in PERFBENCH]
    unset = _unset_options(src, src + bench, _configs())
    assert not unset - set(OPTION_CHECKS), (
        f"options that nothing under src/ or perfbench/ sets: "
        f"{sorted(unset - set(OPTION_CHECKS))}; make them constants or name "
        f"the check they serve in OPTION_CHECKS")
    assert not set(OPTION_CHECKS) - unset, (
        f"OPTION_CHECKS lists options that are now set or gone: "
        f"{sorted(set(OPTION_CHECKS) - unset)}")


@pytest.mark.parametrize("path", MODULES + TESTS, ids=_id)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"unused imports in {_id(path)}: {unused}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "spectral.py"], ids=_id)
def test_propagator_phase_stays_in_spectral(path):
    lines = _phases_by_hand(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, (f"{_id(path)} builds a propagator phase by hand at lines {lines}; "
                       f"use spectral._phases")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "spectral.py"], ids=_id)
def test_shifted_transforms_stay_in_spectral(path):
    lines = _shifted_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, (f"{_id(path)} reads spectral's shifted transforms or grid signs at "
                       f"lines {lines}; only spectral.py holds the (-1)^m convention")


def test_artifacts_written_only_by_cli():
    writers = {_id(path): lines for path in MODULES if path.name != "cli.py"
               if (lines := _file_writes(ast.parse(path.read_text(), filename=str(path))))}
    assert not writers, (f"modules under src/ that write files (module: lines): {writers}; "
                         "the run artifacts are cli.py's to write")


@pytest.mark.parametrize("path", MODULES, ids=_id)
def test_no_state_between_calls(path):
    lines = _state_writes(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, (f"{_id(path)} declares global or mutates module-level state in a "
                       f"function at lines {lines}; pass state as arguments instead")


def test_verdicts_built_only_by_reporting():
    builders = {_id(path): lines for path in MODULES if path.name != "reporting.py"
                if (lines := _verdict_words(ast.parse(path.read_text(), filename=str(path))))}
    assert not builders, (f"modules under src/ that build a PASS or FAIL verdict (module: "
                          f"lines): {builders}; state named checks in an ExperimentReport")


@pytest.mark.parametrize("path", MODULES, ids=_id)
def test_all_names_are_bound(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    stale = _stale_exports(tree)
    assert not stale, f"__all__ of {_id(path)} lists unbound names: {stale}"


@pytest.mark.parametrize("path", MODULES, ids=_id)
def test_public_names_are_listed(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.parent == EXPERIMENTS and path.name != "__init__.py":
        listed = set(_all_names(ast.parse((EXPERIMENTS / "__init__.py").read_text())))
    elif "__all__" in _module_bindings(tree):
        listed = set(_all_names(tree))
    else:
        return
    unlisted = _unlisted_publics(tree, listed)
    assert not unlisted, f"public names that {_id(path)} does not export: {unlisted}"


def test_every_export_has_a_reader_or_a_lab_check():
    src = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    bench = [ast.parse(path.read_text(), filename=str(path)) for path in PERFBENCH]
    unread = _unread_exports(src, src + bench)
    checks = {name for name in LAB_CHECKS if "." not in name}
    assert not unread - checks, (
        f"exported but read by no module under src/ or perfbench/: "
        f"{sorted(unread - checks)}; delete them or name the check "
        f"they serve in LAB_CHECKS")
    assert not checks - unread, (
        f"LAB_CHECKS lists names that now have a reader or are gone: "
        f"{sorted(checks - unread)}")


def test_every_method_has_a_reader_or_a_lab_check():
    src = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    bench = [ast.parse(path.read_text(), filename=str(path)) for path in PERFBENCH]
    unread = _unread_methods(src, src + bench)
    checks = {name for name in LAB_CHECKS if "." in name}
    assert not unread - checks, (
        f"public methods or properties that no module under src/ or perfbench/ "
        f"reads: {sorted(unread - checks)}; move them to the tests that read them "
        f"or name the check they serve in LAB_CHECKS")
    assert not checks - unread, (
        f"LAB_CHECKS lists methods that now have a reader or are gone: "
        f"{sorted(checks - unread)}")


def test_every_private_name_has_a_reader():
    src = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    bench = [ast.parse(path.read_text(), filename=str(path)) for path in PERFBENCH]
    unread = _unread_privates(src, src + bench)
    assert not unread, (
        f"private names under src/ that nothing under src/ or perfbench/ reads: "
        f"{sorted(unread)}; delete them, or move them to the tests that read them")
