"""Static checks on the package source."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nodalfields"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_sparse_import(path):
    # scipy.sparse (csgraph included) adds about 10 MB of resident memory
    # when imported, a tenth of a workload's peak; ndimage does the labeling
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module
              for alias in node.names]
    assert not [n for n in names if n.startswith("scipy.sparse")], names


def _loads(tree):
    """Counts of the names and attributes an AST reads."""
    return Counter(
        [n.id for n in ast.walk(tree)
         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
        + [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)])


def _private_definitions(tree):
    """(name, node) for each module-level def, class or assignment of _name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_private_names_are_used(path):
    refs = sum((_loads(ast.parse(p.read_text(), filename=str(p)))
                for p in SOURCES), Counter())
    tree = ast.parse(path.read_text(), filename=str(path))
    dead = sorted(f"{name} (line {node.lineno})"
                  for name, node in _private_definitions(tree)
                  if refs[name] - _loads(node)[name] <= 0)
    assert not dead, f"{path.name} defines private names nothing reads: {dead}"


def _readers(name):
    """(module, top-level definition) pairs whose code reads ``name``."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if _loads(node)[name]:
                yield path.stem, getattr(node, "name", None)


@pytest.mark.parametrize("name, owner", [
    ("TIE_TOL", ("topology", "sign_grid")),     # the tie rule
    ("Philox", ("fields", "_philox")),          # the (seed, stream) key
])
def test_rule_has_one_reader(name, owner):
    assert sorted(set(_readers(name))) == [owner]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_no_warning_is_silenced(path):
    # a warning the package raises reaches the caller; recording one with
    # catch_warnings(record=True) stays allowed
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and getattr(n.func, "attr", getattr(n.func, "id", None))
             in ("simplefilter", "filterwarnings")]
    actions = [(n.lineno, a) for n in calls
               for a in [*n.args[:1],
                         *(k.value for k in n.keywords if k.arg == "action")]]
    silenced = [line for line, a in actions
                if isinstance(a, ast.Constant) and a.value == "ignore"]
    assert not silenced, f"{path.name} silences warnings at lines {silenced}"
