"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nodalfields"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = Path(__file__).resolve().parent
ORACLES = TESTS / "oracles.py"


@pytest.mark.parametrize("path", MODULES + [ORACLES],
                         ids=[p.stem for p in MODULES + [ORACLES]])
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
    # the package imports no scipy module: the plane census counts the
    # positive runs of the grid rows in numpy, and scipy.ndimage alone cost
    # a fresh process about 0.3 s and 27 MB of resident memory
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module]
    assert not [n for n in names if n.split(".")[0] == "scipy"], names


def test_package_loads_no_scipy():
    code = ("import sys\n"
            "import nodalfields, nodalfields.cli, nodalfields.estimators\n"
            "import nodalfields.stability, nodalfields.topology\n"
            "import nodalfields.portraits\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "[]"


def _loads(tree):
    """Counts of the names and attributes an AST reads."""
    return Counter(
        [n.id for n in ast.walk(tree)
         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
        + [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)])


def _definitions(tree):
    """(name, node) for each module-level def, class or assignment."""
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
            yield name, node


def _private_definitions(tree):
    """(name, node) for each module-level def, class or assignment of _name."""
    return [(name, node) for name, node in _definitions(tree)
            if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_private_names_are_used(path):
    refs = sum((_loads(ast.parse(p.read_text(), filename=str(p)))
                for p in SOURCES), Counter())
    tree = ast.parse(path.read_text(), filename=str(path))
    dead = sorted(f"{name} (line {node.lineno})"
                  for name, node in _private_definitions(tree)
                  if refs[name] - _loads(node)[name] <= 0)
    assert not dead, f"{path.name} defines private names nothing reads: {dead}"


def _acceptance_imports():
    """(module, name) for each package name tests/test_acceptance.py imports."""
    path = PACKAGE.parents[1] / "tests" / "test_acceptance.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    return {(node.module.split(".")[-1], alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("nodalfields.")
            for alias in node.names}


def test_every_name_has_a_reader():
    # a top-level name ships only if the package reads it, an acceptance
    # criterion imports it, or it is an entry point; the __init__ re-exports
    # do not count as readers
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in SOURCES}
    refs = sum((_loads(tree) for stem, tree in trees.items()
                if stem != "__init__"), Counter())
    kept = _acceptance_imports() | {("cli", "main"),
                                    ("__init__", "__version__")}
    dead = sorted(f"{stem}.{name} (line {node.lineno})"
                  for stem, tree in trees.items()
                  for name, node in _definitions(tree)
                  if refs[name] - _loads(node)[name] <= 0
                  and (stem, name) not in kept)
    assert not dead, f"names nothing in the package reads: {dead}"


def _options(tree):
    """(function, parameter, position) for each parameter with a default.

    position is the number of positional arguments a call passes to set it,
    self not counted, or None for a keyword-only parameter."""
    methods = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = id(node) in methods
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield node.name, positional[i].arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _calls(tree):
    """(name, call) for each call, the name seen through import aliases."""
    alias = {a.asname: a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for a in node.names
             if a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            yield alias.get(name, name), node


def _sets(call, param, position):
    """Whether call may set param: by keyword, **, * or position."""
    return (any(k.arg in (None, param) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def test_every_option_has_a_setter():
    # an optional parameter ships only if a call in the package or in an
    # acceptance criterion sets it; the entry point cli.main is exempt.
    # Calls match functions by name, so a namesake's call counts as a setter
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in SOURCES}
    acceptance = PACKAGE.parents[1] / "tests" / "test_acceptance.py"
    calls = {}
    for tree in [*trees.values(), ast.parse(acceptance.read_text())]:
        for name, call in _calls(tree):
            calls.setdefault(name, []).append(call)
    unset = sorted(f"{stem}.{fn}({param}=)" for stem, tree in trees.items()
                   for fn, param, position in _options(tree)
                   if (stem, fn) != ("cli", "main")
                   and not any(_sets(call, param, position)
                               for call in calls.get(fn, [])))
    assert not unset, f"options nothing but the tests sets: {unset}"


def test_every_oracle_has_a_reader():
    # the test-only helpers ship only what a test reads, so code moved out
    # of the package leaves no unread oracle behind
    refs = sum((_loads(ast.parse(p.read_text(), filename=str(p)))
                for p in sorted(TESTS.glob("*.py"))), Counter())
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    dead = sorted(f"{name} (line {node.lineno})"
                  for name, node in _definitions(tree)
                  if refs[name] - _loads(node)[name] <= 0)
    assert not dead, f"oracles nothing in the tests reads: {dead}"


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
    ("ROUNDING_MARGIN", ("topology", "_slope_weights")),  # flip-sign margin
    ("_GROUP_SIDES", ("topology", "marching_segments")),  # side pairing
    ("GridTooCoarse", ("fields", "evaluate_grid")),  # the coarse-grid warning
    ("EmptyGrid", ("topology", "grid_signs")),  # a grid that cannot be signed
])
def test_rule_has_one_reader(name, owner):
    assert sorted(set(_readers(name))) == [owner]


def test_torus_census_and_portraits_share_the_edge_table():
    # both walk the oriented marching segments through one edge table
    assert sorted(set(_readers("edge_table"))) == [
        ("portraits", "zero_polylines"), ("topology", "count_components_torus")]


def _topology_calls(root, attrs):
    """(reached, calls): the topology functions reachable from root, and the
    (function, call) pairs among them calling an attribute in attrs."""
    tree = ast.parse((PACKAGE / "topology.py").read_text())
    defs = {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += [n for n in _loads(defs[name]) if n in defs]
    calls = [(name, call) for name in sorted(reached)
             for call in ast.walk(defs[name]) if isinstance(call, ast.Call)
             and getattr(call.func, "attr", None) in attrs]
    return reached, calls


def test_flips_sort_only_their_locations():
    # the flip path takes its ports from the crossing mask and its candidate
    # segments from the labeled marching segments; the one np.unique left is
    # _flip_locations' dedup of the refined locations
    reached, uniques = _topology_calls("count_flips", {"unique"})
    assert {"_sign_changes", "marching_segments", "_bisect"} <= reached
    assert [name for name, _ in uniques] == ["_flip_locations"]
    (_, call), = uniques
    assert ast.unparse(call.args[0]) == "buckets"


def test_flips_weigh_the_slope_sample_in_one_place():
    # the port bounds and the bisection take w_k = sqrt(W_k) |(a_k, b_k)|
    # |d.c_k|, the spread and the rounding margin from _slope_weights, so
    # the constants of the flip certificate agree: no other function on the
    # flip path takes a hypot, of the coefficients or of the frequencies
    _, hypots = _topology_calls("count_flips", {"hypot"})
    assert {name for name, _ in hypots} == {"_slope_weights"}
    for caller in ("_port_bounds", "_bisect"):
        assert "_slope_weights" in _topology_calls(caller, set())[0]


def test_flips_evaluate_only_value_grids():
    # g = d.grad f is a sample of its own, so the flip path evaluates the
    # value grids of f and g and no derivative grid
    reached, _ = _topology_calls("count_flips", set())
    tree = ast.parse((PACKAGE / "topology.py").read_text())
    grids = [(node.name, call) for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in reached
             for call in ast.walk(node) if isinstance(call, ast.Call)
             and getattr(call.func, "id", None) == "evaluate_grid"]
    ordered = [ast.unparse(call) for _, call in grids
               if len(call.args) > 3
               or any(k.arg in ("order", None) for k in call.keywords)]
    assert ordered == []
    assert sorted(name for name, _ in grids) == ["_flip_locations",
                                                 "_sign_changes"]


def test_torus_census_sorts_only_marching_groups():
    # each oriented segment finds its successor in a dense table over the
    # edge ids; the one sort left is marching_segments' sort of its groups
    reached, sorts = _topology_calls("count_components_torus",
                                     {"argsort", "unique", "sort", "lexsort"})
    assert {"edge_table", "marching_segments"} <= reached
    assert [name for name, _ in sorts] == ["marching_segments"]
    (_, call), = sorts
    assert ast.unparse(call.args[0]) == "group"


def test_portraits_sort_nothing():
    # the chains start in port order from the edge tables, not from a sort
    tree = ast.parse((PACKAGE / "portraits.py").read_text())
    sorts = [ast.unparse(call) for call in ast.walk(tree)
             if isinstance(call, ast.Call)
             and getattr(call.func, "attr", getattr(call.func, "id", None))
             in {"argsort", "sort", "sorted", "unique", "lexsort"}]
    assert sorts == []


def test_grid_products_stack_nothing():
    # each draw folds its coefficients in place into one right factor, and
    # every grid, values or derivative, is its one product: no transposed
    # temporaries, no stacked copies, no second product
    tree = ast.parse((PACKAGE / "fields.py").read_text())
    fn, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
           and node.name == "evaluate_grid"]
    banned = [ast.unparse(node) for node in ast.walk(fn)
              if isinstance(node, ast.Call)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in {"vstack", "hstack", "concatenate"}
              or isinstance(node, ast.Attribute) and node.attr == "T"]
    assert banned == []
    assert [ast.unparse(node) for node in ast.walk(fn)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.MatMult)] == ["U @ V"]


def test_only_the_slope_sample_builds_derivative_coefficients():
    # d.grad f is the slope sample with pairs (d.c_k)(b_k, -a_k), and
    # fields._slope_sample is the one function that builds it: the
    # derivative grids of evaluate_grid are value grids of slope samples,
    # so evaluate_grid reads no frequency.  The other functions that read a
    # sample's coefficients with its frequencies are evaluate_batch, which
    # takes phases c_k.x, and the flips' certificates of a slope sample,
    # which weigh its pairs by |c_k| (_slope_weights) and by powers of
    # c_k.(hi - lo) along a segment (_bisect's Taylor polynomials)
    both = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                loads = _loads(node)
                if loads["frequencies"] and (loads["coeff_a"]
                                             or loads["coeff_b"]):
                    both.add((path.stem, node.name))
    assert both == {("fields", "_slope_sample"), ("fields", "evaluate_batch"),
                    ("topology", "_slope_weights"), ("topology", "_bisect")}
    samples = {(p.stem, name) for p in MODULES
               for name, node in _definitions(ast.parse(p.read_text()))
               if any(getattr(call.func, "id", None) == "FieldSample"
                      for call in ast.walk(node) if isinstance(call, ast.Call))}
    assert samples == {("fields", "sample"), ("fields", "inject_sample"),
                       ("fields", "_slope_sample")}
    assert ("fields", "evaluate_grid") in set(_readers("_slope_sample"))


def test_plane_census_searches_nothing():
    # the runs a run touches in the row above, and each row's first and last
    # run, are ranks on the packed row-change mask, not binary searches; the
    # runs themselves come from the mask's 16-bit pairs
    reached, searches = _topology_calls("count_components_plane",
                                        {"searchsorted"})
    assert searches == []
    assert {"_run_boundaries", "_rank", "_centre_signs", "grid_signs",
            "_merged_roots"} <= reached


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


def test_only_the_census_batch_asks_for_certified_grids():
    # estimators._batch, the one loop of both censuses, always asks
    # evaluate_grid for a certified grid, and nothing else asks: the flips,
    # the portraits, stability and the CLI evaluate float64 grids
    asks = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and any(
                        k.arg == "certified" or k.arg is None
                        and ast.unparse(call.func) in ("evaluate_grid",
                                                       "_batch")
                        for k in call.keywords) or (
                        isinstance(call, ast.Call)
                        and ast.unparse(call.func) == "evaluate_grid"
                        and len(call.args) > 4):
                    asks.append((path.stem, getattr(node, "name", None),
                                 ast.unparse(call.func),
                                 [ast.unparse(k) for k in call.keywords]))
    assert asks == [("estimators", "_batch", "evaluate_grid",
                     ["certified=True"])]


def _sign_grid_calls():
    """(module, top-level definition, call) for each call of sign_grid."""
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "sign_grid"):
                    yield path.stem, getattr(node, "name", None), call


def test_one_sign_certificate():
    # topology._certified_signs is the one function that signs estimates
    # against an error bound, sign_grid(est, +-bound) with the exact value's
    # sign where the two differ: no other call passes sign_grid a margin
    margins = {(stem, name) for stem, name, call in _sign_grid_calls()
               if len(call.args) > 1 or call.keywords}
    assert margins == {("topology", "_certified_signs")}


def test_grid_signs_are_read_in_one_place():
    # every reader of a grid's signs, the censuses, the marching segments,
    # the flips' ports and the portraits, takes them from grid_signs, which
    # certifies a certified grid's nodes: no other call passes sign_grid a
    # grid's values
    readers = {(stem, name) for stem, name, call in _sign_grid_calls()
               if _loads(call.args[0])["values"]}
    assert readers == {("topology", "grid_signs")}
    assert {stem for stem, _ in _readers("grid_signs")} == {"topology",
                                                            "portraits"}


def test_fields_imports_nothing_from_topology():
    # the grids carry their values and bound; their signs are topology's
    tree = ast.parse((PACKAGE / "fields.py").read_text())
    imports = [ast.unparse(node) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and "topology" in (node.module or "")
               or isinstance(node, ast.Import)
               and any("topology" in a.name for a in node.names)]
    assert imports == []
