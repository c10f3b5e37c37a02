"""Every name a module of src/ or tests/ imports is read somewhere in the
scope that imports it; a name listed in a module's __all__ counts as read."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _unread_imports(tree):
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = {e.value for e in node.value.elts}
    found = []

    def scan(scope):
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        todo = list(ast.iter_child_nodes(scope))
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                 ast.Lambda)):
                scan(node)
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and not (scope is tree and name in exported):
                        found.append(f"line {node.lineno}: {name}")
            todo.extend(ast.iter_child_nodes(node))

    scan(tree)
    return sorted(found)


def test_no_unread_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 20
    unread = {}
    for path in files:
        names = _unread_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if names:
            unread[str(path.relative_to(ROOT))] = names
    assert unread == {}


def test_cli_start_up_loads_no_dataclasses_inspect_or_difflib():
    # every command is a fresh process; dataclasses (which loads inspect)
    # and difflib took over half of the import of charideals.cli
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import charideals.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'difflib') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout == "[]\n"


def _fresh(code, stdin=None, env=None):
    """stdout of code run in a fresh isolated interpreter with src/ first on
    its path; code runs after `import sys`."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r})\n{code}"
    return subprocess.run([sys.executable, "-I", "-c", code], input=stdin, capture_output=True,
                          text=True, check=True, env=env).stdout


def test_import_charideals_loads_no_submodule():
    assert _fresh("import charideals\n"
                  "print([m for m in sys.modules if m.startswith('charideals.')])") == "[]\n"


@pytest.mark.parametrize("name, loads", [
    ("petersen", False), ("family-f", False), ("  K3,3 ", False), ("famly-f", True),
])
def test_catalog_emit_loads_difflib_only_for_an_unknown_name(name, loads):
    # difflib ranks the close matches of a name the catalog does not know
    out = _fresh("import charideals.cli\n"
                 "from contextlib import redirect_stderr, redirect_stdout\n"
                 "from io import StringIO\n"
                 "with redirect_stdout(StringIO()), redirect_stderr(StringIO()):\n"
                 f"    code = charideals.cli.main(['catalog', 'emit', {name!r}])\n"
                 "print(code, 'difflib' in sys.modules)")
    assert out == f"{int(loads)} {loads}\n"


# the modules the CLI loads only in the commands that read them
_DEFERRED = ("classify", "catalog", "graph_ideals", "ztideal", "zpoly")


@pytest.mark.parametrize("argv, loads", [
    (None, []),
    (["mine", "--stat", "phiA", "--k", "4", "--max-n", "5"], []),
    (["mine", "--stat", "phiL", "--k", "2", "--max-n", "5"], []),
    (["mine", "--stat", "gammaA", "--k", "3", "--max-n", "5"],
     ["graph_ideals", "ztideal", "zpoly"]),
])
def test_cli_loads_the_modules_its_command_reads(argv, loads):
    run = "" if argv is None else (
        f"from contextlib import redirect_stdout\nfrom io import StringIO\n"
        f"with redirect_stdout(StringIO()):\n    assert charideals.cli.main({argv!r}) == 0\n")
    out = _fresh(f"import charideals.cli\n{run}"
                 f"print(sorted(m for m in {_DEFERRED!r} if 'charideals.' + m in sys.modules))")
    assert out == f"{sorted(loads)}\n"


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2
                    or not hasattr(os, "fork"), reason="no worker is forked on one CPU")
def test_classify_stream_loads_classify_before_its_workers_fork():
    # so the workers inherit it instead of each compiling it again
    out = _fresh("import os\nimport charideals.cli\nseen = []\nfork = os.fork\n"
                 "def recording_fork():\n"
                 "    seen.append('charideals.classify' in sys.modules)\n"
                 "    return fork()\n"
                 "os.fork = recording_fork\n"
                 "print(charideals.cli.main(['classify', '-']), seen[:1])",
                 stdin="C^\nDhc\nC~\n", env={**os.environ, "GRAPHTOOL_THREADS": "2"})
    assert out.splitlines()[3:] == ["0 [True]"]


_FIRST = ("import charideals", "import charideals.classify",
          "from charideals.classify import cross_check", "from charideals import cross_check")


@pytest.mark.parametrize("first", range(len(_FIRST)))
def test_package_classify_is_the_function_whatever_loads_first(first):
    # the submodule of that name would take the package attribute on import
    steps = _FIRST[first:] + _FIRST[:first]
    check = ("import charideals\n"
             "print(type(charideals.classify).__name__, charideals.classify"
             " is sys.modules['charideals.classify'].classify)")
    out = _fresh("\n".join(f"{step}\n{check}" for step in steps))
    assert out == "function True\n" * len(steps)


def test_star_import_and_dir_give_the_pinned_names():
    out = _fresh("import charideals\nprint(sorted(n for n in dir(charideals) if n[0] != '_'))\n"
                 "names = {}\nexec('from charideals import *', names)\n"
                 "print(sorted(n for n in names if n[0] != '_'))\n"
                 "print(type(names['classify']).__name__)")
    assert out.splitlines() == [str(PUBLIC_NAMES), str(PUBLIC_NAMES), "function"]


def test_scan_sees_unread_names():
    tree = ast.parse("import os\nfrom a import b, c as d\n__all__ = ['b']\n"
                     "def f():\n    from e import g\n    return d\n")
    assert _unread_imports(tree) == ["line 1: os", "line 5: g"]


def _unreferenced_privates(trees):
    """(module, name) for each private module-level function, class or
    constant of the modules in `trees` (name -> AST) that no other
    top-level statement of any of them reads, imports or names as an
    attribute; a definition's own body does not count."""
    defined, used = [], {}
    for mod, tree in trees.items():
        for i, node in enumerate(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                names = []
            defined.extend((mod, i, name) for name in names
                           if name.startswith("_") and not name.startswith("__"))
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    name = n.id
                elif isinstance(n, ast.Attribute):
                    name = n.attr
                elif isinstance(n, ast.alias):
                    name = n.name
                else:
                    continue
                used.setdefault(name, set()).add((mod, i))
    return sorted((mod, name) for mod, i, name in defined
                  if not used.get(name, set()) - {(mod, i)})


def test_no_unreferenced_private_names_in_src():
    trees = {str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src").rglob("*.py"))}
    assert _unreferenced_privates(trees) == []


def test_private_scan_sees_unreferenced_names():
    trees = {"a": ast.parse("_A = 1\n_B = 2\ndef _f():\n    return _f()\n"
                            "class _C:\n    pass\ndef g(x):\n    return _A + x._D\n"
                            "_D = 3\n"),
             "b": ast.parse("from a import _C\n")}
    assert _unreferenced_privates(trees) == [("a", "_B"), ("a", "_f")]


def _unreached_publics(trees, readers):
    """(module, name) for each public module-level function or class of the
    modules in `trees` (name -> AST), and each public method or property of
    a class among them, that the `__all__` of none of them exports and that
    no code of `trees` or `readers` (more modules, which only count as
    readers) reads as a name, an attribute or an import outside the
    definition itself.  Dunders are exempt.

    Matching is by name, so a method whose name is also read elsewhere is
    not seen: `Graph.join` passed on `str.join`, `ZPoly.degree` on
    `Graph.degree(v)` and `BlowupSpec.size` on a local variable `size`."""
    exported, defined, reads = set(), [], {}

    def walk(node, inside):
        # inside: the ids of the definitions enclosing node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {id(node)}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.setdefault(node.id, []).append(inside)
        elif isinstance(node, ast.Attribute):
            reads.setdefault(node.attr, []).append(inside)
        elif isinstance(node, ast.alias):
            reads.setdefault(node.name, []).append(inside)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    for mod, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                exported.update(e.value for e in node.value.elts)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((mod, node.name, node))
                if isinstance(node, ast.ClassDef):
                    defined.extend((mod, f"{node.name}.{item.name}", item)
                                   for item in node.body
                                   if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    for tree in [*trees.values(), *readers.values()]:
        walk(tree, frozenset())
    return sorted((mod, qualname) for mod, qualname, node in defined
                  if not node.name.startswith("_") and qualname not in exported
                  and all(id(node) in inside for inside in reads.get(node.name, ())))


def test_no_unreached_public_names_in_src():
    def parse(folder):
        return {str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
                for path in sorted((ROOT / folder).rglob("*.py"))}
    assert _unreached_publics(parse("src"), parse("perfbench")) == []


def test_public_scan_sees_unreached_names():
    trees = {"a": ast.parse("__all__ = ['f']\ndef f():\n    return g()\n"
                            "def g():\n    pass\ndef h():\n    return h()\n"
                            "class K:\n    def used(self):\n        return 1\n"
                            "    def unused(self):\n        return self.unused()\n"
                            "    @property\n    def bench(self):\n        pass\n"
                            "    def __len__(self):\n        return 0\n"),
             "b": ast.parse("from a import K\nK().used()\n")}
    perfbench = {"run": ast.parse("def run(k):\n    return k.bench\n")}
    assert _unreached_publics(trees, perfbench) == [("a", "K.unused"), ("a", "h")]
    assert _unreached_publics(trees, {}) == [("a", "K.bench"), ("a", "K.unused"), ("a", "h")]


def _underscore_parameters(tree):
    """function.parameter for each parameter of a function or lambda in
    `tree` whose name starts with an underscore: a hidden knob that only
    some callers set."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs,
                        args.kwarg]:
                if arg is not None and arg.arg.startswith("_"):
                    found.append(f"{getattr(node, 'name', '<lambda>')}.{arg.arg}")
    return sorted(found)


def test_no_underscore_parameters_in_src():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        found += _underscore_parameters(ast.parse(path.read_text(encoding="utf-8")))
    assert found == []


def test_parameter_scan_sees_underscore_names():
    tree = ast.parse("def f(a, _b=None, *_c, d, **_e):\n    return lambda _x, y: y\n"
                     "class K:\n    def m(self, /, _p, q):\n        pass\n")
    assert _underscore_parameters(tree) == ["<lambda>._x", "f._b", "f._c", "f._e", "m._p"]


def test_oracles_import_no_kernel_they_check():
    # the reference routes stay independent of the Smith form, the ideal
    # routines, the twin grouping and the growth they are compared with
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert "charideals.isomorphism" in modules
    assert not [m for m in modules | names
                if m.startswith(("charideals.ztideal", "charideals.graph_ideals",
                                 "charideals.mining"))]
    assert not [n for n in names if n.endswith((".snf_diagonal", ".det_int"))]
    assert "charideals.graphs.twin_classes" not in names


# the public API, sorted; a name added or dropped is a deliberate change here
PUBLIC_NAMES = [
    "BlowupSpec", "CharIdealProfile", "ClassificationReport", "ConsistencyError",
    "CrossCheckResult", "FAMILY_F", "FORBIDDEN_S4", "Graph", "Graph6Error",
    "GroebnerBuilder", "IdealZt", "InvariantFactors", "MiningResult", "MiningTask",
    "ZPoly", "adjacency_matrix", "algebraic_corank", "all_k_minors_in_ideal", "blowup",
    "canonical_form", "char_ideal_profile", "characteristic_ideal", "classify",
    "cross_check", "delta_sequence", "enumerate_connected", "find_induced",
    "gcd_of_k_minors", "invariant_factors_from_deltas", "is_C_leq", "is_K_leq_regular",
    "is_S_leq", "is_isomorphic", "laplacian_matrix", "lookup", "mine",
    "multipartite_closed_form", "parse_edge_list", "parse_graph6", "snf_diagonal",
    "to_graph6",
]


def test_public_api_is_the_pinned_names():
    import charideals
    assert len(PUBLIC_NAMES) == 41
    assert sorted(charideals.__all__) == PUBLIC_NAMES
    assert len(set(charideals.__all__)) == len(charideals.__all__)
    for name in PUBLIC_NAMES:
        assert getattr(charideals, name) is not None, name
