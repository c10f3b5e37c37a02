"""Every name a module of src/ or tests/ imports is read somewhere in the
scope that imports it; a name listed in a module's __all__ counts as read."""

import ast
from pathlib import Path

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


def test_scan_sees_unread_names():
    tree = ast.parse("import os\nfrom a import b, c as d\n__all__ = ['b']\n"
                     "def f():\n    from e import g\n    return d\n")
    assert _unread_imports(tree) == ["line 1: os", "line 5: g"]



def test_oracles_import_no_kernel_they_check():
    # the reference routes stay independent of the Smith form and the
    # ideal routines they are compared with
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert "charideals.isomorphism" in modules
    assert not [m for m in modules | names if m.startswith("charideals.ztideal")]
    assert not [n for n in names if n.endswith((".snf_diagonal", ".det_int"))]
