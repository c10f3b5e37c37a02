import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_block_runs_as_written():
    # each expression line of the block shows its value in a comment
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) == 1
    block = blocks[0]
    lines = block.splitlines()
    scope, shown = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            shown.append((eval(code, scope), lines[node.lineno - 1]))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    assert len(shown) == 5
    for want, (value, line) in zip(("⟨2, t⟩", 2, "⟨3, t + 1⟩"), shown):
        assert value == want and f"# {want!r}" in line, line
    (minimal, line), (violations, last) = shown[3:]
    assert len(minimal) == 43 and "# the 43 " in line, line
    assert violations == [] and "# []" in last, last


def test_readme_catalog_paragraph_lists_every_name():
    from charideals.catalog import names
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = next(p for p in text.split("\n\n") if p.startswith("The catalog knows "))
    quoted = set(re.findall(r"`([^`]+)`", paragraph))
    assert [name for name in names() if name not in quoted] == []
