"""Every module under src/ and tests/ uses each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path):
    """Names an import binds in the module at path that nothing reads or exports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= {e.value for e in node.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read | exported)


def test_no_unused_imports():
    files = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])
    assert files
    unused = {str(p.relative_to(ROOT)): found for p in files if (found := unused_imports(p))}
    assert unused == {}
