"""Every module under src/ and tests/ uses each name it imports, every name
a package module exports exists, the library modules export only what the
package itself reads, the program passes every parameter of a public
solver, and importing the CLI loads no `dataclasses`."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
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


def test_every_exported_name_exists():
    missing = {}
    for path in sorted(ROOT.glob("src/nlhomog/*.py")):
        name = "nlhomog" if path.stem == "__init__" else f"nlhomog.{path.stem}"
        module = importlib.import_module(name)
        gone = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if gone:
            missing[name] = gone
    assert missing == {}


LIBRARY = ("records", "env", "kernels", "operators", "solve", "homog")


def reads(tree):
    """Names and attributes a module reads, a top-level definition's reads of
    its own name left out."""
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name not in (None, own) and isinstance(node.ctx, ast.Load):
                found.add(name)
    return found


def test_every_exported_name_is_read_under_src():
    # an export only tests read belongs with the tests (see tests/oracles.py)
    read = set()
    for path in ROOT.glob("src/nlhomog/*.py"):
        read |= reads(ast.parse(path.read_text(), filename=str(path)))
    unread = {}
    for stem in LIBRARY:
        exported = importlib.import_module(f"nlhomog.{stem}").__all__
        if gone := [name for name in exported if name not in read]:
            unread[stem] = gone
    assert unread == {}


def test_every_solver_parameter_is_passed_by_the_program():
    # one level down from the exports: a parameter of a public solver that no
    # call in the program passes selects a mode no run takes
    passed = {}  # callee name -> the positions and keywords some call passes
    for stem in ("homog", "cli"):
        tree = ast.parse((ROOT / "src" / "nlhomog" / f"{stem}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                got = passed.setdefault(name, set())
                got.update(range(len(node.args)), (k.arg for k in node.keywords))
    solve = importlib.import_module("nlhomog.solve")
    unpassed = {}
    for name in solve.__all__:
        fn = getattr(solve, name)
        if inspect.isfunction(fn):
            got = passed.get(name, set())
            params = inspect.signature(fn).parameters.values()
            if gone := [p.name for i, p in enumerate(params)
                        if p.name not in got and (i not in got or p.kind == p.KEYWORD_ONLY)]:
                unpassed[name] = gone
    assert unpassed == {}


def test_each_size_limit_has_one_owner():
    # each limit is assigned once, beside its checks, and the CLI keeps no
    # list of the grids a run builds
    owners = {"MAX_GRID_POINTS": [], "MAX_DENSE_BYTES": []}
    for path in sorted(ROOT.glob("src/**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                       else [])
            for target in targets:
                if isinstance(target, ast.Name) and target.id in owners:
                    owners[target.id].append(path.relative_to(ROOT).as_posix())
    assert owners == {"MAX_GRID_POINTS": ["src/nlhomog/solve.py"],
                      "MAX_DENSE_BYTES": ["src/nlhomog/solve.py"]}
    cli = importlib.import_module("nlhomog.cli")
    assert [name for name in ("_grids", "_cells", "_points", "_check_grid_sizes")
            if hasattr(cli, name)] == []


def test_importing_the_cli_loads_no_dataclasses():
    # the record types are plain classes: a dataclass decoration generates
    # and compiles its class's methods on every import, every run
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, nlhomog.cli; print('dataclasses' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
