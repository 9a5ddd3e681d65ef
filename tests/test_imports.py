"""Import guards: importing usproc must not pull in scipy, no module
imports a name it never uses, and no module imports inside a function.

numpy is the only runtime dependency.  scipy may be installed next to it, so
an accidental ``import scipy.linalg`` would go unnoticed in every other test;
this one imports the package and all of its submodules in a fresh
interpreter and inspects ``sys.modules``.  Deleting code tends to leave its
imports behind, so a second test reads each module's syntax tree (standard
library ``ast``, no linter needed) and lists the names it imports but never
mentions.  An import inside a function body hides a module's dependencies,
and usually an import cycle, so a third test lists those.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, pkgutil, sys
import usproc
names = [m.name for m in pkgutil.iter_modules(usproc.__path__)]
for name in names:
    importlib.import_module("usproc." + name)
print(len(names), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_usproc_does_not_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.split(None, 1)
    assert int(out[0]) >= 12
    assert out[1].strip() == "[]"


def unused_imports(source: str) -> list[str]:
    """Names a module binds by ``import`` or ``from ... import`` and never
    mentions again; ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_import_check_finds_one():
    assert unused_imports("import math\nfrom os import path, sep\nsep\n") \
        == ["math (line 1)", "path (line 2)"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "usproc").glob("*.py"))
             if path.name != "__init__.py"}
    assert len(found) >= 12
    assert {name: names for name, names in found.items() if names} == {}


def function_imports(source: str) -> list[str]:
    """Imports made inside a function body, each named by its innermost
    enclosing function."""
    found = {}
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found[node.lineno] = func.name
    return [f"{name} (line {line})" for line, name in sorted(found.items())]


def test_function_import_check_finds_one():
    source = ("import os\n\ndef f():\n    import math\n"
              "    def g():\n        from os import sep\n")
    assert function_imports(source) == ["f (line 4)", "g (line 6)"]
    assert function_imports("import os\nclass A:\n    x = 1\n") == []


def test_no_module_imports_inside_a_function():
    found = {path.name: function_imports(path.read_text(encoding="utf-8"))
             for path in sorted((SRC / "usproc").glob("*.py"))}
    assert len(found) >= 13
    assert {name: names for name, names in found.items() if names} == {}
