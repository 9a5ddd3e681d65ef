"""Dependency guard: importing usproc must not pull in scipy.

numpy is the only runtime dependency.  scipy may be installed next to it, so
an accidental ``import scipy.linalg`` would go unnoticed in every other test;
this one imports the package and all of its submodules in a fresh
interpreter and inspects ``sys.modules``.
"""

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
