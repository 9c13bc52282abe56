"""Every ``repro`` subpackage imports on its own in a fresh interpreter.

An import cycle can hide behind import order: ``import repro.graph`` first
and the cycle is already resolved.  Each case here starts a new interpreter
whose first import is the module under test.  A module inside a package
(``repro.ops.spmm``) runs its package's ``__init__`` first, so importing
the package covers it.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
SUBPACKAGES = sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__)
)


@pytest.mark.parametrize("module", SUBPACKAGES)
def test_fresh_interpreter_import(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
