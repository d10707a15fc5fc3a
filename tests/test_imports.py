"""The package imports nothing outside the standard library."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

from conftest import SRC

# Prints the top-level modules that importing its arguments loads. Modules
# already loaded at start-up (site hooks may preload some) do not count.
PROBE = """
import importlib, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(*sorted({name.split(".")[0] for name in set(sys.modules) - before}))
"""


def test_every_submodule_imports_only_the_standard_library():
    names = ["xqowl"] + [f"xqowl.{info.name}"
                         for info in pkgutil.iter_modules([str(SRC / "xqowl")])]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *names], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    loaded = set(proc.stdout.split())
    assert "xqowl" in loaded
    assert loaded - {"xqowl"} <= sys.stdlib_module_names
