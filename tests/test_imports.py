"""Every top-level ``repro.*`` package imports cleanly on its own.

Import cycles only show when a package is imported *first*: inside one
pytest process the other test modules have already loaded the whole
tree, so each import runs in a fresh interpreter.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))
PACKAGES = sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def test_packages_discovered():
    assert "repro.offload" in PACKAGES
    assert "repro.experiments" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_in_fresh_interpreter(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", f"import {package}"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
