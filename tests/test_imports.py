"""Each `concordia` module imports first, in a fresh interpreter: no import
cycle between them."""

import os
import pkgutil
import subprocess
import sys

import pytest

import concordia

SRC = os.path.dirname(os.path.dirname(concordia.__file__))
MODULES = sorted(m.name for m in pkgutil.iter_modules(concordia.__path__))


def test_module_list():
    assert {"arith", "curves", "torsion", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_imports_first(name):
    subprocess.run([sys.executable, "-c", f"import concordia.{name}"],
                   check=True, env=dict(os.environ, PYTHONPATH=SRC))
