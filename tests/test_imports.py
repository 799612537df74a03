"""Each `concordia` module imports first, in a fresh interpreter: no import
cycle between them.  Each CLI subcommand loads only the modules it runs."""

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


# The package modules each subcommand loads, besides `cli` itself.
PROBLEMS = {"arith", "curves", "geometry", "problems", "quadrics",
            "serialize", "torsion", "triples"}
SUBCOMMAND_MODULES = [
    pytest.param("classify --m -1 --n 3",
                 {"arith", "curves", "serialize", "torsion"}, id="classify"),
    pytest.param("classify --p 1 --q 3 --k 1",
                 {"arith", "curves", "serialize", "torsion", "triples"},
                 id="classify-pqk"),
    pytest.param("search --m -5 --n 5 --bound 10",
                 {"arith", "curves", "serialize"}, id="search"),
    pytest.param("convert to-concordant --r 0 --s 1 --k 5",
                 {"arith", "curves", "triples"}, id="to-concordant"),
    pytest.param("convert to-congruent --p 1 --q 1 --k 5",
                 {"arith", "curves", "triples"}, id="to-congruent"),
    pytest.param("solve concordant --p 1 --q 3 --k 1", PROBLEMS,
                 id="solve-concordant"),
    pytest.param("solve theta --r 0 --s 1 --k 5", PROBLEMS, id="solve-theta"),
    pytest.param("convert chain --m -5 --n 5 --x -4 --y 6", PROBLEMS,
                 id="chain"),
    pytest.param("verify concordant --m -1 --n 3 --x 1 --y 0 --z 1 --w 1",
                 PROBLEMS, id="verify"),
    pytest.param("family order4 --u 1 --v 2", PROBLEMS, id="order4"),
    pytest.param("family order8 --xi 3 --eta 4 --zeta 5", PROBLEMS,
                 id="order8"),
    pytest.param("family order36 --a -2 --b 7", PROBLEMS, id="order36"),
    pytest.param("selftest --pmax 1", PROBLEMS | {"sweeps"}, id="selftest"),
]


@pytest.mark.parametrize("argv,modules", SUBCOMMAND_MODULES)
def test_a_subcommand_loads_only_the_modules_it_runs(argv, modules):
    # `-S`: no `site`, which on some hosts imports typing itself.  None of
    # dataclasses, inspect and typing is imported by the standard modules
    # the CLI uses, so a loaded one comes from the package.
    code = ("import sys\n"
            "from concordia import cli\n"
            f"code = cli.main({argv.split()!r})\n"
            "print(code, *sorted(sys.modules))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC)).stdout
    code, *loaded = out.splitlines()[-1].split()
    assert code == "0"
    assert {name.removeprefix("concordia.") for name in loaded
            if name.startswith("concordia.")} == modules | {"cli"}
    assert not {"dataclasses", "inspect", "typing"} & set(loaded)
