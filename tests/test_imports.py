"""Each `concordia` module imports first, in a fresh interpreter: no import
cycle between them.  Each CLI subcommand loads only the modules it runs
and builds only the parsers it selects."""

import os
import pkgutil
import subprocess
import sys

import pytest

import concordia
from concordia import cli

SRC = os.path.dirname(os.path.dirname(concordia.__file__))
MODULES = sorted(m.name for m in pkgutil.iter_modules(concordia.__path__))


def test_module_list():
    assert {"arith", "curves", "torsion", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_imports_first(name):
    subprocess.run([sys.executable, "-c", f"import concordia.{name}"],
                   check=True, env=dict(os.environ, PYTHONPATH=SRC))


# The package modules each subcommand loads, besides `cli` itself, and
# whether it may load `fractions` (and with it `decimal` and `numbers`):
# only `convert chain`, which reads the rationals --x and --y, does.  Only
# `selftest` runs the torsion oracle, and only it loads `oracle`.
PROBLEMS = {"arith", "curves", "geometry", "problems", "quadrics",
            "serialize", "torsion", "triples"}
SUBCOMMAND_MODULES = [
    pytest.param("classify --m -1 --n 3",
                 {"arith", "curves", "serialize", "torsion"}, False,
                 id="classify"),
    pytest.param("classify --p 1 --q 3 --k 1",
                 {"arith", "curves", "serialize", "torsion", "triples"},
                 False, id="classify-pqk"),
    pytest.param("search --m -5 --n 5 --bound 10",
                 {"arith", "curves", "serialize", "sieve"}, False,
                 id="search"),
    pytest.param("convert to-concordant --r 0 --s 1 --k 5",
                 {"arith", "curves", "triples"}, False, id="to-concordant"),
    pytest.param("convert to-congruent --p 1 --q 1 --k 5",
                 {"arith", "curves", "triples"}, False, id="to-congruent"),
    pytest.param("verify concordant --m -1 --n 3 --x 1 --y 0 --z 1 --w 1",
                 {"arith", "curves", "quadrics"}, False, id="verify"),
    pytest.param("solve concordant --p 1 --q 3 --k 1", PROBLEMS, False,
                 id="solve-concordant"),
    pytest.param("solve concordant --p 1 --q 3 --k 1 --bound 10",
                 PROBLEMS | {"sieve"}, False, id="solve-bounded"),
    pytest.param("solve theta --r 0 --s 1 --k 5", PROBLEMS, False,
                 id="solve-theta"),
    pytest.param("convert chain --m -5 --n 5 --x -4 --y 6", PROBLEMS, True,
                 id="chain"),
    pytest.param("family order4 --u 1 --v 2", PROBLEMS, False, id="order4"),
    pytest.param("family order8 --xi 3 --eta 4 --zeta 5", PROBLEMS, False,
                 id="order8"),
    pytest.param("family order36 --a -2 --b 7", PROBLEMS, False,
                 id="order36"),
    pytest.param("selftest --pmax 1", PROBLEMS | {"oracle", "sweeps"}, False,
                 id="selftest"),
]


@pytest.mark.parametrize("argv,modules,rationals", SUBCOMMAND_MODULES)
def test_a_subcommand_loads_only_the_modules_it_runs(argv, modules,
                                                     rationals):
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
    if not rationals:
        assert not {"fractions", "decimal", "numbers"} & set(loaded)


def test_point_views_build_fractions_without_geometry():
    # `Point.x` and `Point.y` register `_Coprime` as a `numbers.Rational`
    # themselves, through `curves._fraction_class`, with no `geometry`.
    code = ("import sys\n"
            "from concordia.curves import Point\n"
            "loaded = 'numbers' in sys.modules\n"
            "P = Point(5, -7, 3)\n"
            "print(loaded, P.x, P.y, 'concordia.geometry' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC)).stdout
    assert out.split() == ["False", "5/9", "-7/27", "False"]


@pytest.mark.parametrize("argv,built", [
    ("classify --m -1 --n 3", ["concordia", "concordia classify"]),
    ("solve theta --r 0 --s 1 --k 5",
     ["concordia", "concordia solve", "concordia solve theta"]),
])
def test_a_call_builds_only_the_parsers_it_selects(argv, built, monkeypatch,
                                                    capsys):
    # The top-level parser, then the group's and the leaf's that argparse
    # selects, where building every parser takes 17.
    progs = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert cli.main(argv.split()) == 0
    assert progs == built
