"""The package's immutable values: built by position or keyword, closed to
assignment, equal only within one class, hashed over their fields, copied
and pickled whole, and checked on construction with fixed messages."""

import copy
import pickle

import pytest

from concordia.curves import Curve, Point
from concordia.geometry import APTriple, DegenerateTriangleError, Triangle
from concordia.problems import (FamilyRecord, SolutionEntry, SolutionReport,
                                gen_order4_family, solve_concordant)
from concordia.quadrics import QuadricPoint
from concordia.torsion import TorsionClass
from concordia.triples import ConcordantTriple, CongruentTriple

REPORT = solve_concordant(ConcordantTriple(1, 3, 1))
ENTRY_FIELDS = "point quadric ap triangle provenance"
REPORT_FIELDS = "problem triple curve torsion_class solutions search_bound"
FAMILY_FIELDS = ("family params m n concordant congruent congruent_curve "
                 "parity_case torsion_tag")


def _fields_of(value, names):
    return tuple(getattr(value, name) for name in names.split())


# class: (its fields, a value's fields, another value's fields or None for
# the same with the first one changed)
VALUES = {
    Point: ("X Y Z", (3, 6, 1), (3, -6, 1)),
    Curve: ("m n", (-5, 5), (-6, 5)),
    TorsionClass: ("tag certificate base shift scale",
                   ("Z2xZ4", (1, 2), Curve(-1, 3), 0, 1),
                   ("Z2xZ8", (1, 2), Curve(-1, 3), 0, 1)),
    ConcordantTriple: ("p q k", (1, 3, 5), (2, 3, 5)),
    CongruentTriple: ("r s k", (1, 3, 5), (2, 3, 5)),
    QuadricPoint: ("x0 x1 x2 x3", (1, 0, 1, 1), (3, 1, 2, 4)),
    APTriple: ("a b g d step p q", (1, 5, 7, 2, 6, 1, 1),
               (1, 5, 7, 1, 24, 1, 1)),
    Triangle: ("A B C D r s", (4, 3, 5, 1, 0, 1), (8, 6, 10, 1, 0, 1)),
    SolutionEntry: (ENTRY_FIELDS,
                    _fields_of(REPORT.solutions[0], ENTRY_FIELDS), None),
    SolutionReport: (REPORT_FIELDS, _fields_of(REPORT, REPORT_FIELDS), None),
    FamilyRecord: (FAMILY_FIELDS,
                   _fields_of(gen_order4_family(1, 2), FAMILY_FIELDS), None),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    names, fields, other = VALUES[cls]
    names = names.split()
    if other is None:  # a value of this class with its first field changed
        other = ("changed", *fields[1:])
    a, b = cls(*fields), cls(**dict(zip(names, fields)))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != cls(*other)
    assert [getattr(a, name) for name in names] == list(fields)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, fields[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b
    assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)
    assert "__dataclass_fields__" not in vars(cls)


def test_values_of_two_classes_are_unequal():
    assert ConcordantTriple(1, 3, 5) != CongruentTriple(1, 3, 5)
    assert Point(1, 1, 0) != (1, 1, 0)
    assert Curve(-1, 3) != (-1, 3)


def test_reprs():
    assert repr(Point(1, 1, 0)) == "O"
    assert repr(Point(3, 6, 1)) == "(3, 6)"
    assert repr(Curve(-1, 3)) == "Curve(m=-1, n=3)"
    assert repr(QuadricPoint(0, 1, 1, 2)) == \
        "QuadricPoint(x0=0, x1=1, x2=1, x3=2)"
    assert repr(TorsionClass("Z2xZ4", (1, 2), Curve(-1, 3), 0, 1)) == (
        "TorsionClass(tag='Z2xZ4', certificate=(1, 2), "
        "base=Curve(m=-1, n=3), shift=0, scale=1)")


def test_a_point_has_no_instance_dict():
    assert not hasattr(Point(1, 1, 0), "__dict__")


@pytest.mark.parametrize("build,error,message", [
    (lambda: Curve(0, 1), ValueError,
     "degenerate cubic: m and n must be nonzero"),
    (lambda: Curve(2, 2), ValueError, "degenerate cubic: m and n must differ"),
    (lambda: ConcordantTriple(0, 1, 1), ValueError,
     "concordant triple components must be positive"),
    (lambda: ConcordantTriple(2, 4, 1), ValueError, "p and q must be coprime"),
    (lambda: CongruentTriple(0, 0, 1), ValueError, "s and k must be positive"),
    (lambda: CongruentTriple(3, 2, 1), ValueError,
     "|r| < s required for a genuine angle"),
    (lambda: CongruentTriple(2, 4, 1), ValueError, "r and s must be coprime"),
    (lambda: QuadricPoint(0, 0, 0, 0), ValueError,
     "all-zero projective tuple"),
    (lambda: QuadricPoint(2, 0, 2, 2), ValueError,
     "coordinates are not primitive"),
    (lambda: QuadricPoint(0, -1, 1, 1), ValueError,
     "first nonzero coordinate must be positive"),
    (lambda: APTriple(1, 5, 7, 2, 0, 1, 1), ValueError,
     "step and gaps must be positive"),
    (lambda: APTriple(-1, 5, 7, 2, 6, 1, 1), ValueError,
     "progression terms must be nonnegative magnitudes"),
    (lambda: APTriple(3, 5, 7, 2, 6, 1, 1), ValueError,
     "lower gap mismatch"),
    (lambda: APTriple(1, 5, 9, 2, 6, 1, 1), ValueError,
     "upper gap mismatch"),
    (lambda: APTriple(-1, -5, -7, -2, 6, 1, 1), ValueError,
     "the common denominator must be positive"),
    (lambda: Triangle(4, 0, 5, 1, 0, 1),
     DegenerateTriangleError, "sides must be positive"),
    (lambda: Triangle(3, 4, 5, 1, 0, 1),
     ValueError, "side labels must satisfy a >= b"),
    (lambda: Triangle(4, 3, 7, 1, 0, 1),
     DegenerateTriangleError, "triangle inequality violated"),
    (lambda: Triangle(4, 3, 5, 1, 2, 2),
     ValueError, "cos(theta) = r/s must be reduced with |r| < s"),
    (lambda: Triangle(4, 3, 5, 1, 1, 2),
     ValueError, "law of cosines fails for the given angle"),
    (lambda: Triangle(-4, -3, -5, -1, 0, 1),
     ValueError, "the common denominator must be positive"),
])
def test_construction_checks_keep_their_messages(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
