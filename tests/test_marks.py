"""The membership marks: a `Point` passes `Curve.weighted`, and a
`QuadricPoint` passes `on_quadric`, once per curve, and the record of it
never lets a value through on a curve it is not on."""

import copy
import gc
import pickle
import weakref

import pytest

from concordia.curves import Curve, Point
from concordia.quadrics import (QuadricPoint, concordant_form_map,
                                point_to_quadric, quadric_to_point,
                                right_triangle_map)


def count_checks(monkeypatch) -> dict:
    """From now on, counts the evaluations of the curve identity
    (`Curve.satisfies`) and of the two quadric equations: a call of
    `on_quadric` on a point with no True answer recorded for (m, n)."""
    counts = {"satisfies": 0, "on_quadric": 0}
    satisfies, on_quadric = Curve.satisfies, QuadricPoint.on_quadric

    def counted_satisfies(self, X, Y, Z):
        counts["satisfies"] += 1
        return satisfies(self, X, Y, Z)

    def counted_on_quadric(self, c):
        if vars(self).get("_quadric") != (c.m, c.n):
            counts["on_quadric"] += 1
        return on_quadric(self, c)

    monkeypatch.setattr(Curve, "satisfies", counted_satisfies)
    monkeypatch.setattr(QuadricPoint, "on_quadric", counted_on_quadric)
    return counts


@pytest.mark.parametrize("mn,xy", [
    ((-5, 5), (-4, 6)),  # right_triangle_map on Q(-n, n)
    ((-20, 10), (-5, 25)),  # concordant_form_map
])
def test_a_chain_checks_each_value_once(mn, xy, monkeypatch):
    # The ops of a chain of multiples: kP = (k-1)P + P, its quadric point
    # S, the round trip, 2kP and the degree-4 map of S against +-2kP.
    # Each new kP passes the curve identity in point_to_quadric and its
    # round-trip image in quadric_to_point: 2 per op, where every read
    # checked it, 5 per op (3 for k = 1, which adds nothing, and 4 for
    # k = 2, whose add(P, P) reads one point): 97 in all.  Each S passes
    # the quadric equations in quadric_to_point alone: 1 per op, where
    # the degree-4 map checked it again.
    P = Point(*xy, 1)
    c = Curve(*mn)
    counts = count_checks(monkeypatch)
    Q = None
    for _ in range(20):
        Q = P if Q is None else c.add(Q, P)
        S = point_to_quadric(Q, c)
        assert quadric_to_point(S, c) == Q
        double = c.add(Q, Q)
        if c.m == -c.n:
            assert right_triangle_map(S, c) == double
        else:
            assert concordant_form_map(S, c) == c.negate(double)
    assert counts == {"satisfies": 40, "on_quadric": 20}


def test_a_point_is_checked_again_on_another_curve(monkeypatch):
    # (-4, 6) is on E(-5, 5), not on E(-1, 3).  The mark of E(-5, 5) lets
    # nothing through on E(-1, 3), whose every read rejects the point with
    # the gate's message; a curve equal to E(-5, 5) shares its key.
    P, c, other = Point(-4, 6, 1), Curve(-5, 5), Curve(-1, 3)
    counts = count_checks(monkeypatch)
    assert c.weighted(P) == (-4, 6, 1)
    for call in (other.weighted, other.order_of, other.is_double,
                 lambda P: other.add(P, P), other.weighted):
        with pytest.raises(ValueError) as exc:
            call(P)
        assert str(exc.value) == "(-4, 6) is not on E(-1,3)"
    assert counts["satisfies"] == 6
    assert Curve(-5, 5).weighted(P) == c.weighted(P) == (-4, 6, 1)
    assert c.add(P, P) == Curve(-5, 5).point("1681/144", "-62279/1728")
    assert counts["satisfies"] == 7  # only the new point 2P


def test_a_rejected_point_is_rejected_on_every_read(monkeypatch):
    c = Curve(-5, 5)
    counts = count_checks(monkeypatch)
    for _ in range(3):
        with pytest.raises(ValueError) as exc:
            c.weighted(Point(-4, 7, 1))
        assert str(exc.value) == "(-4, 7) is not on E(-5,5)"
    assert counts["satisfies"] == 3


def test_a_quadric_point_is_checked_again_on_another_quadric(monkeypatch):
    # (0:1:1:2) is on Q(1, 4), not on Q(1, 5) or Q(4, 1).
    S, c = QuadricPoint(0, 1, 1, 2), Curve(1, 4)
    counts = count_checks(monkeypatch)
    assert S.on_quadric(c) and S.on_quadric(Curve(1, 4))
    for other in (Curve(1, 5), Curve(4, 1)):
        for _ in range(2):
            assert not S.on_quadric(other)
            with pytest.raises(ValueError) as exc:
                quadric_to_point(S, other)
            assert str(exc.value) == (f"QuadricPoint(x0=0, x1=1, x2=1, "
                                      f"x3=2) is not on Q({other.m},"
                                      f"{other.n})")
    assert S.on_quadric(c)
    assert counts["on_quadric"] == 1 + 8


def test_copies_drop_the_marks_and_equality_ignores_them(monkeypatch):
    c = Curve(-5, 5)
    P = c.add(Point(-4, 6, 1), Point(-4, 6, 1))
    S = point_to_quadric(P, c)
    fresh_P, fresh_S = Point(P.X, P.Y, P.Z), QuadricPoint(*S.coords())
    assert S.on_quadric(c)
    assert (P, S) == (fresh_P, fresh_S)
    assert (hash(P), hash(S)) == (hash(fresh_P), hash(fresh_S))
    assert repr(S) == repr(fresh_S) and repr(P) == repr(fresh_P)
    counts = count_checks(monkeypatch)
    c.weighted(P)
    assert S.on_quadric(c)
    assert counts == {"satisfies": 0, "on_quadric": 0}
    copies = [(copy.copy(P), copy.copy(S)),
              (copy.deepcopy(P), copy.deepcopy(S)),
              pickle.loads(pickle.dumps((P, S)))]
    for P2, S2 in copies:
        assert (P2, S2) == (P, S)
        c.weighted(P2)
        assert S2.on_quadric(c)
    assert counts == {"satisfies": 3, "on_quadric": 3}


def test_a_curve_is_freed_without_the_cycle_collector():
    # The marks hold the curve's key (m, n), not the curve: a curve whose
    # cached 2-torsion points were read through its gate forms no cycle.
    enabled = gc.isenabled()
    gc.disable()
    try:
        c = Curve(-5, 5)
        for T in c.two_torsion:
            assert c.is_double(T) is False
            c.weighted(T)
        alive = weakref.ref(c)
        del c, T
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
