import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concordia.curves import INFINITY, Curve, Point, point_sort_key
from concordia.geometry import ap_to_quadric, quadric_to_ap
from concordia.quadrics import (QuadricPoint, TRIVIAL_BASE,
                                concordant_form_map, point_to_quadric,
                                quadric_to_point, right_triangle_map)


def test_primitive_normal_form():
    assert QuadricPoint(0, 2, -3, 5).coords() == (0, 2, -3, 5)
    with pytest.raises(ValueError):
        QuadricPoint(0, 0, 0, 0)
    with pytest.raises(ValueError):
        QuadricPoint(2, 4, 6, 8)  # gcd must already be 1
    with pytest.raises(ValueError):
        QuadricPoint(0, -1, 2, 3)  # first nonzero coordinate must be > 0


@pytest.mark.parametrize("mn,xyz", [((-5, 5), (-4, 6, 1)),
                                     ((-20, 10), (-5, 25, 1)),
                                     ((-7, 35), (-35, 980, 3))])
def test_built_images_equal_checked_ones_on_a_chain(mn, xyz):
    # point_to_quadric and ap_to_quadric build their primitive images
    # without QuadricPoint's check; on every multiple and torsion point the
    # image equals the checked constructor's, field for field, and so
    # passes that check.
    c, P = Curve(*mn), Point(*xyz)
    m, n = mn
    Q = INFINITY
    # O's image is the shared constant TRIVIAL_BASE, built by no map.
    pts = sorted(c.torsion_oracle() - {INFINITY}, key=point_sort_key)
    for _ in range(30):
        Q = c.add(Q, P)
        pts.append(Q)
    for Q in pts:
        S = point_to_quadric(Q, c)
        checked = QuadricPoint(*S.coords())
        assert type(S) is QuadricPoint and vars(S) == vars(checked)
        assert S == checked and hash(S) == hash(checked)
        if not S.is_trivial:
            ap = quadric_to_ap(S, -m, n, 1)
            assert ap_to_quadric(ap) == QuadricPoint(*map(abs, S.coords()))


def test_trivial_detection():
    assert TRIVIAL_BASE.is_trivial
    assert QuadricPoint(1, 0, -1, 1).is_trivial
    assert not QuadricPoint(0, 1, 1, 2).is_trivial


def test_on_quadric():
    c = Curve(1, 4)
    assert QuadricPoint(0, 1, 1, 2).on_quadric(c)
    assert TRIVIAL_BASE.on_quadric(c)
    assert not QuadricPoint(1, 1, 1, 1).on_quadric(c)


def test_special_values():
    c = Curve(-1, 3)
    assert quadric_to_point(TRIVIAL_BASE, c) == INFINITY
    assert point_to_quadric(INFINITY, c) == TRIVIAL_BASE
    for x in (0, 1, -3):
        P = c.point(x, 0)
        S = point_to_quadric(P, c)
        assert S.is_trivial
        assert quadric_to_point(S, c) == P


def test_known_image():
    c = Curve(1, 4)
    P = quadric_to_point(QuadricPoint(0, 1, 1, 2), c)
    assert c.order_of(P) == 4


CURVES = [Curve(*mn) for mn in
          [(-1, 3), (-2, 3), (-5, 27), (-1, 8), (-64, 125), (-96, 1029),
           (-5, 5), (-6, 6), (1, 4), (-20, 108)]]


def _sample_points(c, height=400):
    pts = set(c.torsion_oracle()) | set(c.search(height))
    return sorted(pts, key=point_sort_key)


@pytest.mark.parametrize("c", CURVES, ids=lambda c: f"E({c.m},{c.n})")
def test_roundtrip_both_ways(c):
    for P in _sample_points(c):
        S = point_to_quadric(P, c)
        assert S.on_quadric(c)
        assert quadric_to_point(S, c) == P
        assert point_to_quadric(quadric_to_point(S, c), c) == S


@pytest.mark.parametrize("n", [5, 6, 7, 31])
def test_right_triangle_map_is_doubling(n):
    c = Curve(-n, n)
    for P in _sample_points(c, 2500):
        S = point_to_quadric(P, c)
        assert right_triangle_map(S, c) == c.multiply(P, 2)


@pytest.mark.parametrize("c", CURVES, ids=lambda c: f"E({c.m},{c.n})")
def test_concordant_form_map_is_negated_doubling(c):
    for P in _sample_points(c):
        S = point_to_quadric(P, c)
        assert concordant_form_map(S, c) == c.negate(c.multiply(P, 2))


def test_right_triangle_map_requires_symmetric_curve():
    with pytest.raises(ValueError):
        right_triangle_map(TRIVIAL_BASE, Curve(-1, 3))


def test_maps_reject_off_quadric_points():
    c = Curve(-1, 3)
    with pytest.raises(ValueError):
        quadric_to_point(QuadricPoint(1, 1, 1, 1), c)
    with pytest.raises(ValueError):
        concordant_form_map(QuadricPoint(1, 1, 1, 1), c)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_transfer_of_group_translation(data):
    """phi is a bijection on classes: distinct points give distinct tuples."""
    c = data.draw(st.sampled_from(CURVES))
    pts = _sample_points(c, 100)
    P = data.draw(st.sampled_from(pts))
    Q = data.draw(st.sampled_from(pts))
    if P != Q:
        assert point_to_quadric(P, c) != point_to_quadric(Q, c)
