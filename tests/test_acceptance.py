"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
pass/fail line so the suite doubles as a release checklist.  All checks are
exact (no tolerances): every quantity involved is an integer or a Fraction.
"""

import json
import time
from fractions import Fraction
from math import gcd

from concordia.cli import main
from concordia.curves import Curve
from concordia.geometry import (ap_to_triangle, isosceles_triangle,
                                quadric_to_ap, triangle_to_ap)
from concordia.problems import (four_torsion_counterexamples,
                                solve_theta_congruent)
from concordia.quadrics import (concordant_form_map, point_to_quadric,
                                quadric_to_point, right_triangle_map)
from concordia.sweeps import family_sweep, oracle_equivalence_sweep
from concordia.torsion import torsion_subgroup
from concordia.triples import (ConcordantTriple, CongruentTriple,
                               concordant_to_congruent,
                               congruent_to_concordant)


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"{status} criterion {num}: {label}{tail}")
    assert ok, f"criterion {num}: {label}{tail}"


def test_criterion_1_torsion_reproduction(capsys):
    t0 = time.monotonic()
    code = main(["classify", "--m", "-1", "--n", "3"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    expected = sorted(["O", ["0", "0"], ["1", "0"], ["-3", "0"],
                       ["3", "6"], ["3", "-6"], ["-1", "2"], ["-1", "-2"]],
                      key=str)
    ok = (code == 0 and payload["torsion"]["class"] == "Z2xZ4"
          and sorted(payload["points"], key=str) == expected)
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(1, "classify E(-1,3) torsion exactly", ok and elapsed < 1.0,
                f"{elapsed:.2f}s")


FAMILY_CURVES = {
    (-1, 3): "Z2xZ4",
    (-1, 8): "Z2xZ4",
    (-81, 175): "Z2xZ8",
    (-4096, 46529): "Z2xZ8",
    (-5, 27): "Z2xZ6",
    (-64, 125): "Z2xZ6",
    (-2625, 6591): "Z2xZ6",
    (-96, 1029): "Z2xZ6",
}


def test_criterion_2_family_classifications(capsys):
    t0 = time.monotonic()
    bad = []
    for mn, tag in FAMILY_CURVES.items():
        cls, pts = torsion_subgroup(Curve(*mn))
        if cls.tag != tag or len(pts) != cls.group_size():
            bad.append((mn, cls.tag))
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(2, "eight family curves classify as stated",
                not bad and elapsed < 10.0, f"{elapsed:.2f}s, bad={bad}")


def test_criterion_3_oracle_equivalence(capsys):
    t0 = time.monotonic()
    failures = oracle_equivalence_sweep(p_max=30)
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(3, "classification matches Nagell-Lutz oracle, "
                   "p,q<=30 x 8 k-values",
                not failures and elapsed < 600.0,
                f"{elapsed:.1f}s, discrepancies={len(failures)}")


def test_criterion_4_family_sweeps(capsys):
    t0 = time.monotonic()
    problems = family_sweep(20)
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(4, "family sweeps <=20 satisfy torsion and k constraints",
                not problems, f"{elapsed:.1f}s, violations={len(problems)}")


SIGMA_CURVES = [(-1, 3), (-2, 3), (-5, 27), (-1, 8), (-64, 125), (-96, 1029),
                (-5, 5), (-6, 6), (1, 4), (-20, 108)]


def test_criterion_5_isomorphism_identities(capsys):
    t0 = time.monotonic()
    bad = []
    H = 10 ** 4

    def points_of(c):
        _, torsion = torsion_subgroup(c)
        return set(torsion) | set(c.search(H))

    for n in (5, 6, 7, 31):
        c = Curve(-n, n)
        for P in points_of(c):
            S = point_to_quadric(P, c)
            if quadric_to_point(S, c) != P:
                bad.append((c, P, "psi-phi"))
            if right_triangle_map(S, c) != c.multiply(P, 2):
                bad.append((c, P, "tau"))
    for mn in SIGMA_CURVES:
        c = Curve(*mn)
        for P in points_of(c):
            S = point_to_quadric(P, c)
            if quadric_to_point(S, c) != P:
                bad.append((c, P, "psi-phi"))
            if point_to_quadric(quadric_to_point(S, c), c) != S:
                bad.append((c, P, "phi-psi"))
            if concordant_form_map(S, c) != c.negate(c.multiply(P, 2)):
                bad.append((c, P, "sigma"))
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(5, "phi/psi inverse, tau=2*phi, sigma=-2*phi at H=10^4",
                not bad and elapsed < 60.0,
                f"{elapsed:.1f}s, {len(bad)} failures")


def test_criterion_6_counterexample_points(capsys):
    t0 = time.monotonic()
    checks = []
    c31 = Curve(-31, 31)
    P31 = c31.point(Fraction(1681, 49), Fraction(29520, 343))
    checks.append(c31.order_of(P31) is None)
    checks.append(not c31.is_double(P31))
    checks.append(P31 in c31.search(1700))
    c5 = Curve(-5, 5)
    P5 = c5.point(Fraction(25, 4), Fraction(75, 8))
    checks.append(c5.order_of(P5) is None)
    checks.append(not c5.is_double(P5))
    checks.append(P5 in c5.search(30))
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(6, "non-halvable infinite-order points on E(-31,31), E(-5,5)",
                all(checks) and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_7_square_k_suite(capsys):
    t0 = time.monotonic()
    ok = four_torsion_counterexamples() == []
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(7, "(0,1,1,k) nontrivial with order-4 image on E(1,k^2)",
                ok and elapsed < 1.0, f"{elapsed:.2f}s")


def _equivalence_failures():
    """Order-4 points <-> zero in the progression <-> isosceles triangle."""
    bad = []
    for mn in FAMILY_CURVES:
        c = Curve(*mn)
        _, torsion = torsion_subgroup(c)
        g = gcd(-c.m, c.n)
        p, q = -c.m // g, c.n // g
        if (p - q) % 2 == 0:
            curve, ct = c, ConcordantTriple(p, q, g)
            lift = lambda P: P
        else:
            curve = Curve(4 * c.m, 4 * c.n)
            ct = ConcordantTriple(p, q, 4 * g)
            lift = lambda P: curve.point(4 * P.x, 8 * P.y)
        ang = concordant_to_congruent(ct)
        for P in torsion:
            if (c.order_of(P) or 99) <= 2:
                continue
            Q = lift(P)
            S = point_to_quadric(Q, curve)
            ap = quadric_to_ap(S, ct.p, ct.q, ct.k)
            tri = ap_to_triangle(ap, ang.r, ang.s)
            is4 = c.order_of(P) == 4
            zero_in_ap = S.x2 == 0
            if not (is4 == zero_in_ap == tri.is_isosceles()):
                bad.append((mn, P))
    return bad


def test_criterion_8_geometry_equivalences(capsys):
    t0 = time.monotonic()
    bad = _equivalence_failures()
    for rho in range(1, 12):
        for sigma in range(rho + 1, 13):
            if gcd(rho, sigma) != 1:
                continue
            tri, r, s, k = isosceles_triangle(rho, sigma)
            if k not in (1, 2) or tri.a * tri.b != 2 * k * s:
                bad.append(("isosceles", rho, sigma))
            triangle_to_ap(tri)  # raises if the progression is inconsistent
    report = solve_theta_congruent(CongruentTriple(1, 2, 1))
    tris = report.triangles()
    if len(tris) != 1 or tris[0][0].sides() != (2, 2, 2):
        bad.append(("solve theta 1 2 1",))
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(8, "three-way equivalence, isosceles sweep, equilateral case",
                not bad and elapsed < 60.0,
                f"{elapsed:.1f}s, {len(bad)} failures")


def test_criterion_9_bijection_suite(capsys):
    t0 = time.monotonic()
    bad = []
    count = 0
    for s in range(1, 51):
        for r in range(-s + 1, s):
            if gcd(r, s) != 1:
                continue
            for k in range(1, 21):
                t = CongruentTriple(r, s, k)
                if concordant_to_congruent(congruent_to_concordant(t)) != t:
                    bad.append((r, s, k))
                count += 1
    for p in range(1, 51):
        for q in range(1, 51):
            if gcd(p, q) != 1:
                continue
            for k in range(1, 21):
                ct = ConcordantTriple(p, q, k)
                try:
                    t = concordant_to_congruent(ct)
                except ValueError:
                    continue
                if congruent_to_concordant(t) != ct:
                    bad.append((p, q, k))
                count += 1
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        _report(9, "f and g invert each other, s<=50, k<=20",
                not bad and elapsed < 10.0,
                f"{elapsed:.1f}s, {count} triples")
