"""End-to-end solution pipelines for the concordant-form and
theta-congruent problems, plus the torsion-solution family generators.

A report never claims nonexistence: an empty solution list only means
nothing was found among torsion points and (optionally) a height-bounded
search, so reports carry decidability="bounded".
"""

from __future__ import annotations

import functools
import math

from .curves import Curve, Frozen, Point, point_sort_key
from .geometry import (APTriple, Triangle, _check_angle, _triangle,
                       quadric_to_ap)
from .quadrics import (QuadricPoint, point_to_quadric, quadric_to_point,
                       verify_concordant_solution)
from .serialize import point_json
from .torsion import (CertificateMismatch, TorsionClass, classify_torsion,
                      torsion_subgroup)
from .triples import (ConcordantTriple, CongruentTriple,
                      concordant_to_congruent, congruent_to_concordant,
                      curve_to_concordant)


class SolutionEntry(Frozen):
    point: Point
    quadric: QuadricPoint
    ap: APTriple
    triangle: Triangle | None
    provenance: str  # "torsion" or "search"

    def to_json(self) -> dict:
        out = {
            "point": point_json(self.point),
            "quadric": self.quadric.to_json(),
            "ap": self.ap.to_json(),
            "provenance": self.provenance,
        }
        if self.triangle is not None:
            out["triangle"] = self.triangle.to_json()
        return out


class SolutionReport(Frozen):
    problem: str
    triple: tuple
    curve: Curve
    torsion_class: TorsionClass
    solutions: tuple[SolutionEntry, ...]
    search_bound: int | None

    @property
    def decidability(self) -> str:
        return "bounded"

    def triangles(self) -> list[tuple[Triangle, list[Point]]]:
        """Distinct triangles with the points generating each, ordered by
        their sides, ascending, as rationals.

        A triangle's (A, B, C, D) is primitive, so two are the same
        triangle iff their sorted sides and D are equal, and the sides
        compare over two denominators by cross-multiplying."""
        seen: dict[tuple, tuple[Triangle, list[Point]]] = {}
        for entry in self.solutions:
            tri = entry.triangle
            if tri is None:
                continue
            key = (*sorted((tri.A, tri.B, tri.C)), tri.D)
            seen.setdefault(key, (tri, []))[1].append(entry.point)
        order = functools.cmp_to_key(_side_order)
        return [seen[key] for key in sorted(seen, key=order)]

    def to_json(self) -> dict:
        out = {
            "problem": self.problem,
            "triple": list(self.triple),
            "curve": self.curve.to_json(),
            "torsion": self.torsion_class.to_json(),
            "solutions": [e.to_json() for e in self.solutions],
            "search_bound": self.search_bound,
            "decidability": self.decidability,
        }
        if self.problem == "theta-congruent":
            out["triangles"] = [
                {
                    "sides": tri.side_strings(),
                    "points": [point_json(P) for P in pts],
                }
                for tri, pts in self.triangles()
            ]
        return out


def _side_order(u: tuple, v: tuple) -> int:
    """Order (s1, s2, s3, D) keys by s1/D, then s2/D, then s3/D."""
    for x, y in zip(u[:3], v[:3]):
        x, y = x * v[3], y * u[3]
        if x != y:
            return -1 if x < y else 1
    return 0


def point_chain(c: Curve, P: Point, angle: tuple[int, int] | None) -> tuple:
    """The paper's dictionary for a point P of E(m,n): the quadric point S
    of P, S's progression on the curve's own concordant triple (None if S
    is trivial or m < 0 < n fails) and, for an angle (r, s), the triangle
    of that progression (else None)."""
    return _point_chains(c, [P], angle)[0]


def _point_chains(c: Curve, points, angle: tuple[int, int] | None) -> list:
    """`point_chain` of each of the points, with the curve's work done
    once: its concordant triple, and `ap_to_triangle`'s check that the
    angle fits that triple's gaps, at the first progression."""
    out = []
    t = None
    for P in points:
        S = point_to_quadric(P, c)
        if S.is_trivial or not c.m < 0 < c.n:
            out.append((S, None, None))
            continue
        if t is None:
            t = curve_to_concordant(c)
            if angle is not None:
                _check_angle(t.p, t.q, t.k, *angle)
        ap = quadric_to_ap(S, t.p, t.q, t.k)
        out.append((S, ap, None if angle is None else _triangle(ap, *angle)))
    return out


def _solve(problem: str, triple_fields: tuple, c: Curve,
           angle: tuple[int, int] | None,
           search_bound: int | None) -> SolutionReport:
    cls, torsion = torsion_subgroup(c)
    found = [("torsion", {P for P in torsion if not P.is_infinity and P.Y})]
    if search_bound is not None:
        # torsion holds O and the three points of order 2
        found.append(("search", {P for P in c.search(search_bound)
                                 if P not in torsion}))
    tagged = [(P, provenance) for provenance, points in found
              for P in sorted(points, key=point_sort_key)]
    chains = _point_chains(c, [P for P, _ in tagged], angle)
    entries = tuple(SolutionEntry(P, *chain, provenance)
                    for (P, provenance), chain in zip(tagged, chains))
    return SolutionReport(problem=problem, triple=triple_fields, curve=c,
                          torsion_class=cls, solutions=entries,
                          search_bound=search_bound)


def solve_concordant(t: ConcordantTriple,
                     search_bound: int | None = None) -> SolutionReport:
    """Nontrivial solutions of X^2 - pkY^2 = Z^2, X^2 + qkY^2 = W^2 found
    among torsion points of order > 2 and, optionally, a bounded search."""
    return _solve("concordant", (t.p, t.q, t.k), t.curve(), None, search_bound)


def solve_theta_congruent(t: CongruentTriple,
                          search_bound: int | None = None) -> SolutionReport:
    """Rational theta-triangles with area k*sqrt(s^2-r^2), via the curve of
    the equivalent concordant triple."""
    return _solve("theta-congruent", (t.r, t.s, t.k),
                  congruent_to_concordant(t).curve(), (t.r, t.s), search_bound)


# ---------------------------------------------------------------------------
# Families of curves with prescribed torsion


class FamilyRecord(Frozen):
    family: str
    params: tuple
    m: int
    n: int
    concordant: ConcordantTriple
    congruent: CongruentTriple
    congruent_curve: tuple[int, int]  # curve carrying the congruent triple
    parity_case: str
    torsion_tag: str

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": list(self.params),
            "curve": Curve(self.m, self.n).to_json(),
            "concordant": self.concordant.to_json(),
            "congruent": self.congruent.to_json(),
            "congruent_curve": list(self.congruent_curve),
            "parity_case": self.parity_case,
            "torsion": self.torsion_tag,
        }


def _family_record(family: str, params: tuple, m: int, n: int
                   ) -> FamilyRecord:
    """Record of the family curve E(m,n) = E(-p*k, q*k), m < 0 < n.

    The congruent triple attached to its torsion solutions lives on E(m,n)
    itself when m and n are both odd; with unequal parities it lives on
    E(4m,4n) with a doubled number k.  Both routes take the concordant
    triple of that curve through the inverse bijection.
    """
    c = Curve(m, n)
    if m % 2 != 0 and n % 2 != 0:
        cc, case = c, "m,n odd"
    else:
        cc, case = Curve(4 * m, 4 * n), "m,n of unequal parity"
    congruent = concordant_to_congruent(curve_to_concordant(cc))
    return FamilyRecord(family=family, params=params, m=m, n=n,
                        concordant=curve_to_concordant(c),
                        congruent=congruent, congruent_curve=(cc.m, cc.n),
                        parity_case=case, torsion_tag=classify_torsion(c).tag)


def gen_order4_family(u: int, v: int) -> FamilyRecord:
    """Curves E(-u^2, v^2-u^2) whose torsion contains points of order 4."""
    if not (0 < u < v) or math.gcd(u, v) != 1:
        raise ValueError("coprime 0 < u < v required")
    return _family_record("order4", (u, v), -u * u, v * v - u * u)


def gen_order8_family(xi: int, eta: int, zeta: int) -> FamilyRecord:
    """Curves E(-xi^4, eta^4-xi^4) with torsion Z2xZ8, from a primitive
    Pythagorean triple with xi < eta."""
    if xi * xi + eta * eta != zeta * zeta:
        raise ValueError("not a Pythagorean triple")
    if math.gcd(xi, eta) != 1 or not (0 < xi < eta) or zeta < 0:
        raise ValueError("primitive triple with 0 < xi < eta, zeta > 0 "
                         "required")
    return _family_record("order8", (xi, eta, zeta), -xi ** 4,
                          eta ** 4 - xi ** 4)


def gen_order36_family(a: int, b: int) -> FamilyRecord:
    """Curves E(a^3(a+2b), b^3(2a+b)) with torsion Z2xZ6."""
    if math.gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    if not (a < 0 < b) or a + 2 * b <= 0 or 2 * a + b <= 0 or a + b == 0:
        raise ValueError("need a < 0 < b with a+2b > 0, 2a+b > 0, a+b != 0")
    if math.gcd(a + 2 * b, 2 * a + b) not in (1, 3):
        raise CertificateMismatch("gcd(a+2b, 2a+b) can only be 1 or 3")
    return _family_record("order36", (a, b), a ** 3 * (a + 2 * b),
                          b ** 3 * (2 * a + b))


# ---------------------------------------------------------------------------
# Verifiers


def four_torsion_counterexamples() -> list[str]:
    """For k in 2, 3, 4, 5, 6, 8, 9, 13, check that (0,1,1,k) solves the
    system on Q(1,k^2) and that the isomorphism sends it to a point of
    order 4 on E(1,k^2); one discrepancy string per k that fails.

    These are solutions with a zero component, invisible to degree-4 maps
    but captured by the isomorphism.
    """
    failures = []
    for k in (2, 3, 4, 5, 6, 8, 9, 13):
        c = Curve(1, k * k)
        P = quadric_to_point(QuadricPoint(0, 1, 1, k), c)
        if (verify_concordant_solution(1, k * k, 0, 1, 1, k) != "nontrivial"
                or c.order_of(P) != 4):
            failures.append(f"counterexample suite failed at k={k}")
    return failures
