"""Closed-form torsion classification for E(m,n): y^2 = x(x+m)(x+n).

Every curve in this family has full rational 2-torsion, so the torsion
subgroup is Z2xZ2, Z2xZ4, Z2xZ6 or Z2xZ8.  The classifier works on the
reduced model of `canonical_model` (m < 0 < n, squarefree coefficient
gcd: the only factoring it does) and carries a certificate witnessing
the class:

  Z2xZ4:  (u, v)          with -m = u^2, n = v^2 - u^2
  Z2xZ8:  (xi, eta, zeta) with xi^2 + eta^2 = zeta^2, m = -xi^4,
                          n = eta^4 - xi^4
  Z2xZ6:  (a, b)          coprime, m = a^3(a+2b), n = b^3(2a+b)

Detection is a ladder: the order-4 roots (u, v) first, refined to the
order-8 certificate when u, v and u + v are squares; without (u, v), the
order-3 search.  `_CLASSES` holds each class's order 2k, certificate
fields, allowed squarefree steps, the reduced model the certificate fixes
and a point G of order 2k on it.  The torsion is Z2 x <G>: G is mapped to
the input curve through the shift/scale isomorphism recorded on the
class, and the rest is built by the group law.
"""

from __future__ import annotations

import math

from .arith import factorint, isqrt_exact
from .curves import INFINITY, Curve, Frozen, Point, _reduced_point

Z2xZ2 = "Z2xZ2"
Z2xZ4 = "Z2xZ4"
Z2xZ6 = "Z2xZ6"
Z2xZ8 = "Z2xZ8"

# tag: (max order, certificate fields, allowed squarefree steps k or None,
#       the reduced model (m0, n0) the certificate fixes (None: any),
#       (x, s) for a point G = (x, s*x) of the max order on that model)
_CLASSES = {
    Z2xZ2: (2, (), None, lambda: None, lambda: (0, 0)),
    Z2xZ4: (4, ("u", "v"), {1}, lambda u, v: (-u * u, v * v - u * u),
            lambda u, v: (u * (u - v), v)),
    Z2xZ6: (6, ("a", "b"), {1, 3},
            lambda a, b: (a ** 3 * (a + 2 * b), b ** 3 * (2 * a + b)),
            lambda a, b: (a * b * (a + 2 * b) * (b + 2 * a), (a + b) ** 2)),
    Z2xZ8: (8, ("xi", "eta", "zeta"), {1},
            lambda xi, eta, zeta: (-xi ** 4, eta ** 4 - xi ** 4),
            lambda xi, eta, zeta: (xi * zeta * (xi + eta) * (zeta + eta),
                                   eta * (zeta + xi))),
}


class CertificateMismatch(ArithmeticError):
    """Raised when a torsion certificate does not match the given curve:
    an internal fault, never a ValueError (a usage error)."""


class TorsionClass(Frozen):
    tag: str
    certificate: tuple | None
    base: Curve      # reduced model the certificate refers to
    shift: int       # reduced point (x,y) -> (scale^2 x + shift, scale^3 y)
    scale: int

    def group_size(self) -> int:
        return 2 * self.max_order()  # Z2xZ2k has 4k points

    def max_order(self) -> int:
        return _CLASSES[self.tag][0]

    def to_json(self) -> dict:
        out = {"class": self.tag}
        out.update(zip(_CLASSES[self.tag][1], self.certificate or ()))
        if self.shift != 0 or self.scale != 1:
            out["shift"] = self.shift
            out["scale"] = self.scale
        return out


def canonical_model(c: Curve) -> tuple[Curve, int, int]:
    """Reduce E(m,n) to an isomorphic model E(m0,n0) with m0 < 0 < n0 and
    squarefree coefficient gcd.

    Returns (reduced curve, shift e, scale d): a reduced point (x,y) maps
    to (d^2*x + e, d^3*y) on the original curve.  The shift moves the
    origin of the 2-torsion to the middle root of x(x+m)(x+n); the scale
    is the (x,y) -> (d^2 x, d^3 y) isomorphism that strips square factors
    from gcd(-m, n).
    """
    roots = sorted((0, -c.m, -c.n))
    e = roots[1]
    m1, n1 = e - roots[2], e - roots[0]
    d = 1
    for prime, exp in factorint(math.gcd(-m1, n1)).items():
        d *= prime ** (exp // 2)
    return Curve(m1 // (d * d), n1 // (d * d)), e, d


def map_from_canonical(P: Point, shift: int, scale: int) -> Point:
    """The image (scale^2 x + shift, scale^3 y) on the input curve of a
    reduced-model point, reduced as `Curve.add` reduces its sums."""
    if P.is_infinity:
        return P
    X = scale * scale * P.X + shift * P.Z * P.Z
    return _reduced_point(X, scale ** 3 * P.Y, P.Z, math.gcd(X, P.Z * P.Z))


def _detect_order4(m: int, n: int) -> tuple | None:
    u = isqrt_exact(-m)
    if u is None:
        return None
    v = isqrt_exact(n - m)
    if v is None:
        return None
    return (u, v)


def _refine_order8(u: int, v: int) -> tuple | None:
    """(xi, eta, zeta) = (sqrt u, sqrt v, sqrt(u+v)) when all three are
    integers: -m = xi^4, n - m = eta^4 and xi^2 + eta^2 = zeta^2."""
    roots = tuple(isqrt_exact(w) for w in (u, v, u + v))
    return None if None in roots else roots


def _detect_order3(m: int, n: int) -> tuple | None:
    """Find coprime (a,b) with m = a^3(a+2b), n = b^3(2a+b), b > 0, on the
    reduced model (m < 0 < n), without factoring anything.

    Such (a,b) put a point of order 3 at x = t^2, t = -ab > 0, and
    y^2 >= 0 puts it at x > -m.  The 3-division polynomial
    psi3(x) = 3x^4 + 4(m+n)x^3 + 6mn x^2 - m^2 n^2 is negative on [0, -m]
    and, for x > -m, increasing (psi3' = 12x(x+m)(x+n)) and convex, as is
    psi3(t^2) in t; it is positive at x = 4 max(-m, n).  Newton steps in
    t from there, rounded down, never pass the real root, and a step of
    at least 1 ends on it if it is an integer, else just below it.  Then
    a^2 = t -+ sqrt(t^2 + m); the solution is unique up to the sign of
    (a, b).
    """
    A, B, C = 4 * (m + n), 6 * m * n, m * m * n * n
    t = math.isqrt(4 * max(-m, n)) + 1
    while True:
        x = t * t
        v = ((3 * x + A) * x + B) * x * x - C
        if v <= 0:
            break
        t -= max(1, v // (24 * t * x * (x + m) * (x + n)))
    r = isqrt_exact(x + m) if v == 0 else None
    if r is None:
        return None
    for a2 in (t - r, t + r):
        a = isqrt_exact(a2)
        if a is None or t % a:
            continue
        a, b = -a, t // a
        if (math.gcd(a, b) == 1 and m == a ** 3 * (a + 2 * b)
                and n == b ** 3 * (2 * a + b)):
            return (a, b)
    return None


def classify_torsion(c: Curve) -> TorsionClass:
    """Torsion subgroup type of E(m,n), with a witnessing certificate.

    The input is first moved to the reduced model (m0 < 0 < n0 with
    squarefree gcd); torsion type is invariant under that isomorphism.
    """
    base, shift, scale = canonical_model(c)
    cert = _detect_order4(base.m, base.n)
    if cert is not None:
        cert8 = _refine_order8(*cert)
        tag, cert = (Z2xZ4, cert) if cert8 is None else (Z2xZ8, cert8)
    else:
        cert = _detect_order3(base.m, base.n)
        tag = Z2xZ2 if cert is None else Z2xZ6
    return TorsionClass(tag, cert, base, shift, scale)


def torsion_subgroup(c: Curve) -> tuple[TorsionClass, frozenset[Point]]:
    """Full rational torsion of E(m,n), from the certified generator G.
    A certificate that does not fit the reduced model, a G off the curve
    (`order_of`'s gate) or not of the class's maximal order, a point off
    the curve or a wrong count raises CertificateMismatch."""
    cls = classify_torsion(c)
    order, _, _, model, generator = _CLASSES[cls.tag]
    cert = cls.certificate or ()
    if model(*cert) not in (None, (cls.base.m, cls.base.n)):
        raise CertificateMismatch(f"{cls.tag} certificate {cert} does not "
                                  f"fit E({cls.base.m},{cls.base.n})")
    x, s = generator(*cert)
    G = map_from_canonical(Point(x, s * x, 1), cls.shift, cls.scale)
    try:
        fits = c.order_of(G) == order
    except ValueError:  # G is off the curve
        fits = False
    if not fits:
        raise CertificateMismatch(
            f"{G} is not a point of order {order} on E({c.m},{c.n})")
    multiples = [G]
    for _ in range(order - 2):
        multiples.append(c.add(multiples[-1], G))
    # the torsion is E[2] + <G>: O, the 2-torsion (on the curve by
    # construction), the multiples of order > 2 and their sums with E[2]
    two = c.two_torsion
    high = [P for P in multiples if P.Y]
    built = high + [c.add(T, P) for T in two for P in high]
    if not all(map(c.contains, built)):
        raise CertificateMismatch("a torsion point left the curve")
    pts = frozenset([INFINITY, *two, *built])
    if len(pts) != cls.group_size():
        raise CertificateMismatch(
            f"E({c.m},{c.n}): expected {cls.group_size()} torsion points, "
            f"got {len(pts)}")
    return cls, pts


def check_k_constraint(t: TorsionClass) -> bool:
    """Consistency of the squarefree step k = gcd(-m0, n0) of the reduced
    model with the torsion type."""
    steps = _CLASSES[t.tag][2]
    return steps is None or math.gcd(-t.base.m, t.base.n) in steps
