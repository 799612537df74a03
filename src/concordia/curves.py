"""Exact rational arithmetic on the elliptic curves y^2 = x(x+m)(x+n).

Everything here is pure and exact, and the kernels run in integers.  A
rational point of this integral model is x = X/Z^2, y = Y/Z^3 with
gcd(X, Z) = 1 and Z >= 1, and `Point` stores that triple (X, Y, Z); O is
(1, 1, 0).  `Curve.point` is the one place where a rational pair becomes
a triple.  Membership is one integer identity in (X, Y, Z), checked by
the one gate that every method reading a point passes, `Curve.weighted`,
once per point and curve: a point that passes records the curve's (m, n);
halving tests X, X + mZ^2 and X + nZ^2 for squares; and the group law is
the chord-tangent construction on the expanded model
y^2 = x^3 + (m+n)x^2 + mn*x in these weighted projective coordinates.
A sum comes out as (X3, Y3, Z3) = (lam^2 X, lam^3 Y, lam Z) for its
lowest-terms (X, Y, Z): the chord finds lam^2 with one gcd, the tangent
over the primes of mn(m-n) alone (`_smooth_gcd`), and both divide
exactly.  Output prints from X, Y and Z (`concordia.serialize`), and
`Point.x`, `Point.y` are `Fraction` views for callers.  The torsion oracle
is a Nagell-Lutz enumeration, independent of the closed-form classifier in
`concordia.torsion`; the number theory on bare integers is `concordia.arith`.
The kernels of `Curve.torsion_oracle` and `Curve.search` are
`concordia.oracle` and `concordia.sieve`, each imported when it runs.
`fractions` and `numbers` are imported only where a rational is read or
built.
"""

from __future__ import annotations

import functools
import math
import operator

from .arith import _Coprime, _smooth_gcd, isqrt_exact


class Frozen:
    """Base of the package's immutable values.  Its fields are the names a
    subclass annotates in its body, in order.  A value is built from them
    by position or keyword, then checked by `_check`; after that, setting
    or deleting a field raises AttributeError.  Two values are equal when
    they are of one class with equal fields, the hash is over the fields
    and the repr is Class(field=value, ...).  `__init__` stores the fields
    in the instance `__dict__`; a subclass with `__slots__` or a hot
    constructor binds them in its own `__init__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._values = property(operator.attrgetter(*cls._fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            names = fields[len(args):]
            if len(args) > len(fields) or kwargs.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields "
                                f"{', '.join(fields)}")
            args += tuple(map(kwargs.get, names))
        self.__dict__.update(zip(fields, args))
        self._check()

    def _check(self):
        """ValueError unless the fields make a valid value."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        return type(self), self._values

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"


class Point(Frozen):
    """The point x = X/Z^2, y = Y/Z^3 in lowest terms: gcd(X, Z) = 1 and
    Z >= 1, or (1, 1, 0) for the point at infinity O, where x and y are
    None.  `Curve.point` builds one from (x, y); `Curve.weighted` checks
    one, and records in the slot `_mark`, which is not a field, the key
    of the last curve on which it passed."""

    __slots__ = ("X", "Y", "Z", "_mark")
    X: int
    Y: int
    Z: int

    def __init__(self, X: int, Y: int, Z: int):
        _set_X(self, X)
        _set_Y(self, Y)
        _set_Z(self, Z)
        _set_mark(self, None)

    # Points fill the sets of the oracle and the search: compare and hash
    # them without the generic field tuple.
    def __eq__(self, other):
        if other.__class__ is not Point:
            return NotImplemented
        return self.X == other.X and self.Y == other.Y and self.Z == other.Z

    def __hash__(self):
        return hash((self.X, self.Y, self.Z))

    @property
    def is_infinity(self) -> bool:
        return self.Z == 0

    @property
    def x(self) -> Fraction | None:  # no gcd: X/Z^2 is in lowest terms
        if not self.Z:
            return None
        return _fraction_class()(_Coprime(self.X, self.Z * self.Z))

    @property
    def y(self) -> Fraction | None:
        if not self.Z:
            return None
        return _fraction_class()(_Coprime(self.Y, self.Z ** 3))

    def __repr__(self):
        from .serialize import point_json
        return "(%s, %s)" % tuple(point_json(self)) if self.Z else "O"


# The setters of Point's slots, past Frozen.__setattr__: a call takes
# about half the time of object.__setattr__, and every hot path builds or
# marks points.
_set_X, _set_Y, _set_Z, _set_mark = (getattr(Point, name).__set__
                                     for name in Point.__slots__)

INFINITY = Point(1, 1, 0)


@functools.cache
def _oracle_kernel():
    """`concordia.oracle.torsion_oracle`, imported on the first call.  An
    import statement in every call took about 1.3 us on a 2-vCPU host,
    4% of the oracle of a small curve."""
    from .oracle import torsion_oracle
    return torsion_oracle


@functools.cache
def _fraction_class() -> type:
    """`Fraction`, imported on the first call together with `numbers`, in
    which `_Coprime` is then registered as a `Rational` (see there)."""
    import numbers
    from fractions import Fraction
    numbers.Rational.register(_Coprime)
    return Fraction


def _point(X: int, Y: int, Z: int) -> Point:
    """The point X/Z^2, Y/Z^3 for gcd(X, Z) = 1 and Z != 0, with the sign
    of Z moved into Y."""
    return Point(X, Y, Z) if Z > 0 else Point(X, -Y, -Z)


def _reduced_point(X3: int, Y3: int, Z3: int, lam2: int) -> Point:
    """The point X3/Z3^2, Y3/Z3^3 of y^2 = x(x+m)(x+n), given
    lam2 = gcd(X3, Z3^2).  In lowest terms it is X/Z^2, Y/Z^3 (see
    `Curve.point`), so Z3 = lam*Z, X3 = lam^2*X, Y3 = lam^3*Y and
    lam2 = lam^2 * gcd(X, Z^2) = lam^2: each coordinate is an exact
    division.  ArithmeticError, an internal fault and not a usage error,
    when lam2 is not a square or a division is not exact."""
    lam = math.isqrt(lam2)
    X, r = divmod(X3, lam2)
    Y, s = divmod(Y3, lam2 * lam)
    if r or s or lam * lam != lam2:
        raise ArithmeticError(
            "weighted point: the common factor is not lam^2, lam^3")
    return _point(X, Y, Z3 // lam)


def point_sort_key(P: Point):
    """Canonical ordering: infinity first, then (X, Z, Y), which orders
    points by x's numerator, then its denominator Z^2, then y."""
    return (1, P.X, P.Z, P.Y) if P.Z else (0,)


class Curve(Frozen):
    """The curve E(m,n): y^2 = x(x+m)(x+n), with m, n nonzero and distinct."""

    m: int
    n: int

    # Every check of a sweep builds two curves: bind the fields directly.
    def __init__(self, m: int, n: int):
        if m == 0 or n == 0:
            raise ValueError("degenerate cubic: m and n must be nonzero")
        if m == n:
            raise ValueError("degenerate cubic: m and n must differ")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_key", (m, n))

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n}

    # -- basic point handling -------------------------------------------

    def contains(self, P: Point) -> bool:
        """Is P either O or a point of the curve in lowest terms, with
        Z >= 1 and gcd(X, Z) = 1?  No gcd at Z = 1, and no division."""
        X, Y, Z = P.X, P.Y, P.Z
        if Z < 1:
            return P == INFINITY
        return (Z == 1 or math.gcd(X, Z) == 1) and self.satisfies(X, Y, Z)

    def weighted(self, P: Point) -> tuple[int, int, int]:
        """(X, Y, Z) of P if `contains(P)`, else ValueError "(x, y) is not
        on E(m,n)": the gate through which every method reads a point.

        A point that passes is marked with the curve's key (m, n), and a
        point so marked passes at once: a `Point` is immutable, so the
        check holds for good.  Each point is checked once per curve, not
        once per read."""
        if P._mark != self._key:
            if not self.contains(P):
                raise ValueError(f"{P} is not on E({self.m},{self.n})")
            _set_mark(P, self._key)
        return P.X, P.Y, P.Z

    def satisfies(self, X: int, Y: int, Z: int) -> bool:
        """Y^2 = X(X + mZ^2)(X + nZ^2): for coprime X and Z >= 1, is
        (X/Z^2, Y/Z^3) on the curve?"""
        b = Z * Z
        return Y * Y == X * (X + self.m * b) * (X + self.n * b)

    def point(self, x, y) -> Point:
        """The point (x, y) of rationals, else ValueError "(x, y) is not
        on E(m,n)": the one place where a rational pair becomes a `Point`.

        Let x = a/b and y = c/e in lowest terms.  At a prime p | b each
        factor of x(x+m)(x+n) has valuation -v_p(b), so 2v_p(e) = 3v_p(b):
        a point on the curve has b = Z^2 and e = Z^3, and then
        y^2 = x(x+m)(x+n) reads c^2 = a(a+mb)(a+nb) (`satisfies`).
        """
        from fractions import Fraction
        x, y = Fraction(x), Fraction(y)
        Z, r = divmod(y.denominator, x.denominator)
        if r or Z * Z != x.denominator:
            raise ValueError(f"({x}, {y}) is not on E({self.m},{self.n})")
        P = Point(x.numerator, y.numerator, Z)
        self.weighted(P)
        return P

    @functools.cached_property
    def two_torsion(self) -> tuple[Point, Point, Point]:
        """(0,0), (-m,0), (-n,0): the roots of x(x+m)(x+n), on the curve
        by construction.  Built once per curve, in the instance __dict__,
        which equality and hashing do not read."""
        return tuple(Point(x, 0, 1) for x in (0, -self.m, -self.n))

    # -- group law ------------------------------------------------------

    def add(self, P: Point, Q: Point) -> Point:
        """P + Q by the chord-tangent law on y^2 = x^3 + Ax^2 + Bx,
        A = m+n, B = mn, in the weighted projective coordinates
        x = X/Z^2, y = Y/Z^3 of `Point` (Jacobian coordinates;
        Silverman-Tate I.4, Cohen 7.1).  ValueError from `weighted` unless
        both P and Q are on the curve, O included.

        The slope is R/(H*Z1*Z2) for the chord, with R and H first
        divided by gcd(R, H), which is about as long as Z1 when P and Q
        are multiples of one point, and M/(2*Y1*Z1) for the tangent.  The
        sum is X3/Z3^2, Y3/Z3^3, and `_reduced_point` divides out
        lam^2 = gcd(X3, Z3^2).  The chord takes that gcd; on chains of
        multiples lam is about as long as Z1.

        The tangent needs no full-size gcd.  Lemma: a prime p dividing
        both X3 and Z3 = 2*Y1*Z1 divides N = mn(m-n), so
        lam^2 = _smooth_gcd(N, X3, Z3^2).  Proof, for P in lowest terms
        with Y1 != 0, where M = Z1^4 f'(x1), Y1^2 = Z1^6 f(x1) and
        f(x) = x(x+m)(x+n):
        - p = 2 divides N: m, n and m-n are never all odd.
        - p | Z1: then p does not divide X1, M = 3X1^2 and Y1^2 = X1^3
          mod p, so X3 = M^2 - 8X1*Y1^2 = X1^4 is not 0 mod p.
        - p odd, p | Y1, p not dividing Z1: X3 = M^2 mod p, so p | M.
          Then X1/Z1^2 is a double root of f mod p, and p divides the
          discriminant of f, (mn(m-n))^2.
        """
        X1, Y1, Z1 = self.weighted(P)
        X2, Y2, Z2 = (X1, Y1, Z1) if Q == P else self.weighted(Q)
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        A = self.m + self.n
        Z1s = Z1 * Z1
        if X1 == X2 and Z1 == Z2:  # the same x
            if Y1 == -Y2:
                return INFINITY
            # then Q = P: both are on the curve
            M = (3 * X1 + 2 * A * Z1s) * X1 + self.m * self.n * Z1s * Z1s
            Z3 = 2 * Y1 * Z1
            Y1s = Y1 * Y1
            V = 4 * X1 * Y1s  # x1 * Z3^2
            X3 = M * M - A * Z3 * Z3 - 2 * V
            Y3 = M * (V - X3) - 8 * Y1s * Y1s
            lam2 = _smooth_gcd(self.discriminant_root(), X3, Z3 * Z3)
        else:
            Z2s = Z2 * Z2
            U1, U2 = X1 * Z2s, X2 * Z1s
            S1 = Y1 * Z2s * Z2
            H, R = U2 - U1, Y2 * Z1s * Z1 - S1
            g = math.gcd(R, H)
            H, R = H // g, R // g
            Z3 = Z1 * Z2 * H
            H2 = H * H
            V = U1 * H2  # x1 * Z3^2
            X3 = R * R - A * Z3 * Z3 - V - U2 * H2
            Y3 = R * (V - X3) - S1 * H2 * H
            lam2 = math.gcd(X3, Z3 * Z3)
        return _reduced_point(X3, Y3, Z3, lam2)

    def negate(self, P: Point) -> Point:
        # Not gated: it computes nothing from the coordinates.
        if P.is_infinity:
            return P
        return Point(P.X, -P.Y, P.Z)

    def multiply(self, P: Point, t: int) -> Point:
        if t < 0:
            return self.multiply(self.negate(P), -t)
        acc = INFINITY
        while t:
            if t & 1:
                acc = self.add(acc, P)
            P = self.add(P, P)
            t >>= 1
        return acc

    # -- orders and halving ---------------------------------------------

    def order_of(self, P: Point) -> int | None:
        """Exact order of a torsion point P on the curve; None for infinite
        order.

        Every multiple of a torsion point is integral (Nagell-Lutz on this
        integral model), and the slope lam that yields an integral
        multiple is an integer, since lam^2 = x3 + m + n + x + x1.  So
        non-integral coordinates rule out torsion at once, the multiples
        are chained in integers, and the first inexact slope division ends
        the chain; at most 12 multiples are needed.
        """
        x1, y1, Z = self.weighted(P)
        if Z != 1:
            return 1 if Z == 0 else None
        A, B = self.m + self.n, self.m * self.n
        x, y = x1, y1  # tP
        for t in range(1, 12):
            if x == x1:
                if y == -y1:
                    return t + 1
                lam, r = divmod((3 * x1 + 2 * A) * x1 + B, 2 * y1)
            else:
                lam, r = divmod(y - y1, x - x1)
            if r:
                return None
            x3 = lam * lam - A - x - x1
            x, y = x3, lam * (x - x3) - y
        return None

    def is_double(self, P: Point) -> bool:
        """True iff P = 2Q for some rational Q.

        With full rational 2-torsion this is the descent criterion: x, x+m
        and x+n must all be rational squares (Knapp IV.1): over the square
        Z^2, their lowest-terms numerators X, X + mZ^2 and X + nZ^2 must be
        integer squares (all are 1 at O).
        """
        X, _, Z = self.weighted(P)
        Zs = Z * Z
        return all(isqrt_exact(X + e * Zs) is not None
                   for e in (0, self.m, self.n))

    # -- exhaustive torsion oracle --------------------------------------

    def discriminant_root(self) -> int:
        """|m*n*(m-n)|, the square root of the cubic's discriminant."""
        return abs(self.m * self.n * (self.m - self.n))

    def torsion_oracle(self) -> frozenset[Point]:
        """Complete set of rational torsion points, by brute enumeration.

        Candidate y values run over the divisors of |mn(m-n)| (so that
        y^2 divides the discriminant); integer x values are recovered as
        roots of x(x+m)(x+n) - y^2, located from the known roots 0, -m,
        -n of x(x+m)(x+n), then filtered by order.

        A y is dropped before the root search when y^2 mod M is not a
        value of f(x) = x(x+m)(x+n) mod M, for one of _ORACLE_MODULI.
        That is exact: an integer x with f(x) = y^2 gives
        y^2 = f(x mod M) mod M.  The tables of values depend on m and n
        alone, so the oracle stays independent of the classifier.
        """
        return _oracle_kernel()(self)

    # -- bounded-height point search ------------------------------------

    def search(self, height: int) -> frozenset[Point]:
        """All affine points with x = u/w^2, gcd(u,w)=1, |u| <= H, w^2 <= H.

        The shape x = u/w^2 is the one rational points on an integral
        model of this form can take; completeness holds for the searched
        grid only.

        Only u = 0 and u = s*d*a^2 are tried, with s = +-1 and d a
        squarefree product of primes p <= H dividing mn (2-descent).  Let
        v_p(u) be odd.  If N = u(u+mw^2)(u+nw^2) is a nonzero square,
        v_p(N) is even, so p | (u+mw^2)(u+nw^2), hence p | mw^2 or
        p | nw^2, and p does not divide w; if N = 0, u is -m or -n.
        Either way p | mn, and p <= |d| <= |u| <= H.  So the search
        trial-divides mn up to H and factors nothing.  It also skips the a
        for which N < 0.  The cost is about H * sum(d^-1/2) cells, not
        2H^1.5.  Every cell tried has gcd(u, w) = 1, as `Point` needs.

        A row (d, s, w) holds the cells a in [1, amax], and it is sieved as
        in Stoll's `ratpoints`: bit a of an int stands for the cell a, and
        the row's mask ANDs its sign range and the mask of the a prime to
        w, one of the non-negative masks built once per search for each
        w <= isqrt(H) (about H/8 bytes, 1.25 MB at H = 10^7).  The sign
        range's bounds are isqrt(K*w^2/d) for constants K, so they only
        grow with w: once each has reached amax, or the range is empty
        for good, the range is kept for the larger w of (d, s).  When
        amax >= _SIEVE_MIN_AMAX the row also ANDs, for each prime power M
        of _SQ_CLASSES, the a for which N can be a square mod M: a
        pattern of a^2 mod M alone, tiled by a repunit built once per
        search.  For w prime to M, N = w^6 F(u/w^2) with
        F(x) = x(x+m)(x+n), so one evaluation of F per square class mod M
        gives the patterns of every such w; the other w take one per
        square class of a^2.  By the CRT, a composite M would reject no
        more.  The bits left take `isqrt`, after the _SQ_FILTERS check
        when no patterns were ANDed: both are exact, since a square is a
        square mod every M.
        """
        from .sieve import search
        return search(self.m, self.n, height)
