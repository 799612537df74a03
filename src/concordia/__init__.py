"""Exact-arithmetic toolkit for theta-congruent numbers, concordant
forms, rational squares in arithmetic progression and the elliptic
curves E(m,n): y^2 = x(x+m)(x+n)."""

__version__ = "0.1.0"
