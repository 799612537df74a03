"""Exact-string serialization helpers shared by the library and the CLI.

Rationals cross every boundary as "num/den" strings in lowest terms
(integers as plain "num"); the point at infinity is the string "O".
"""

from __future__ import annotations

from fractions import Fraction


def frac_str(v) -> str:
    return str(Fraction(v))


def point_json(P):
    if P.is_infinity:
        return "O"
    return [frac_str(P.x), frac_str(P.y)]
