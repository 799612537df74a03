"""Exact-string serialization helpers shared by the library and the CLI.

A rational prints from its lowest-terms integers as "num/den" ("num" over
1), and a point as [x, y] with x = X/Z^2, y = Y/Z^3; O is the string "O".
"""


def frac_str(v) -> str:
    return _ratio(v.numerator, v.denominator)


def _ratio(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def point_json(P):
    if P.is_infinity:
        return "O"
    return [_ratio(P.X, P.Z * P.Z), _ratio(P.Y, P.Z ** 3)]
