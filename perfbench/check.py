"""Independent checker for every benchmark response.

Each response is re-read from its JSON text and verified with exact
arithmetic (`Fraction` over Python integers), without importing the
package: points lie on the curve, quadric tuples satisfy both quadrics,
progressions and triangles satisfy their defining relations, and torsion
sets have the size their class implies.  The mathematical content (torsion
class, point sets, solution tuples) is then compared with the answers in
golden.json.  Keys a response has beyond the ones checked are ignored.

Every check returns None when the response is right, or a one-line reason.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

GROUP_SIZE = {"Z2xZ2": 4, "Z2xZ4": 8, "Z2xZ6": 12, "Z2xZ8": 16}
MAX_ORDER = 12


class Wrong(Exception):
    """A response that contradicts the arithmetic or the recorded answer."""


def need(cond: bool, why: str) -> None:
    if not cond:
        raise Wrong(why)


def point(obj):
    """JSON point -> (x, y) Fractions, or None for the point at infinity."""
    if obj == "O":
        return None
    x, y = obj
    return Fraction(x), Fraction(y)


def points(objs) -> set:
    return {point(o) for o in objs}


def on_curve(m: int, n: int, P) -> bool:
    if P is None:
        return True
    x, y = P
    return y * y == x * (x + m) * (x + n)


def add(m: int, n: int, P, Q):
    """Chord-tangent sum on y^2 = x^3 + (m+n)x^2 + mn x."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if y1 == -y2:
            return None
        lam = (3 * x1 * x1 + 2 * (m + n) * x1 + m * n) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - (m + n) - x1 - x2
    return x3, lam * (x1 - x3) - y1


def order(m: int, n: int, P):
    Q = P
    for t in range(1, MAX_ORDER + 1):
        if Q is None:
            return t
        Q = add(m, n, Q, P)
    return None


def is_square(v: Fraction) -> bool:
    if v < 0:
        return False
    a, b = math.isqrt(v.numerator), math.isqrt(v.denominator)
    return a * a == v.numerator and b * b == v.denominator


def quadric(m: int, n: int, t) -> tuple:
    need(len(t) == 4 and all(isinstance(v, int) for v in t),
         f"quadric tuple {t} is not four integers")
    x0, x1, x2, x3 = t
    need(any(t) and math.gcd(*t) == 1, f"quadric tuple {t} is not primitive")
    need(x0 * x0 + m * x1 * x1 == x2 * x2 and x0 * x0 + n * x1 * x1 == x3 * x3,
         f"quadric tuple {t} is off Q({m},{n})")
    return tuple(t)


def progression(ap: dict, t) -> tuple:
    """(alpha, beta, gamma) of a nontrivial quadric tuple, checked."""
    a, b, g = (Fraction(ap[k]) for k in ("alpha", "beta", "gamma"))
    step, p, q = ap["step"], ap["p"], ap["q"]
    x1 = abs(t[1])
    need((a, b, g) == (Fraction(abs(t[2]), x1), Fraction(abs(t[0]), x1),
                       Fraction(abs(t[3]), x1)),
         "progression does not match the quadric tuple")
    need(a * a == b * b - p * step and g * g == b * b + q * step,
         "squares are not in progression with the stated gaps")
    return a, b, g


def triangle(tri: dict, r: int, s: int, k: int, abg=None) -> tuple:
    a, b, c = (Fraction(tri[key]) for key in ("a", "b", "c"))
    need((tri["r"], tri["s"]) == (r, s), "triangle has the wrong angle")
    need(a >= b > 0 and c > 0 and a < b + c and c < a + b,
         "triangle sides are degenerate")
    need(c * c * s == (a * a + b * b) * s - 2 * a * b * r,
         "law of cosines fails")
    need(a * b == 2 * k * s, "area relation a*b = 2ks fails")
    if abg is not None:
        al, be, ga = abg
        need((a, b, c) == (ga + al, ga - al, 2 * be),
             "triangle does not come from the progression")
    return a, b, c


def torsion(m: int, n: int, tag: str, pts: set, expected) -> None:
    exp_tag, exp_pts = expected
    need(tag == exp_tag, f"E({m},{n}): class {tag}, expected {exp_tag}")
    need(len(pts) == GROUP_SIZE[tag], f"E({m},{n}): {len(pts)} torsion "
         f"points for class {tag}")
    need(all(on_curve(m, n, P) for P in pts), f"E({m},{n}): torsion point "
         "off the curve")
    need(pts == exp_pts, f"E({m},{n}): torsion points differ from golden")


def _run(fn, *args):
    try:
        fn(*args)
    except Wrong as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed response: {type(exc).__name__}: {exc}"
    return None


# -- per-request checks ----------------------------------------------------


def check_classify(payload, m, n, expected):
    def body():
        need(payload["curve"] == {"m": m, "n": n}, "wrong curve")
        torsion(m, n, payload["torsion"]["class"], points(payload["points"]),
                expected)
    return _run(body)


def check_grid(payload, m, n, expected):
    def body():
        need(payload["problems"] == [], "oracle sweep reports "
             + "; ".join(payload["problems"]))
        torsion(m, n, payload["torsion"]["class"], points(payload["points"]),
                expected)
    return _run(body)


def in_box(P, bound) -> bool:
    """True iff x = u/w^2 lies in the searched box |u| <= H, w^2 <= H."""
    x = P[0]
    return abs(x.numerator) <= bound and x.denominator <= bound


def expected_solutions(rec, bound):
    """{(point, quadric, provenance): triangle sides} the report must hold."""
    out = {}
    for e in rec["solutions"]:
        P = point(e["point"])
        if e["provenance"] == "search" and (bound is None
                                             or not in_box(P, bound)):
            continue
        tri = None if e["triangle"] is None else tuple(
            Fraction(v) for v in e["triangle"])
        out[(P, tuple(e["quadric"]), e["provenance"])] = tri
    return out


def check_solve(payload, rec, bound):
    def body():
        m, n = rec["curve"]
        theta = rec["problem"] == "theta"
        need(payload["curve"] == {"m": m, "n": n}, "wrong curve")
        need(payload["triple"] == rec["triple"], "wrong triple")
        need(payload["torsion"]["class"] == rec["class"],
             f"class {payload['torsion']['class']}, expected {rec['class']}")
        if theta:
            r, s, k = rec["triple"]
        got = {}
        for e in payload["solutions"]:
            P = point(e["point"])
            need(P is not None and on_curve(m, n, P), "solution point off "
                 "the curve")
            t = quadric(m, n, e["quadric"])
            abg = progression(e["ap"], t)
            tri = None
            if theta and e.get("triangle") is not None:
                tri = triangle(e["triangle"], r, s, k, abg)
            got[(P, t, e["provenance"])] = tri
        need(got == expected_solutions(rec, bound),
             "solutions differ from golden")
    return _run(body)


def check_search(payload, m, n, bound, rec):
    """`search` rows against torsion plus golden search points in the box."""
    def body():
        need(payload["curve"] == {"m": m, "n": n}, "wrong curve")
        need(payload["bound"] == bound, "wrong bound")
        tors = {(Fraction(0), Fraction(0)), (Fraction(-m), Fraction(0)),
                (Fraction(-n), Fraction(0))}
        tors |= {point(e["point"]) for e in rec["solutions"]
                 if e["provenance"] == "torsion"}
        want = {P for P in tors if in_box(P, bound)}
        want |= {point(e["point"]) for e in rec["solutions"]
                 if e["provenance"] == "search" and
                 in_box(point(e["point"]), bound)}
        got = set()
        for row in payload["points"]:
            P = point(row["point"])
            need(on_curve(m, n, P), "search point off the curve")
            o = order(m, n, P)
            need(row["order"] == ("infinite" if o is None else o),
                 f"wrong order for {row['point']}")
            x = P[0]
            need(row["is_double"] == (is_square(x) and is_square(x + m)
                                      and is_square(x + n)),
                 f"wrong is_double for {row['point']}")
            got.add(P)
        need(got == want, "search points differ from golden")
    return _run(body)


def to_concordant(r: int, s: int, k: int) -> list:
    if (r - s) % 2:
        return [s - r, s + r, k]
    return [(s - r) // 2, (s + r) // 2, 2 * k]


def check_to_concordant(payload, r, s, k):
    def body():
        p, q, kk = payload["concordant"]
        need([p, q, kk] == to_concordant(r, s, k), "wrong concordant triple")
        need(p > 0 and q > 0 and math.gcd(p, q) == 1, "triple not coprime")
    return _run(body)


def check_to_congruent(payload, p, q, k):
    def body():
        r, s, kk = payload["congruent"]
        need(abs(r) < s and math.gcd(r, s) == 1, "not a reduced angle")
        need(to_concordant(r, s, kk) == [p, q, k],
             "congruent triple does not map back")
    return _run(body)


def check_chain(payload, m, n, P, angle, expected_quadric):
    def body():
        need(point(payload["point"]) == P, "chain moved the point")
        t = quadric(m, n, payload["quadric"])
        need(t == tuple(expected_quadric), "quadric tuple differs from golden")
        if "ap" in payload:
            abg = progression(payload["ap"], t)
            if angle is not None:
                r, s = angle
                k = payload["ap"]["step"] if (r - s) % 2 else \
                    payload["ap"]["step"] // 2
                triangle(payload["triangle"], r, s, k, abg)
    return _run(body)


def check_verify(payload, m, n, t, code):
    def body():
        x, y, z, w = t
        if t == (0, 0, 0, 0) or x * x + m * y * y != z * z \
                or x * x + n * y * y != w * w:
            want = "invalid"
        else:
            want = "trivial" if y == 0 else "nontrivial"
        need(payload["verdict"] == want, f"verdict {payload['verdict']}, "
             f"expected {want}")
        need(code == (2 if want == "invalid" else 0), f"exit code {code}")
    return _run(body)


FAMILY_KEYS = ("family", "params", "curve", "concordant", "congruent",
               "congruent_curve", "parity_case", "torsion")


def check_family(payload, rec):
    def body():
        for key in FAMILY_KEYS:
            need(payload[key] == rec[key], f"family field {key} differs")
    return _run(body)


def digest(values) -> str:
    """Short digest of integers, written in hex so no digit limit applies."""
    return hashlib.sha256(",".join(format(v, "x") for v in values)
                          .encode()).hexdigest()[:16]


def chain_digest(payload) -> str:
    """Digest of kP (lowest terms) and its quadric tuple."""
    P = point(payload["point"])
    return digest([P[0].numerator, P[0].denominator, P[1].numerator,
                   P[1].denominator, *payload["quadric"]])


def check_multiple(payload, m, n, triple, digest):
    """One multiple kP of the multiples-chain workload on the curve of the
    theta triple (r, s, k)."""
    def body():
        r, s, k = triple
        P = point(payload["point"])
        need(on_curve(m, n, P), "multiple off the curve")
        t = quadric(m, n, payload["quadric"])
        need(to_concordant(r, s, k) == [payload["ap"]["p"], payload["ap"]["q"],
                                        payload["ap"]["step"]],
             "wrong progression gaps")
        abg = progression(payload["ap"], t)
        if payload["triangle"] is not None:
            triangle(payload["triangle"], r, s, k, abg)
        need(chain_digest(payload) == digest, "multiple differs from golden")
    return _run(body)
