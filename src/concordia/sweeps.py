"""Grid sweeps used by the self-test suites and the acceptance tests.

`oracle_equivalence_sweep` pits the closed-form torsion classifier
against the Nagell-Lutz enumeration oracle on a grid of curves
E(-p*k, q*k); any disagreement is reported as a discrepancy string.
Both sides compare full point sets.  The oracle works in integers only:
its x candidates are located from the known roots 0, -m, -n, and its
orders come from a multiple chain that stops at the first inexact
division (`Curve.torsion_oracle`, `Curve.order_of`).  Before it searches
for the x of a candidate y, the oracle drops every y whose y^2 is not a
value of x(x+m)(x+n) modulo a few small prime powers; that is exact,
since an integer point reduces to a solution modulo each of them.  The
sweeps are embarrassingly parallel over parameter tuples.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .curves import Curve
from .problems import FamilyRecord, gen_order4_family, gen_order8_family, \
    gen_order36_family
from .torsion import check_k_constraint, torsion_subgroup

DEFAULT_K_VALUES = (1, 2, 3, 5, 6, 7, 10, 15)


def curve_grid(p_max: int, k_values: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    for p in range(1, p_max + 1):
        for q in range(1, p_max + 1):
            if math.gcd(p, q) != 1:
                continue
            for k in k_values:
                yield (p, q, k)


def check_curve_against_oracle(pqk: tuple[int, int, int]) -> list[str]:
    """Discrepancies between classifier and oracle for E(-p*k, q*k)."""
    p, q, k = pqk
    c = Curve(-p * k, q * k)
    label = f"E({c.m},{c.n})"
    problems = []
    cls, closed_form = torsion_subgroup(c)
    oracle = c.torsion_oracle()
    if closed_form != oracle:
        missing = sorted(map(str, oracle - closed_form))
        extra = sorted(map(str, closed_form - oracle))
        problems.append(f"{label}: point sets differ "
                        f"(oracle-only {missing}, classifier-only {extra})")
    if len(oracle) != cls.group_size():
        problems.append(f"{label}: oracle finds {len(oracle)} points, "
                        f"class {cls.tag} implies {cls.group_size()}")
    max_order = max(c.order_of(P) for P in oracle)
    if max_order != cls.max_order():
        problems.append(f"{label}: oracle max order {max_order}, "
                        f"class {cls.tag} implies {cls.max_order()}")
    if not check_k_constraint(cls):
        problems.append(f"{label}: squarefree step k={k} violates the "
                        f"torsion constraint for {cls.tag}")
    return problems


def oracle_equivalence_sweep(p_max: int = 30,
                             k_values: Iterable[int] = DEFAULT_K_VALUES,
                             jobs: int = 1) -> list[str]:
    grid = list(curve_grid(p_max, k_values))
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            chunks = pool.map(check_curve_against_oracle, grid, chunksize=32)
    else:
        chunks = map(check_curve_against_oracle, grid)
    return [line for chunk in chunks for line in chunk]


def primitive_pythagorean_triples(limit: int) -> list[tuple[int, int, int]]:
    """Primitive (xi, eta, zeta) with xi < eta <= limit."""
    out = []
    for eta in range(2, limit + 1):
        for xi in range(1, eta):
            if math.gcd(xi, eta) != 1:
                continue
            z2 = xi * xi + eta * eta
            z = math.isqrt(z2)
            if z * z == z2:
                out.append((xi, eta, z))
    return sorted(out)


def family_grid(limit: int) -> Iterator[FamilyRecord]:
    for v in range(2, limit + 1):
        for u in range(1, v):
            if math.gcd(u, v) == 1:
                yield gen_order4_family(u, v)
    for xi, eta, zeta in primitive_pythagorean_triples(limit):
        yield gen_order8_family(xi, eta, zeta)
    for b in range(1, limit + 1):
        for a in range(-limit, 0):
            if math.gcd(a, b) != 1 or a + b == 0:
                continue
            if a + 2 * b <= 0 or 2 * a + b <= 0:
                continue
            yield gen_order36_family(a, b)


_EXPECTED_TAGS = {"order4": {"Z2xZ4", "Z2xZ8"},
                  "order8": {"Z2xZ8"},
                  "order36": {"Z2xZ6"}}
_CONCORDANT_K = {"order4": {1}, "order8": {1}, "order36": {1, 3}}
_CONGRUENT_K = {"order4": {1, 2}, "order8": {1, 2}, "order36": {1, 2, 3, 6}}


def family_sweep(limit: int = 20) -> list[str]:
    """Check every family record against its advertised torsion class and
    the step constraints for both problem encodings."""
    problems = []
    for rec in family_grid(limit):
        label = f"{rec.family}{rec.params}"
        tags = _EXPECTED_TAGS[rec.family]
        if rec.torsion_tag not in tags:  # sorted: no hash-seed order
            problems.append(f"{label}: classified {rec.torsion_tag}, expected "
                            f"{{{', '.join(map(repr, sorted(tags)))}}}")
        if rec.concordant.k not in _CONCORDANT_K[rec.family]:
            problems.append(f"{label}: concordant k={rec.concordant.k}")
        if rec.congruent.k not in _CONGRUENT_K[rec.family]:
            problems.append(f"{label}: congruent k={rec.congruent.k}")
        parity_even = rec.congruent.k % 2 == 0
        if parity_even != (rec.congruent_curve != (rec.m, rec.n)):
            problems.append(f"{label}: parity case tag inconsistent")
    return problems
