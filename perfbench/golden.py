#!/usr/bin/env python3
"""Regenerate perfbench/golden.json: the input pools of the benchmark and
the answers the package gave on them when the benchmark was defined.

The benchmark draws every input from these pools, so its checker can
compare each response with a recorded answer as well as re-verify it by
integer arithmetic.  Every torsion answer recorded here is cross-checked
against the Nagell-Lutz oracle while the file is written.

    PYTHONPATH=src python3 perfbench/golden.py      # about three minutes

Rerun it only on purpose: the file pins the expected answers.
"""

from __future__ import annotations

import json
import math
import os
import sys
from multiprocessing import get_context

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from concordia.curves import Curve, point_sort_key  # noqa: E402
from concordia.geometry import (DegenerateTriangleError,  # noqa: E402
                                ap_to_triangle, quadric_to_ap)
from concordia.problems import (gen_order4_family,  # noqa: E402
                                gen_order8_family, gen_order36_family,
                                solve_concordant, solve_theta_congruent)
from concordia.quadrics import point_to_quadric  # noqa: E402
from concordia.serialize import point_json  # noqa: E402
from concordia.sweeps import (DEFAULT_K_VALUES,  # noqa: E402
                              check_curve_against_oracle, curve_grid,
                              primitive_pythagorean_triples)
from concordia.torsion import torsion_subgroup  # noqa: E402
from concordia.triples import (ConcordantTriple,  # noqa: E402
                               CongruentTriple, congruent_to_concordant)
from check import digest  # noqa: E402
from workloads import digits  # noqa: E402

GRID_PMAX = 60
SEARCH_H = 10 ** 4
CHAIN_FIND_H = 100        # P must show up in search(CHAIN_FIND_H)
CHAIN_DIGITS = 5000       # chains stop before coordinates pass this size
OUT = os.path.join(ROOT, "perfbench", "golden.json")


def squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def torsion_record(mn):
    """Class tag and torsion points of E(m,n), checked against the oracle."""
    c = Curve(*mn)
    cls, pts = torsion_subgroup(c)
    if pts != c.torsion_oracle():
        raise SystemExit(f"classifier and oracle disagree on E{mn}")
    return [cls.tag, [point_json(P) for P in sorted(pts, key=point_sort_key)]]


def grid_record(pqk):
    if check_curve_against_oracle(pqk):
        raise SystemExit(f"oracle sweep reports a discrepancy at {pqk}")
    p, q, k = pqk
    cls, pts = torsion_subgroup(Curve(-p * k, q * k))
    if cls.tag == "Z2xZ2":
        return None
    return [",".join(map(str, pqk)), cls.tag,
            [point_json(P) for P in sorted(pts, key=point_sort_key)]]


def solution_record(problem, triple):
    if problem == "concordant":
        report = solve_concordant(ConcordantTriple(*triple), SEARCH_H)
    else:
        report = solve_theta_congruent(CongruentTriple(*triple), SEARCH_H)
    c = report.curve
    sols = []
    for e in report.solutions:
        sols.append({"point": point_json(e.point),
                     "quadric": list(e.quadric.coords()),
                     "provenance": e.provenance,
                     "triangle": (None if e.triangle is None else
                                  [str(v) for v in e.triangle.sides()])})
    return {"problem": problem, "triple": list(triple),
            "curve": [c.m, c.n], "class": report.torsion_class.tag,
            "solutions": sols}


def chain_record(spec):
    """A point of infinite order on the curve of (r,s,k) and the digests
    of its multiples up to CHAIN_DIGITS-digit coordinates."""
    r, s, k = spec
    ct = congruent_to_concordant(CongruentTriple(r, s, k))
    c = ct.curve()
    _, torsion = torsion_subgroup(c)
    cands = [P for P in c.search(CHAIN_FIND_H)
             if P not in torsion and P.y > 0]
    if not cands:
        return None
    P = min(cands, key=point_sort_key)
    out = {"triple": [r, s, k], "curve": [c.m, c.n], "P": point_json(P),
           "digests": [], "seed_failures": 0, "degenerate": 0}
    Q = P
    while True:
        size = max(digits(v) for v in (Q.x.numerator, Q.x.denominator,
                                       Q.y.numerator, Q.y.denominator))
        if size > CHAIN_DIGITS:
            break
        S = point_to_quadric(Q, c)
        out["digests"].append(digest([Q.x.numerator, Q.x.denominator,
                                      Q.y.numerator, Q.y.denominator,
                                      *S.coords()]))
        ap = quadric_to_ap(S, ct.p, ct.q, ct.k)
        try:
            ap_to_triangle(ap, r, s)
        except DegenerateTriangleError:
            out["degenerate"] += 1
        try:
            json.dumps([point_json(Q), list(S.coords())])
        except ValueError:
            out["seed_failures"] += 1
        Q = c.add(Q, P)
    out["K"] = len(out["digests"])
    return out


def family_pools():
    order4 = [(u, v) for v in range(2, 16) for u in range(1, v)
              if math.gcd(u, v) == 1]
    order8 = primitive_pythagorean_triples(25)
    order36 = [(a, b) for b in range(1, 11) for a in range(-10, 0)
               if math.gcd(a, b) == 1 and a + b != 0
               and a + 2 * b > 0 and 2 * a + b > 0]
    return {"order4": order4, "order8": order8, "order36": order36}


def main() -> int:
    theta = [(r, s, k) for s in range(2, 9) for r in range(-s + 1, s)
             if math.gcd(r, s) == 1 and r != 0 for k in (1, 2, 3, 5, 6, 7)]
    theta = theta[::7]
    congruent = [(0, 1, n) for n in range(1, 61) if squarefree(n)]
    concordant = [(p, q, k) for p in range(1, 13) for q in range(1, 13)
                  if math.gcd(p, q) == 1 for k in DEFAULT_K_VALUES][::37]
    families = family_pools()

    ctx = get_context("spawn")
    with ctx.Pool(2) as pool:
        grid = [g for g in pool.map(grid_record,
                                    list(curve_grid(GRID_PMAX,
                                                    DEFAULT_K_VALUES)),
                                    chunksize=64) if g]
        solutions = pool.starmap(
            solution_record,
            [("theta", t) for t in congruent + theta]
            + [("concordant", t) for t in concordant])
        chains = [ch for ch in pool.map(chain_record, congruent + theta)
                  if ch is not None]

        fam = {}
        for name, params in families.items():
            gen = {"order4": gen_order4_family, "order8": gen_order8_family,
                   "order36": gen_order36_family}[name]
            fam[name] = [gen(*p).to_json() for p in params]
        classify_mn = set()
        for recs in fam.values():
            for rec in recs:
                m, n = rec["curve"]["m"], rec["curve"]["n"]
                classify_mn.update({(m, n), (n, m), (-m, n - m)})
        for sol in solutions:
            m, n = sol["curve"]
            classify_mn.update({(m, n), (n, m), (-n, m - n)})
        classify_mn = sorted(classify_mn)
        torsion = pool.map(torsion_record, classify_mn)

    golden = {
        "grid": {"pmax": GRID_PMAX, "k_values": list(DEFAULT_K_VALUES),
                 "nontrivial": {key: [tag, pts] for key, tag, pts in grid}},
        "search_bound": SEARCH_H,
        "solutions": solutions,
        "chains": {"find_bound": CHAIN_FIND_H, "max_digits": CHAIN_DIGITS,
                   "curves": chains},
        "families": fam,
        "classify": [[m, n, tag, pts]
                     for (m, n), (tag, pts) in zip(classify_mn, torsion)],
    }
    with open(OUT, "w") as fh:
        json.dump(golden, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"{OUT}: {len(grid)} nontrivial grid curves, {len(solutions)} "
          f"solve triples, {len(chains)} chains, {len(classify_mn)} "
          f"classify curves")
    return 0


if __name__ == "__main__":
    sys.exit(main())
