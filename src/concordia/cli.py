"""Command-line interface.

Exit codes: 0 ok, 1 usage error, 2 failed verification, 3 internal
invariant violation (a torsion certificate that does not check out, or
the classifier disagreeing with the enumeration oracle).  All numbers
cross the boundary as exact strings.  A search bound (`--bound`) above
MAX_BOUND, a selftest grid (`--pmax`) above MAX_PMAX, more selftest
workers (`--jobs`) than CPUs, any of these three below 1, and a
`convert chain` input or result with an integer of more than MAX_DIGITS
digits are refused as usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .curves import Curve, point_sort_key
from .geometry import ap_to_triangle, quadric_to_ap
from .problems import (four_torsion_counterexamples, gen_order4_family,
                       gen_order8_family, gen_order36_family,
                       solve_concordant, solve_theta_congruent,
                       verify_concordant_solution)
from .quadrics import point_to_quadric
from .serialize import frac_str, parse_frac, point_json
from .sweeps import family_sweep, oracle_equivalence_sweep
from .torsion import CertificateMismatch, torsion_subgroup
from .triples import (ConcordantTriple, CongruentTriple,
                      concordant_to_congruent, congruent_to_concordant)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3

# Curve.search takes 0.4-2.4 s at H = 10^6 and 6-28 s at H = 10^7 for
# small m, n (E(-5,5) to E(-2310,221), one core of a 2-vCPU host); larger
# bounds are refused rather than left to run for minutes.
MAX_BOUND = 10 ** 7
# The selftest oracle grid at p, q <= 60 (17,624 curves) takes about 8 s in
# one process on a 2-vCPU host.
MAX_PMAX = 60
# Python refuses int<->str conversions of more than 4300 digits by default
# (sys.get_int_max_str_digits()).  `convert chain` refuses such a number
# itself, in --x/--y and in every integer of its result, before printing
# anything, with a message that names the size; the interpreter's own
# limit is left as it is.
MAX_DIGITS = 4300


class DigitLimitError(ValueError):
    """A number with more than MAX_DIGITS decimal digits."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _capped(limit: int):
    """Argument type: an integer from 1 to `limit`.  A digit string too
    long for int() (over 4300 digits) is outside that range too."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            body = text.strip()
            sign = body[:1] if body[:1] in ("+", "-") else ""
            if not body[len(sign):].isdigit():
                raise argparse.ArgumentTypeError(
                    f"invalid int value: {text!r}") from None
            value = 0 if sign == "-" else limit + 1
        if value < 1:
            raise argparse.ArgumentTypeError("must be at least 1")
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}")
        return value
    return parse


def _digits(v: int) -> int:
    """Decimal digits of |v| >= 1, without an int->str conversion."""
    v = abs(v)
    # at most the digits of 2^(bits-1), as 0.30102 < log10(2)
    d = (v.bit_length() - 1) * 30102 // 100000 + 1
    while 10 ** d <= v:
        d += 1
    return d


def _parse_rational(flag: str, text: str):
    """parse_frac(text), or DigitLimitError if an integer written in it
    has more than MAX_DIGITS digits, or a decimal exponent would make
    one (Fraction expands "1e999999999" in full)."""
    plain = text.replace("_", "")
    longest = max(map(len, re.findall(r"\d+", plain)), default=0)
    if longest > MAX_DIGITS:
        raise DigitLimitError(f"{flag} has a {longest}-digit integer; the "
                              f"limit is {MAX_DIGITS} digits")
    exponent = re.search(r"[eE][+-]?(\d+)", plain)
    if exponent and int(exponent[1]) >= MAX_DIGITS:
        raise DigitLimitError(f"{flag} has a decimal exponent of "
                              f"{exponent[1]}; the limit is {MAX_DIGITS} "
                              f"digits")
    return parse_frac(text)


def _check_digits(values) -> None:
    """DigitLimitError if the numerator or denominator of one of `values`
    (ints or Fractions) has more than MAX_DIGITS digits."""
    too_big = 10 ** MAX_DIGITS
    for v in values:
        for part in (v.numerator, v.denominator):
            if abs(part) >= too_big:
                raise DigitLimitError(
                    f"the result has a {_digits(part)}-digit integer; the "
                    f"limit is {MAX_DIGITS} digits")


def _emit(payload: dict, fmt: str, text_lines) -> None:
    try:
        if fmt == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (e.g. `| head`): drop the rest of the output
        # so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _curve_from_args(args) -> Curve:
    if args.m is not None or args.n is not None:
        if args.m is None or args.n is None:
            raise ValueError("--m and --n must be given together")
        return Curve(args.m, args.n)
    if args.p is None or args.q is None or args.k is None:
        raise ValueError("give either --m/--n or --p/--q/--k")
    return ConcordantTriple(args.p, args.q, args.k).curve()


def _cmd_classify(args) -> int:
    c = _curve_from_args(args)
    cls, pts = torsion_subgroup(c)
    ordered = sorted(pts, key=point_sort_key)
    payload = {
        "curve": {"m": c.m, "n": c.n},
        "torsion": cls.to_json(),
        "points": [point_json(P) for P in ordered],
    }
    lines = [f"E({c.m},{c.n}): torsion {cls.tag}",
             f"certificate: {cls.to_json()}",
             "points: " + ", ".join(map(str, ordered))]
    _emit(payload, args.format, lines)
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.problem == "concordant":
        report = solve_concordant(ConcordantTriple(args.p, args.q, args.k),
                                  args.bound)
    else:
        report = solve_theta_congruent(CongruentTriple(args.r, args.s, args.k),
                                       args.bound)
    payload = report.to_json()
    lines = [f"{report.problem} {report.triple} on "
             f"E({report.curve.m},{report.curve.n}): "
             f"{len(report.solutions)} solution(s), torsion "
             f"{report.torsion_class.tag}"]
    for entry in report.solutions:
        lines.append(f"  {entry.point} -> {entry.quadric.coords()} "
                     f"[{entry.provenance}]")
    for tri, pts in report.triangles():
        lines.append("  triangle " + "/".join(frac_str(v) for v in tri.sides())
                     + f" from {len(pts)} point(s)")
    _emit(payload, args.format, lines)
    return EXIT_OK


def _cmd_convert(args) -> int:
    if args.conversion == "to-concordant":
        t = congruent_to_concordant(CongruentTriple(args.r, args.s, args.k))
        payload = {"concordant": [t.p, t.q, t.k]}
        lines = [f"(p,q,k) = ({t.p},{t.q},{t.k})"]
    elif args.conversion == "to-congruent":
        t = concordant_to_congruent(ConcordantTriple(args.p, args.q, args.k))
        payload = {"congruent": [t.r, t.s, t.k]}
        lines = [f"(r,s,k) = ({t.r},{t.s},{t.k})"]
    else:  # chain
        c = Curve(args.m, args.n)
        P = c.point(_parse_rational("--x", args.x),
                    _parse_rational("--y", args.y))
        S = point_to_quadric(P, c)
        ap = tri = None
        if not S.is_trivial and c.m < 0 < c.n:
            step = math.gcd(-c.m, c.n)
            ap = quadric_to_ap(S, -c.m // step, c.n // step, step)
            if args.r is not None and args.s is not None:
                tri = ap_to_triangle(ap, args.r, args.s)
        shown = [P.x, P.y, *S.coords()]
        if ap is not None:
            shown += (ap.squares() if args.format == "text"
                      else (ap.alpha, ap.beta, ap.gamma))
        if tri is not None:
            shown += tri.sides()
        _check_digits(shown)
        payload = {"point": point_json(P), "quadric": list(S.coords())}
        lines = [f"point {P}", f"quadric {S.coords()}"]
        if ap is not None:
            payload["ap"] = ap.to_json()
            lines.append(f"squares {tuple(map(frac_str, ap.squares()))} "
                         f"step {ap.step} gaps ({ap.p},{ap.q})")
        if tri is not None:
            payload["triangle"] = tri.to_json()
            lines.append(f"triangle {tuple(map(frac_str, tri.sides()))}")
    _emit(payload, args.format, lines)
    return EXIT_OK


def _cmd_verify(args) -> int:
    verdict = verify_concordant_solution(args.m, args.n, args.x, args.y,
                                         args.z, args.w)
    payload = {"verdict": verdict,
               "solution": [args.x, args.y, args.z, args.w],
               "curve": {"m": args.m, "n": args.n}}
    _emit(payload, args.format, [verdict])
    return EXIT_OK if verdict != "invalid" else EXIT_VERIFY


def _cmd_search(args) -> int:
    c = Curve(args.m, args.n)
    pts = sorted(c.search(args.bound), key=point_sort_key)
    rows = []
    for P in pts:
        order = c.order_of(P)
        rows.append({"point": point_json(P),
                     "order": order if order is not None else "infinite",
                     "is_double": c.is_double(P)})
    payload = {"curve": {"m": c.m, "n": c.n}, "bound": args.bound,
               "points": rows}
    lines = [f"E({c.m},{c.n}), height bound {args.bound}: "
             f"{len(rows)} point(s)"]
    for row in rows:
        lines.append(f"  {row['point']} order={row['order']} "
                     f"double={row['is_double']}")
    _emit(payload, args.format, lines)
    return EXIT_OK


def _cmd_family(args) -> int:
    if args.family == "order4":
        rec = gen_order4_family(args.u, args.v)
    elif args.family == "order8":
        rec = gen_order8_family(args.xi, args.eta, args.zeta)
    else:
        rec = gen_order36_family(args.a, args.b)
    payload = rec.to_json()
    lines = [f"{rec.family}{rec.params}: E({rec.m},{rec.n}) "
             f"torsion {rec.torsion_tag}",
             f"concordant (p,q,k) = "
             f"({rec.concordant.p},{rec.concordant.q},{rec.concordant.k})",
             f"congruent (r,s,k) = "
             f"({rec.congruent.r},{rec.congruent.s},{rec.congruent.k}) "
             f"on E{rec.congruent_curve} [{rec.parity_case}]"]
    _emit(payload, args.format, lines)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    failures = []
    oracle_mismatch = False

    rows = four_torsion_counterexamples()
    for row in rows:
        if row["verdict"] != "nontrivial" or row["order"] != 4:
            failures.append(f"counterexample suite failed at k={row['k']}")

    failures += family_sweep(limit=8)

    mismatches = oracle_equivalence_sweep(p_max=args.pmax, jobs=args.jobs)
    if mismatches:
        failures += mismatches
        oracle_mismatch = True

    payload = {"failures": failures, "passed": not failures}
    lines = [f"selftest: {'PASS' if not failures else 'FAIL'}"] + \
        [f"  {line}" for line in failures]
    _emit(payload, args.format, lines)
    if oracle_mismatch:
        return EXIT_INTERNAL
    return EXIT_OK if not failures else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(prog="concordia",
                     description="theta-congruent numbers, concordant forms "
                                 "and torsion on E(m,n), in exact arithmetic")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="torsion class and full torsion list")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="solution pipelines")
    solve_sub = p.add_subparsers(dest="problem", required=True)
    pc = solve_sub.add_parser("concordant")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--q", type=int, required=True)
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--bound", type=_capped(MAX_BOUND))
    pc.set_defaults(func=_cmd_solve)
    pt = solve_sub.add_parser("theta")
    pt.add_argument("--r", type=int, required=True)
    pt.add_argument("--s", type=int, required=True)
    pt.add_argument("--k", type=int, required=True)
    pt.add_argument("--bound", type=_capped(MAX_BOUND))
    pt.set_defaults(func=_cmd_solve)

    p = sub.add_parser("convert", help="triple encodings and object chains")
    conv_sub = p.add_subparsers(dest="conversion", required=True)
    c1 = conv_sub.add_parser("to-concordant")
    c1.add_argument("--r", type=int, required=True)
    c1.add_argument("--s", type=int, required=True)
    c1.add_argument("--k", type=int, required=True)
    c1.set_defaults(func=_cmd_convert)
    c2 = conv_sub.add_parser("to-congruent")
    c2.add_argument("--p", type=int, required=True)
    c2.add_argument("--q", type=int, required=True)
    c2.add_argument("--k", type=int, required=True)
    c2.set_defaults(func=_cmd_convert)
    c3 = conv_sub.add_parser("chain")
    c3.add_argument("--m", type=int, required=True)
    c3.add_argument("--n", type=int, required=True)
    c3.add_argument("--x", required=True)
    c3.add_argument("--y", required=True)
    c3.add_argument("--r", type=int)
    c3.add_argument("--s", type=int)
    c3.set_defaults(func=_cmd_convert)

    p = sub.add_parser("verify", help="check a concordant-form solution")
    verify_sub = p.add_subparsers(dest="target", required=True)
    vc = verify_sub.add_parser("concordant")
    vc.add_argument("--m", type=int, required=True)
    vc.add_argument("--n", type=int, required=True)
    vc.add_argument("--x", type=int, required=True)
    vc.add_argument("--y", type=int, required=True)
    vc.add_argument("--z", type=int, required=True)
    vc.add_argument("--w", type=int, required=True)
    vc.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="height-bounded point search")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=_capped(MAX_BOUND), required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("family", help="torsion-solution family generators")
    fam_sub = p.add_subparsers(dest="family", required=True)
    f4 = fam_sub.add_parser("order4")
    f4.add_argument("--u", type=int, required=True)
    f4.add_argument("--v", type=int, required=True)
    f4.set_defaults(func=_cmd_family)
    f8 = fam_sub.add_parser("order8")
    f8.add_argument("--xi", type=int, required=True)
    f8.add_argument("--eta", type=int, required=True)
    f8.add_argument("--zeta", type=int, required=True)
    f8.set_defaults(func=_cmd_family)
    f36 = fam_sub.add_parser("order36")
    f36.add_argument("--a", type=int, required=True)
    f36.add_argument("--b", type=int, required=True)
    f36.set_defaults(func=_cmd_family)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--pmax", type=_capped(MAX_PMAX), default=6,
                   help="oracle-equivalence grid p, q <= PMAX")
    p.add_argument("--jobs", type=_capped(os.cpu_count() or 1), default=1)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificateMismatch as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
