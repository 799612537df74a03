"""Command-line interface.

Exit codes: 0 ok, 1 usage error (a ValueError), 2 failed verification,
3 internal invariant violation: an ArithmeticError, which a torsion
certificate that does not check out (`CertificateMismatch`) and a failed
exact-arithmetic post-condition of a kernel raise, or the classifier
disagreeing with the enumeration oracle in `selftest`.  All numbers
cross the boundary as exact strings.  A search bound (`--bound`) above
MAX_BOUND, a selftest grid (`--pmax`) above MAX_PMAX, more selftest
workers (`--jobs`) than CPUs, any of these three below 1, a flag whose
text has a run of more than MAX_DIGITS digits or a decimal exponent of
MAX_DIGITS or more (checked before the text is converted), and a result
of any subcommand whose printed text has such a run are refused as usage
errors, as is a number to be factored (such as gcd(m, n)) that keeps
more than 2048 bits after trial division (`concordia.arith.factorint`).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# Each handler imports the package modules it runs, so that a process
# loads only what its subcommand needs.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3

# For small m, n (E(-5,5) to E(-2310,221)) Curve.search takes 0.02-0.25 s
# at H = 10^6 and 0.18-1.7 s at H = 10^7 on one core of a 2-vCPU host, and
# larger bounds are refused; 4000-digit m, n take 16 s at 10^6, 162 s at 10^7.
MAX_BOUND = 10 ** 7
# The whole selftest at p, q <= 60 (17,624 oracle curves) takes 1.9-2.3 s
# in one process on a 2-vCPU host (ten runs), 1.1-1.8 s with --jobs 2 (five).
MAX_PMAX = 60
# The largest number, in decimal digits, that the CLI reads from a flag or
# prints, whatever the interpreter's int<->str limit
# (sys.get_int_max_str_digits(), PYTHONINTMAXSTRDIGITS) is: `main` parses
# the flags (each text checked before it is converted), computes and
# renders a result with that limit lifted, and refuses the text, before
# printing anything, if it has a run of more than MAX_DIGITS digits.  Best
# of 5 on a 2-vCPU host: a flag is refused unconverted, `classify` with a
# 131000-digit --m in 0.09 s (a valid one takes 0.08 s); a result pays for
# its conversion, `family order36` with 4300-digit --a/--b (a 17197-digit
# result, 0.5 s of it the torsion class) in 0.7-0.9 s, `order4/8` 0.2 s.
MAX_DIGITS = 4300


class DigitLimitError(ValueError, argparse.ArgumentTypeError):
    """A number of more than MAX_DIGITS digits; argparse names the flag."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse echoes a refused value in full, after one of these words
        # and up to the end of its message or the hint that ends it.  Cut
        # that value, and any other long run, to 32 characters.
        message = re.sub(r"((?:invalid choice|unrecognized arguments|"
                         r"ambiguous option|ignored explicit argument):? "
                         r".{32}).+?((?: \(choose from [^()]*\)"
                         r"| could match -[-\w]*(?:, -[-\w]*)*)?)\Z",
                         r"\1...\2", message, flags=re.S)
        message = re.sub(r"(\S{32})\S+", r"\1...", message)
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _check_digits(what: str, text: str) -> None:
    """DigitLimitError naming the first run of more than MAX_DIGITS digits
    in `text`, if it has one."""
    for run in re.findall(r"\d+", text):
        if len(run) > MAX_DIGITS:
            raise DigitLimitError(f"{what} has a {len(run)}-digit integer; "
                                  f"the limit is {MAX_DIGITS} digits")


def _number(cap=None, rational=False):
    """Argument type: the flag's text as an int, or a Fraction if
    `rational`, from 1 to `cap` if one is given.  The text is checked
    before it is converted: with underscores dropped, a run of more than
    MAX_DIGITS digits or a decimal exponent of MAX_DIGITS or more
    (Fraction would expand "1e999999999" in full) is refused.  A text
    that does not convert is echoed as at most 32 characters of its repr,
    of at most 4 bytes each."""
    def parse(text: str):
        body = text.replace("_", "")
        _check_digits("the value", body)
        # int() sees at most 4 digits, so it needs no lifted limit.
        exponent = re.search(r"[eE][+-]?0*(\d+)", body)
        if exponent and (len(exponent[1]) > len(str(MAX_DIGITS))
                         or int(exponent[1]) >= MAX_DIGITS):
            raise DigitLimitError(f"the value's decimal exponent gives more "
                                  f"than {MAX_DIGITS} digits")
        kind = int
        if rational:
            from fractions import Fraction as kind
        try:
            value = kind(text)
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(
                "the value has a zero denominator") from None
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {repr(text)[:32]}") from None
        if cap is not None and value < 1:
            raise argparse.ArgumentTypeError("must be at least 1")
        if cap is not None and value > cap:
            raise argparse.ArgumentTypeError(f"must be at most {cap}")
        return value
    return parse


def _emit(text: str) -> None:
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (e.g. `| head`): drop the rest of the output
        # so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _curve_from_args(args) -> Curve:
    from .curves import Curve
    if args.m is not None or args.n is not None:
        if args.m is None or args.n is None:
            raise ValueError("--m and --n must be given together")
        if {args.p, args.q, args.k} != {None}:
            raise ValueError("give either --m/--n or --p/--q/--k, not both")
        return Curve(args.m, args.n)
    if args.p is None or args.q is None or args.k is None:
        raise ValueError("give either --m/--n or --p/--q/--k")
    from .triples import ConcordantTriple
    return ConcordantTriple(args.p, args.q, args.k).curve()


def _has_dict(value) -> bool:
    """Whether a dict lies below `value`'s own level."""
    items = (value.values() if isinstance(value, dict)
             else value if isinstance(value, list) else ())
    return any(isinstance(item, dict) or _has_dict(item) for item in items)


def _inline(value) -> str:
    """`value`, with no dict below it, on one line: a list as (a, b, ...),
    a dict as k=v k=v, a string bare unless it has a space, else JSON."""
    if isinstance(value, dict):
        return " ".join(f"{k}={_inline(value[k])}" for k in sorted(value))
    if isinstance(value, list):
        return "(" + ", ".join(map(_inline, value)) + ")"
    if isinstance(value, str) and " " not in value:
        return value
    return json.dumps(value)


def render_text(value, indent=""):
    """`--format text`: the lines of a JSON document, a dict as sorted
    `key: value` lines, a list as `- item` lines.  An entry with a dict
    below it goes on the lines below, two spaces in; any other, inline."""
    if isinstance(value, dict):
        entries = [(f"{key}:", value[key]) for key in sorted(value)]
    else:
        entries = [("-", item) for item in value]
    for head, item in entries:
        if _has_dict(item):
            yield indent + head
            yield from render_text(item, indent + "  ")
        else:
            yield f"{indent}{head} {_inline(item)}"


# Each handler returns (JSON payload, exit code).  `main` renders the
# payload in the chosen format, checks it against MAX_DIGITS and prints it.
def _cmd_classify(args):
    from .curves import point_sort_key
    from .serialize import point_json
    from .torsion import torsion_subgroup
    c = _curve_from_args(args)
    cls, pts = torsion_subgroup(c)
    payload = {
        "curve": c.to_json(),
        "torsion": cls.to_json(),
        "points": [point_json(P) for P in sorted(pts, key=point_sort_key)],
    }
    return payload, EXIT_OK


def _cmd_solve_concordant(args):
    from .problems import solve_concordant
    from .triples import ConcordantTriple
    t = ConcordantTriple(args.p, args.q, args.k)
    return solve_concordant(t, args.bound).to_json(), EXIT_OK


def _cmd_solve_theta(args):
    from .problems import solve_theta_congruent
    from .triples import CongruentTriple
    t = CongruentTriple(args.r, args.s, args.k)
    return solve_theta_congruent(t, args.bound).to_json(), EXIT_OK


def _cmd_to_concordant(args):
    from .triples import CongruentTriple, congruent_to_concordant
    t = congruent_to_concordant(CongruentTriple(args.r, args.s, args.k))
    return {"concordant": t.to_json()}, EXIT_OK


def _cmd_to_congruent(args):
    from .triples import ConcordantTriple, concordant_to_congruent
    t = concordant_to_congruent(ConcordantTriple(args.p, args.q, args.k))
    return {"congruent": t.to_json()}, EXIT_OK


def _cmd_chain(args):
    from .curves import Curve
    from .problems import point_chain
    from .serialize import point_json
    if (args.r is None) != (args.s is None):
        raise ValueError("--r and --s must be given together")
    c = Curve(args.m, args.n)
    P = c.point(args.x, args.y)
    angle = None if args.r is None else (args.r, args.s)
    S, ap, tri = point_chain(c, P, angle)
    if angle is not None and ap is None:
        raise ValueError("--r/--s need a progression, and " + (
            "there is none unless m < 0 < n" if not c.m < 0 < c.n
            else "the point's quadric image is trivial"))
    payload = {"point": point_json(P), "quadric": S.to_json()}
    if ap is not None:
        payload["ap"] = ap.to_json()
    if tri is not None:
        payload["triangle"] = tri.to_json()
    return payload, EXIT_OK


def _cmd_verify(args):
    from .curves import Curve
    from .quadrics import verify_concordant_solution
    verdict = verify_concordant_solution(args.m, args.n, args.x, args.y,
                                         args.z, args.w)
    payload = {"verdict": verdict,
               "solution": [args.x, args.y, args.z, args.w],
               "curve": Curve(args.m, args.n).to_json()}
    return payload, EXIT_OK if verdict != "invalid" else EXIT_VERIFY


def _cmd_search(args):
    from .curves import Curve, point_sort_key
    from .serialize import point_json
    c = Curve(args.m, args.n)
    # order_of gives None for a point of infinite order, never 0.
    rows = [{"point": point_json(P), "order": c.order_of(P) or "infinite",
             "is_double": c.is_double(P)}
            for P in sorted(c.search(args.bound), key=point_sort_key)]
    return {"curve": c.to_json(), "bound": args.bound, "points": rows}, EXIT_OK


def _cmd_order4(args):
    from .problems import gen_order4_family
    return gen_order4_family(args.u, args.v).to_json(), EXIT_OK


def _cmd_order8(args):
    from .problems import gen_order8_family
    return gen_order8_family(args.xi, args.eta, args.zeta).to_json(), EXIT_OK


def _cmd_order36(args):
    from .problems import gen_order36_family
    return gen_order36_family(args.a, args.b).to_json(), EXIT_OK


def _cmd_selftest(args):
    from .problems import four_torsion_counterexamples
    from .sweeps import family_sweep, oracle_equivalence_sweep
    failures = four_torsion_counterexamples() + family_sweep(limit=8)
    mismatches = oracle_equivalence_sweep(p_max=args.pmax, jobs=args.jobs)
    failures += mismatches
    code = (EXIT_INTERNAL if mismatches
            else EXIT_OK if not failures else EXIT_VERIFY)
    return {"failures": failures, "passed": not failures}, code


class _Subcommands(argparse._SubParsersAction):
    """Subcommands whose parsers are built when argparse selects one.
    Every name is in `choices` from the start, so that usage, help and
    "invalid choice" list them all; until it is selected, a name maps to
    the function that fills its parser."""

    def parser(self, name) -> _Parser:
        """The parser of the subcommand `name`, built at the first call
        with the prog that `add_parser` gives."""
        fill = self.choices[name]
        if isinstance(fill, argparse.ArgumentParser):
            return fill
        parser = self.choices[name] = self._parser_class(
            prog=f"{self._prog_prefix} {name}")
        fill(parser)
        return parser

    def __call__(self, parser, namespace, values, option_string=None):
        self.parser(values[0])  # argparse has checked the name
        super().__call__(parser, namespace, values, option_string)


def _group(dest, *entries):
    """The filler of a parser with a required subcommand, stored as
    `dest`: one of `entries`, each a (name, help or None, filler)."""
    def fill(parser):
        sub = parser.add_subparsers(dest=dest, required=True,
                                    action=_Subcommands)
        for name, help, leaf in entries:
            if help is not None:  # the --help line add_parser(help=) adds
                sub._choices_actions.append(
                    sub._ChoicesPseudoAction(name, (), help))
            sub.choices[name] = leaf
    return fill


def _leaf(func, required="", optional="", extra=()):
    """The filler of a subcommand run by `func`, with an integer flag
    --WORD for each word of `required` (required) and of `optional` (not
    required), and the (flag, add_argument keywords) pairs of `extra`
    between the two."""
    def fill(parser):
        for word in required.split():
            parser.add_argument(f"--{word}", type=_number(), required=True)
        for flag, spec in extra:
            parser.add_argument(flag, **spec)
        for word in optional.split():
            parser.add_argument(f"--{word}", type=_number())
        parser.set_defaults(func=func)
    return fill


def build_parser() -> _Parser:
    """The top-level parser.  It builds a subcommand's parser only when
    that subcommand is parsed (`_Subcommands`)."""
    parser = _Parser(prog="concordia",
                     description="theta-congruent numbers, concordant forms "
                                 "and torsion on E(m,n), in exact arithmetic")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    bound = ("--bound", {"type": _number(cap=MAX_BOUND)})
    rational = {"type": _number(rational=True), "required": True}
    _group(
        "command",
        ("classify", "torsion class and full torsion list",
         _leaf(_cmd_classify, optional="m n p q k")),
        ("solve", "solution pipelines", _group(
            "problem",
            ("concordant", None,
             _leaf(_cmd_solve_concordant, "p q k", extra=[bound])),
            ("theta", None, _leaf(_cmd_solve_theta, "r s k", extra=[bound])))),
        ("convert", "triple encodings and object chains", _group(
            "conversion",
            ("to-concordant", None, _leaf(_cmd_to_concordant, "r s k")),
            ("to-congruent", None, _leaf(_cmd_to_congruent, "p q k")),
            ("chain", None, _leaf(_cmd_chain, "m n", "r s", extra=[
                ("--x", rational), ("--y", rational)])))),
        ("verify", "check a concordant-form solution", _group(
            "target",
            ("concordant", None, _leaf(_cmd_verify, "m n x y z w")))),
        ("search", "height-bounded point search", _leaf(
            _cmd_search, "m n", extra=[
                ("--bound", {**bound[1], "required": True})])),
        ("family", "torsion-solution family generators", _group(
            "family",
            ("order4", None, _leaf(_cmd_order4, "u v")),
            ("order8", None, _leaf(_cmd_order8, "xi eta zeta")),
            ("order36", None, _leaf(_cmd_order36, "a b")))),
        ("selftest", "run the invariant suites", _leaf(_cmd_selftest, extra=[
            ("--pmax", {"type": _number(cap=MAX_PMAX), "default": 6,
                        "help": "oracle-equivalence grid p, q <= PMAX"}),
            ("--jobs", {"type": _number(cap=os.cpu_count() or 1),
                        "default": 1})])),
    )(parser)
    return parser


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # MAX_DIGITS is the limit from here on
    try:
        args = build_parser().parse_args(argv)
        payload, code = args.func(args)
        text = ("\n".join(render_text(payload)) if args.format == "text"
                else json.dumps(payload, indent=2, sort_keys=True))
        _check_digits("the result", text)
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        sys.set_int_max_str_digits(limit)
    _emit(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
