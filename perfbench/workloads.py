"""Seeded inputs and timed operations of the four benchmark workloads.

Every input is drawn from the pools in golden.json by a `random.Random`
seeded with the workload name and `--seed`, so one seed always yields the
same request stream.  The package only ever sees the generated inputs.

An *op* is what one timing covers: one CLI process (cli-oneshot), one curve
checked against the oracle (oracle-sweep), one solve plus its serialization
(search-solve), or one multiple kP taken through the whole chain
(multiples-chain).  A *unit* is the smallest run of ops the loop starts:
one op, except in multiples-chain where it is the K multiples of one curve,
since kP is built from (k-1)P.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import check

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")

WORKLOADS = ("cli-oneshot", "oracle-sweep", "search-solve", "multiples-chain")
CLI_BOUNDS = (None, 500, 1000, 2000)
CLI_SEARCH_BOUNDS = (250, 500, 1000, 2000)
# One block of CLI requests: one of each command, its form drawn by the
# seed, and two searches with one key, so every second search is a cache
# hit.  A timed pass of cli-oneshot is one block.
CLI_BLOCK = ("classify", "solve", "convert", "verify", "family", "search",
             "search")
CLI_FORMS = {"classify": ("classify-mn", "classify-pqk"),
             "solve": ("solve-concordant", "solve-theta"),
             "convert": ("to-concordant", "to-congruent", "chain"),
             "verify": ("verify-valid", "verify-invalid")}
PROC_TIMEOUT_S = 120


class Golden:
    """Input pools and recorded answers (see golden.py)."""

    def __init__(self, path: str = GOLDEN):
        with open(path) as fh:
            data = json.load(fh)
        grid = data["grid"]
        self.grid = [(p, q, k) for p in range(1, grid["pmax"] + 1)
                     for q in range(1, grid["pmax"] + 1)
                     if math.gcd(p, q) == 1 for k in grid["k_values"]]
        self.nontrivial = {tuple(map(int, key.split(","))): (tag, pts)
                           for key, (tag, pts) in grid["nontrivial"].items()}
        self.search_bound = data["search_bound"]
        self.solutions = data["solutions"]
        self.with_solutions = [r for r in self.solutions if r["solutions"]]
        self.congruent = [r for r in self.solutions if r["problem"] == "theta"
                          and r["triple"][:2] == [0, 1]]
        self.theta = [r for r in self.solutions if r["problem"] == "theta"
                      and r["triple"][:2] != [0, 1]]
        self.concordant = [r for r in self.solutions
                           if r["problem"] == "concordant"]
        self.by_curve = {tuple(r["curve"]): r for r in self.solutions}
        # (record, solution) pairs a `convert chain` call can take through
        # to a triangle: theta solutions whose triangle is not degenerate.
        self.chainable = [(r, e) for r in self.solutions
                          for e in r["solutions"]
                          if r["problem"] == "concordant"
                          or e["triangle"] is not None]
        self.chains = data["chains"]
        self.families = data["families"]
        self.classify = {(m, n): (tag, check.points(pts))
                         for m, n, tag, pts in data["classify"]}

    def grid_expected(self, p: int, q: int, k: int):
        m, n = -p * k, q * k
        if (p, q, k) in self.nontrivial:
            tag, pts = self.nontrivial[(p, q, k)]
            return tag, check.points(pts)
        zero = Fraction(0)
        return "Z2xZ2", {None, (zero, zero), (Fraction(-m), zero),
                         (Fraction(-n), zero)}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _shuffled_forever(rng, pool):
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def oracle_inputs(g: Golden, seed: int):
    """Coprime (p, q, k), p, q <= 60, k in DEFAULT_K_VALUES, seeded order."""
    return _shuffled_forever(rng_for("oracle-sweep", seed), g.grid)


def search_inputs(g: Golden, seed: int):
    """Blocks of one congruent-number, one theta and one concordant triple."""
    rng = rng_for("search-solve", seed)
    while True:
        block = [rng.choice(g.congruent), rng.choice(g.theta),
                 rng.choice(g.concordant)]
        rng.shuffle(block)
        yield from block


def chain_inputs(g: Golden, seed: int):
    return _shuffled_forever(rng_for("multiples-chain", seed),
                             g.chains["curves"])


def _flags(**kw) -> list[str]:
    return [f"--{key}={value}" for key, value in kw.items()]


def cli_inputs(g: Golden, seed: int):
    """(kind, argv, expect) requests in blocks of CLI_BLOCK."""
    rng = rng_for("cli-oneshot", seed)
    issued: set[tuple] = set()
    classify_keys = sorted(g.classify)
    while True:
        block = list(CLI_BLOCK)
        rng.shuffle(block)
        key = None
        for kind in block:
            if kind == "search":
                while key is None:
                    rec = rng.choice(g.solutions)
                    key = (*rec["curve"], rng.choice(CLI_SEARCH_BOUNDS))
                    if key in issued:
                        key = None
                issued.add(key)
                m, n, bound = key
                yield (kind, ["search", *_flags(m=m, n=n, bound=bound)],
                       (m, n, bound, g.by_curve[(m, n)]))
            else:
                kind = rng.choice(CLI_FORMS.get(kind, (kind,)))
                yield _cli_request(g, rng, kind, classify_keys)


def _cli_request(g, rng, kind, classify_keys):
    if kind == "classify-mn":
        m, n = rng.choice(classify_keys)
        return kind, ["classify", *_flags(m=m, n=n)], (m, n, g.classify[m, n])
    if kind == "classify-pqk":
        p, q, k = rng.choice(g.grid)
        return (kind, ["classify", *_flags(p=p, q=q, k=k)],
                (-p * k, q * k, g.grid_expected(p, q, k)))
    if kind in ("solve-concordant", "solve-theta"):
        pool = g.concordant if kind == "solve-concordant" else \
            g.congruent + g.theta
        rec = rng.choice(pool)
        bound = rng.choice(CLI_BOUNDS)
        names = ("p", "q", "k") if kind == "solve-concordant" else \
            ("r", "s", "k")
        argv = ["solve", kind.split("-")[1],
                *_flags(**dict(zip(names, rec["triple"])))]
        if bound is not None:
            argv += _flags(bound=bound)
        return kind, argv, (rec, bound)
    if kind == "to-concordant":
        s = rng.randint(2, 60)
        r = rng.choice([r for r in range(-s + 1, s) if math.gcd(r, s) == 1])
        k = rng.randint(1, 60)
        return kind, ["convert", "to-concordant", *_flags(r=r, s=s, k=k)], \
            (r, s, k)
    if kind == "to-congruent":
        while True:
            p, q = rng.randint(1, 60), rng.randint(1, 60)
            if math.gcd(p, q) == 1:
                break
        k = rng.randint(1, 30) * (1 if p % 2 and q % 2 else 2)
        return kind, ["convert", "to-congruent", *_flags(p=p, q=q, k=k)], \
            (p, q, k)
    if kind == "chain":
        rec, entry = rng.choice(g.chainable)
        theta = rec["problem"] == "theta"
        m, n = rec["curve"]
        x, y = entry["point"]
        argv = ["convert", "chain", *_flags(m=m, n=n, x=x, y=y)]
        angle = None
        if theta:
            angle = tuple(rec["triple"][:2])
            argv += _flags(r=angle[0], s=angle[1])
        return kind, argv, (m, n, check.point(entry["point"]), angle,
                            entry["quadric"])
    if kind in ("verify-valid", "verify-invalid"):
        rec = rng.choice(g.with_solutions)
        t = list(rng.choice(rec["solutions"])["quadric"])
        if kind == "verify-invalid":
            t[2] += 1
        m, n = rec["curve"]
        return kind, ["verify", "concordant",
                      *_flags(m=m, n=n, x=t[0], y=t[1], z=t[2], w=t[3])], \
            (m, n, tuple(t))
    if kind == "family":
        name = rng.choice(sorted(g.families))
        rec = rng.choice(g.families[name])
        keys = {"order4": ("u", "v"), "order8": ("xi", "eta", "zeta"),
                "order36": ("a", "b")}[name]
        return kind, ["family", name,
                      *_flags(**dict(zip(keys, rec["params"])))], rec
    raise ValueError(kind)


INPUTS = {"cli-oneshot": cli_inputs, "oracle-sweep": oracle_inputs,
          "search-solve": search_inputs, "multiples-chain": chain_inputs}


def digits(v: int) -> int:
    """Decimal digits of |v| without int->str (size-limited since 3.11)."""
    v = abs(v)
    d = max(1, int(v.bit_length() * 0.30102999566398120))
    while 10 ** d <= v:
        d += 1
    while d > 1 and 10 ** (d - 1) > v:
        d -= 1
    return d


def is_str_limit(exc: ValueError) -> bool:
    return "limit" in str(exc) and "digits" in str(exc)


# -- runners ---------------------------------------------------------------
#
# A runner's `units()` yields the seeded units; `run(unit)` yields one
# (seconds, status, reason) per op.  status is "ok", "limit" (ValueError
# from Python's int<->str digit limit), "error" (any other ValueError,
# the package's documented error type), "crash" (any other exception) or
# "wrong" (the checker rejected the response).


class Runner:
    # Units of one timed pass: the first units of the seeded stream, sized
    # so that a 20-second run makes several passes over them.
    pass_units = 1

    def __init__(self, golden: Golden, seed: int, tracer):
        self.g = golden
        self.tracer, self.counts = tracer, tracer.counts
        self.inputs = INPUTS[self.name](golden, seed)
        self.op = 0

    def units(self):
        return self.inputs

    def new_pass(self):
        """Clear what a pass must not inherit from the one before it."""

    def timed(self, fn, *args):
        """Run fn(*args) as op number self.op; returns (seconds, result,
        exception)."""
        tracer = self.tracer
        tracer.op = self.op
        self.op += 1
        tracer.active = tracer.enabled
        exc = result = None
        t0 = time.perf_counter()
        try:
            with tracer.span("op." + self.name):
                result = fn(*args)
        except Exception as e:  # noqa: BLE001 - classified by the caller
            exc = e
        dt = time.perf_counter() - t0
        tracer.active = False
        return dt, result, exc

    @staticmethod
    def failure(exc):
        if isinstance(exc, ValueError):
            if is_str_limit(exc):
                return "limit", str(exc)[:80]
            return "error", f"{type(exc).__name__}: {exc}"[:200]
        return "crash", f"{type(exc).__name__}: {exc}"[:200]


class OracleSweep(Runner):
    name = "oracle-sweep"
    pass_units = 500

    def __init__(self, *args):
        super().__init__(*args)
        from concordia import sweeps, torsion
        from concordia.curves import Curve
        from concordia.serialize import point_json
        self.sweeps, self.torsion = sweeps, torsion
        self.Curve, self.point_json = Curve, point_json

    def run(self, pqk):
        dt, problems, exc = self.timed(self.sweeps.check_curve_against_oracle,
                                       pqk)
        if exc is not None:
            yield (dt, *self.failure(exc))
            return
        p, q, k = pqk
        c = self.Curve(-p * k, q * k)
        cls, pts = self.torsion.torsion_subgroup(c)
        payload = json.loads(json.dumps(
            {"problems": problems, "torsion": cls.to_json(),
             "points": [self.point_json(P) for P in pts]}))
        why = check.check_grid(payload, c.m, c.n, self.g.grid_expected(*pqk))
        yield dt, ("wrong" if why else "ok"), why


class SearchSolve(Runner):
    name = "search-solve"
    pass_units = 3

    def __init__(self, *args):
        super().__init__(*args)
        from concordia import problems, triples
        self.problems, self.triples = problems, triples

    def _solve(self, rec):
        if rec["problem"] == "concordant":
            report = self.problems.solve_concordant(
                self.triples.ConcordantTriple(*rec["triple"]),
                self.g.search_bound)
        else:
            report = self.problems.solve_theta_congruent(
                self.triples.CongruentTriple(*rec["triple"]),
                self.g.search_bound)
        with self.tracer.span("serialize.json"):
            return json.dumps(report.to_json())

    def run(self, rec):
        dt, text, exc = self.timed(self._solve, rec)
        if exc is not None:
            yield (dt, *self.failure(exc))
            return
        self.counts["serialize.bytes"] += len(text)
        why = check.check_solve(json.loads(text), rec, self.g.search_bound)
        yield dt, ("wrong" if why else "ok"), why


class MultiplesChain(Runner):
    """k = 1..K multiples of a known point P through every map of the
    package; K is where coordinates pass golden max_digits, beyond
    Python's 4300-digit int<->str limit."""

    name = "multiples-chain"
    pass_units = 1

    def __init__(self, *args):
        super().__init__(*args)
        from concordia import geometry, quadrics, serialize, triples
        from concordia.curves import Curve
        self.geometry, self.quadrics = geometry, quadrics
        self.serialize, self.triples, self.Curve = serialize, triples, Curve
        # Set-up finds each curve's point of infinite order, as a user would.
        self.P = {}
        bound = self.g.chains["find_bound"]
        for rec in self.g.chains["curves"]:
            c = Curve(*rec["curve"])
            cands = [P for P in c.search(bound)
                     if P.y > 0 and c.order_of(P) is None]
            P = min(cands, key=lambda P: (P.x.numerator, P.x.denominator,
                                          P.y))
            self.P[tuple(rec["curve"])] = P

    def _multiple(self, c, ct, angle, Q, P):
        qd, geo, ser = self.quadrics, self.geometry, self.serialize
        Q = P if Q is None else c.add(Q, P)
        S = qd.point_to_quadric(Q, c)
        roundtrip = qd.quadric_to_point(S, c) == Q
        double = c.add(Q, Q)
        if c.m == -c.n:
            degree4 = qd.right_triangle_map(S, c) == double
        else:
            degree4 = qd.concordant_form_map(S, c) == c.negate(double)
        ap = geo.quadric_to_ap(S, ct.p, ct.q, ct.k)
        try:
            tri = geo.ap_to_triangle(ap, *angle)
        except geo.DegenerateTriangleError:
            tri = None
        with self.tracer.span("serialize.json"):
            try:
                text = json.dumps({
                    "point": ser.point_json(Q), "quadric": list(S.coords()),
                    "ap": {"alpha": ser.frac_str(ap.alpha),
                           "beta": ser.frac_str(ap.beta),
                           "gamma": ser.frac_str(ap.gamma),
                           "step": ap.step, "p": ap.p, "q": ap.q},
                    "triangle": None if tri is None else {
                        "a": ser.frac_str(tri.a), "b": ser.frac_str(tri.b),
                        "c": ser.frac_str(tri.c), "r": tri.r, "s": tri.s}})
            except ValueError as exc:
                return Q, exc, roundtrip and degree4, tri is None
        return Q, text, roundtrip and degree4, tri is None

    def run(self, rec):
        c = self.Curve(*rec["curve"])
        r, s, k = rec["triple"]
        ct = self.triples.congruent_to_concordant(
            self.triples.CongruentTriple(r, s, k))
        P = self.P[tuple(rec["curve"])]
        if check.point(rec["P"]) != (P.x, P.y):
            yield 0.0, "wrong", "set-up found a different point P"
            return
        Q = None
        for digest in rec["digests"]:
            dt, out, exc = self.timed(self._multiple, c, ct, (r, s), Q, P)
            if exc is not None:
                yield (dt, *self.failure(exc))
                return
            Q, text, maps_ok, degenerate = out
            self.counts["curves.coord_digits_max"] = max(
                self.counts["curves.coord_digits_max"],
                *(digits(v) for v in (Q.x.numerator, Q.x.denominator,
                                      Q.y.numerator, Q.y.denominator)))
            self.counts["geometry.degenerate"] += degenerate
            if not maps_ok:
                yield dt, "wrong", "isomorphism round trip or degree-4 map"
                continue
            if isinstance(text, ValueError):
                status, why = self.failure(text)
                self.counts["serialize.str_limit_failures"] += \
                    status == "limit"
                yield dt, status, why
                continue
            self.counts["serialize.bytes"] += len(text)
            why = check.check_multiple(json.loads(text), c.m, c.n, (r, s, k),
                                       digest)
            yield dt, ("wrong" if why else "ok"), why


class CliOneshot(Runner):
    """One fresh `python -m concordia.cli` process per request, with the
    search cache in a private temporary file."""

    name = "cli-oneshot"
    pass_units = len(CLI_BLOCK)

    def __init__(self, golden, seed, tracer, root, pkg_dir, tmpdir):
        super().__init__(golden, seed, tracer)
        import concordia.cli  # noqa: F401 - set-up imports the package
        self.cache = os.path.join(tmpdir, "cache.json")
        self.env = dict(os.environ, PYTHONPATH=pkg_dir,
                        CONCORDIA_CACHE=self.cache)
        self.root = root

    def new_pass(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.cache)

    def _cached_keys(self):
        try:
            with open(self.cache) as fh:
                return set(json.load(fh))
        except (OSError, ValueError):
            return set()

    def _call(self, argv):
        return subprocess.run([sys.executable, "-m", "concordia.cli", *argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=PROC_TIMEOUT_S)

    def run(self, request):
        kind, argv, expect = request
        if kind == "search":
            m, n, bound = expect[:3]
            hit = f"{m},{n},{bound}" in self._cached_keys()
            self.counts["cli.cache_hits" if hit else "cli.cache_misses"] += 1
        dt, proc, exc = self.timed(self._call, argv)
        if exc is not None:
            yield dt, "crash", f"{type(exc).__name__}: {exc}"[:200]
            return
        yield (dt, *self.judge(kind, expect, proc.returncode, proc.stdout,
                               proc.stderr))

    @staticmethod
    def judge(kind, expect, code, out, err):
        if "Traceback" in err:
            return "crash", err.strip().splitlines()[-1][:200]
        if code not in (0, 2):
            return "error", f"exit {code}: {err.strip()[:160]}"
        try:
            payload = json.loads(out)
        except ValueError:
            return "wrong", "stdout is not JSON"
        why = CHECKS[kind](payload, code, expect)
        if why is None and kind != "verify-invalid" and code != 0:
            why = f"exit code {code}"
        return ("wrong", why) if why else ("ok", None)


CHECKS = {
    "classify-mn": lambda p, code, e: check.check_classify(p, *e),
    "classify-pqk": lambda p, code, e: check.check_classify(p, *e),
    "solve-concordant": lambda p, code, e: check.check_solve(p, *e),
    "solve-theta": lambda p, code, e: check.check_solve(p, *e),
    "to-concordant": lambda p, code, e: check.check_to_concordant(p, *e),
    "to-congruent": lambda p, code, e: check.check_to_congruent(p, *e),
    "chain": lambda p, code, e: check.check_chain(p, *e),
    "verify-valid": lambda p, code, e: check.check_verify(p, *e, code),
    "verify-invalid": lambda p, code, e: check.check_verify(p, *e, code),
    "family": lambda p, code, e: check.check_family(p, e),
    "search": lambda p, code, e: check.check_search(p, *e),
}

RUNNERS = {r.name: r for r in (CliOneshot, OracleSweep, SearchSolve,
                               MultiplesChain)}
