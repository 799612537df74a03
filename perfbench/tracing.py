"""Spans and counters recorded from outside the package.

`instrument` wraps public functions of the `concordia` modules at run
time; the package source is untouched.  Each call records one span
(id, parent, op id, name, start, end) in memory.  Spans are written out
only when the pass is over, and self time (duration minus the time of
direct children) is derived then.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute path) of every wrapped public call.
TARGETS = (
    ("curves.add", "concordia.curves", "Curve.add"),
    ("curves.order_of", "concordia.curves", "Curve.order_of"),
    ("curves.torsion_oracle", "concordia.curves", "Curve.torsion_oracle"),
    ("curves.search", "concordia.curves", "Curve.search"),
    ("curves.normalize_params", "concordia.curves", "normalize_params"),
    ("torsion.classify_torsion", "concordia.torsion", "classify_torsion"),
    ("torsion.torsion_subgroup", "concordia.torsion", "torsion_subgroup"),
    ("sweeps.check_curve_against_oracle", "concordia.sweeps",
     "check_curve_against_oracle"),
    ("problems.solve_concordant", "concordia.problems", "solve_concordant"),
    ("problems.solve_theta_congruent", "concordia.problems",
     "solve_theta_congruent"),
    ("quadrics.point_to_quadric", "concordia.quadrics", "point_to_quadric"),
    ("quadrics.quadric_to_point", "concordia.quadrics", "quadric_to_point"),
    ("quadrics.concordant_form_map", "concordia.quadrics",
     "concordant_form_map"),
    ("quadrics.right_triangle_map", "concordia.quadrics",
     "right_triangle_map"),
    ("geometry.quadric_to_ap", "concordia.geometry", "quadric_to_ap"),
    ("geometry.ap_to_triangle", "concordia.geometry", "ap_to_triangle"),
    ("serialize.point_json", "concordia.serialize", "point_json"),
)


class Tracer:
    """In-memory span recorder.  When enabled, it records only while
    `active` (inside timed ops); counts are kept either way."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self.op = -1

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name, fn, after=None):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [len(tracer.spans), tracer.stack[-1] if tracer.stack else -1,
                   tracer.op, name, clock(), 0.0]
            tracer.spans.append(rec)
            tracer.stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                tracer.stack.pop()
            if after is not None:
                after(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _child_time(self):
        """{span id: seconds covered by its direct children}."""
        child = defaultdict(float)
        for _sid, parent, _op, _name, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return child

    def layer_times(self):
        """{name: (calls, inclusive seconds, self seconds)}."""
        child = self._child_time()
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _parent, _op, name, t0, t1 in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[sid]
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path: str) -> None:
        """Write every span as a JSON line: id, parent, op, name, start,
        end, self time (seconds, relative to the first span)."""
        child = self._child_time()
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, op, name,
                                     round(t0 - base, 9), round(t1 - base, 9),
                                     round(t1 - t0 - child[sid], 9)]) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        if t.active:
            self.rec = [len(t.spans), t.stack[-1] if t.stack else -1, t.op,
                        self.name, time.perf_counter(), 0.0]
            t.spans.append(self.rec)
            t.stack.append(self.rec[0])
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if t.active:
            self.rec[5] = time.perf_counter()
            t.stack.pop()
        return False


def _factor_exponents(v: int, acc: Counter) -> None:
    p = 2
    while p * p <= v:
        while v % p == 0:
            v //= p
            acc[p] += 1
        p += 1 if p == 2 else 2
    if v > 1:
        acc[v] += 1


def oracle_candidates(m: int, n: int) -> int:
    """Divisors of |m*n*(m-n)|: the y values the Nagell-Lutz oracle tries."""
    acc = Counter()
    for v in (m, n, m - n):
        _factor_exponents(abs(v), acc)
    return math.prod(e + 1 for e in acc.values())


def search_cells(height: int) -> int:
    """Coprime (u, w) cells of `Curve.search(height)`: |u| <= H, w^2 <= H."""
    total = 2 * height + 1
    for w in range(2, math.isqrt(height) + 1):
        primes = Counter()
        _factor_exponents(w, primes)
        ps = list(primes)
        coprime = 0
        for mask in range(1 << len(ps)):
            d, sign = 1, 1
            for i, p in enumerate(ps):
                if mask >> i & 1:
                    d *= p
                    sign = -sign
            coprime += sign * (height // d)
        total += 2 * coprime
    return total


def _after_oracle(counts, args, result):
    c = args[0]
    counts["curves.oracle_candidates"] += oracle_candidates(c.m, c.n)
    counts["curves.oracle_points"] += len(result)


def _after_search(counts, args, result):
    counts["curves.search_cells"] += search_cells(args[1])
    counts["curves.search_points"] += len(result)


def _after_classify(counts, args, result):
    counts["torsion.class." + result.tag] += 1


AFTER = {"curves.torsion_oracle": _after_oracle,
         "curves.search": _after_search,
         "torsion.classify_torsion": _after_classify}


def instrument(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets the package no longer has."""
    missing = []
    modules = [m for name, m in sys.modules.items()
               if name == "concordia" or name.startswith("concordia.")]
    for name, modname, attr in TARGETS:
        mod = importlib.import_module(modname)
        owner, _, leaf = attr.rpartition(".")
        holder = getattr(mod, owner) if owner else mod
        original = getattr(holder, leaf, None)
        if original is None:
            missing.append(name)
            continue
        wrapped = tracer.wrap(name, original, AFTER.get(name))
        if owner:
            setattr(holder, leaf, wrapped)
            continue
        # A module-level function is also bound by name in every module
        # that imported it; rebind each of those references.
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    return missing
