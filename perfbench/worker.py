"""One benchmark process: set up a workload, run it, report raw results.

run.py starts this file for each set-up sample, for each package of a
timed run and for each traced pass:

    worker.py --workload W --seed S --mode setup|lockstep|plain|trace
              --tmp DIR [--package checkout|reference] [--units N]
              [--spans FILE]

It imports `concordia` from the checkout's src/ or, with
`--package reference`, from the frozen copy in perfbench/reference/, and
prints "READY" when the package is imported and the inputs can be drawn
(the end of set-up).  Then, except in setup mode:

- `lockstep` runs the workload's first units pass after pass, one op per
  "next" line on stdin, answering each with a JSON line [pass, op,
  seconds, status, reason]; any other line ends it with one JSON line of
  totals.  run.py drives a checkout and a reference worker in turn.
- `plain` and `trace` run exactly the first N units once and print one
  JSON line, the second with every public call of the package wrapped in
  a span (see tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from itertools import count, islice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGES = {"checkout": os.path.join(ROOT, "src"),
            "reference": os.path.join(HERE, "reference")}

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI_COMMANDS = ("classify", "solve", "convert", "verify", "family", "search")
CACHE_PROBE_REPEATS = 3


def _stat(times, name, field):
    return times.get(name, (0, 0.0, 0.0))[field]


def layer_metrics(tracer: tracing.Tracer) -> dict:
    """Per-layer numbers of one traced pass (times are totals, seconds)."""
    times = tracer.layer_times()
    c = tracer.counts

    def incl(*names):
        return sum(_stat(times, n, 1) for n in names)

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    out = {
        "curves.oracle_s": incl("curves.torsion_oracle"),
        "curves.oracle_candidates": c["curves.oracle_candidates"],
        "curves.oracle_points": c["curves.oracle_points"],
        "curves.oracle_yield": ratio("curves.oracle_points",
                                     "curves.oracle_candidates"),
        "curves.order_of_s": incl("curves.order_of"),
        "curves.order_of_calls": _stat(times, "curves.order_of", 0),
        "curves.normalize_s": incl("curves.normalize_params"),
        "torsion.classify_s": incl("torsion.classify_torsion"),
        "sweeps.check_self_s": _stat(times,
                                     "sweeps.check_curve_against_oracle", 2),
        "curves.search_s": incl("curves.search"),
        "curves.search_cells": c["curves.search_cells"],
        "curves.search_points": c["curves.search_points"],
        "curves.search_yield": ratio("curves.search_points",
                                     "curves.search_cells"),
        "problems.solve_self_s": (
            _stat(times, "problems.solve_concordant", 2)
            + _stat(times, "problems.solve_theta_congruent", 2)),
        "curves.add_s": incl("curves.add"),
        "curves.add_calls": _stat(times, "curves.add", 0),
        "curves.coord_digits_max": c["curves.coord_digits_max"],
        "quadrics.to_quadric_s": incl("quadrics.point_to_quadric"),
        "quadrics.to_point_s": incl("quadrics.quadric_to_point"),
        "quadrics.degree4_s": incl("quadrics.concordant_form_map",
                                   "quadrics.right_triangle_map"),
        "geometry.ap_s": incl("geometry.quadric_to_ap"),
        "geometry.triangle_s": incl("geometry.ap_to_triangle"),
        "geometry.degenerate": c["geometry.degenerate"],
        "serialize.json_s": incl("serialize.json"),
        "serialize.bytes": c["serialize.bytes"],
        "serialize.str_limit_failures": c["serialize.str_limit_failures"],
        "cli.cache_hits": c["cli.cache_hits"],
        "cli.cache_misses": c["cli.cache_misses"],
        "trace.spans": len(tracer.spans),
    }
    for tag in check.GROUP_SIZE:
        out["torsion.class." + tag] = c["torsion.class." + tag]
    for cmd in CLI_COMMANDS:
        durs = [s[5] - s[4] for s in tracer.spans
                if s[3] == "cli.main." + cmd]
        out["cli.command_s." + cmd] = statistics.median(durs) if durs else 0.0
    return out


def call_main(argv):
    """In-process `concordia.cli.main(argv)` -> (code, stdout, stderr)."""
    from concordia.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class InProcessCli:
    """Traced cli-oneshot: every request is also run through `main(argv)`
    in this process, with a cache file of its own, and checked the same
    way as the subprocess response."""

    def __init__(self, tracer, tmpdir):
        self.tracer = tracer
        self.cache = os.path.join(tmpdir, "inprocess-cache.json")
        os.environ["CONCORDIA_CACHE"] = self.cache
        self.first_search = None

    def run(self, request):
        kind, argv, expect = request
        if kind == "search" and self.first_search is None:
            self.first_search = argv
        self.tracer.active = True
        with self.tracer.span("cli.main." + argv[0]):
            code, out, err = call_main(argv)
        self.tracer.active = False
        status, why = workloads.CliOneshot.judge(kind, expect, code, out, err)
        return status, why

    def cache_probe(self) -> dict:
        """Uncached vs cached `search` with the same arguments (medians)."""
        uncached, cached = [], []
        for _ in range(CACHE_PROBE_REPEATS if self.first_search else 0):
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.cache)
            for sink in (uncached, cached):
                t0 = time.perf_counter()
                call_main(self.first_search)
                sink.append(time.perf_counter() - t0)
        med = statistics.median
        return {"cli.search_uncached_s": med(uncached) if uncached else 0.0,
                "cli.search_cached_s": med(cached) if cached else 0.0}


def lockstep(runner, children: bool) -> int:
    """One op of the seeded stream per "next" on stdin: the runner's first
    `pass_units` units, pass after pass."""
    def ops():
        units = list(islice(runner.units(), runner.pass_units))
        for p in count():
            runner.new_pass()
            i = 0
            for unit in units:
                for dt, status, why in runner.run(unit):
                    yield p, i, dt, status, why
                    i += 1

    stream = ops()
    for line in sys.stdin:
        if line.strip() != "next":
            break
        print(json.dumps(next(stream)), flush=True)
    print(json.dumps({"counts": dict(runner.counts),
                      "peak_rss_mb": peak_rss_mb(children)}), flush=True)
    return 0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "lockstep", "plain", "trace"))
    ap.add_argument("--package", choices=PACKAGES, default="checkout")
    ap.add_argument("--units", type=int, default=0)
    ap.add_argument("--spans")
    ap.add_argument("--tmp", required=True,
                    help="directory for this process's private files")
    args = ap.parse_args()
    sys.path.insert(0, PACKAGES[args.package])
    tmp = tempfile.mkdtemp(dir=args.tmp)
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp) -> int:
    import concordia
    src = PACKAGES[args.package]
    if os.path.commonpath([os.path.abspath(concordia.__file__), src]) != src:
        print(f"concordia imported from {concordia.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = tracing.Tracer(enabled=args.mode == "trace")
    golden = workloads.Golden()
    cls = workloads.RUNNERS[args.workload]
    extra = (ROOT, src, tmp) if args.workload == "cli-oneshot" else ()
    runner = cls(golden, args.seed, tracer, *extra)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    children = args.workload == "cli-oneshot"
    if args.mode == "lockstep":
        return lockstep(runner, children)

    missing = []
    inproc = None
    if args.mode == "trace":
        missing = tracing.instrument(tracer)
        if args.workload == "cli-oneshot":
            inproc = InProcessCli(tracer, tmp)
    durations, statuses, reasons = run_units(
        runner, islice(runner.units(), args.units), inproc)
    result = {"durations": durations, "statuses": statuses,
              "reasons": reasons, "missing": missing,
              "counts": dict(tracer.counts),
              "peak_rss_mb": peak_rss_mb(children)}
    if args.mode == "trace":
        layers = layer_metrics(tracer)
        if inproc is not None:
            layers.update(inproc.cache_probe())
        cache = getattr(runner, "cache", None)
        layers["cli.cache_file_bytes"] = (os.path.getsize(cache) if cache
                                          and os.path.exists(cache) else 0)
        result["layers"] = layers
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result), flush=True)
    return 0


def run_units(runner, units, inproc):
    """Run each unit once -> (durations, statuses, reasons)."""
    durations, statuses, reasons = [], [], []
    for unit in units:
        for dt, status, why in runner.run(unit):
            durations.append(dt)
            statuses.append(status)
            if why and len(reasons) < 5:
                reasons.append(f"{status}: {why}")
        if inproc is not None:
            status, why = inproc.run(unit)
            if status != "ok":
                statuses[-1] = status
                if len(reasons) < 5:
                    reasons.append(f"in-process {status}: {why}")
    return durations, statuses, reasons


if __name__ == "__main__":
    sys.exit(main())
