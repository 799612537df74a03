#!/usr/bin/env python3
"""The concordia benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout (the package is imported from
./src; nothing needs installing).  Workloads: cli-oneshot, oracle-sweep,
search-solve, multiples-chain (see perfbench/README.md).

--trace 0 measures the end-to-end metrics.  Two worker processes run the
same seeded ops, one op at a time in turn, for T seconds: one imports the
checkout's package, the other the frozen copy of the package in
perfbench/reference/.  Each is a closed loop with one client, and only one
of them runs at any moment.  The reference's times measure the speed of
the host while the run lasted, and every time metric is reported at the
host speed of REFERENCE below (see end_to_end).  Set-up is timed the same
way, in three pairs of processes.

--trace 1 measures the per-layer metrics: the first units of the same
seeded stream run once untraced and twice traced, each in a fresh
process; the exact counts of the two traced passes must agree.

Every response is checked (check.py).  Human-readable lines come first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Metric names and units are those of
BENCHMARK.json.  Spans of the first traced pass are written to
.perfbench_out/.  Exits 2 without a result when the checkout has no
package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
# Set-up-only pairs of processes before and after the measured pair, so
# that the set-up samples of a run are spread over its whole length.
SETUP_AROUND = 1
# The reference package's own figures on the host that defined the
# benchmark (2 vCPU Xeon, Python 3.11.7): set-up from one run, op times
# the medians over six to ten seeds of the reference's mean, p50 and p90
# over all its executions in a run.  They fix the scale of the time
# metrics only.
REFERENCE = {
    "cli-oneshot": {"setup_s": 0.648, "op_mean_ms": 804.31,
                    "op_p50_ms": 803.90, "op_p90_ms": 891.54},
    "oracle-sweep": {"setup_s": 0.712, "op_mean_ms": 8.722,
                     "op_p50_ms": 5.969, "op_p90_ms": 19.899},
    "search-solve": {"setup_s": 0.729, "op_mean_ms": 680.20,
                     "op_p50_ms": 692.18, "op_p90_ms": 742.76},
    "multiples-chain": {"setup_s": 0.908, "op_mean_ms": 48.431,
                        "op_p50_ms": 21.758, "op_p90_ms": 137.93},
}
# Units of a traced pass: the first units of the seeded stream, sized to
# take a few seconds untraced at the commit that defined the benchmark.
TRACE_UNITS = {"cli-oneshot": 14, "oracle-sweep": 1500, "search-solve": 10,
               "multiples-chain": 2}
# Per-layer metrics in these units depend only on the seed; the two traced
# passes must agree on them exactly.
EXACT_UNITS = ("count", "bytes", "digits")
INTERPRETER_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
WORKER_GRACE_S = 150


class BenchError(Exception):
    pass


def worker_cmd(mode: str, args, tmp: str, **extra) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--tmp", tmp]
    for key, value in extra.items():
        cmd += [f"--{key}", str(value)]
    return cmd


def spawn(mode: str, args, tmp: str, **extra) -> tuple[float, dict | None]:
    """Start a worker; returns (seconds from spawn to READY, its result)."""
    cmd = worker_cmd(mode, args, tmp, **extra)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(args.seconds + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {mode} exited {code}")
    lines = rest.strip().splitlines()
    return ready_s, (json.loads(lines[-1]) if lines else None)


class Lockstep:
    """A worker in lockstep mode: one op of its stream per `next()`."""

    def __init__(self, args, tmp: str, package: str):
        self.package = package
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            worker_cmd("lockstep", args, tmp, package=package), cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(args.seconds + WORKER_GRACE_S,
                                        self.proc.kill)
        self.watchdog.start()
        ready = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if ready.strip() != "READY":
            self.close()
            raise BenchError(f"{package} worker did not start")

    def ask(self, line: str):
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except OSError:
            pass
        answer = self.proc.stdout.readline()
        if not answer:
            raise BenchError(f"{self.package} worker exited "
                             f"{self.proc.wait()}")
        return json.loads(answer)

    def next(self):
        return self.ask("next")

    def finish(self) -> dict:
        totals = self.ask("stop")
        self.proc.stdin.close()
        if self.proc.wait() != 0:
            raise BenchError(f"{self.package} worker exited "
                             f"{self.proc.returncode}")
        return totals

    def close(self):
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def setup_pair(args, tmp) -> tuple[float, float]:
    return tuple(spawn("setup", args, tmp, package=package)[0]
                 for package in ("checkout", "reference"))


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between the nearest values (never
    beyond the largest, as a handful of ops would otherwise have it)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def lockstep_run(args, tmp):
    """The checkout's and the reference's op records, in turns, until T
    seconds have passed and the checkout has finished one pass; the first
    op of each turn alternates between them."""
    workers = []
    try:
        for package in ("checkout", "reference"):
            workers.append(Lockstep(args, tmp, package))
        mine, ref = workers
        records = {mine: [], ref: []}
        deadline = time.perf_counter() + args.seconds
        turn = 0
        while not records[mine] or records[mine][-1][0] < 1 \
                or time.perf_counter() < deadline:
            for w in (workers if turn % 2 == 0 else workers[::-1]):
                records[w].append(w.next())
            turn += 1
        totals = mine.finish()
        ref.finish()
        return (mine.ready_s, ref.ready_s), records[mine], records[ref], \
            totals
    finally:
        for w in workers:
            w.close()


def end_to_end(args, tmp, say):
    """Time metrics at the reference host speed: each is the checkout's
    figure over the reference's figure from the same run, times the
    reference's figure in REFERENCE.  The two packages run the same ops in
    turn, so a slower or faster host moves both alike; at the commit that
    defined the benchmark the two are the same code."""
    setups = [setup_pair(args, tmp) for _ in range(SETUP_AROUND)]
    pair, ops, ref_ops, totals = lockstep_run(args, tmp)
    setups.append(pair)
    setups += [setup_pair(args, tmp) for _ in range(SETUP_AROUND)]

    first = {i: status for p, i, _, status, _ in ops if p == 0}
    reasons = [f"{status}: {why}" for p, _, _, status, why in ops
               if p == 0 and why][:5]
    statuses = [first[i] for i in sorted(first)]
    for p, i, _, status, _ in ops:
        was = first.get(i, "absent")
        if status != was and "wrong" not in statuses:
            statuses[i if i in first else -1] = "wrong"
            reasons.append(f"wrong: op {i} was {was} in pass 1 and "
                           f"{status} in pass {p + 1}")
    n, ok = len(statuses), statuses.count("ok")
    t, u = [r[2] for r in ops], [r[2] for r in ref_ops]
    nom = REFERENCE[args.workload]
    mean_ratio = statistics.fmean(t) / statistics.fmean(u)
    metrics = {
        "setup_s": nom["setup_s"] * statistics.median(a / b
                                                      for a, b in setups),
        "ops_per_s": ok / n * 1000 / (nom["op_mean_ms"] * mean_ratio),
        "op_p50_ms": nom["op_p50_ms"] * percentile(t, 50) / percentile(u, 50),
        "op_p90_ms": nom["op_p90_ms"] * percentile(t, 90) / percentile(u, 90),
        "ok_ratio": ok / n,
        "peak_rss_mb": totals["peak_rss_mb"],
    }
    passes = ops[-1][0] + 1
    say(f"{args.workload} seed {args.seed}: {n} ops, {len(ops)} executions "
        f"in {passes} passes each by the checkout and the reference "
        f"(closed loop, 1 client)")
    med = statistics.median
    for name, times, setup in (("checkout", t, [a for a, _ in setups]),
                               ("reference", u, [b for _, b in setups])):
        say(f"  raw {name:9}: set-up {med(setup):.3f} s, mean "
            f"{statistics.fmean(times) * 1000:.2f} ms, p50 "
            f"{percentile(times, 50) * 1000:.2f} ms, p90 "
            f"{percentile(times, 90) * 1000:.2f} ms")
    say(f"  host speed: reference mean op {statistics.fmean(u) * 1000:.2f} "
        f"ms here vs {nom['op_mean_ms']:.2f} ms in REFERENCE")
    say(f"  p50 and p90 over {len(t)} executions; "
        f"{sum(d > percentile(t, 90) for d in t)} lie beyond p90")
    say(f"  failed_ratio {n - ok}/{n} = {(n - ok) / n:.4f}; statuses "
        + ", ".join(f"{s}={statuses.count(s)}" for s in sorted(set(statuses))))
    hits = totals["counts"].get("cli.cache_hits", 0)
    searches = hits + totals["counts"].get("cli.cache_misses", 0)
    if searches:
        say(f"  search cache hits {hits}/{searches} search calls "
            f"({hits / searches:.0%})")
    return metrics, {"statuses": statuses, "reasons": reasons}


def cli_probes(say) -> dict:
    """Interpreter start-up and import cost of the CLI, in fresh processes."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    bare = []
    for _ in range(INTERPRETER_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env)
        bare.append(time.perf_counter() - t0)
    total, sympy = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import concordia.cli"], env=env, cwd=ROOT,
                             check=True, capture_output=True, text=True).stderr
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(name.strip(), int(cum) / 1e6)
        total.append(cumulative.get("concordia.cli", 0.0))
        sympy.append(cumulative.get("sympy", 0.0))
    med = statistics.median
    say(f"  cli: bare interpreter {med(bare):.3f} s, import concordia.cli "
        f"{med(total):.3f} s of which sympy {med(sympy):.3f} s")
    return {"cli.interpreter_s": med(bare), "cli.import_s": med(total),
            "cli.import_sympy_s": med(sympy)}


def traced(args, tmp, spec, say):
    units = TRACE_UNITS[args.workload]
    spans = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
    _, plain = spawn("plain", args, tmp, units=units)
    _, first = spawn("trace", args, tmp, units=units, spans=spans)
    _, second = spawn("trace", args, tmp, units=units)
    layers = dict(first["layers"])
    if first["missing"]:
        say(f"  package no longer has: {', '.join(first['missing'])}")
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in EXACT_UNITS and m["name"] in first["layers"]]
    drift = [k for k in exact if first["layers"][k] != second["layers"][k]]
    for key in drift:
        say(f"  exact count {key} differs between passes: "
            f"{first['layers'][key]} vs {second['layers'][key]}")
    base = sum(plain["durations"])
    layers["trace.overhead_ratio"] = sum(first["durations"]) / base - 1
    if args.workload == "cli-oneshot":
        layers.update(cli_probes(say))
    else:
        layers.update(dict.fromkeys(("cli.interpreter_s", "cli.import_s",
                                     "cli.import_sympy_s",
                                     "cli.search_cached_s",
                                     "cli.search_uncached_s"), 0.0))
    hits, misses = layers["cli.cache_hits"], layers["cli.cache_misses"]
    say(f"{args.workload} seed {args.seed}: {units} units, "
        f"{len(first['durations'])} ops traced twice, untraced {base:.2f} s, "
        f"overhead {layers['trace.overhead_ratio']:+.1%}; spans in {spans}")
    if hits + misses:
        say(f"  search cache hits {hits}/{hits + misses} search calls "
            f"({hits / (hits + misses):.0%})")
    return layers, first, not drift


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    pkg = os.path.join(ROOT, "src", "concordia", "cli.py")
    if not (os.path.isfile(pkg) and os.path.isfile(spec_path)):
        print(f"no concordia checkout at {ROOT} (need src/concordia and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if args.trace:
            values, res, exact = traced(args, tmp, spec, print)
            wanted = spec["per_layer"]
        else:
            values, res = end_to_end(args, tmp, print)
            exact = True
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for why in res["reasons"]:
        print(f"  {why}")
    statuses = res["statuses"]
    correct = exact and not ({"wrong", "crash"} & set(statuses))
    failed = sum(s != "ok" for s in statuses)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:32} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(statuses),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
