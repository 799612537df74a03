"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/tests -q      # about four minutes
"""

import json
import os
import shutil
import subprocess
import sys
from itertools import islice

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def golden():
    return workloads.Golden()


def first(golden, name, seed, count=60):
    return list(islice(workloads.INPUTS[name](golden, seed), count))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(golden, name):
    assert first(golden, name, 7) == first(golden, name, 7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_inputs(golden, name):
    assert first(golden, name, 7) != first(golden, name, 8)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_cli_stream_repeats_half_of_the_search_keys(golden):
    reqs = first(golden, "cli-oneshot", 3, 14 * 4)
    keys = [tuple(r[2][:3]) for r in reqs if r[0] == "search"]
    assert len(keys) == 16 and len(set(keys)) == 8


def test_checker_rejects_a_wrong_torsion_set(golden):
    (m, n), expected = next(iter(golden.classify.items()))
    payload = {"curve": {"m": m, "n": n},
               "torsion": {"class": expected[0]},
               "points": ["O", ["0", "0"]]}
    assert check.check_classify(payload, m, n, expected) is not None


def bench(tmp_root, *argv):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=tmp_root, capture_output=True, text=True,
                          timeout=180)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(name):
    out = result(bench(ROOT, "--workload", name, "--seed", "1",
                       "--seconds", "1", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_failures_depend_on_the_seed_only():
    runs = [result(bench(ROOT, "--workload", "multiples-chain", "--seed", "5",
                         "--seconds", str(seconds), "--trace", "0"))
            for seconds in (1, 3)]
    assert runs[0]["failed"] > 0
    assert [(r["attempted"], r["failed"]) for r in runs] == \
        [(runs[0]["attempted"], runs[0]["failed"])] * 2


def test_reference_package_runs_on_its_own():
    env = dict(os.environ, PYTHONPATH=os.path.join(BENCH, "reference"))
    proc = subprocess.run([sys.executable, "-c", "import concordia.cli; "
                           "print(concordia.cli.__file__)"], env=env,
                          cwd=BENCH, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.startswith(os.path.join(BENCH, "reference"))


def test_traced_run_prints_every_per_layer_metric():
    out = result(bench(ROOT, "--workload", "oracle-sweep", "--seed", "1",
                       "--seconds", "1", "--trace", "1"))
    assert out["correct"] is True
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert out["metrics"]["curves.oracle_candidates"]["value"] > 0


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "oracle-sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
