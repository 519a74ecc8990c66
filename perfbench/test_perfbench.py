"""Self-tests of the benchmark harness (slow: about two minutes on two cores).

    python3 -m pytest perfbench -q

They check that passes start cold, that the traced counts agree with counts
taken independently, that the exact counters repeat under one seed, that a
held-out seed passes every correctness gate, and that the benchmark refuses
to run without the program's source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import bench  # noqa: E402
import run  # noqa: E402

HELD_OUT_SEED = 90_001
EXACT_COUNTERS = (
    "degeneration.generators",
    "degeneration.betti_total",
    "primes.cut_sets_found",
    "oracle.basis_size",
    "degeneration.invariants_per_verdict",
)


def child(workload: str, *extra: str, seed: int = 7) -> dict:
    work_dir = ROOT / ".bench_work" / "selftest"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [
        sys.executable, str(BENCH / "bench.py"), "--workload", workload,
        "--seed", str(seed), "--work-dir", str(work_dir),
        "--spawned-at", repr(time.monotonic()), *extra,
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_census_trace_counts_match_independent_counts():
    result = child("census-n6", "--trace", "--jobs", "1")
    assert result["cold"]["canonical_form"] == 0
    assert not any(result["cold"].values())
    assert result["failed"] == 0
    layers = result["layers"]
    records = [json.loads(line) for line in bench.load_reference().values()]
    # one invariants call per class for the algebra route, one more per
    # chordal class for the chordal route
    assert layers["degeneration.invariants_calls"] == len(records) + sum(r["chordal"] for r in records)
    assert layers["degeneration.invariants_calls"] == 223
    assert layers["graphs.canonical_form_calls"] == result["canonical_cache_calls"]


@pytest.mark.parametrize("workload", ["analyze-stream", "certify-n5"])
def test_exact_counters_repeat_under_one_seed(workload):
    first = child(workload, "--trace")
    second = child(workload, "--trace")
    assert first["failed"] == second["failed"] == 0
    assert first["layers"]["graphs.canonical_form_calls"] == first["canonical_cache_calls"]
    for name in EXACT_COUNTERS:
        assert first["layers"][name] == second["layers"][name], name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_held_out_seed_passes_every_gate(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "certify-n5",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
