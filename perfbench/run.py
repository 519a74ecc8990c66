"""The bei benchmark: one workload, timed passes in fresh interpreters, one JSON line.

    python3 perfbench/run.py --workload census-n6 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass.  See README.md for the
workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
JOBS = 2  # census pool size, fixed: equals the cores of the reference machine
SETUP_SAMPLES = 5
TAIL_MIN_BEYOND = 10
CHILD_TIMEOUT_S = 100
RUN_BUDGET_S = 100  # no new pass starts once a run has used this long

END_TO_END = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "graphs.canonical_form_s": "s",
    "graphs.canonical_form_calls": "count",
    "graphs.canonical_cache_hit_ratio": "ratio",
    "graphs.enumerate_s": "s",
    "graphs.simple_paths_s": "s",
    "graph6.codec_s": "s",
    "cliques.maximal_cliques_s": "s",
    "cliques.is_chordal_s": "s",
    "primes.cut_sets_s": "s",
    "primes.cut_sets_calls": "count",
    "primes.cut_sets_found": "count",
    "degeneration.invariants_s": "s",
    "degeneration.invariants_calls": "count",
    "degeneration.betti_table_s": "s",
    "degeneration.initial_ideal_s": "s",
    "degeneration.generators": "count",
    "degeneration.betti_total": "count",
    "degeneration.invariants_per_verdict": "ratio",
    "classify.licci_verdict_self_s": "s",
    "classify.routes_per_verdict": "ratio",
    "oracle.verify_s": "s",
    "oracle.buchberger_s": "s",
    "oracle.buchberger_calls": "count",
    "oracle.basis_size": "count",
    "oracle.intersection_s": "s",
    "oracle.colon_s": "s",
    "census.analyze_s": "s",
    "census.compute_records_self_s": "s",
    "census.parallel_efficiency": "ratio",
    "graphs.self_s": "s",
    "graph6.self_s": "s",
    "cliques.self_s": "s",
    "primes.self_s": "s",
    "degeneration.self_s": "s",
    "classify.self_s": "s",
    "oracle.self_s": "s",
    "census.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


class Run:
    """The passes of one benchmark run and their bookkeeping."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.notes: list[str] = []

    def child(self, pass_index: int, *, jobs: int = JOBS, trace: bool = False,
              setup_only: bool = False) -> dict | None:
        """Run one pass in a fresh interpreter; None if the process or the pass failed."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        env.pop("BEI_JOBS", None)
        cmd = [
            sys.executable, str(BENCH / "bench.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--pass-index", str(pass_index), "--work-dir", str(self.work_dir),
            "--jobs", str(jobs),
        ]
        cmd += ["--trace"] if trace else []
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
        finally:
            # pool workers share the session; none may outlive the pass
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0 or not out.strip():
            self.notes.append(f"pass {pass_index} exited {proc.returncode}: {err.strip()[-500:]}")
            if not setup_only:
                self.attempted += 1
                self.failed += 1
            return None
        result = json.loads(out.strip().splitlines()[-1])
        self.peak_rss_kb = max(self.peak_rss_kb, result["peak_rss_kb"])
        if any(result["cold"].values()):
            self.notes.append(f"pass {pass_index} did not start cold: {result['cold']}")
        if not setup_only:
            self.attempted += result["items"]
            self.failed += result["failed"]
            if "error" in result:
                self.notes.append(f"pass {pass_index}: {result['error']}")
                return None
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def tail_percentile(samples_per_pass: int) -> int:
    """Highest whole percentile with at least 10 samples of one pass beyond it.

    Fixed by the pass size, not by how many passes fit in the run, so that the
    same percentile is compared across commits of different speed.
    """
    return max(50, math.floor(100 * (1 - TAIL_MIN_BEYOND / samples_per_pass)))


def timed_run(run: Run, seconds: float) -> dict:
    """Groups of identical replicas, as many as fit in ``seconds`` of timed sections.

    The replicas of a group run the same pass index, so they do the same work
    in fresh interpreters; each item keeps its fastest replica.  Interference
    from other tenants of the machine only slows a pass, never speeds it up,
    so the minimum over replicas is the steadier estimate of the program's own
    cost.  Groups vary the inputs; the run reports medians over groups or
    percentiles of the pooled items.  At least one group runs; another starts
    only if it is expected to end within ``seconds``.
    """
    workload = WORKLOADS[run.workload]
    replicas = workload.replicas
    groups: list[dict] = []
    setups: list[float] = []
    measured = 0.0
    k = 0
    while not groups or (
        measured * (len(groups) + 1) / len(groups) <= seconds and run.elapsed() < RUN_BUDGET_S
    ):
        reps = [r for r in (run.child(k) for _ in range(replicas)) if r is not None]
        k += 1
        for r in reps:
            setups.append(r["setup_s"])
            measured += r["wall_s"]
        if len(reps) < replicas:
            break  # a pass process failed; the run reports what it has
        groups.append({
            "items": reps[0]["items"],
            "wall_s": min(r["wall_s"] for r in reps),
            "latencies_ms": [min(x) for x in zip(*(r["latencies_ms"] for r in reps))],
        })
    while len(setups) < SETUP_SAMPLES and run.elapsed() < RUN_BUDGET_S:
        result = run.child(k, setup_only=True)
        k += 1
        if result is not None:
            setups.append(result["setup_s"])
    if not groups:
        return {}

    if workload.per_item:
        rates = [g["items"] / (sum(g["latencies_ms"]) / 1e3) for g in groups]
        lat = sorted(x for g in groups for x in g["latencies_ms"])
        q = tail_percentile(min(g["items"] for g in groups))
        p50, tail = nearest_rank(lat, 50), nearest_rank(lat, q)
        tail_note = f"p{q} of {len(lat)} requests, {len(lat) - math.ceil(q / 100 * len(lat))} beyond"
    else:
        rates = [g["items"] / g["wall_s"] for g in groups]
        walls = sorted(g["wall_s"] * 1e3 for g in groups)
        p50, tail = statistics.median(walls), walls[-1]
        tail_note = f"slowest of {len(walls)} commands (too few for a percentile)"
    metrics = {
        "items_per_s": statistics.median(rates),
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "peak_rss_mb": run.peak_rss_kb / 1024,
        "setup_s": statistics.median(setups),
    }
    run.notes.append(
        f"groups {len(groups)} of {replicas} replicas, measured {measured:.2f} s, "
        f"setups {len(setups)}, fastest walls {[round(g['wall_s'], 3) for g in groups]}"
    )
    run.notes.append(f"latency_tail_ms is the {tail_note}")
    return metrics


def traced_run(run: Run) -> dict:
    """An untraced pass and a traced pass of the same inputs; the census traces serially."""
    untraced = run.child(0)
    baseline = untraced
    traced_jobs = JOBS
    if run.workload == "census-n6":
        # pool workers' spans would be lost, so the traced census runs with one
        # worker; an untraced serial census is its overhead baseline
        traced_jobs = 1
        baseline = run.child(0, jobs=1)
    traced = run.child(0, jobs=traced_jobs, trace=True)
    if not (untraced and baseline and traced and "layers" in traced):
        return {}
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / baseline["wall_s"]
    metrics["census.parallel_efficiency"] = (
        metrics["census.analyze_s"] / (JOBS * untraced["wall_s"])
        if run.workload == "census-n6" else 0.0
    )
    run.notes.append(
        f"traced wall {traced['wall_s']:.3f} s, untraced {baseline['wall_s']:.3f} s, "
        f"canonical_form cache calls {traced['canonical_cache_calls']}"
    )
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bei" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'bei'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    run = Run(args.workload, args.seed, work_dir)
    try:
        metrics = traced_run(run) if args.trace else timed_run(run, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print(f"{args.workload} seed {args.seed} trace {args.trace}")
    for note in run.notes:
        print(f"  {note}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"  error_rate {error_rate:.6g} ({run.failed} of {run.attempted} items failed)")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<40} {metrics[name]:.6g} {unit}")
    if set(metrics) != set(units):
        print(f"perfbench: metrics missing: {sorted(set(units) - set(metrics))}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
