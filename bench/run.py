"""The market benchmark.

    python3 bench/run.py --workload steady-4 --seed 1 --seconds 30 --trace 0

Runs one workload (see ``scenarios.py`` for why each exists) as a closed
loop: the harness thread submits jobs one after another through
``ClientSession.submit_job`` in virtual time, over loopback TCP only. Each
repetition runs the same seeded scenario in a fresh process
(``worker.py``), pinned to one CPU, so memory, threads and ports cannot leak
between them.
Repetitions continue until ``--seconds`` is spent, with at least two.

``--trace 0`` reports the end-to-end metrics as medians of many short
measurements, so a stretch of contention from other processes on the
machine moves them less: throughput and peak memory per repetition, and
submit latency percentiles per window of 100 consecutive submissions, so
each p90 has ten samples beyond it. Repetitions continue until at least one
window is full.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, the median of the traced repetitions, plus the tracing
overhead.

Every repetition must pass the correctness gate: money conserved, every job
terminal, no submission errors, placements equal to accepted jobs, and the
same report bytes in every repetition. The last line of stdout is the result
object; the line before it records the environment and the raw repetitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import fail_ratio, min_samples, percentile, samples_beyond, windows
from scenarios import WORKLOADS
from tracing import LAYER_UNITS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
MIN_REPS = 2
SETUP_SAMPLES = 11
HARD_LIMIT_S = 170  # a run must end within 180 s
WINDOW = min_samples(90)  # submissions per latency window
REP_FIELDS = ("mode", "wall_s", "setup_s", "run_s", "run_cpu_s", "jobs_per_s", "peak_rss_mb")


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, timeout: float) -> dict:
    if timeout <= 0:
        raise BenchError("out of time before every repetition ran")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} repetition did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition failed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def repeat(workload: str, seed: int, seconds: int, trace: bool, hard_end: float) -> list[dict]:
    """Run repetitions until the measuring time is spent, predicting each
    next repetition's length from the last one of its mode."""
    modes = itertools.cycle(("run", "traced") if trace else ("run",))
    end = time.perf_counter() + seconds
    reps: list[dict] = []
    last_wall: dict[str, float] = {}
    while True:
        mode = next(modes)
        samples = sum(len(r.get("submit_s", [])) for r in reps if r["mode"] == "run")
        enough = len(reps) >= MIN_REPS and (trace or samples >= WINDOW)
        if enough and time.perf_counter() + last_wall.get(mode, 0) > end:
            return reps
        rep = run_worker(workload, seed, mode, hard_end - time.perf_counter())
        last_wall[mode] = rep["wall_s"]
        reps.append(rep)
        if rep["problems"]:
            return reps


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    latency_windows = windows([s for r in reps for s in r["submit_s"]], WINDOW)
    return {
        "jobs_per_s": (median_of(reps, "jobs_per_s"), "jobs/s"),
        "submit_p50_ms": (statistics.median(percentile(w, 50) for w in latency_windows) * 1e3, "ms"),
        "submit_p90_ms": (statistics.median(percentile(w, 90) for w in latency_windows) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (median_of(reps, "peak_rss_mb"), "MB"),
    }


def per_layer(reps: list[dict]) -> dict:
    traced = [r for r in reps if r["mode"] == "traced"]
    untraced = [r for r in reps if r["mode"] == "run"]
    metrics = {
        name: (statistics.median(r["layers"][name] for r in traced), unit)
        for name, unit in LAYER_UNITS.items()
    }
    overhead = median_of(traced, "jobs_per_s") / median_of(untraced, "jobs_per_s")
    metrics["tracing_overhead"] = (overhead, "ratio")
    return metrics


def benchmark(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    hard_end = time.perf_counter() + HARD_LIMIT_S
    reps = repeat(workload, seed, seconds, trace, hard_end)
    problems = [p for r in reps for p in r["problems"]]
    digests = {r["report_sha256"] for r in reps if "report_sha256" in r}
    if len(digests) > 1:
        problems.append(f"reports differ between repetitions: {sorted(digests)}")
    setups = [r["setup_s"] for r in reps if r["mode"] == "run"]
    while not trace and not problems and len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, "setup", hard_end - time.perf_counter())["setup_s"])

    attempted = sum(r["attempted"] for r in reps)
    report_errors = sum(r["report_errors"] for r in reps)
    escaped = sum(r["escaped"] for r in reps)
    timed = [r for r in reps if r["mode"] == "run"]
    samples = [len(r.get("submit_s", [])) for r in timed]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "network": "loopback only",
            "worker_cpus": sorted({r["cpu"] for r in reps}),
            "threads_peak": max(r.get("threads_peak", 0) for r in reps),
        },
        "report_sha256": sorted(digests),
        "problems": problems,
        "submit_samples_per_rep": samples,
        "latency_windows": sum(samples) // WINDOW,
        "submit_samples_beyond_p90_per_window": samples_beyond(WINDOW, 90),
        "submit_fail_ratio": fail_ratio(attempted, report_errors, escaped),
        "setup_samples": setups,
        "repetitions": [{k: r[k] for k in REP_FIELDS if k in r} for r in reps],
    }
    metrics = {}
    if not problems:
        metrics = per_layer(reps) if trace else end_to_end(timed, setups)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": report_errors + escaped,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "sgmarket" / "__init__.py").is_file():
        print(f"error: no sgmarket sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
