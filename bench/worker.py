"""One repetition of one workload, in a fresh process.

    python3 bench/worker.py --workload steady-4 --seed 1 --mode run

Modes: ``setup`` only times ``MarketRuntime(scenario)``; ``run`` also times
``run()`` and every ``submit_job``; ``traced`` records spans as well and
computes the per-layer metrics. Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SPAN_DIR = BENCH / "out"


def import_sgmarket():
    """Import the package from this checkout's ``src``, never from an
    installed copy."""
    if not (SRC / "sgmarket" / "__init__.py").is_file():
        raise SystemExit(f"error: no sgmarket sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sgmarket

    if not Path(sgmarket.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: sgmarket imported from {sgmarket.__file__}, not {SRC}")


class SubmitProbe:
    """Times every ``ClientSession.submit_job`` and tracks the peak number
    of live threads, in traced and untraced runs alike."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.accepted = 0
        self.threads_peak = threading.active_count()

    def install(self) -> None:
        from sgmarket.client import ClientSession

        submit = ClientSession.submit_job
        probe = self

        def timed_submit(session, spec):
            start = time.perf_counter()
            receipt = submit(session, spec)
            probe.latencies.append(time.perf_counter() - start)
            probe.accepted += 1
            return receipt

        ClientSession.submit_job = timed_submit

        thread_start = threading.Thread.start

        def counted_start(thread):
            thread_start(thread)
            probe.threads_peak = max(probe.threads_peak, threading.active_count())

        threading.Thread.start = counted_start


def check_report(report) -> tuple[str, list[str]]:
    """The sha256 of the report's canonical bytes, and every way the report
    fails the correctness gate."""
    from sgmarket.domain import canonical_encode

    problems = []
    if not report.conservation_ok:
        problems.append("money was not conserved")
    if not report.all_jobs_terminal:
        problems.append("jobs were left unfinished")
    if report.errors:
        problems.append(f"{len(report.errors)} submission errors, first {report.errors[0]}")
    return hashlib.sha256(canonical_encode(report.to_dict())).hexdigest(), problems


def measure_run(runtime, attempted: int, probe: SubmitProbe) -> dict:
    """Time ``runtime.run()`` and check what it reports."""
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        report = runtime.run()
    except Exception as exc:  # the run aborted, so no report exists
        return {
            "attempted": attempted,
            "report_errors": 0,
            "escaped": attempted - probe.accepted,
            "problems": [f"run aborted: {exc!r}"],
        }
    run_s = time.perf_counter() - start
    run_cpu_s = time.process_time() - cpu_start
    digest, problems = check_report(report)
    placed = sum(report.jobs_per_cluster.values())
    if placed != probe.accepted:
        problems.append(f"{placed} jobs placed but {probe.accepted} accepted")
    if probe.accepted + len(report.errors) != attempted:
        problems.append("some submissions were neither accepted nor reported")
    return {
        "attempted": attempted,
        "report_errors": len(report.errors),
        "escaped": 0,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "jobs_per_s": probe.accepted / run_s,
        "submit_s": probe.latencies,
        "threads_peak": probe.threads_peak,
        "report_sha256": digest,
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    args = parser.parse_args(argv)
    # One CPU for the whole market, set before any thread starts. The market
    # is one Python process whose threads hand every RPC to each other; on a
    # virtual machine with a busy host, waking a thread on another virtual
    # CPU can take milliseconds, which made whole runs three times slower at
    # random. Gains from using more cores cannot show in this benchmark.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    import_sgmarket()

    import scenarios
    from sgmarket.harness import MarketRuntime, Scenario

    scenario = Scenario.from_dict(scenarios.generate(args.workload, args.seed))
    recorder = None
    if args.mode == "traced":
        import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
    probe = SubmitProbe()
    probe.install()

    start = time.perf_counter()
    runtime = MarketRuntime(scenario)
    out = {"mode": args.mode, "cpu": cpu, "setup_s": time.perf_counter() - start}
    try:
        if args.mode != "setup":
            out.update(measure_run(runtime, len(scenario.workload), probe))
    finally:
        runtime.shutdown()
    if recorder is not None and not out["problems"]:
        out["layers"] = tracing.layer_metrics(
            recorder.spans, probe.accepted, probe.threads_peak
        )
        recorder.write(SPAN_DIR / f"spans-{args.workload}.jsonl")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
