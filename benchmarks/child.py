"""One run of one workload: a single-client closed loop over fractree jobs.

Started by run.py as its own process.  It runs whole passes over a seeded
permutation of the workload's pool, one job at a time, until the jobs have
run for the requested seconds of reference time (see below).  Each job's stdout and stderr go to memory
and are checked after the job's timer stops.

While a job runs, a timer signal times a tiny fixed reference kernel, which
shares no fractree code, every 20 ms.  The host's speed changes from one
second to the next, so each job's latency is divided by the kernel time
measured during that same job.  A job too short for two samples is
divided by kernel runs made right after it instead.  The loop's clock adds
up these ratios, scaled by JOB_KERNEL_REFERENCE_S.

With --trace 1 every job runs twice in a row, once traced and once not:
the traced runs give the per-layer numbers, the pairs the tracing
overhead.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_EVERY_S = 0.02
MIN_SAMPLES = 2
# The loop runs until its jobs have taken --seconds on a host whose kernel
# takes this long inside a job.  A clock in host-independent units keeps the
# number of passes, and so the sample count and tail percentile, the same
# on a fast and a slow host.
JOB_KERNEL_REFERENCE_S = 40e-6


def reference_kernel() -> int:
    """Fixed pure-Python integer work of about 20 microseconds."""
    x = 0
    for i in range(300):
        x = (x * 31 + i) % 1000003
    return x


def time_kernel(repeats: int) -> list:
    """Seconds taken by each of `repeats` runs of the reference kernel."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t0)
    return out


def kernel_time(samples) -> float:
    """Mean kernel time with the slowest and fastest tenth dropped.  A mean,
    not a median: the host switches between a fast and a slow state, and a
    median jumps between them where a mean follows the time spent in each."""
    xs = sorted(samples)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut:len(xs) - cut])


class SpeedSampler:
    """Times the reference kernel every SAMPLE_EVERY_S inside a with-block.

    The samples come from a SIGALRM handler, which runs in the main thread
    between the job's bytecodes: no second thread competes with the job.
    """

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def job_kernel(self) -> float:
        """Kernel time during the last job, or right after it if it was short."""
        if len(self.samples) >= MIN_SAMPLES:
            return kernel_time(self.samples)
        return kernel_time(time_kernel(10))


def _import_fractree():
    import fractree
    import fractree.cli

    origin = Path(fractree.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"fractree imported from {origin}, not from {ROOT / 'src'}")
    return fractree


def run_job(cli, job):
    """(seconds, exit code or None if it raised, stdout, stderr, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except Exception as exc:  # a crash is a job outcome, recorded below
        rc = None
        error = f"{type(exc).__name__}: {exc}"[:200]
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue(), error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--probe", action="store_true",
                        help="report set-up time and exit before the first job")
    args = parser.parse_args(argv)

    fractree = _import_fractree()
    import workloads
    from tracer import Tracer

    pool = list(workloads.POOLS[args.workload])
    expected = workloads.load_expected()
    setup_s = time.monotonic() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rng = random.Random(args.seed)
    tracer = Tracer() if args.trace else None
    sampler = SpeedSampler()
    latencies, relative, kernel = [], [], []
    passes = []  # per pass: summed latencies, untraced and traced
    failures = {}
    wrong = {}
    attempted = failed = 0
    export_bytes = stdout_bytes = 0
    clock = 0.0  # job time so far, in reference seconds
    while True:
        order = pool[:]
        rng.shuffle(order)
        walls = {False: 0.0, True: 0.0}      # seconds
        relwalls = {False: 0.0, True: 0.0}   # kernel units
        for index, job in enumerate(order):
            # a traced run of a job sits next to an untraced one, in
            # alternating order, so the pair measures the tracing overhead
            modes = (False,) if tracer is None else ((False, True), (True, False))[index % 2]
            for traced in modes:
                gc.collect()
                if traced:
                    tracer.install()
                with sampler:
                    dt, rc, out, err, error = run_job(fractree.cli, job)
                job_kernel = sampler.job_kernel()
                if traced:
                    tracer.uninstall()
                    stdout_bytes += len(out)
                    if job.argv[0] == "generate":
                        export_bytes += len(out)
                rel = dt / job_kernel
                attempted += 1
                latencies.append(dt)
                relative.append(rel)
                kernel.append(job_kernel)
                clock += rel * JOB_KERNEL_REFERENCE_S
                walls[traced] += dt
                relwalls[traced] += rel
                reason = None
                if rc != job.expect_rc:
                    reason = error or f"exit {rc}: {err.strip()[:200]}"
                elif rc == 0:
                    reason = workloads.check_output(job, out, expected)
                    if reason:
                        wrong[job.key] = reason
                if reason:
                    failed += 1
                    failures[job.key] = reason
                del out, err
        passes.append({"untraced_s": walls[False], "traced_s": walls[True],
                       "untraced_rel": relwalls[False], "traced_rel": relwalls[True]})
        if clock >= args.seconds:
            break

    defects = {job.key for job in pool if job.defect}
    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "relative": relative,
        "kernel": kernel,
        "passes": passes,
        "pool": len(pool),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "unexpected": sorted(set(failures) - defects),
        "wrong": wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["trace"] = {
            "metrics": tracer.metrics(len(passes)),
            "self_sum_s": tracer.self_time_sum(),
            "export_bytes": export_bytes,
            "stdout_bytes": stdout_bytes,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
