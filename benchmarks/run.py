"""fractree benchmark: times the CLI the way its users drive it.

    python3 benchmarks/run.py --workload matrix-tree --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; fractree is imported from its
``src/``.  Each run starts a few set-up probes and then one child process
(child.py) that runs the workload's jobs in a closed loop.  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The environment and run details go on
the line before the last; the last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import kernel_time, time_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4
SETUP_KERNELS = 200      # reference-kernel samples around each set-up probe
RUN_DEADLINE_S = 170
TAIL_BEYOND = 10
# setup_s is scaled to a host on which the reference kernel takes this long
KERNEL_REFERENCE_S = 20e-6


def _child(args, probe: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.monotonic()
    done = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - t0))
    if done.returncode != 0:
        raise RuntimeError(f"child exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def tail(latencies) -> tuple:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least TAIL_BEYOND samples above it; the median if too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0, n // 2
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _fractree_version() -> str:
    for line in (ROOT / "src" / "fractree" / "__init__.py").read_text().splitlines():
        if line.startswith("__version__"):
            return line.split("=", 1)[1].strip().strip("\"'")
    return "unknown"


def end_to_end(res: dict, setups: list, setup_kernel: list) -> tuple:
    """Latencies in reference-kernel units; set-up time in seconds scaled to
    a host whose kernel takes KERNEL_REFERENCE_S.  Raw seconds go in the
    details."""
    lat, rel = res["latencies"], res["relative"]
    p50 = statistics.median(lat)
    tail_s, tail_pct, beyond = tail(lat)
    setup_raw = statistics.median(setups)
    metrics = {
        "setup_s": setup_raw * KERNEL_REFERENCE_S / kernel_time(setup_kernel),
        "job_mean_rel": statistics.fmean(rel),
        "job_p50_rel": statistics.median(rel),
        "job_tail_rel": tail(rel)[0],
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
    }
    detail = {
        "jobs_per_s": len(lat) / sum(lat), "job_p50_s": p50, "job_tail_s": tail_s,
        "tail_percentile": tail_pct, "tail_samples": len(lat), "tail_beyond": beyond,
        "setup_raw_s": setup_raw, "setup_samples_s": setups,
        "setup_kernel_s": kernel_time(setup_kernel),
    }
    return metrics, detail


def per_layer(res: dict) -> tuple:
    """Per-pass layer metrics; trace.untraced_s is the traced wall time that
    no span covers, so the self times plus it add up to trace.wall_s."""
    trace = res["trace"]
    n = len(res["passes"])
    traced = sum(p["traced_s"] for p in res["passes"])
    plain = sum(p["untraced_s"] for p in res["passes"])
    metrics = dict(trace["metrics"])
    metrics["graph.exports.bytes"] = trace["export_bytes"] / n
    metrics["cli.main.stdout_bytes"] = trace["stdout_bytes"] / n
    metrics["trace.wall_s"] = traced / n
    metrics["trace.untraced_s"] = (traced - trace["self_sum_s"]) / n
    metrics["trace.overhead_ratio"] = (sum(p["traced_rel"] for p in res["passes"])
                                       / sum(p["untraced_rel"] for p in res["passes"]))
    return metrics, {"untraced_wall_s": plain / n}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fractree" / "__init__.py").is_file():
        print(f"error: no fractree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "fractree": _fractree_version(),
        "commit": _git_commit(),
        "loadavg_start": os.getloadavg(),
    }
    # one core for the parent and its children: the host's cores change
    # speed independently, and the kernel must see the core the jobs see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups, setup_kernel = [], []
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            setup_kernel += time_kernel(SETUP_KERNELS)
            setups.append(_child(args, True, deadline)["setup_s"])
        setup_kernel += time_kernel(SETUP_KERNELS)
        res = _child(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    env["kernel_s"] = statistics.median(res["kernel"])

    if args.trace:
        metrics, detail = per_layer(res)
        wanted = spec["per_layer"]
    else:
        metrics, detail = end_to_end(res, setups, setup_kernel)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    detail.update(workload=args.workload, seed=args.seed, passes=len(res["passes"]),
                  pool=res["pool"], fail_ratio=res["failed"] / res["attempted"],
                  failures=res["failures"], run_s=time.monotonic() - started)
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps({
        "correct": not res["unexpected"] and not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
