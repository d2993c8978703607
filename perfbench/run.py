#!/usr/bin/env python3
"""Run one codespectra benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mw_dual --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed.  The load is a closed loop from one caller in one thread: the next
job starts when the previous one returns and its oracle has passed.

``--trace 0`` measures end-to-end metrics without tracing: whole rounds of the
workload's mix run until ``--seconds`` of job time are spent (and at least
``MIN_JOBS`` jobs ran).  Job times are reported in units of a fixed reference
kernel timed between the jobs (``reference.py``), because a shared host's
speed can swing by tens of percent within minutes; the times in seconds
are printed too.  ``setup_s`` is the median of fresh interpreters timing
set-up (see ``setup_probe.py``): ``SETUP_PROBES`` before the first round
and, between rounds, one more for every ``PROBE_EVERY_S`` seconds of job
time.  Each probe's time is divided by the reference kernel's time in the
same interpreter and given in seconds at ``reference.NOMINAL_S`` per pass;
the median raw time is printed as ``setup_wall_s``.

``--trace 1`` measures per-layer metrics: round 0 runs once untraced and once
traced on the same inputs, so count metrics repeat exactly for one seed and
``trace.overhead_ratio`` compares equal work.  ``--seconds`` does not apply.

Every metric is printed as ``name value unit``.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 when every job passed its oracle, 1 when one
failed and 2 when the benchmark could not run at all.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
# The host's speed changes within seconds, so set-up probes spread over the
# run give a steadier median than probes taken back to back.
SETUP_PROBES = 3
PROBE_EVERY_S = 1.5
MIN_JOBS = 100
# Stop starting rounds after this much wall time, so a run on a slow host
# still ends within the harness's time limit.
WALL_LIMIT_S = 120


@dataclass
class JobRecord:
    kind: str
    seconds: float
    error: str = None
    ref: float = None  # reference-kernel seconds around the job

    @property
    def in_ref(self):
        return self.seconds / self.ref


def import_workloads():
    """Import the harness with the package from ./src, never an installed one."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import codespectra

    if Path(codespectra.__file__).resolve().parent != (src / "codespectra").resolve():
        raise ImportError(f"codespectra was not imported from {src}")
    import workloads

    return workloads


def run_jobs(jobs, tracer=None, clock=None):
    """Run jobs in a closed loop; returns their records and the oracle time."""
    records = []
    check_s = 0.0
    for number, job in enumerate(jobs, 1):
        error = None
        if tracer is not None:
            tracer.job = number
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = job.run()
        except Exception:  # a raising job is a failed job; the loop goes on
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        if error is None:
            c0 = time.perf_counter()
            try:
                job.check(result)
            except Exception:  # CheckFailed, or an oracle that could not run
                error = traceback.format_exc(limit=3)
            check_s += time.perf_counter() - c0
        if error is not None:
            print(f"perfbench: job {job.kind!r} failed:\n{error}", file=sys.stderr)
        records.append(JobRecord(job.kind, t1 - t0, error))
        if clock is not None:
            clock.after(records[-1])
    return records, check_s


def probe_setup(workload, seed):
    """Seconds a fresh interpreter takes to set up the workload, and the
    reference kernel's time in that interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    setup, ref = proc.stdout.split()
    return float(setup), float(ref)


def end_to_end(workloads, workload, seed, seconds):
    setup_samples = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    ctx = workloads.setup(workload, seed, ROOT)
    records = []
    rounds = 0
    clock = reference.HostClock()
    start = time.monotonic()
    try:
        while True:
            batch, _ = run_jobs(workloads.make_round(ctx, rounds), clock=clock)
            records += batch
            rounds += 1
            busy = sum(r.seconds for r in records)
            while len(setup_samples) < SETUP_PROBES + busy / PROBE_EVERY_S:
                setup_samples.append(probe_setup(workload, seed))
            if time.monotonic() - start > WALL_LIMIT_S:
                break
            if len(records) >= MIN_JOBS and busy + busy / rounds > seconds:
                break
    finally:
        ctx.close()
    clock.flush()
    in_ref = [r.in_ref for r in records]
    deciles_ref = statistics.quantiles(in_ref, n=10, method="inclusive")
    deciles_ms = statistics.quantiles([r.seconds * 1000 for r in records], n=10, method="inclusive")
    metrics = {
        "jobs_per_ref": {"value": len(records) / sum(in_ref), "unit": "1/ref"},
        "job_p50_ref": {"value": deciles_ref[4], "unit": "ref"},
        "job_p90_ref": {"value": deciles_ref[8], "unit": "ref"},
        "setup_s": {
            "value": statistics.median(s / ref for s, ref in setup_samples) * reference.NOMINAL_S,
            "unit": "s",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    seconds_metrics = {
        "jobs_per_s": {"value": len(records) / busy, "unit": "1/s"},
        "job_p50_ms": {"value": deciles_ms[4], "unit": "ms"},
        "job_p90_ms": {"value": deciles_ms[8], "unit": "ms"},
        "ref_ms": {"value": statistics.median(clock.samples) * 1000, "unit": "ms"},
        "setup_wall_s": {"value": statistics.median(s for s, _ in setup_samples), "unit": "s"},
    }
    details = {
        "rounds": rounds,
        "busy_s": busy,
        "setup_probes_s": setup_samples,  # (set-up, reference kernel) pairs
        "seconds_metrics": seconds_metrics,
    }
    return records, metrics, details


def traced(workloads, workload, seed, tiny=False):
    from codespectra import gf
    from tracer import Tracer, per_layer_metrics

    ctx = workloads.setup(workload, seed, ROOT, tiny)
    clock = reference.HostClock()
    try:
        plain, _ = run_jobs(workloads.make_round(ctx, 0), clock=clock)
    finally:
        ctx.close()
    clock.flush()
    # Traced set-up builds the field tables again, so field_make is measured.
    gf.field_make.cache_clear()
    gf.default_modulus.cache_clear()
    tracer = Tracer()
    with tracer:
        tracer.job = 0
        tracer.active = True
        ctx = workloads.setup(workload, seed, ROOT, tiny)
        try:
            jobs = workloads.make_round(ctx, 0)
            tracer.active = False
            clock = reference.HostClock()
            records, check_s = run_jobs(jobs, tracer, clock)
        finally:
            tracer.active = False
            ctx.close()
    clock.flush()
    untraced = sum(r.in_ref for r in plain)
    traced = sum(r.in_ref for r in records)
    metrics = per_layer_metrics(tracer, check_s, traced, untraced)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"{workload}-seed{seed}-spans.tsv.gz"
    tracer.write_spans(spans)
    details = {"spans_file": str(spans.relative_to(ROOT)), "spans": len(tracer.span_id)}
    return plain + records, metrics, details


def git_commit():
    """The checkout's commit, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def per_kind(records):
    kinds = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.seconds * 1000)
    return {k: {"jobs": len(v), "median_ms": statistics.median(v)} for k, v in kinds.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.trace:
        records, metrics, details = traced(workloads, args.workload, args.seed)
    else:
        records, metrics, details = end_to_end(workloads, args.workload, args.seed, args.seconds)
    failed = sum(r.error is not None for r in records)
    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **env,
        **details,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "kinds": per_kind(records),
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1)
    )
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in {**details.get("seconds_metrics", {}), **metrics}.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_ratio {failed / len(records)} ratio")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
