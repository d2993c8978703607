"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
import workloads
from codespectra import gf, linalg, spectra
from codespectra.genfun import GenPoly
from reference import HostClock

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_round(workload, seed, tmp_path):
    ctx = workloads.setup(workload, seed, tmp_path, tiny=True)
    return ctx, workloads.make_round(ctx, 0)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_round_passes_every_oracle(workload, tmp_path):
    ctx, jobs = tiny_round(workload, 11, tmp_path)
    try:
        records, _ = run.run_jobs(jobs)
    finally:
        ctx.close()
    assert records
    assert [r.kind for r in records if r.error is not None] == []


def _job(jobs, prefix):
    return next(j for j in jobs if j.kind.startswith(prefix))


def test_oracle_flags_moved_transform_mass(tmp_path):
    ctx, jobs = tiny_round("mw_dual", 3, tmp_path)
    job = _job(jobs, "mw_transform q=2 n=6 dim=3 blocks=0")
    g = job.run()
    job.check(g)
    (e1, c1), (e2, c2) = list(g.terms.items())[:2]
    shift = Fraction(1, len(g.vars) ** sum(e1))  # 1/q^n
    bad = GenPoly(g.vars, {**g.terms, e1: c1 + shift, e2: c2 - shift})
    with pytest.raises(workloads.CheckFailed):
        job.check(bad)
    ctx.close()


def test_oracle_flags_moved_joint_spectrum_mass(tmp_path):
    ctx, jobs = tiny_round("enum_spectra", 3, tmp_path)
    job = _job(jobs, "code_joint_spectrum")
    J = job.run()
    job.check(J)
    k1, k2 = list(J)[:2]
    shift = Fraction(1, k1[0].q ** k1[0].n)
    bad = {**J, k1: J[k1] - shift, k2: J[k2] + shift}
    with pytest.raises(workloads.CheckFailed):
        job.check(bad)
    ctx.close()


def test_oracle_flags_image_zero_mass_against_kernel(tmp_path):
    ctx, jobs = tiny_round("enum_spectra", 3, tmp_path)
    kernel = _job(jobs, "kernel_spectrum")
    image = next(j for j in jobs if j.kind == "image" + kernel.kind[len("kernel") :])
    kernel.check(kernel.run())
    I = image.run()
    image.check(I)
    zero = next(Q for Q in I if Q.is_zero_type())
    other = next(Q for Q in I if not Q.is_zero_type())
    shift = Fraction(1, zero.q**zero.n)
    with pytest.raises(workloads.CheckFailed, match="ker"):
        image.check({**I, zero: I[zero] - shift, other: I[other] + shift})
    ctx.close()


def test_oracle_flags_shifted_conditional_mass(tmp_path):
    ctx, jobs = tiny_round("ensemble_design", 3, tmp_path)
    job = _job(jobs, "ldgm_conditional_spectrum")
    row = job.run()
    job.check(row)
    Q = next(iter(row))
    bad = {**row, Q: row[Q] + Fraction(1, Q.q**Q.n)}
    with pytest.raises(workloads.CheckFailed):
        job.check(bad)
    ctx.close()


def _count_metrics(metrics):
    return {
        k: m["value"]
        for k, m in metrics.items()
        if m["unit"] in ("count", "bytes") or (m["unit"] == "ratio" and k != "trace.overhead_ratio")
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_originals_return(workload):
    originals = (linalg.matvec, spectra.matvec, gf.field_make, vars(gf.FieldSpec)["add"])
    _, first, _ = run.traced(workloads, workload, 5, tiny=True)
    _, second, _ = run.traced(workloads, workload, 5, tiny=True)
    assert _count_metrics(first) == _count_metrics(second)
    assert first["trace.overhead_ratio"]["value"] > 0
    assert (linalg.matvec, spectra.matvec, gf.field_make, vars(gf.FieldSpec)["add"]) == originals
    if workload == "enum_spectra":
        # matvec is reached through spectra's own binding of the name
        assert first["linalg.matvec.calls"]["value"] > 0
        assert first["gf.field_ops"]["value"] > 0


def test_traced_run_reports_every_declared_metric():
    _, metrics, _ = run.traced(workloads, "ensemble_design", 2, tiny=True)
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: m["unit"] for k, m in metrics.items()} == units


def test_host_clock_gives_every_job_its_reference_time():
    clock = HostClock()
    records = [run.JobRecord("a", 0.3), run.JobRecord("b", 0.3), run.JobRecord("c", 0.1)]
    for record in records:
        clock.after(record)
    assert records[0].ref == records[1].ref and records[2].ref is None
    clock.flush()
    assert len(clock.samples) == 3
    assert all(r.ref > 0 for r in records)
    assert records[2].in_ref == records[2].seconds / records[2].ref


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mw_dual", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
