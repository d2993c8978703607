"""Time the benchmark's set-up once, in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is what a run pays before its first job: importing codespectra,
building the workload's field tables and generating round 0's inputs.
Prints the seconds it took and the mean time of one pass of the reference
kernel (``reference.py``) just before and just after it, so that the caller
can divide out the host's speed at that moment.
"""

import sys
import time
from pathlib import Path

import reference

before = reference.seconds()
start = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (the import is part of what is timed)


def main(workload, seed):
    ctx = workloads.setup(workload, seed, ROOT)
    try:
        workloads.make_round(ctx, 0)
        elapsed = time.perf_counter() - start
    finally:
        ctx.close()
    ref = (before + reference.seconds()) / 2
    print(f"{elapsed:.9f} {ref:.9f}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
