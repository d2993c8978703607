"""Run the example scripts against their golden output.

Each of design_example.py, ldgm_demo.py and kq_table.py runs with its
default arguments as `python scripts/<name>.py` with `src/` on the path.  It
must exit 0, write nothing to stderr, and print exactly the golden file
tests/data/scripts/<name>.stdout.

    python3 scripts/script_examples.py            # check; exit 1 on a difference
    python3 scripts/script_examples.py --record   # rewrite the golden files
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "scripts"
SCRIPTS = ("design_example", "ldgm_demo", "kq_table")


def run(name):
    """Stdout of one example script."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py")],
        env=env,
        capture_output=True,
        check=False,
    )
    if proc.returncode != 0 or proc.stderr:
        raise SystemExit(f"{name}.py exited {proc.returncode}:\n{proc.stderr.decode()}")
    return proc.stdout


def main(record):
    failed = 0
    for name in SCRIPTS:
        got, golden = run(name), DATA / f"{name}.stdout"
        if record:
            DATA.mkdir(parents=True, exist_ok=True)
            golden.write_bytes(got)
            continue
        same = golden.exists() and got == golden.read_bytes()
        failed += not same
        print(f"{'ok' if same else 'DIFFERS':8} scripts/{name}.py")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main("--record" in sys.argv[1:]))
