"""Run every `codespectra ...` example in README.md against golden output.

Each example runs as `python -m codespectra.cli ...` with `src/` on the
path, in a fresh directory holding the input matrices of tests/data/readme/
(code.txt, outer.txt, inner.txt).  It must exit 0, write nothing to stderr,
and leave stdout and every file it writes byte-identical to the golden files
tests/data/readme/NN-<subcommand>.<name> (name "stdout" for stdout).

    python3 scripts/readme_examples.py            # check; exit 1 on a difference
    python3 scripts/readme_examples.py --record   # rewrite the golden files
"""

import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data" / "readme"
INPUTS = ("code.txt", "outer.txt", "inner.txt")


def examples(readme):
    """The `codespectra ...` lines of the README's fenced blocks, in order."""
    fenced = False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("codespectra "):
            yield shlex.split(line)[1:]


def run(argv, workdir):
    """{output name: bytes} of one example run in workdir."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "codespectra.cli", *argv],
        cwd=workdir,
        env=env,
        capture_output=True,
        check=False,
    )
    if proc.returncode != 0 or proc.stderr:
        raise SystemExit(f"codespectra {shlex.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode()}")
    out = {"stdout": proc.stdout}
    for path in sorted(Path(workdir).iterdir()):
        if path.name not in INPUTS:
            out[path.name] = path.read_bytes()
    return out


def main(record):
    failed = 0
    for i, argv in enumerate(examples(ROOT / "README.md"), 1):
        with tempfile.TemporaryDirectory() as workdir:
            for name in INPUTS:
                shutil.copy(DATA / name, workdir)
            got = run(argv, workdir)
        prefix = f"{i:02d}-{argv[0]}."
        if record:
            for name, data in got.items():
                (DATA / (prefix + name)).write_bytes(data)
            continue
        want = {p.name[len(prefix):]: p.read_bytes() for p in DATA.glob(prefix + "*")}
        status = "ok" if got == want else "DIFFERS"
        failed += got != want
        print(f"{status:8} codespectra {shlex.join(argv)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main("--record" in sys.argv[1:]))
