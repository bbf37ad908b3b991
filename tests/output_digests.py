"""Print a digest of everything the CLI and the demos write, for byte checks.

    python tests/output_digests.py [--links 12] > digests.txt

Runs all five commands on every shipped scenario (the link commands at
--parallel 1 and 2), each in a fresh temporary directory with relative
paths, so no line depends on where the repository or the run lives.  For
each run it prints the exit code and the sha256 of stdout and stderr, then
one line per file written under the output directory.  It also prints the
sha256 of each demo's stdout, the repository's path in it replaced.  The
package is imported from this repository's src/: run the script from two
checkouts and diff the outputs.  This is a plain script, not a test.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COMMANDS = ("match", "sweep", "links", "backscatter", "bench-controller")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv, cwd, env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          timeout=600)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--links", type=int, default=12, help="--links of the link commands")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for scenario in sorted((REPO / "scenarios").glob("*.json")):
        for command in COMMANDS:
            for parallel in (None,) if command in ("match", "sweep") else (1, 2):
                with tempfile.TemporaryDirectory() as tmp:
                    shutil.copy(scenario, Path(tmp) / "scenario.json")
                    argv = ["-m", "mediamatch", command, "--scenario", "scenario.json",
                            "--out", "out"]
                    if parallel is not None:
                        argv += ["--links", str(args.links), "--parallel", str(parallel)]
                    done = run(argv, tmp, env)
                    label = f"{scenario.stem} {command}" + (f" --parallel {parallel}"
                                                             if parallel else "")
                    print(f"{label}: exit {done.returncode} stdout {sha(done.stdout)} "
                          f"stderr {sha(done.stderr)}")
                    out = Path(tmp) / "out"
                    for path in sorted(out.rglob("*")) if out.is_dir() else ():
                        if path.is_file():
                            print(f"  {path.relative_to(out).as_posix()} {sha(path.read_bytes())}")
    for demo in sorted((REPO / "demos").glob("[0-9]*.py")):
        done = run([str(demo)], REPO, env)
        stdout = done.stdout.replace(str(REPO).encode(), b"<repo>")  # demo 02 prints paths
        print(f"demo {demo.name}: exit {done.returncode} stdout {sha(stdout)}")


if __name__ == "__main__":
    main()
