"""Print a digest of everything the CLI and the demos write, for byte checks.

    python tests/output_digests.py [--links 12] > digests.txt
    python tests/output_digests.py [--links 12] --against ../other-checkout

Runs all five commands on every shipped scenario, and the three link
commands on fixed variants of water_links.json (noise at -20 dB, a
non-reciprocal uplink, 0.3 rad phase jitter, and all three): the shipped
scenarios are all noise-free, reciprocal and jitter-free.  The link commands
run at --parallel 1 and 2, and links once more on water_links.json with
--links 40 --parallel 1: three batches of at most 16 links.  Each run is in
a fresh temporary directory with relative paths, so no line depends on
where the repository or the run lives.  For each run it prints the exit
code and the sha256 of stdout and stderr, then one line per file written
under the output directory.  It also prints the sha256 of each demo's
stdout, the repository's path in it replaced.  The package is imported from
this repository's src/: run the script from two checkouts and diff the
outputs, or pass --against with the other checkout, which runs this
script's runs a second time with the other checkout's src/ on PYTHONPATH,
so both sides run the same list, and the other checkout's own demos, so a
demo ported to a changed API runs on the package it was written for.  It
prints only the lines that differ, grouped by command and file kind (a link
number stands as *), with each group's count of moved and compared lines.
Every run gets this process's environment, NPY_DISABLE_CPU_FEATURES
included, so the output can also be diffed across numpy's SIMD dispatch
settings:

    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" \
        python tests/output_digests.py > digests-avx2.txt

This is a plain script, not a test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COMMANDS = ("match", "sweep", "links", "backscatter", "bench-controller")
LINK_COMMANDS = COMMANDS[2:]
#: water_links.json's "channel" overrides run by the link commands, by name.
VARIANTS = {"noise": {"noise_db": -20.0}, "nonreciprocal": {"reciprocal_uplink": False},
            "jitter": {"phase_jitter_std": 0.3}}
VARIANTS["all"] = {key: value for fields in VARIANTS.values() for key, value in fields.items()}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv, cwd, env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          timeout=600)


def scenarios():
    """(label, scenario file bytes, commands) of every scenario the script runs."""
    for path in sorted((REPO / "scenarios").glob("*.json")):
        yield path.stem, path.read_bytes(), COMMANDS
    raw = json.loads((REPO / "scenarios" / "water_links.json").read_text(encoding="utf-8"))
    for name, fields in VARIANTS.items():
        variant = dict(raw, channel={**raw["channel"], **fields})
        yield f"water_links+{name}", json.dumps(variant, indent=2).encode(), LINK_COMMANDS


def run_lines(label: str, text: bytes, argv, env):
    """The lines of one CLI run on scenario bytes in a fresh temporary
    directory: exit code and output digests, then one line per file written."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "scenario.json").write_bytes(text)
        done = run(["-m", "mediamatch", *argv, "--scenario", "scenario.json", "--out", "out"],
                   tmp, env)
        yield f"{label}: exit {done.returncode} stdout {sha(done.stdout)} stderr {sha(done.stderr)}"
        out = Path(tmp) / "out"
        for path in sorted(out.rglob("*")) if out.is_dir() else ():
            if path.is_file():
                yield f"  {path.relative_to(out).as_posix()} {sha(path.read_bytes())}"


def digest_lines(links: int, root: Path = REPO):
    """Every line the script prints, in order: this script's runs on the
    package in checkout `root`, then `root`'s own demos."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for name, text, commands in scenarios():
        for command in commands:
            for parallel in (1, 2) if command in LINK_COMMANDS else (None,):
                argv, label = [command], f"{name} {command}"
                if parallel is not None:
                    argv += ["--links", str(links), "--parallel", str(parallel)]
                    label += f" --parallel {parallel}"
                yield from run_lines(label, text, argv, env)
    # three batches of at most 16 links, so batch boundaries show in every diff
    yield from run_lines("water_links links --links 40 --parallel 1",
                         (REPO / "scenarios" / "water_links.json").read_bytes(),
                         ["links", "--links", "40", "--parallel", "1"], env)
    for demo in sorted((root / "demos").glob("[0-9]*.py")):
        done = run([str(demo)], root, env)
        stdout = done.stdout.replace(str(root).encode(), b"<repo>")  # demo 02 prints paths
        yield f"demo {demo.name}: exit {done.returncode} stdout {sha(stdout)}"


def keyed(lines) -> dict:
    """{(group, line key): line}: a run's own line is keyed by its label, a
    file's by its run's label and path; the group is the command (or "demo")
    and the file kind, link numbers as *."""
    out, label, command = {}, None, None
    for line in lines:
        if line.startswith("  "):
            path = line.split()[0]
            kind = re.sub(r"link_\d+", "link_*", path)
            out[(f"{command} {kind}", f"{label} {path}")] = line
            continue
        label = line.split(":")[0]
        command = "demo" if label.startswith("demo ") else label.split()[1]
        out[(f"{command} exit, stdout and stderr", label)] = line
    return out


def against(links: int, other: Path) -> None:
    """Print the lines that differ between this checkout and `other`, each
    package on this checkout's runs and each checkout's demos, grouped."""
    mine, theirs = keyed(digest_lines(links)), keyed(digest_lines(links, other))
    keys, groups = sorted(mine.keys() | theirs.keys()), {}
    for key in keys:
        groups.setdefault(key[0], []).append(key)
    moved = sum(mine.get(k) != theirs.get(k) for k in keys)
    print(f"{moved} of {len(keys)} lines differ from {other}")
    for group, members in groups.items():
        differ = [k for k in members if mine.get(k) != theirs.get(k)]
        print(f"{group}: {len(differ)} of {len(members)} differ")
        for key in differ:
            print(f"  {key[1]}" + ("" if key in mine and key in theirs else
                                   " (here only)" if key in mine else " (there only)"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--links", type=int, default=12, help="--links of the link commands")
    parser.add_argument("--against", type=Path, help="another checkout to compare with")
    args = parser.parse_args()
    if args.against is not None:
        against(args.links, args.against.resolve())
        return
    for line in digest_lines(args.links):
        print(line)


if __name__ == "__main__":
    main()
