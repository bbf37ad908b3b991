"""Check that a seed fixes the inputs, the work counts and the quality exactly.

    python3 bench/repeat_check.py --workload links64 --seed 1 --seconds 6

Runs the traced benchmark twice with the same seed, each in a fresh process,
and compares op by op, over the ops both runs completed: the scenario hashes,
the work counts (stack solves, probes per stage, responder calls, parses and
so on), the files and bytes written, and the quality values.  All must be
identical.  A third run with the next seed must generate other scenarios.
Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
COMPARED = ("kind", "scenario_hash", "counts", "files", "bytes", "quality", "gains_db", "err_db")


def traced_records(workload: str, seed: int, seconds: float) -> dict:
    subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    result = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace1.json").read_text())
    return {r["op"]: r for r in result["records"] if r["traced"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=6.0)
    args = ap.parse_args(argv)

    first = traced_records(args.workload, args.seed, args.seconds)
    second = traced_records(args.workload, args.seed, args.seconds)
    common = sorted(set(first) & set(second))
    problems = [f"op {op}: {key} differs: {first[op][key]!r} != {second[op][key]!r}"
                for op in common for key in COMPARED if first[op][key] != second[op][key]]
    other = traced_records(args.workload, args.seed + 1, args.seconds)
    if other[0]["scenario_hash"] == first[0]["scenario_hash"]:
        problems.append(f"seed {args.seed + 1} generated the same first scenario")
    for line in problems[:20]:
        print(line)
    print(f"{args.workload} seed {args.seed}: {len(common)} ops compared, "
          f"{len(problems)} differences")
    return 1 if problems or not common else 0


if __name__ == "__main__":
    sys.exit(main())
