"""Check a ``links`` run from its artifacts and its scenario alone.

    python tests/verify_run.py --scenario scenarios/water_links.json out/ [--seed N]

Rebuilds every link of the ``links`` output in OUT_DIR with the whole-link
referee, ``oracles.reference_link``, through the rebuild that
``test_referee_link`` checks the library with, and prints per link "ok" or
the first line of its trace (or its links.csv row) that differs from the
referee's.  The links are the rows of OUT_DIR/links.csv; ``--seed``
overrides the scenario seed as the CLI's does.  Exits 0 when every link
matches and 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mediamatch.scenario import read_scenario_dict, scenario_from_dict  # noqa: E402

from test_referee_link import _expected  # noqa: E402


def _first_difference(got: str | None, want: str) -> str | None:
    """'line k: got ... want ...' for the first differing line, None if equal."""
    if got is None:
        return "missing"
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for k in range(max(len(got_lines), len(want_lines))):
        a, b = (lines[k] if k < len(lines) else "<end>" for lines in (got_lines, want_lines))
        if a != b:
            return f"line {k + 1}: got {a!r}, want {b!r}"
    return None if got == want else "line endings differ"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scenario", required=True, help="the run's scenario JSON file")
    parser.add_argument("--seed", type=int, default=None, help="the seed the run overrode")
    parser.add_argument("out_dir", type=Path, help="the links command's output directory")
    args = parser.parse_args(argv)
    raw = read_scenario_dict(args.scenario)
    if args.seed is not None:
        raw["seed"] = args.seed
    scenario = scenario_from_dict(raw)

    def read(name):
        path = args.out_dir / name
        return path.read_text() if path.is_file() else None

    if read("links.csv") is None:
        print(f"{args.out_dir / 'links.csv'} not found: not a links output")
        return 1
    rows = read("links.csv").splitlines()
    want = _expected(scenario, "links", len(rows) - 1)
    want_rows = want["links.csv"].splitlines()
    failed = 0
    for link in range(len(rows) - 1):
        name = f"traces/link_{link:04d}.csv"
        found = _first_difference(read(name), want[name])
        if found is None and rows[link + 1] != want_rows[link + 1]:
            name, found = "links.csv", f"got {rows[link + 1]!r}, want {want_rows[link + 1]!r}"
        failed += found is not None
        print(f"link {link}: " + ("ok" if found is None else f"{name} {found}"))
    print(f"{len(rows) - 1 - failed} of {len(rows) - 1} links match the referee")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
