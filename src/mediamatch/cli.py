"""Command-line front end.

    mediamatch match            --scenario water.json --out out/
    mediamatch sweep            --scenario water.json --out out/
    mediamatch links            --scenario water.json --out out/ --links 45 [--parallel 2]
    mediamatch backscatter      --scenario water.json --out out/ --links 45 [--parallel 2]
    mediamatch bench-controller --scenario water.json --out out/ [--parallel 2]

Exit codes: 0 success, 2 scenario/config error, 3 infeasible calibration,
singular stack or a run too large for memory, 4 oracle or budget violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cascade import DegenerateStackError
from .harness import (BudgetError, cmd_backscatter, cmd_bench_controller,
                      cmd_links, cmd_match, cmd_sweep)
from .scenario import ScenarioError, read_scenario_dict, scenario_from_dict
from .surface import CalibrationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VIOLATION = 4

_COMMANDS = {"match": cmd_match, "sweep": cmd_sweep, "links": cmd_links,
             "backscatter": cmd_backscatter, "bench-controller": cmd_bench_controller}

#: A --scenario or --out path that cannot be read or made a directory.
_PATH_ERRORS = (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mediamatch",
        description="Layered-media impedance matching and surface-control simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")

    p = sub.add_parser("match", help="admittance/voltage matching + spectra")
    common(p)
    p = sub.add_parser("sweep", help="through-power heatmap grids")
    common(p)
    for name, links, text in (("links", 45, "controller over seeded multipath links"),
                              ("backscatter", 45, "two-way channel-product emulation"),
                              ("bench-controller", 100, "voting vs enumeration comparison")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--links", type=int, default=links, help="number of seeded links")
        p.add_argument("--parallel", type=int, default=1, help="worker processes")
    return parser


def _check_counts(args) -> None:
    """Link and worker counts must be usable: --links >= 0, --parallel >= 1."""
    if getattr(args, "links", 0) < 0:
        raise ValueError(f"--links must be >= 0, got {args.links}")
    if getattr(args, "parallel", 1) < 1:
        raise ValueError(f"--parallel must be >= 1, got {args.parallel}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args)
        raw = read_scenario_dict(args.scenario)
        if args.seed is not None:
            raw["seed"] = args.seed
        scenario = scenario_from_dict(raw)
        counts = () if args.command in ("match", "sweep") else (args.links, args.parallel)
        report = _COMMANDS[args.command](scenario, Path(args.out), *counts)
    except (ScenarioError, ValueError, *_PATH_ERRORS) as exc:
        if isinstance(exc, CalibrationError):
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateStackError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as exc:
        print(f"infeasible: out of memory: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION

    encoding = sys.stdout.encoding or "utf-8"  # escape what the locale cannot print
    sys.stdout.write(report.render().encode(encoding, "backslashreplace").decode(encoding))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
