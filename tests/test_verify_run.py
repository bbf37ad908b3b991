"""tests/verify_run.py checks a links run from its artifacts and scenario alone."""

import subprocess
import sys
from pathlib import Path

from mediamatch.cli import main as cli

import verify_run

SCENARIO = str(Path(__file__).resolve().parent.parent / "scenarios" / "water_links.json")


def _run(tmp_path) -> Path:
    out = tmp_path / "out"
    assert cli(["links", "--scenario", SCENARIO, "--out", str(out), "--links", "3",
                "--seed", "11"]) == 0
    return out


def test_matching_run_exits_0(tmp_path):
    """As a script: every link of an untouched 3-link run matches."""
    out = _run(tmp_path)
    done = subprocess.run([sys.executable, verify_run.__file__, "--scenario", SCENARIO,
                           str(out), "--seed", "11"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["link 0: ok", "link 1: ok", "link 2: ok",
                                        "3 of 3 links match the referee"]


def test_edited_trace_line_exits_1(tmp_path, capsys):
    """One edited reading fails its link alone, naming the line; the wrong
    seed fails every link, and a folder with no links.csv fails too."""
    out = _run(tmp_path)
    capsys.readouterr()
    trace = out / "traces" / "link_0001.csv"
    lines = trace.read_text().splitlines(keepends=True)
    stage, index, digest, _ = lines[5].rstrip("\n").split(",")
    lines[5] = f"{stage},{index},{digest},123.4\n"
    trace.write_text("".join(lines))
    assert verify_run.main(["--scenario", SCENARIO, str(out), "--seed", "11"]) == 1
    report = capsys.readouterr().out.splitlines()
    assert report[0] == "link 0: ok" and report[2] == "link 2: ok"
    assert report[1].startswith("link 1: traces/link_0001.csv line 6: got ")
    assert "123.4" in report[1] and report[-1] == "2 of 3 links match the referee"
    assert verify_run.main(["--scenario", SCENARIO, str(out)]) == 1
    assert verify_run.main(["--scenario", SCENARIO, str(tmp_path)]) == 1
