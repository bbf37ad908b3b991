"""Harness commands, golden heatmaps, CSV determinism, CLI exit codes."""

import contextlib
import copy
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mediamatch import (cascade, channel as channel_mod, cli, harness, media,
                        scenario as scenario_mod, surface)
from mediamatch.cli import MAX_PARALLEL, main
from mediamatch.harness import (BudgetError, cmd_backscatter, cmd_bench_controller,
                                cmd_links, cmd_match, cmd_sweep, median_lower,
                                percentiles_lower, run_links, validate_trace)
from mediamatch.control import TRACE_TABLE, ControlTrace, _probe_many
from mediamatch.table import table_text, write_table
from mediamatch.surface import admittance_at_voltage
from mediamatch.scenario import (ScenarioError, default_tissue_dict,
                                 default_water_dict, load_scenario,
                                 scenario_from_dict)

from oracles import row_csv_text
from per_probe import Readings, append

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_heatmap(path: Path) -> dict:
    out = {}
    for line in path.read_text().strip().split("\n")[1:]:
        a1, a2, db = line.split(",")
        out[(float(a1), float(a2))] = float(db)
    return out


def count_calls(monkeypatch) -> dict:
    """Calls from here on of the stacked channel sum, the baseline sum and
    gains_db (where the harness looks it up), by name."""
    counts = dict.fromkeys(("composite_channels", "baseline_channel", "gains_db"), 0)

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    for name in counts:
        module = harness if name == "gains_db" else channel_mod
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


_EDGE_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e300, -5e300,
                5e-324, 2.2250738585072014e-308, 1e-310, 0.1, 1 / 3, 123456789012.5]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_subnormal=True))

#: The column kinds the tables hold, by name: a strategy drawing one value of
#: the kind, and its conversion (None: the table's float conversion).
_KINDS = {
    "float": (_floats, None),
    "np.float64": (_floats.map(np.float64), None),
    "int": (st.one_of(st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1)), "%s"),
    "str": (st.text(max_size=8), "%s"),
}


@st.composite
def _tables(draw):
    """A table's float format, row template and columns."""
    n_rows = draw(st.integers(0, 12))
    float_format = draw(st.sampled_from([".12g", ".10g"]))
    conversions, columns = [], []
    for kind in draw(st.lists(st.sampled_from(sorted(_KINDS) + ["float64 array"]),
                              min_size=1, max_size=6)):
        if kind == "float64 array":
            columns.append(np.array(draw(st.lists(_floats, min_size=n_rows,
                                                  max_size=n_rows)), dtype=float))
            conversions.append("%" + float_format)
        else:
            strategy, conversion = _KINDS[kind]
            values = draw(st.lists(strategy, min_size=n_rows, max_size=n_rows))
            columns.append(draw(st.sampled_from([values, tuple(values)])))
            conversions.append(conversion or "%" + float_format)
    return float_format, ",".join(conversions), columns


class TestTableText:
    """table_text renders whole columns through a declared row template, byte
    for byte what the per-value formatter gives: a float column's '%.12g' or
    '%.10g' is format(x, ".12g") or format(x, ".10g"), an int or text
    column's '%s' str(x)."""

    @settings(max_examples=300, deadline=None)
    @given(_tables())
    @example((".12g", "%.12g,%s,%.12g,%s",
              [np.array(_EDGE_FLOATS), list(range(len(_EDGE_FLOATS))),
               [np.float64(x) for x in _EDGE_FLOATS], [str(x) for x in _EDGE_FLOATS]]))
    @example((".10g", "%s,%.10g", [range(len(_EDGE_FLOATS)), _EDGE_FLOATS]))
    def test_matches_per_value_formatter(self, table):
        float_format, line, columns = table
        header = ",".join(f"c{k}" for k in range(len(columns)))
        assert table_text(header, line, columns) == \
            row_csv_text(header, zip(*columns), float_format)

    def test_no_rows_and_no_columns(self):
        assert table_text("a,b", "%s,%s", [[], ()]) == "a,b\n"
        assert table_text("a,b", "%s,%s", []) == "a,b\n"

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            table_text("a,b", "%.12g,%.12g", [[1.0, 2.0], [3.0]])
        with pytest.raises(ValueError):
            table_text("a,b", "%.12g,%.12g", [[1.0], [2.0, 3.0]])

    def test_write_table_bytes(self, tmp_path):
        columns = [["env", "element_0"], [0.5, -0.0], np.array([float("nan"), 1e-310])]
        path = write_table(tmp_path / "t.csv", "path,re,im", "%s,%.12g,%.12g", columns)
        assert path == str(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == \
            row_csv_text("path,re,im", zip(*columns)).encode()

    def test_write_table_long_and_over_a_longer_file(self, tmp_path):
        """write_table writes all of a table over 1 MB, the bytes
        Path.write_text writes, and truncates a longer file it writes over."""
        columns = [[f"{k},\u00e9" for k in range(60000)], [k / 7 for k in range(60000)]]
        text = table_text("a,b,c", "%s,%.12g", columns)
        assert len(text.encode()) > 2 ** 20
        (tmp_path / "path").write_text(text, encoding="utf-8", newline="\n")
        write_table(tmp_path / "full", "a,b,c", "%s,%.12g", columns)
        assert (tmp_path / "full").read_bytes() == (tmp_path / "path").read_bytes()
        write_table(tmp_path / "full", "a", "%s", [["short"]])
        assert (tmp_path / "full").read_bytes() == b"a\nshort\n"

    def test_templates_declare_one_conversion_per_column(self):
        """Every table's template has one conversion per header name: a table
        with no rows (a zero-link run) writes only its header, which no pin of
        its bytes would catch."""
        tables = {"spectrum": harness._SPECTRUM, "sweep": harness._SWEEP,
                  "channel dump": harness._CHANNEL_DUMP, "trace": TRACE_TABLE,
                  **{mode: (c.header, c.line) for mode, c in harness._LINK_COMMANDS.items()}}
        assert len(tables) == 7
        for name, (header, line) in tables.items():
            conversions = line.split(",")
            assert len(conversions) == len(header.split(",")), name
            assert all(re.fullmatch(r"%s|%\.1[02]g", c) for c in conversions), name


class TestLowerPercentiles:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(
               st.sampled_from([0.0, -0.0, 1.5, 1.5, float("inf"), float("-inf"), float("nan")]),
               st.floats(allow_nan=False)), min_size=1, max_size=50),
           qs=st.lists(st.one_of(st.sampled_from([10.0, 50.0, 90.0]), st.floats(0.0, 100.0)),
                       min_size=1, max_size=4))
    def test_equal_numpy_lower(self, values, qs):
        """One sort gives numpy's method="lower" percentiles, ties and
        infinities included, and NaN for every q when a value is NaN."""
        got = percentiles_lower(values, qs) + [median_lower(values)]
        for q, value in zip([*qs, 50.0], got):
            want = float(np.percentile(np.array(values), q, method="lower"))
            if any(math.isnan(v) for v in values):
                assert math.isnan(value) and math.isnan(want)
            else:
                assert value == want


class TestGoldenHeatmaps:
    """cmd_sweep must regenerate the oracle-produced goldens within 0.1 dB."""

    @pytest.mark.parametrize("scenario_file,golden_file,csv_name", [
        ("water_gap_heatmap.json", "water_gap_susceptance.csv",
         "sweep_gap_mm_susceptance_s.csv"),
        ("tissue_gap_heatmap.json", "tissue_gap_susceptance.csv",
         "sweep_gap_mm_susceptance_s.csv"),
        ("tissue_fat_heatmap.json", "tissue_fat_susceptance.csv",
         "sweep_fat_mm_susceptance_s.csv"),
    ])
    def test_regenerates_golden(self, tmp_path, scenario_file, golden_file, csv_name):
        scenario = load_scenario(SCENARIOS / scenario_file)
        cmd_sweep(scenario, tmp_path)
        got = read_heatmap(tmp_path / csv_name)
        want = read_heatmap(GOLDEN / golden_file)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, abs=0.1), key


class TestMatchCommand:
    def test_water_defaults(self, tmp_path):
        report = cmd_match(load_scenario(SCENARIOS / "water_match.json"), tmp_path)
        assert report.summary["reduction_at_center_db"] >= 10.0
        assert report.summary["matched_through_db"] >= -0.5
        assert (tmp_path / "spectrum_admittance.csv").exists()
        assert (tmp_path / "summary.txt").exists()

    def test_degenerate_matched_media(self, tmp_path):
        raw = default_water_dict(name="noop", load_medium="air", layers=[])
        raw.pop("sweep")
        report = cmd_match(scenario_from_dict(raw), tmp_path)
        assert report.summary["matched_gain_db"] == pytest.approx(0.0, abs=1e-9)

    def test_tissue_voltage_differs_from_water_at_small_gap(self, tmp_path):
        w = default_water_dict(name="w2", layers=[{"medium": "air", "thickness_mm": 2.0}])
        t = default_tissue_dict(name="t2", layers=[
            {"medium": "air", "thickness_mm": 2.0},
            {"medium": "skin", "thickness_mm": 2.5},
            {"medium": "fat", "thickness_mm": 15.0}])
        rw = cmd_match(scenario_from_dict(w), tmp_path / "w")
        rt = cmd_match(scenario_from_dict(t), tmp_path / "t")
        assert rw.summary["best_voltage_v"] != rt.summary["best_voltage_v"]

    def test_new_thickness_reuses_media_and_admittances(self, tmp_path):
        """A stack that differs from the last one only in its fat thickness
        builds new chains, but over the media quantities and element
        admittances the last one memoized."""
        memos = (media._quantities, surface._admittance_table, cascade._coefficients)

        def misses():
            return [memo.cache_info().misses for memo in memos]

        for i, fat_mm in enumerate((15.0, 22.5)):
            raw = default_tissue_dict(name="reuse")
            raw["layers"][2]["thickness_mm"] = fat_mm
            scenario = scenario_from_dict(raw)
            before = misses()
            cmd_match(scenario, tmp_path / f"match{i}")
            cmd_sweep(scenario, tmp_path / f"sweep{i}")
        after = misses()
        assert after[:2] == before[:2]
        assert after[2] > before[2]


class TestSweepCommand:
    def test_baseline_column_matches_bare(self, tmp_path):
        scenario = load_scenario(SCENARIOS / "water_gap_heatmap.json")
        cmd_sweep(scenario, tmp_path)
        table = read_heatmap(tmp_path / "sweep_gap_mm_susceptance_s.csv")
        # the Y_s = 0 column is gap independent for the water stack: the air
        # gap only adds phase, |Gamma| is that of the bare interface
        for gap in range(2, 13):
            assert table[(float(gap), 0.0)] == pytest.approx(-4.436974992, abs=1e-6)

    def test_axis_columns_equal_per_cell_formatting(self, tmp_path):
        """The axis columns, formatted once per value, give the text of each
        cell formatted apart, for arange values with rounding tails."""
        scenario = scenario_from_dict(default_water_dict(name="axis-text"))
        v1, v2 = scenario.sweeps["gap_mm"], scenario.sweeps["capacitance_pf"]
        assert any(len(format(x, ".12g")) < len(repr(x)) for x in v2.tolist())  # tails
        cmd_sweep(scenario, tmp_path)
        rows = [line.split(",") for line in
                (tmp_path / "sweep_gap_mm_capacitance_pf.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == [format(x, ".12g") for x in np.repeat(v1, len(v2)).tolist()]
        assert [r[1] for r in rows] == [format(x, ".12g") for x in np.tile(v2, len(v1)).tolist()]

    def test_no_axes_is_config_error(self, tmp_path):
        raw = default_water_dict(name="no-sweep")
        raw["sweep"] = {}
        with pytest.raises(ValueError):
            cmd_sweep(scenario_from_dict(raw), tmp_path)


class TestLinksCommand:
    def test_zero_links_empty_report(self, tmp_path):
        scenario = load_scenario(SCENARIOS / "water_links.json")
        report = cmd_links(scenario, tmp_path, 0)
        assert report.summary["n_links"] == 0

    def test_fixed_seeds_identical_csv(self, tmp_path):
        scenario = load_scenario(SCENARIOS / "water_links.json")
        cmd_links(scenario, tmp_path / "a", 5)
        cmd_links(scenario, tmp_path / "b", 5)
        assert sha(tmp_path / "a/links.csv") == sha(tmp_path / "b/links.csv")
        assert sha(tmp_path / "a/traces/link_0003.csv") == sha(tmp_path / "b/traces/link_0003.csv")

    def test_parallel_matches_serial(self, tmp_path):
        """Every file each link command writes (traces, channel dumps, CSVs,
        summary) is the same with one process and with two workers."""
        runs = [(cmd_links, "water_links.json", 6), (cmd_backscatter, "water_backscatter.json", 5),
                (cmd_bench_controller, "controller_bench.json", 3)]
        for command, name, n_links in runs:
            scenario = load_scenario(SCENARIOS / name)
            trees = []
            for parallel in (1, 2):
                out = tmp_path / f"{command.__name__}-{parallel}"
                command(scenario, out, n_links, parallel=parallel)
                trees.append({path.relative_to(out).as_posix():
                              path.read_text().replace(str(out), "<out>")
                              for path in sorted(out.rglob("*")) if path.is_file()})
            assert trees[0] == trees[1]
            assert "summary.txt" in trees[0]

    def test_one_gain_solve_and_one_baseline_per_link(self, tmp_path, monkeypatch):
        """9 links read their gains and their baseline_db column from one
        gains_db call, which sums each link's baseline once."""
        counts = count_calls(monkeypatch)
        cmd_links(load_scenario(SCENARIOS / "water_links.json"), tmp_path, 9)
        assert counts == {"composite_channels": 4, "baseline_channel": 9, "gains_db": 1}

    def test_responder_built_once_per_command(self, tmp_path, monkeypatch):
        """Serial link commands build the element responder once, not per link."""
        calls = []
        real = scenario_mod.Scenario.responder
        monkeypatch.setattr(scenario_mod.Scenario, "responder",
                            lambda self, **kw: calls.append(1) or real(self, **kw))
        scenario = load_scenario(SCENARIOS / "water_links.json")
        for command in (cmd_links, cmd_backscatter, cmd_bench_controller):
            calls.clear()
            command(scenario, tmp_path / command.__name__, 3)
            assert len(calls) == 1, command.__name__

    def test_scenario_parsed_once(self, tmp_path, monkeypatch):
        """A "calibrate" circuit is calibrated when the scenario is parsed,
        not again for every link."""
        calls = []
        real = scenario_mod.calibrate_inductances
        monkeypatch.setattr(scenario_mod, "calibrate_inductances",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        raw = default_water_dict(name="cal-links")
        raw["circuit"] = "calibrate"
        cmd_links(scenario_from_dict(raw), tmp_path, 3)
        assert len(calls) == 1

    def test_channel_dump_written(self, tmp_path):
        scenario = load_scenario(SCENARIOS / "water_links.json")
        cmd_links(scenario, tmp_path, 1)
        dump = (tmp_path / "channels/link_0000.csv").read_text().strip().split("\n")
        assert dump[0] == "path,re,im"
        assert dump[1].startswith("env,")
        assert len(dump) == 2 + scenario.n_elements

    @staticmethod
    def _scenario(side: int):
        """water_links.json with a side x side array."""
        raw = json.loads((SCENARIOS / "water_links.json").read_text())
        raw.update(array_rows=side, array_cols=side)
        raw["channel"]["element_power"] = 1.0 / side ** 2
        return scenario_from_dict(raw)

    @classmethod
    def _link_peak(cls, side: int, n_links: int) -> int:
        """tracemalloc peak of links 0..n_links-1 of a side x side scenario,
        batch by batch as the links command cuts them, checking every row
        against the trace file it wrote."""
        scenario = cls._scenario(side)
        responder = scenario.responder()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            tracemalloc.start()
            try:
                rows = [row for batch in harness._batches(scenario, n_links, 1)
                        for row in run_links(scenario, responder, batch, "links", out)]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(rows) == n_links
            for i, row in enumerate(rows):
                assert row[-2] == 2 * side ** 2  # stage-2 probes
                trace = (out / f"traces/link_{i:04d}.csv").read_text(encoding="utf-8")
                assert len(trace.splitlines()) == 1 + sum(row[-3:])
        return peak

    def test_32x32_link_memory_peak(self):
        """One 32x32 link allocates at most 7 MB at its peak: stage 2 builds
        no array of its probes but the bit rows the trace keeps (256 KB)."""
        peak = self._link_peak(32, 1)
        assert peak <= 7 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_two_32x32_links_memory_peak(self):
        """Two 32x32 links stay within the same 7 MB: they run one per batch."""
        peak = self._link_peak(32, 2)
        assert peak <= 7 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_64x64_link_memory_peak(self):
        """One 64x64 link allocates at most 48 MB at its peak, its 4 MB of
        stage-2 bit rows included."""
        peak = self._link_peak(64, 1)
        assert peak <= 48 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_64x64_links_command_peak(self, tmp_path):
        """A one-link 64x64 links command, after a warm-up run, allocates at
        most 12 MB at its peak: 2N ceil(N/8) = 4 MB of stage-2 bit rows, 2 MB
        of on/off tables and a few MB of block temporaries."""
        scenario = self._scenario(64)
        cmd_links(scenario, tmp_path / "warm", 1)
        tracemalloc.start()
        try:
            cmd_links(scenario, tmp_path / "run", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_memory_does_not_grow_with_the_link_count(self, tmp_path):
        """A 16x16 links run (one link per batch) holds one batch's files at a
        time: the tracemalloc peaks of 4 and 40 links differ by less than
        256 KB.  A one-link warm-up first builds the one-off state of a first
        run in the process (not a per-link cache: clearing cascade's memo
        after it leaves the peaks equal); without it the 4-link peak is
        ~1.5 MB above the 40-link one."""
        scenario = self._scenario(16)
        cmd_links(scenario, tmp_path / "warm", 1)
        peaks = []
        for n_links in (4, 40):
            tracemalloc.start()
            try:
                cmd_links(scenario, tmp_path / str(n_links), n_links)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(list((tmp_path / "40" / "traces").iterdir())) == 40
        assert abs(peaks[1] - peaks[0]) < 256 * 2 ** 10, (
            f"peaks {peaks[0] / 2 ** 20:.2f} and {peaks[1] / 2 ** 20:.2f} MB")

    def test_first_two_stages_carry_the_gain(self, tmp_path):
        """Median gain after stages 1+2 dominates the stage-3 increment."""
        scenario = load_scenario(SCENARIOS / "water_links.json")
        cmd_links(scenario, tmp_path, 30)
        stage12, stage3 = [], []
        for row in (tmp_path / "links.csv").read_text().strip().split("\n")[1:]:
            parts = row.split(",")
            stage12.append(float(parts[6]))
            stage3.append(float(parts[7]))
        assert median_lower(stage12) >= median_lower(stage3)


class TestBackscatterCommand:
    def test_reciprocal_doubling(self, tmp_path):
        scenario = load_scenario(SCENARIOS / "water_backscatter.json")
        cmd_backscatter(scenario, tmp_path, 6)
        rows = (tmp_path / "backscatter.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            _, _, down, up, bs = row.split(",")
            assert float(bs) == pytest.approx(2 * float(down), abs=1e-9)
            assert float(down) == pytest.approx(float(up), abs=1e-12)

    def test_channel_noise_is_not_read(self, tmp_path):
        """Backscatter feedback is read without noise: a scenario's
        channel.noise_db leaves backscatter.csv as it is, and links reads it."""
        raw = json.loads((SCENARIOS / "water_backscatter.json").read_text())
        csv = {}
        for noise_db in (None, -20.0):
            raw["channel"]["noise_db"] = noise_db
            scenario = scenario_from_dict(raw)
            for command, name in ((cmd_backscatter, "backscatter.csv"), (cmd_links, "links.csv")):
                out = tmp_path / f"{name}-{noise_db}"
                command(scenario, out, 4)
                csv[name, noise_db] = (out / name).read_bytes()
        assert csv["backscatter.csv", None] == csv["backscatter.csv", -20.0]
        assert csv["links.csv", None] != csv["links.csv", -20.0]

    @pytest.mark.parametrize("reciprocal,calls,sums", [(True, 4, 9), (False, 8, 18)])
    def test_one_gain_solve_per_direction(self, tmp_path, monkeypatch, reciprocal, calls, sums):
        """9 links probe each direction once per stage (3 stacked calls) and
        read their gains with one more stacked call and one baseline per link
        per direction; a reciprocal uplink is the downlink, read once."""
        counts = count_calls(monkeypatch)
        raw = json.loads((SCENARIOS / "water_backscatter.json").read_text())
        raw["channel"]["reciprocal_uplink"] = reciprocal
        cmd_backscatter(scenario_from_dict(raw), tmp_path, 9)
        assert counts == {"composite_channels": calls, "baseline_channel": sums, "gains_db": 1}


class TestBenchTracerTargets:
    def test_missing_targets_are_known(self):
        """bench/tracer.py patches library names where their callers look them
        up, and a name it cannot resolve reads 0 in the per-layer metrics: the
        names it misses are exactly these eight, so a deletion or rename that
        blinds another metric fails here."""
        spec = importlib.util.spec_from_file_location("bench_tracer",
                                                      REPO / "bench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        patched = tracer.Tracer()
        try:
            patched.install()
        finally:
            patched.uninstall()
        assert patched.missing == [
            "mediamatch.matching.admittance_at_voltage",
            "mediamatch.matching.admittance_exact",
            "mediamatch.channel.admittance_at_voltage",
            "mediamatch.harness.scenario_from_dict",
            "mediamatch.channel.composite_channel",
            "mediamatch.scenario.composite_channel",
            "mediamatch.harness.stage3_fine_tune",
            "mediamatch.control.ControlTrace.record",
        ]


class TestBudgetValidation:
    def test_validate_trace_raises(self):
        trace = ControlTrace(1, 1, (30.0, 0.0))
        append(trace, 1, [[0, 0]], np.zeros((1, 1), np.uint8), [-1.0])
        with pytest.raises(BudgetError):
            validate_trace(trace, n_voltages=7, n_stage2=128)

    def test_validate_trace_checks_every_link(self):
        """A batch passes only if each of its links keeps the budget: here
        link 1 probes one stage-2 row too few."""
        trace = ControlTrace(2, 1, (30.0, 0.0))
        for stage, n_rows, rows in ((1, 2, None), (2, 2, (2, 1)), (3, 9, (9, 9))):
            _probe_many(Readings(np.zeros((2, n_rows))), trace, stage,
                        np.zeros((2, n_rows, 2), np.uint8), np.zeros((2, n_rows, 1), np.uint8),
                        rows)
        with pytest.raises(BudgetError, match="stages 2/1/9"):
            validate_trace(trace, n_voltages=2, n_stage2=2)

    def test_short_enumeration_is_violation(self, tmp_path, monkeypatch, capsys):
        """The enumeration variant's traces are budget-checked like the voting
        ones: one that probes one of its 2^groups assignments too few fails
        the command, and the CLI exits 4 before it writes any file."""
        real = harness.brute_force_baseline

        def short(oracle, trace, groups):
            real(oracle, trace, groups)
            *block, rows = trace.blocks.pop()  # leave every link's last assignment out
            trace.blocks.append((*block, tuple(n - 1 for n in rows)))
            return trace

        monkeypatch.setattr(harness, "brute_force_baseline", short)
        scenario = load_scenario(SCENARIOS / "controller_bench.json")
        with pytest.raises(BudgetError, match="stages 7/255/"):
            cmd_bench_controller(scenario, tmp_path / "direct", 2)
        rc = main(["bench-controller", "--scenario", str(SCENARIOS / "controller_bench.json"),
                   "--out", str(tmp_path / "cli"), "--links", "2"])
        assert rc == 4
        assert capsys.readouterr().err.startswith("violation: budget violation")
        assert list((tmp_path / "cli").iterdir()) == []

    @pytest.mark.parametrize("mode,target", [("bench-controller", "brute_force_baseline"),
                                             ("links", "stage1_uniform_probe")])
    def test_failed_later_batch_writes_no_csv_or_summary(self, tmp_path, monkeypatch,
                                                         mode, target):
        """A BudgetError in the second of three batches fails the command
        before it writes its CSV or summary.txt; the first batch's trace and
        channel files (links only) are left as they were written."""
        real, calls = getattr(harness, target), []

        def second_fails(oracle, trace, *args):
            calls.append(len(trace))
            if len(calls) == 2:
                raise BudgetError("budget violation: injected")
            return real(oracle, trace, *args)

        monkeypatch.setattr(harness, target, second_fails)
        monkeypatch.setattr(harness, "LINK_BATCH", 2 * 2 * 64 * 64)  # two 8x8 links a batch
        scenario = load_scenario(SCENARIOS / "controller_bench.json")
        with pytest.raises(BudgetError, match="injected"):
            harness._link_command(mode, scenario, tmp_path, 6, 1)
        assert calls == [2, 2]
        written = sorted(p.relative_to(tmp_path).as_posix()
                         for p in tmp_path.rglob("*") if p.is_file())
        assert written == ([] if mode == "bench-controller" else [
            "channels/link_0000.csv", "channels/link_0001.csv",
            "traces/link_0000.csv", "traces/link_0001.csv"])

    def test_impossible_enumeration_fails_before_probing(self, tmp_path, monkeypatch, capsys):
        """bench-controller on 17 columns (2^17 assignments, past
        ENUMERATION_CAP) is a config error raised before stage 1 probes a
        link or the output directory is made."""
        def never(*args):
            raise AssertionError("stage 1 ran")

        monkeypatch.setattr(harness, "stage1_uniform_probe", never)
        raw = json.loads((SCENARIOS / "controller_bench.json").read_text())
        raw.update(array_rows=1, array_cols=17)
        with pytest.raises(ValueError, match=r"enumeration of 2\^17 configs exceeds cap 65536"):
            cmd_bench_controller(scenario_from_dict(raw), tmp_path / "direct", 4)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(raw))
        rc = main(["bench-controller", "--scenario", str(path), "--out", str(tmp_path / "cli"),
                   "--links", "4"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: enumeration of 2^17")
        assert not (tmp_path / "direct").exists() and not (tmp_path / "cli").exists()


class TestCli:
    def test_match_ok(self, tmp_path, capsys):
        rc = main(["match", "--scenario", str(SCENARIOS / "water_match.json"),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "matched_gain_db" in capsys.readouterr().out

    def test_missing_scenario_is_config_error(self, tmp_path):
        rc = main(["match", "--scenario", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["match", "--scenario", str(bad), "--out", str(tmp_path)])
        assert rc == 2

    def test_infeasible_calibration_exit_code(self, tmp_path):
        raw = default_water_dict(name="impossible")
        raw["circuit"] = "calibrate"
        raw["calibration_target_s"] = [0.0, 10.0]
        path = tmp_path / "impossible.json"
        path.write_text(json.dumps(raw))
        rc = main(["match", "--scenario", str(path), "--out", str(tmp_path)])
        assert rc == 3

    def test_singular_stack_is_infeasible(self, tmp_path, capsys):
        """An active coupling offset that cancels 2/Z0 + Y(30 V) nulls the
        denominator of an air|air stack without layers."""
        raw = default_water_dict(name="singular", load_medium="air", layers=[])
        scenario = scenario_from_dict(raw)
        offset = -2.0 / 376.730313668 - admittance_at_voltage(scenario.circuit, 30.0,
                                                              scenario.frequency)
        raw["coupling_offset_s"] = [offset.real, offset.imag]
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(raw))
        rc = main(["links", "--scenario", str(path), "--out", str(tmp_path), "--links", "1"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("infeasible: singular stack")

    def test_out_of_memory_is_infeasible(self, tmp_path, capsys, monkeypatch):
        """A run that cannot get its memory exits 3 with a message, not a
        traceback (the command is stubbed: a test allocates nothing large)."""
        def starved(*args):
            raise MemoryError("Unable to allocate 9.21 TiB for an array")

        monkeypatch.setitem(cli._COMMANDS, "links", starved)
        rc = main(["links", "--scenario", str(SCENARIOS / "water_links.json"),
                   "--out", str(tmp_path), "--links", "1"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("infeasible: out of memory: Unable to allocate")

    def test_non_ascii_scenario_under_c_locale(self, tmp_path):
        """Scenario JSON is read and summary.txt written as UTF-8 with \\n line
        ends whatever the locale, and the printed report escapes what an
        ASCII stdout cannot hold."""
        raw = json.loads((SCENARIOS / "water_links.json").read_text(encoding="utf-8"))
        raw["name"] = "lac-d\u00e9mo \u94fe\u8def"
        path = tmp_path / "unicode.json"
        path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0")
        env.pop("PYTHONIOENCODING", None)
        done = subprocess.run([sys.executable, "-m", "mediamatch", "links", "--scenario",
                               str(path), "--out", str(tmp_path / "out"), "--links", "1"],
                              env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
        assert b"Traceback" not in done.stderr
        assert b"scenario = lac-d\\xe9mo \\u94fe\\u8def\n" in done.stdout
        summary = (tmp_path / "out" / "summary.txt").read_bytes()
        assert f"scenario = {raw['name']}\n".encode("utf-8") in summary
        assert b"\r" not in summary

    @pytest.mark.parametrize("argv", [
        ["links", "--links", "-3"],
        ["links", "--parallel", "0"],
        ["backscatter", "--links", "-1"],
        ["bench-controller", "--links", "-2"],
        ["backscatter", "--parallel", "0"],
        ["bench-controller", "--parallel", "-1"],
    ])
    def test_bad_counts_are_config_errors(self, tmp_path, capsys, argv):
        rc = main(argv + ["--scenario", str(SCENARIOS / "water_links.json"),
                          "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("config error:")
        assert captured.out == ""
        assert not (tmp_path / "summary.txt").exists()

    def test_parallel_is_bounded(self, tmp_path, capsys, monkeypatch):
        """--parallel above MAX_PARALLEL exits 2 naming the flag before the
        scenario is read (here it does not exist); MAX_PARALLEL itself runs,
        and with no link there is no batch, so no pool is made."""
        rc = main(["links", "--scenario", str(tmp_path / "absent.json"), "--out",
                   str(tmp_path / "over"), "--parallel", str(MAX_PARALLEL + 1)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "--parallel" in err
        assert not (tmp_path / "over").exists()
        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", None)
        assert main(["links", "--scenario", str(SCENARIOS / "water_links.json"), "--out",
                     str(tmp_path / "at"), "--links", "0", "--parallel", str(MAX_PARALLEL)]) == 0
        assert (tmp_path / "at" / "summary.txt").exists()

    @pytest.mark.parametrize("command", ["links", "backscatter", "bench-controller"])
    def test_parallel_flag_on_every_link_command(self, tmp_path, capsys, command):
        outputs = []
        for parallel in ("1", "2"):
            rc = main([command, "--scenario", str(SCENARIOS / "water_links.json"),
                       "--out", str(tmp_path / parallel), "--links", "2",
                       "--parallel", parallel])
            assert rc == 0
            outputs.append(capsys.readouterr().out.replace(str(tmp_path / parallel), "<out>"))
        assert outputs[0] == outputs[1]

    def test_zero_sweep_step_is_config_error(self, tmp_path, capsys):
        raw = default_water_dict(name="flat-axis")
        raw["sweep"]["gap_mm"]["step"] = 0
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(raw))
        rc = main(["sweep", "--scenario", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("mu_r", [-1.0, 0.0])
    def test_non_positive_permeability_is_config_error(self, tmp_path, capsys, mu_r):
        raw = default_water_dict(name="reactive", load_medium="reactive")
        raw["media"] = {"reactive": {"relative_permittivity": 1.0,
                                     "relative_permeability": mu_r}}
        path = tmp_path / "reactive.json"
        path.write_text(json.dumps(raw))
        rc = main(["match", "--scenario", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_seed_override_parses_once(self, tmp_path, monkeypatch):
        """--seed is applied to the file's dict before the one parse, so a
        "calibrate" circuit is calibrated once."""
        calls = []
        real = scenario_mod.calibrate_inductances
        monkeypatch.setattr(scenario_mod, "calibrate_inductances",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        raw = default_water_dict(name="cal-seed")
        raw["circuit"] = "calibrate"
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(raw))
        rc = main(["links", "--scenario", str(path), "--out", str(tmp_path / "out"),
                   "--links", "1", "--seed", "5"])
        assert rc == 0
        assert len(calls) == 1
        assert (tmp_path / "out/links.csv").read_text().split("\n")[1].startswith("0,5,")

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"water"', "null"])
    def test_non_object_scenario_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "list.json"
        path.write_text(text)
        rc = main(["links", "--scenario", str(path), "--out", str(tmp_path), "--links", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_nan_noise_is_config_error(self, tmp_path, capsys):
        raw = default_water_dict(name="nan-noise")
        raw["channel"]["noise_db"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(raw))
        rc = main(["links", "--scenario", str(path), "--out", str(tmp_path), "--links", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "links.csv").exists()

    @pytest.mark.parametrize("command, field, value", [
        ("links", "channel.element_power", float("nan")),
        ("links", "channel.env_power", float("nan")),
        ("links", "channel.env_power", -0.5),
        ("links", "channel.rss_quantization_db", float("nan")),
        ("links", "channel.rss_quantization_db", -0.1),
        ("links", "channel.rss_quantization_db", 0.0),
        ("match", "surface_index", 1.5),
        ("links", "seed", 2.5),
        ("match", "spectrum_hz.points", 4.5),
        ("match", "coupling_offset_s", [float("nan"), 0.0]),
        ("match", "coupling_offset_s", [0.0]),
        # JSON true/false is no whole number, though Python counts it as 1/0
        ("links", "seed", True),
        ("links", "array_rows", True),
        ("links", "array_cols", True),
        ("match", "surface_index", False),
        ("match", "spectrum_hz.points", True),
        # values of the wrong JSON type or length, and keys no object defines
        ("links", "voltage_set_v", "30"),
        ("backscatter", "channel.reciprocal_uplink", "false"),
        ("match", "coupling_offset_s", [0, 0, 5]),
        ("links", "channel.rss_quantization_db", True),
        ("match", "frequency_hz", "2.4e9"),
        ("match", "name", 5),
        ("sweep", "sweep.susceptance_s", [0.0, float("nan")]),
        ("links", "array_row", 16),
        ("links", "channel.env_powr", 0.25),
        ("links", "channel.phase_jitter_std", -0.3),
        # voltage sets the controller or the varactor table cannot take, for
        # every command: too few or many levels, not strictly decreasing,
        # outside the table's range
        ("match", "voltage_set_v", [30]),
        ("sweep", "voltage_set_v", list(range(256, -1, -1))),
        ("match", "voltage_set_v", [0, 30]),
        ("match", "voltage_set_v", [10, 10]),
        ("links", "voltage_set_v", [30, 20, 20]),
        ("match", "voltage_set_v", [30, 40, 0]),
        ("bench-controller", "voltage_set_v", [30.0, -1.0]),
    ])
    def test_malformed_number_is_config_error(self, tmp_path, capsys, command, field, value):
        """A malformed field, a number or otherwise, exits 2 naming the field."""
        raw = default_water_dict(name="malformed")
        *parents, key = field.split(".")
        entry = raw
        for name in parents:
            entry = entry[name]
        entry[key] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        argv = [command, "--scenario", str(path), "--out", str(out)]
        rc = main(argv + (["--links", "1"] if command in ("links", "backscatter") else []))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and field in err
        assert not out.exists()

    def test_silent_channel_finishes_every_link_command(self, tmp_path, capsys):
        """With no path power every reading is -inf; bench-controller's
        enumeration then finds no best configuration and, as links and
        backscatter do, finishes with -inf gains."""
        raw = default_water_dict(name="silent", array_rows=2, array_cols=4)
        raw["channel"].update(env_power=0, element_power=0)
        path = tmp_path / "silent.json"
        path.write_text(json.dumps(raw))
        for command in ("links", "backscatter", "bench-controller"):
            rc = main([command, "--scenario", str(path), "--out", str(tmp_path / command),
                       "--links", "2"])
            assert rc == 0
        assert "median_column_enum_db = -inf" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["scenario-dir", "out-file", "out-under-file"])
    def test_path_errors_are_config_errors(self, tmp_path, capsys, bad):
        """A directory as --scenario, an existing file as --out and an --out
        under a file end in exit 2, not a traceback."""
        scenario, out = str(SCENARIOS / "water_match.json"), tmp_path / "out"
        (tmp_path / "file").write_text("x")
        if bad == "scenario-dir":
            scenario = str(tmp_path)
        else:
            out = tmp_path / "file" / ("sub" if bad == "out-under-file" else "")
        rc = main(["match", "--scenario", scenario, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("config error:")
        assert captured.out == ""

    @pytest.mark.parametrize("command,scenario", [
        ("match", "water_match.json"), ("sweep", "water_gap_heatmap.json"),
        ("links", "water_links.json"), ("backscatter", "water_backscatter.json"),
        ("bench-controller", "controller_bench.json")])
    def test_unusable_out_fails_before_any_work(self, tmp_path, monkeypatch, capsys,
                                               command, scenario):
        """An --out naming an existing regular file ends every command in
        exit 2 before it runs a search, a sweep or a probe."""
        ran = []
        for name in ("best_admittance", "best_voltage", "reflection_spectrum",
                     "sweep_through_power", "stage1_uniform_probe"):
            monkeypatch.setattr(harness, name, lambda *a, name=name, **kw: ran.append(name))
        out = tmp_path / "file"
        out.write_text("x")
        rc = main([command, "--scenario", str(SCENARIOS / scenario), "--out", str(out)]
                  + ([] if command in ("match", "sweep") else ["--links", "2"]))
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert ran == []
        assert out.read_text() == "x"

    @pytest.mark.parametrize("argv", [
        ["match"], ["links", "--links", "0"], ["links", "--links", "1"]])
    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, argv, where):
        raw = default_water_dict(name="negative-seed")
        if where == "file":
            raw["seed"] = -5
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        rc = main(argv + ["--scenario", str(path), "--out", str(out)]
                  + (["--seed", "-5"] if where == "flag" else []))
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "seed" in err
        assert not out.exists()

    def test_seed_override_changes_hash(self, tmp_path, capsys):
        rc = main(["links", "--scenario", str(SCENARIOS / "water_links.json"),
                   "--out", str(tmp_path / "a"), "--links", "2"])
        out_a = capsys.readouterr().out
        rc = main(["links", "--scenario", str(SCENARIOS / "water_links.json"),
                   "--out", str(tmp_path / "b"), "--links", "2", "--seed", "99"])
        out_b = capsys.readouterr().out
        assert rc == 0
        hash_a = [l for l in out_a.splitlines() if l.startswith("scenario_hash")]
        hash_b = [l for l in out_b.splitlines() if l.startswith("scenario_hash")]
        assert hash_a != hash_b


class TestScenarioParsing:
    def test_calibrate_directive_matches_frozen_circuit(self):
        raw = default_water_dict(name="cal")
        raw["circuit"] = "calibrate"
        sc = scenario_from_dict(raw)
        frozen = load_scenario(SCENARIOS / "water_match.json")
        assert sc.circuit.patch_inductance == pytest.approx(
            frozen.circuit.patch_inductance, rel=1e-12)
        assert sc.circuit.bias_wire_inductance == pytest.approx(
            frozen.circuit.bias_wire_inductance, rel=1e-12)

    def test_unknown_medium_rejected(self):
        raw = default_water_dict(name="bad", load_medium="unobtanium")
        with pytest.raises(ScenarioError):
            scenario_from_dict(raw)

    def test_axis_expansion(self):
        raw = default_water_dict(name="axes")
        raw["sweep"] = {"gap_mm": {"start": 2.0, "stop": 4.0, "step": 1.0},
                        "susceptance_s": [0.0, 0.01]}
        sc = scenario_from_dict(raw)
        assert list(sc.sweeps["gap_mm"]) == [2.0, 3.0, 4.0]
        assert list(sc.sweeps["susceptance_s"]) == [0.0, 0.01]

    @pytest.mark.parametrize("step", [0, 0.0, -1.0, float("inf"), float("nan")])
    def test_bad_axis_step_rejected(self, step):
        raw = default_water_dict(name="bad-step")
        raw["sweep"]["susceptance_s"]["step"] = step
        with pytest.raises(ScenarioError, match="susceptance_s"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("axis", [
        {"start": -1e308, "stop": 1e308, "step": 1},       # the span overflows
        {"start": 0.0, "stop": 1.0, "step": 1e-300},       # far past the cap
        {"start": 0.0, "stop": scenario_mod.MAX_AXIS_POINTS, "step": 1},  # one too many
        {"start": 4.0, "stop": 2.0, "step": 1.0},          # reversed
    ])
    def test_axis_span_is_config_error(self, tmp_path, capsys, axis):
        raw = default_water_dict(name="span")
        raw["sweep"]["gap_mm"] = axis
        path = tmp_path / "span.json"
        path.write_text(json.dumps(raw))
        rc = main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: sweep.gap_mm ")

    def test_axis_at_the_point_cap(self):
        raw = default_water_dict(name="cap")
        raw["sweep"]["gap_mm"] = {"start": 1.0, "stop": scenario_mod.MAX_AXIS_POINTS, "step": 1}
        assert len(scenario_from_dict(raw).sweeps["gap_mm"]) == scenario_mod.MAX_AXIS_POINTS

    def test_infinite_axis_end_rejected(self):
        raw = default_water_dict(name="bad-stop")
        raw["sweep"]["gap_mm"]["stop"] = float("inf")
        with pytest.raises(ScenarioError, match="gap_mm"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("rows,cols", [(0, 8), (8, 0), (-2, 8)])
    def test_empty_array_rejected(self, rows, cols):
        raw = default_water_dict(name="no-array", array_rows=rows, array_cols=cols)
        with pytest.raises(ScenarioError, match="array_rows"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("rows,cols", [(200, 200), (0, 8)])
    def test_array_checked_before_calibration(self, monkeypatch, rows, cols):
        """An oversized or empty array is refused before a "calibrate" circuit
        is calibrated, with the text explicit inductances give."""
        raw = default_water_dict(name="array-first", array_rows=rows, array_cols=cols)
        with pytest.raises(ScenarioError) as explicit:
            scenario_from_dict(raw)

        def fail(*args, **kwargs):
            raise AssertionError("calibrated before the array check")

        monkeypatch.setattr(scenario_mod, "calibrate_inductances", fail)
        with pytest.raises(ScenarioError) as calibrated:
            scenario_from_dict(dict(raw, circuit="calibrate"))
        assert str(calibrated.value) == str(explicit.value)
        assert str(explicit.value).startswith("array_rows")

    def test_array_at_the_ceiling_accepted(self):
        sc = scenario_from_dict(default_water_dict(name="ceiling", array_rows=128,
                                                   array_cols=128))
        assert sc.n_elements == scenario_mod.MAX_ELEMENTS

    def test_array_past_the_ceiling_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(default_water_dict(name="big", array_rows=129,
                                                      array_cols=128)))
        rc = main(["links", "--scenario", str(path), "--out", str(tmp_path / "out"),
                   "--links", "1"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: array_rows x array_cols")
        assert not (tmp_path / "out").exists()

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 2 ** 70), cols=st.integers(1, 2 ** 70),
           calibrate=st.booleans())
    def test_oversized_array_fails_at_parse(self, rows, cols, calibrate):
        """Any array past MAX_ELEMENTS elements is refused by the parse alone,
        which allocates nothing of the array's size."""
        if rows * cols <= scenario_mod.MAX_ELEMENTS:
            rows = scenario_mod.MAX_ELEMENTS // cols + 1
        raw = default_water_dict(name="oversized", array_rows=rows, array_cols=cols)
        if calibrate:
            raw["circuit"] = "calibrate"
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match="array_rows x array_cols"):
                scenario_from_dict(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, f"parse peak {peak} B"

    @pytest.mark.parametrize("field", ["noise_db", "phase_jitter_std"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_channel_field_rejected(self, field, value):
        raw = default_water_dict(name="bad-channel")
        raw["channel"][field] = value
        with pytest.raises(ScenarioError, match=field):
            scenario_from_dict(raw)

    def test_negative_phase_jitter_rejected(self):
        """A negative jitter is an error, not a run without jitter."""
        raw = default_water_dict(name="bad-jitter")
        raw["channel"]["phase_jitter_std"] = -0.3
        with pytest.raises(ScenarioError, match="channel.phase_jitter_std must be a number >= 0"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("rows,cols", [(2.5, 8), (8, 7.9), (float("nan"), 8),
                                           (8, float("inf"))])
    def test_fractional_array_rejected(self, rows, cols):
        raw = default_water_dict(name="half-array", array_rows=rows, array_cols=cols)
        with pytest.raises(ScenarioError, match="whole number"):
            scenario_from_dict(raw)

    def test_whole_float_array_accepted(self):
        sc = scenario_from_dict(default_water_dict(name="float-array", array_rows=4.0,
                                                   array_cols=2))
        assert (sc.rows, sc.cols) == (4, 2)

    @pytest.mark.parametrize("section", ["channel", "media", "sweep"])
    def test_non_object_section_rejected(self, section):
        raw = default_water_dict(name="bad-section")
        raw[section] = [1, 2]
        with pytest.raises(ScenarioError, match=section):
            scenario_from_dict(raw)

    def test_hash_stability(self):
        a = scenario_from_dict(default_water_dict())
        b = scenario_from_dict(default_water_dict())
        assert a.scenario_hash() == b.scenario_hash()
        c = scenario_from_dict(default_water_dict(seed=2))
        assert c.scenario_hash() != a.scenario_hash()

    def test_hash_is_of_the_dict_as_parsed(self):
        raw = json.loads((SCENARIOS / "water_links.json").read_text(encoding="utf-8"))
        parsed = scenario_from_dict(raw)
        before, seed = parsed.scenario_hash(), parsed.seed
        raw["seed"] = seed + 1
        assert parsed.scenario_hash() == before
        assert scenario_from_dict(raw).scenario_hash() != before

    def test_coupling_offset_shifts_best_voltage(self):
        """Media coupling lowers the effective admittance; the voltage the
        surface needs moves accordingly, which is what the controller's
        uniform-probe stage adapts to."""
        base = scenario_from_dict(default_water_dict(name="nocouple"))
        coupled = scenario_from_dict(default_water_dict(
            name="coupled", coupling_offset_s=[0.0, -0.004]))
        rb, rc = base.responder(), coupled.responder()
        best_base = max(base.voltage_set, key=lambda v: abs(rb.s(v)))
        best_coupled = max(coupled.voltage_set, key=lambda v: abs(rc.s(v)))
        assert best_base != best_coupled
        # coupling costs little once re-tuned
        assert abs(rc.s(best_coupled)) >= 0.8 * abs(rb.s(best_base))


def _fuzz_base() -> dict:
    """default_water_dict on a 2x2 array with short sweep axes and spectrum."""
    raw = default_water_dict(name="fuzz", array_rows=2, array_cols=2)
    raw["sweep"] = {"gap_mm": {"start": 2.0, "stop": 4.0, "step": 1.0},
                    "susceptance_s": [0.0, 0.05],
                    "capacitance_pf": {"start": 0.71, "stop": 3.72, "step": 1.0}}
    raw["spectrum_hz"]["points"] = 3
    return raw


def _paths(entry, prefix=""):
    for key, value in entry.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _paths(value, prefix + key + ".")


#: Every field of the fuzzed scenario, those it leaves at their defaults, and
#: keys no object defines.
_FUZZ_PATHS = sorted(_paths(_fuzz_base())) + [
    "media", "calibration_target_s", "coupling_offset_s", "channel.phase_jitter_std",
    "array_row", "channel.env_powr", "sweep.gap_mm.stepp", "spectrum_hz.point"]
#: Values of every JSON kind, in and out of range, none of them large: a count
#: or a sweep step drawn here keeps the arrays small.  The small numbers are in
#: range for most numeric fields, so that some runs get past the parse.
_FUZZ_VALUES = st.sampled_from([
    None, True, False, 0, -1, -0.0, 2.5, float("nan"), float("inf"), float("-inf"), "", "x",
    "calibrate", "30", [], [0], [1.0, 2.0], [0, 0, 5], [float("nan")], {}, {"x": 1},
    {"start": 0, "stop": 1, "step": 0.5}, {"relative_permittivity": 0.5},
    [{"medium": "air", "thickness_mm": 1}]]) | st.sampled_from([0.25, 1, 2, 3.0, 4])
#: {start, stop, step} axes: spans that overflow or are reversed, steps that are
#: tiny, zero or negative.  Ends and steps are drawn so that an axis the cap
#: lets through has at most 11 points.
_AXIS_ENDS = st.sampled_from([-1e308, -1.0, 0.0, 0.5, 2.0, 4.0, 1e308])
_FUZZ_AXES = st.fixed_dictionaries({
    "start": _AXIS_ENDS, "stop": _AXIS_ENDS,
    "step": st.sampled_from([5e-324, 1e-300, 1e-6, 0.5, 2.0, 1e308, 0.0, -0.0, -1.0])})
_AXIS_PATHS = [f"sweep.{axis}" for axis in ("gap_mm", "susceptance_s", "capacitance_pf")]


class TestScenarioFuzz:
    @settings(max_examples=120, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(_FUZZ_PATHS), _FUZZ_VALUES)
                          | st.tuples(st.sampled_from(_AXIS_PATHS), _FUZZ_AXES),
                          min_size=1, max_size=2),
           command=st.sampled_from(["match", "sweep", "links", "backscatter", "bench-controller"]),
           links=st.integers(0, 2) | st.just(-1), parallel=st.just(1) | st.integers(-1, 0),
           seed=st.none() | st.sampled_from([-1, 0, 3]))
    def test_cli_ends_in_a_documented_exit_code(self, edits, command, links, parallel, seed):
        """One or two fields set to another JSON kind, an out-of-range value, an
        unknown key or a fuzzed sweep axis, with fuzzed counts: the CLI returns
        0, 2, 3 or 4 and never raises.  --parallel is 1 or below, so no worker
        process starts."""
        raw = _fuzz_base()
        for field, value in edits:
            *parents, key = field.split(".")
            entry = raw
            for name in parents:
                entry = entry.get(name) if isinstance(entry, dict) else None
            if isinstance(entry, dict):
                entry[key] = copy.deepcopy(value)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.json"
            path.write_text(json.dumps(raw))
            argv = [command, "--scenario", str(path), "--out", str(Path(tmp) / "out")]
            if command not in ("match", "sweep"):
                argv += ["--links", str(links), "--parallel", str(parallel)]
            if seed is not None:
                argv += ["--seed", str(seed)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
        assert rc in (0, 2, 3, 4)
        assert rc == 0 or err.getvalue().startswith(("config error:", "infeasible:", "violation:"))


class TestBenchCommand:
    def test_zero_seeds_report(self, tmp_path):
        """No seeds write the seed count, as no links write n_links = 0."""
        scenario = load_scenario(SCENARIOS / "controller_bench.json")
        report = cmd_bench_controller(scenario, tmp_path, 0)
        assert report.summary == {"n_seeds": 0}
        assert "\nn_seeds = 0\n" in (tmp_path / "summary.txt").read_text()
        assert (tmp_path / "bench_controller.csv").read_text().count("\n") == 1

    def test_one_stage1_and_one_gain_solve(self, tmp_path, monkeypatch):
        """4 seeds probe stage 1 once, stages 2 and 3 once per variant, and read
        the three variants' gains with one gains_db call: 8 stacked channel
        calls and one baseline per seed."""
        counts = count_calls(monkeypatch)
        cmd_bench_controller(load_scenario(SCENARIOS / "controller_bench.json"), tmp_path, 4)
        assert counts == {"composite_channels": 8, "baseline_channel": 4, "gains_db": 1}

    def test_small_bench_consistency(self, tmp_path):
        scenario = load_scenario(SCENARIOS / "controller_bench.json")
        report = cmd_bench_controller(scenario, tmp_path, n_seeds=8)
        assert report.summary["n_seeds"] == 8
        rows = (tmp_path / "bench_controller.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            parts = row.split(",")
            assert int(parts[5]) <= 7 + 128 + 9   # element budget
            assert int(parts[6]) <= 7 + 32 + 9    # column voting budget
            assert int(parts[7]) <= 7 + 256 + 9   # enumeration budget
