"""Harness commands, golden heatmaps, CSV determinism, CLI exit codes."""

import contextlib
import copy
import hashlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mediamatch import scenario as scenario_mod
from mediamatch.cli import main
from mediamatch.harness import (BudgetError, cmd_backscatter, cmd_bench_controller,
                                cmd_links, cmd_match, cmd_sweep, median_lower,
                                run_link, table_text, validate_trace, write_table)
from mediamatch.control import ControlTrace
from mediamatch.surface import admittance_at_voltage
from mediamatch.scenario import (ScenarioError, default_tissue_dict,
                                 default_water_dict, load_scenario,
                                 scenario_from_dict)

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


def row_csv_text(header: str, rows) -> str:
    """The per-value CSV formatter the commands used before table_text: the
    reference its bytes are checked against."""
    return "".join([header + "\n"] + [
        ",".join(format(x, ".12g") if isinstance(x, float) else str(x) for x in row) + "\n"
        for row in rows])


_EDGE_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e300, -5e300,
                5e-324, 2.2250738585072014e-308, 1e-310, 0.1, 1 / 3, 123456789012.5]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_subnormal=True))
_ints = st.one_of(st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1))

#: Column kinds: each draws one value of the kind for a given row count.
_KINDS = {
    "float": _floats,
    "np.float64": _floats.map(np.float64),
    "np.float32": st.floats(width=32).map(np.float32),
    "int": _ints,
    "np.int64": st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    "np.int32": st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
    "bool": st.booleans(),
    "str": st.text(max_size=8),
    "mixed": st.one_of(_floats, _ints, _floats.map(np.float64)),
}


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 12))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(_KINDS) + ["float64 array"]),
                              min_size=1, max_size=6)):
        if kind == "float64 array":
            columns.append(np.array(draw(st.lists(_floats, min_size=n_rows,
                                                  max_size=n_rows)), dtype=float))
        else:
            values = draw(st.lists(_KINDS[kind], min_size=n_rows, max_size=n_rows))
            columns.append(draw(st.sampled_from([values, tuple(values)])))
    return columns


class TestTableText:
    """table_text renders whole columns with one template, byte for byte what
    the per-value formatter gives: floats '.12g', anything else str."""

    @settings(max_examples=300, deadline=None)
    @given(_tables())
    @example([np.array(_EDGE_FLOATS), list(range(len(_EDGE_FLOATS))),
              [np.float64(x) for x in _EDGE_FLOATS], [str(x) for x in _EDGE_FLOATS]])
    def test_matches_per_value_formatter(self, columns):
        rows = list(zip(*columns))
        header = ",".join(f"c{k}" for k in range(len(columns)))
        assert table_text(header, columns) == row_csv_text(header, rows)

    def test_no_rows_and_no_columns(self):
        assert table_text("a,b", [[], ()]) == "a,b\n"
        assert table_text("a,b", []) == "a,b\n"

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            table_text("a,b", [[1.0, 2.0], [3.0]])

    def test_write_table_bytes(self, tmp_path):
        columns = [["env", "element_0"], [0.5, -0.0], np.array([float("nan"), 1e-310])]
        path = write_table(tmp_path / "t.csv", "path,re,im", columns)
        assert path == str(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == \
            row_csv_text("path,re,im", zip(*columns)).encode()


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

    def test_32x32_link_memory_peak(self):
        """One 32x32 link allocates at most 12 MB at its peak: stage 2 never
        holds all of its masks' raw words or a whole-matrix temporary."""
        raw = json.loads((SCENARIOS / "water_links.json").read_text())
        raw.update(array_rows=32, array_cols=32)
        raw["channel"]["element_power"] = 1.0 / 1024
        scenario = scenario_from_dict(raw)
        responder = scenario.responder()
        tracemalloc.start()
        try:
            row, files = run_link(scenario, responder, 0, "links")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row[-2] == 2 * 1024  # stage-2 probes
        assert len(files["traces/link_0000.csv"].splitlines()) == 1 + sum(row[-3:])
        assert peak <= 12 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

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


class TestBudgetValidation:
    def test_validate_trace_raises(self):
        trace = ControlTrace()
        trace.append(1, (30.0,), [[0]], [-1.0])
        with pytest.raises(BudgetError):
            validate_trace(trace, n_voltages=7, n_stage2=128)


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
        assert (tmp_path / "out/links.csv").read_text().split("\n")[1].startswith("0,5000000,")

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

    @pytest.mark.parametrize("field", ["noise_db", "phase_jitter_std"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_channel_field_rejected(self, field, value):
        raw = default_water_dict(name="bad-channel")
        raw["channel"][field] = value
        with pytest.raises(ScenarioError, match=field):
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
