"""Scenario-driven commands: match, sweep, links, backscatter, bench-controller.

Every command consumes a Scenario, writes CSV artifacts plus a plain-text
summary into an output directory, and returns a RunReport.  All randomness is
derived from the scenario seed, so a command is reproducible from the
(scenario file, seeds) pair alone; reports embed the scenario hash.

Medians and percentiles use the lower-interpolation rule throughout
(numpy percentile method="lower").

CSV numbers: a float (numpy float64 included) is written format(x, ".12g"),
an int or a string str(x), a trace's rss_db format(x, ".10g").  table_text
renders whole columns through one line template and one ``%`` over all values.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cascade import DB_FLOOR
from .channel import (FeedbackOracle, ProductFeedbackOracle, backscatter_gain,
                      baseline_channel, oneway_gain)
from .control import (brute_force_baseline, column_groups, run_controller,
                      stage1_uniform_probe, stage3_fine_tune, ControlState,
                      ControlTrace)
from .matching import SweepGrid, best_admittance, best_voltage, reflection_spectrum, sweep_through_power
from .scenario import Scenario


class BudgetError(RuntimeError):
    """A controller trace violated the per-stage probe budget."""


def percentile_lower(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q, method="lower"))


def median_lower(values) -> float:
    return percentile_lower(values, 50.0)


@dataclass
class RunReport:
    command: str
    scenario_name: str
    scenario_hash: str
    summary: dict = field(default_factory=dict)
    csv_paths: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"command = {self.command}",
                 f"scenario = {self.scenario_name}",
                 f"scenario_hash = {self.scenario_hash}"]
        lines += [f"{key} = {value:.6g}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in self.summary.items()]
        lines += [f"artifact = {p}" for p in self.csv_paths]
        return "\n".join(lines) + "\n"


def _column(values) -> tuple[str, list]:
    """A column's format and values: '%.12g' if every value is a float, else
    '%s' with any float in it rendered by format(x, ".12g")."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return "%.12g", values.tolist()
    values = list(values)
    if all(isinstance(x, float) for x in values):
        return "%.12g", values
    return "%s", [format(x, ".12g") if isinstance(x, float) else x for x in values]


def table_text(header: str, columns) -> str:
    """CSV text of equal-length columns (a sequence of them) under a header."""
    formats, columns = zip(*map(_column, columns)) if len(columns) else ((), ((),))
    flat = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        flat[k::len(columns)] = column
    return header + "\n" + (",".join(formats) + "\n") * len(columns[0]) % tuple(flat)


def write_table(path: Path, header: str, columns) -> str:
    """Write table_text(header, columns) to path (whose folder must exist)."""
    path.write_text(table_text(header, columns), encoding="utf-8", newline="\n")
    return str(path)


def _finish(report: RunReport, out_dir: Path) -> RunReport:
    (out_dir / "summary.txt").write_text(report.render())
    return report


def validate_trace(trace: ControlTrace, n_voltages: int, n_stage2: int) -> None:
    """Assert the 8/2N/9-style probe budget from the trace itself."""
    s1, s2, s3 = (trace.stage_probe_count(stage) for stage in (1, 2, 3))
    if s1 != n_voltages or s2 != n_stage2 or s3 > 9:
        raise BudgetError(
            f"budget violation: stages {s1}/{s2}/{s3}, expected "
            f"{n_voltages}/{n_stage2}/<=9")


# ---------------------------------------------------------------------------
# match

def cmd_match(scenario: Scenario, out_dir) -> RunReport:
    """Continuous + voltage matching and the reflection-reduction spectra."""
    stack = scenario.stack()
    f = scenario.frequency

    adm = best_admittance(stack, f)
    volt = best_voltage(stack, scenario.circuit, f, scenario.voltage_set)

    spectrum_a = reflection_spectrum(stack, scenario.spectrum, ys=adm.best_admittance)
    spectrum_v = reflection_spectrum(stack, scenario.spectrum,
                                     circuit=scenario.circuit, voltage=volt.best_voltage)

    report = RunReport("match", scenario.name, scenario.scenario_hash())
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, spectrum in (("admittance", spectrum_a), ("voltage", spectrum_v)):
        fr, refl, red = zip(*spectrum)
        report.csv_paths.append(write_table(
            out_dir / f"spectrum_{name}.csv", "frequency_hz,reflection_db,reduction_db",
            [fr, [max(r, DB_FLOOR) for r in refl], red]))

    at_f0 = min(spectrum_a, key=lambda row: abs(row[0] - f))
    report.summary.update({
        "best_susceptance_s": adm.best_admittance.imag,
        "matched_through_db": adm.through_power_db,
        "baseline_through_db": adm.baseline_db,
        "matched_gain_db": adm.gain_db,
        "best_voltage_v": volt.best_voltage,
        "voltage_through_db": volt.through_power_db,
        "voltage_gain_db": volt.gain_db,
        "reduction_at_center_db": at_f0[2],
    })
    return _finish(report, out_dir)


# ---------------------------------------------------------------------------
# sweep

_AXIS1 = ("gap_mm", "fat_mm")
_AXIS2 = ("susceptance_s", "capacitance_pf")


def cmd_sweep(scenario: Scenario, out_dir) -> RunReport:
    """Heatmap CSVs over every configured (structure x surface) axis pair."""
    report = RunReport("sweep", scenario.name, scenario.scenario_hash())

    pairs = [(a1, a2) for a1 in _AXIS1 for a2 in _AXIS2
             if a1 in scenario.sweeps and a2 in scenario.sweeps]
    if not pairs:
        raise ValueError("scenario defines no sweepable axis pair")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    axes = {a: np.asarray(scenario.sweeps[a], dtype=float) for pair in pairs for a in pair}
    # each axis value formatted once, to the text table_text gives a float; the
    # axis columns repeat references to these strings, not one string per cell
    text = {a: ["%.12g" % x for x in v.tolist()] for a, v in axes.items()}
    for a1, a2 in pairs:
        v1, v2 = axes[a1], axes[a2]
        grid = SweepGrid(a1, tuple(v1), a2, tuple(v2), scenario.frequency)
        matrix = sweep_through_power(lambda v: scenario.stack(**{a1: v}), grid,
                                     circuit=scenario.circuit)
        report.csv_paths.append(write_table(
            out_dir / f"sweep_{a1}_{a2}.csv", "axis1,axis2,through_power_db",
            [[s for s in text[a1] for _ in range(len(v2))], text[a2] * len(v1), matrix.ravel()]))
        report.summary[f"max_db[{a1}x{a2}]"] = float(matrix.max())
    return _finish(report, out_dir)


# ---------------------------------------------------------------------------
# links, backscatter, bench-controller: one per-link pipeline

#: Stage-2 probe count for the column-granularity voting variant; the
#: 8-column benchmark runs 32 random configurations.
COLUMN_VOTING_CONFIGS = 32


def _link_seeds(scenario: Scenario, index: int) -> tuple[int, int, int]:
    """(channel seed, voting rng seed, uplink channel seed) for one link."""
    base = scenario.seed * 1000000 + index
    return base, base + 500000, base + 10000019


def _enum_pipeline(oracle, scenario: Scenario, groups):
    """Stage 1 + exhaustive on/off enumeration + stage-3 fine tune."""
    trace = ControlTrace()
    v1, v0, _ = stage1_uniform_probe(oracle, scenario.voltage_set,
                                     scenario.n_elements, trace)
    if v1 == v0:
        v0 = min(scenario.voltage_set)
    cfg, _, _ = brute_force_baseline(oracle, groups, v1, v0, scenario.n_elements,
                                     trace=trace)
    # no configuration reads above -inf (a silent channel): stage 3 starts all off
    on_set = frozenset() if cfg is None else frozenset(
        i for i, v in enumerate(cfg.voltages) if v == v1 and v1 != v0)
    state = ControlState(v1=v1, v0=v0, on_set=on_set)
    final = stage3_fine_tune(oracle, scenario.voltage_set, state,
                             scenario.n_elements, trace)
    return final, trace


def run_link(scenario: Scenario, responder, index: int, mode: str):
    """Link `index` of the links, backscatter or bench-controller command.

    Returns (CSV row, files): files maps a path under the output directory to
    its text, the link's trace and channel dump for links and none otherwise.
    """
    ch_seed, rng_seed, up_seed = _link_seeds(scenario, index)
    channel = scenario.sample_link_channel(ch_seed, responder)
    n, vs = scenario.n_elements, scenario.voltage_set

    def control(oracle, n_configs=None, groups=None):
        cfg, trace = run_controller(oracle, n, voltages=vs, rng_seed=rng_seed,
                                    n_configs=n_configs, groups=groups)
        validate_trace(trace, len(vs), n_configs or 2 * n)
        return cfg, trace

    def feedback():
        return FeedbackOracle(channel, noise_db=scenario.channel.noise_db,
                              quantization_db=scenario.channel.rss_quantization_db,
                              noise_seed=ch_seed)

    if mode == "backscatter":
        uplink = channel if scenario.channel.reciprocal_uplink \
            else scenario.sample_link_channel(up_seed, responder)
        cfg, _ = control(ProductFeedbackOracle(
            channel, uplink, quantization_db=scenario.channel.rss_quantization_db))
        return (index, ch_seed, oneway_gain(channel, cfg), oneway_gain(uplink, cfg),
                backscatter_gain(channel, uplink, cfg)), {}
    if mode == "bench-controller":
        cols = column_groups(scenario.rows, scenario.cols)
        cfg_e, tr_e = control(feedback())
        cfg_c, tr_c = control(feedback(), COLUMN_VOTING_CONFIGS, cols)
        cfg_n, tr_n = _enum_pipeline(feedback(), scenario, cols)
        return (index, ch_seed, *(oneway_gain(channel, c) for c in (cfg_e, cfg_c, cfg_n)),
                tr_e.budget_used, tr_c.budget_used, tr_n.budget_used), {}

    cfg, trace = control(feedback())
    base_db = float(20.0 * np.log10(abs(baseline_channel(channel))))
    stage1_db = trace.best_probe(through_stage=1).rss_db
    stage2_db = trace.best_probe(through_stage=2).rss_db
    final_db = trace.best_probe().rss_db
    h = channel.h_elements
    dump = [["env"] + [f"element_{i}" for i in range(len(h))],
            [channel.h_env.real] + h.real.tolist(), [channel.h_env.imag] + h.imag.tolist()]
    return (index, ch_seed, base_db, final_db, oneway_gain(channel, cfg),
            stage1_db - base_db, stage2_db - base_db, final_db - stage2_db,
            *(trace.stage_probe_count(s) for s in (1, 2, 3))), {
        f"traces/link_{index:04d}.csv": trace.serialize(),
        f"channels/link_{index:04d}.csv": table_text("path,re,im", dump)}


#: A worker process's (scenario, responder), built once by _start_worker.
_worker_state = None


def _start_worker(scenario: Scenario) -> None:
    global _worker_state
    _worker_state = (scenario, scenario.responder())


def _worker_link(index: int, mode: str):
    return run_link(*_worker_state, index, mode)


#: The CSV each link command writes, and its header.
_LINK_CSV = {
    "links": ("links.csv", "link,seed,baseline_db,final_db,gain_db,stage1_gain_db,"
              "stage12_gain_db,stage3_increment_db,probes_stage1,probes_stage2,probes_stage3"),
    "backscatter": ("backscatter.csv", "link,seed,gain_down_db,gain_up_db,backscatter_db"),
    "bench-controller": ("bench_controller.csv", "seed_index,seed,element_voting_db,"
                         "column_voting_db,column_enum_db,probes_element,probes_column,"
                         "probes_enum"),
}


def _run_links(mode: str, scenario: Scenario, out_dir: Path, n_links: int,
               parallel: int) -> tuple[RunReport, list[tuple]]:
    """run_link over links 0..n_links-1, in `parallel` worker processes when
    that is above 1, with one responder per process.  Writes every link's
    files and the command's CSV; returns the report and the rows in link order."""
    if parallel > 1 and n_links > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=parallel, initializer=_start_worker,
                initargs=(scenario,)) as pool:
            results = list(pool.map(_worker_link, range(n_links), [mode] * n_links))
    else:
        responder = scenario.responder()
        results = [run_link(scenario, responder, i, mode) for i in range(n_links)]
    out_dir.mkdir(parents=True, exist_ok=True)
    for folder in {Path(name).parent for _, files in results for name in files}:
        (out_dir / folder).mkdir(exist_ok=True)
    for _, files in results:
        for name, text in files.items():
            (out_dir / name).write_text(text, encoding="utf-8", newline="\n")
    rows = [row for row, _ in results]
    report = RunReport(mode, scenario.name, scenario.scenario_hash())
    name, header = _LINK_CSV[mode]
    report.csv_paths.append(write_table(out_dir / name, header, list(zip(*rows))))
    return report, rows


def cmd_links(scenario: Scenario, out_dir, n_links: int, parallel: int = 1) -> RunReport:
    """Sample n_links seeded channels and run the controller on each."""
    report, rows = _run_links("links", scenario, Path(out_dir), n_links, parallel)
    report.summary["n_links"] = len(rows)
    if rows:
        gains = [r[4] for r in rows]
        report.summary.update({
            "median_gain_db": median_lower(gains),
            "p10_gain_db": percentile_lower(gains, 10.0),
            "p90_gain_db": percentile_lower(gains, 90.0),
            "max_gain_db": float(max(gains)),
            "total_probes": sum(sum(r[8:]) for r in rows),
        })
    return _finish(report, Path(out_dir))


def cmd_backscatter(scenario: Scenario, out_dir, n_links: int, parallel: int = 1) -> RunReport:
    """Two-way emulation: controller driven by the product-channel feedback."""
    report, rows = _run_links("backscatter", scenario, Path(out_dir), n_links, parallel)
    report.summary["n_links"] = len(rows)
    if rows:
        bs = [r[4] for r in rows]
        report.summary.update({
            "median_backscatter_db": median_lower(bs),
            "max_backscatter_db": float(max(bs)),
            "median_oneway_db": median_lower([r[2] for r in rows]),
            "reciprocal_uplink": scenario.channel.reciprocal_uplink,
        })
    return _finish(report, Path(out_dir))


def cmd_bench_controller(scenario: Scenario, out_dir, n_seeds: int = 100,
                         parallel: int = 1) -> RunReport:
    """Randomized voting vs exhaustive enumeration vs column-wise control."""
    report, rows = _run_links("bench-controller", scenario, Path(out_dir), n_seeds, parallel)
    if rows:
        elem, colv, enum = (median_lower([r[c] for r in rows]) for c in (2, 3, 4))
        report.summary.update({
            "n_seeds": len(rows),
            "median_element_voting_db": elem,
            "median_column_voting_db": colv,
            "median_column_enum_db": enum,
            "voting_vs_enum_db": enum - colv,
            "element_vs_column_db": elem - colv,
        })
    return _finish(report, Path(out_dir))
