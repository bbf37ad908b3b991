"""Scenario-driven commands: match, sweep, links, backscatter, bench-controller.

Every command consumes a Scenario, writes CSV artifacts plus a plain-text
summary into an output directory, and returns a RunReport.  Every random
stream is a link_stream of the scenario seed, so the scenario file alone
reproduces a command; reports embed the scenario hash.  The link commands
are rows of one table, _LINK_COMMANDS (CSV, header, count key, summary by
column name), run by _link_command; run_links writes its links' files.

Medians and percentiles use the lower-interpolation rule throughout
(numpy percentile method="lower").
"""

from __future__ import annotations

import collections
import concurrent.futures
import copy
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cascade import DB_FLOOR
from .channel import FeedbackOracle, gains_db
from .control import (ControlTrace, LinkBatch, brute_force_baseline, check_enumerable,
                      column_groups, run_controllers, stage1_uniform_probe)
from .matching import SweepGrid, best_admittance, best_voltage, reflection_spectrum, sweep_through_power
from .scenario import (CHANNEL_STREAM, NOISE_STREAM, UPLINK_STREAM, VOTING_STREAM, Scenario,
                       link_stream)
from .surface import admittances, varactor_at
from .table import write_table


class BudgetError(RuntimeError):
    """A controller trace violated the per-stage probe budget."""


def percentiles_lower(values, qs) -> list[float]:
    """The qs-th percentiles of values by numpy's method="lower" rule, from
    one sorted copy: the value at floor((n - 1) * q / 100), NaN for every q if
    any value is NaN."""
    ordered = np.sort(np.asarray(values, dtype=float)).tolist()  # NaNs sort last
    return [math.nan if math.isnan(ordered[-1]) else
            ordered[math.floor((len(ordered) - 1) * (q / 100))] for q in qs]


def median_lower(values) -> float:
    return percentiles_lower(values, [50.0])[0]


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


def _finish(report: RunReport, out_dir: Path) -> RunReport:
    (out_dir / "summary.txt").write_bytes(report.render().encode())
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

#: Header and row template (see table.py) of a spectrum, a heatmap and a channel dump.
_SPECTRUM = ("frequency_hz,reflection_db,reduction_db", "%.12g,%.12g,%.12g")
_SWEEP = ("axis1,axis2,through_power_db", "%s,%s,%.12g")
_CHANNEL_DUMP = ("path,re,im", "%s,%.12g,%.12g")


def cmd_match(scenario: Scenario, out_dir) -> RunReport:
    """Continuous + voltage matching and the reflection-reduction spectra."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stack = scenario.stack()
    f = scenario.frequency

    adm = best_admittance(stack, f)
    volt = best_voltage(stack, scenario.circuit, f, scenario.voltage_set)

    spectrum_a = reflection_spectrum(stack, scenario.spectrum, adm.best_admittance)
    circuit = scenario.circuit
    spectrum_v = reflection_spectrum(stack, scenario.spectrum, admittances(
        circuit, *varactor_at(circuit.varactors, volt.best_voltage), scenario.spectrum))

    report = RunReport("match", scenario.name, scenario.scenario_hash())
    for name, spectrum in (("admittance", spectrum_a), ("voltage", spectrum_v)):
        fr, refl, red = zip(*spectrum)
        report.csv_paths.append(write_table(
            out_dir / f"spectrum_{name}.csv", *_SPECTRUM,
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
    # each axis value formatted once as a float cell is; the axis columns are
    # text columns repeating references to these strings, not one per cell
    text = {a: ["%.12g" % x for x in v.tolist()] for a, v in axes.items()}
    for a1, a2 in pairs:
        v1, v2 = axes[a1], axes[a2]
        grid = SweepGrid(a1, tuple(v1), a2, tuple(v2), scenario.frequency)
        matrix = sweep_through_power(lambda v: scenario.stack(**{a1: v}), grid,
                                     circuit=scenario.circuit)
        axis1 = [s for s in text[a1] for _ in text[a2]]
        report.csv_paths.append(write_table(out_dir / f"sweep_{a1}_{a2}.csv", *_SWEEP,
                                            [axis1, text[a2] * len(v1), matrix.ravel().tolist()]))
        report.summary[f"max_db[{a1}x{a2}]"] = float(matrix.max())
    return _finish(report, out_dir)


# ---------------------------------------------------------------------------
# links, backscatter, bench-controller: one per-link pipeline

#: Stage-2 probe count for the column-granularity voting variant; the
#: 8-column benchmark runs 32 random configurations.
COLUMN_VOTING_CONFIGS = 32


#: Stage-2 probe bits (2N^2 a link, packed in 2N ceil(N/8) bytes) one batch of
#: links may hold: 16 links of 8 x 8, one of 16 x 16 or larger, at least one.
LINK_BATCH = 2 ** 17


def run_links(scenario: Scenario, responder, indices, mode: str, out_dir: Path) -> list[tuple]:
    """Links `indices` of the links, backscatter or bench-controller command,
    run as one batch: every controller stage probes all of them at once.

    One flow for every command: one FeedbackOracle over the sampled channels
    (two-way over the uplinks too for backscatter, which gets no noise_db),
    stage 1 probed once, each controller variant (three for bench-controller)
    run on from a fork of it with its own oracle copy and budget-checked, and
    one gains_db call for every variant's gains.

    Returns one CSV row per link, in order, under _LINK_COMMANDS[mode]'s
    header.  For links it also writes each link's trace (all of the batch's
    traces rendered by one ControlTrace.serialize call) and channel dump to
    out_dir (which must exist).  A link's row and files depend only on the
    scenario and its index, not on the links it shares the batch with.
    """
    def streams(stream):
        return [link_stream(scenario.seed, i, stream) for i in indices]

    channels = [scenario.sample_link_channel(s, responder) for s in streams(CHANNEL_STREAM)]
    n, vs, params = scenario.n_elements, scenario.voltage_set, scenario.channel
    uplinks = None
    if mode == "backscatter":
        uplinks = channels if params.reciprocal_uplink \
            else [scenario.sample_link_channel(s, responder) for s in streams(UPLINK_STREAM)]
    noisy = uplinks is None and params.noise_db is not None
    oracle = FeedbackOracle(channels, uplinks, params.noise_db if noisy else None,
                            params.rss_quantization_db, streams(NOISE_STREAM) if noisy else 0)
    start = stage1_uniform_probe(oracle, LinkBatch.new(len(channels), n), vs, n)

    variants = [(2 * n, None, None)]  # (stage-2 probes, control groups, stage 2)
    if mode == "bench-controller":
        cols = column_groups(scenario.rows, scenario.cols)
        variants += [(COLUMN_VOTING_CONFIGS, cols, None),
                     (2 ** len(cols), cols, brute_force_baseline)]
    runs, voting = [], streams(VOTING_STREAM)
    for n_stage2, groups, stage2 in variants:
        runs.append(run_controllers(copy.copy(oracle), n, vs, n_stage2, voting, groups,
                                    stage2, start.fork()))
        for trace in runs[-1].traces:
            validate_trace(trace, len(vs), n_stage2)
    bests = [[trace.best() for trace in run.traces] for run in runs]
    gains = gains_db(channels, [config for run in bests for config, _ in run], uplinks).tolist()

    if mode == "backscatter":  # down, up and two-way gain rows
        return [(i, scenario.seed, *row) for i, *row in zip(indices, *gains)]
    if mode == "bench-controller":  # variant v's gain of link k is gains[0][v*L + k]
        return [(i, scenario.seed, *gains[0][k::len(channels)],
                 *(run.traces[k].budget_used for run in runs))
                for k, i in enumerate(indices)]
    for folder in ("traces", "channels"):
        (out_dir / folder).mkdir(exist_ok=True)
    traces, rows = runs[0].traces, []
    paths = ["env"] + [f"element_{e}" for e in range(n)]
    for i, channel, trace, text, (_, (stage1_db, stage2_db, final_db)), gain, base in zip(
            indices, channels, traces, ControlTrace.serialize(*traces), bests[0], *gains):
        h = channel.h_elements
        rows.append((i, scenario.seed, base, final_db, gain,
                     stage1_db - base, stage2_db - base, final_db - stage2_db,
                     *(trace.stage_probe_count(s) for s in (1, 2, 3))))
        (out_dir / f"traces/link_{i:04d}.csv").write_bytes(text.encode())
        write_table(out_dir / f"channels/link_{i:04d}.csv", *_CHANNEL_DUMP,
                    [paths, [channel.h_env.real] + h.real.tolist(),
                     [channel.h_env.imag] + h.imag.tolist()])
    return rows


#: A worker process's (scenario, responder), built once by _start_worker.
_worker_state = None


def _start_worker(scenario: Scenario) -> None:
    global _worker_state
    _worker_state = (scenario, scenario.responder())


def _worker_links(indices: range, mode: str, out_dir: Path) -> list[tuple]:
    return run_links(*_worker_state, indices, mode, out_dir)


def _batches(scenario: Scenario, n_links: int, parallel: int) -> list[range]:
    """Links 0..n_links-1 cut into contiguous batches of near-equal size: as
    few as hold at most LINK_BATCH stage-2 probe bits each (one link at
    least), but no fewer than `parallel` while there are links to spread."""
    n = scenario.n_elements
    count = max(-(-n_links // max(1, LINK_BATCH // (2 * n * n))), min(parallel, n_links))
    edges = [n_links * k // count for k in range(count + 1)] if count else [0]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


#: Each link command by run_links mode: the CSV of its run_links rows and, when it
#: ran a link, its summary of (the scenario, the CSV's columns by header name).
_LinkCommand = collections.namedtuple("_LinkCommand", "csv header line count_key summary")
_LINK_COMMANDS = {
    "links": _LinkCommand(
        "links.csv", "link,seed,baseline_db,final_db,gain_db,stage1_gain_db,stage12_gain_db,"
        "stage3_increment_db,probes_stage1,probes_stage2,probes_stage3",
        "%s,%s,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s,%s,%s",
        "n_links", lambda scenario, col: {
            **dict(zip(("median_gain_db", "p10_gain_db", "p90_gain_db"),
                       percentiles_lower(col["gain_db"], (50.0, 10.0, 90.0)))),
            "max_gain_db": float(max(col["gain_db"])),
            "total_probes": sum(sum(col[f"probes_stage{s}"]) for s in (1, 2, 3))}),
    "backscatter": _LinkCommand(
        "backscatter.csv", "link,seed,gain_down_db,gain_up_db,backscatter_db",
        "%s,%s,%.12g,%.12g,%.12g", "n_links", lambda scenario, col: {
            "median_backscatter_db": median_lower(col["backscatter_db"]),
            "max_backscatter_db": float(max(col["backscatter_db"])),
            "median_oneway_db": median_lower(col["gain_down_db"]),
            "reciprocal_uplink": scenario.channel.reciprocal_uplink}),
    "bench-controller": _LinkCommand(
        "bench_controller.csv", "seed_index,seed,element_voting_db,column_voting_db,"
        "column_enum_db,probes_element,probes_column,probes_enum",
        "%s,%s,%.12g,%.12g,%.12g,%s,%s,%s", "n_seeds", lambda scenario, col: {
            "median_element_voting_db": (elem := median_lower(col["element_voting_db"])),
            "median_column_voting_db": (colv := median_lower(col["column_voting_db"])),
            "median_column_enum_db": (enum := median_lower(col["column_enum_db"])),
            "voting_vs_enum_db": enum - colv, "element_vs_column_db": elem - colv}),
}


def _link_command(mode: str, scenario: Scenario, out_dir, n_links: int,
                  parallel: int) -> RunReport:
    """run_links over links 0..n_links-1, batch by batch: serially, or as one
    task per batch in min(parallel, batches) worker processes with one
    responder each, each batch writing its own links' files.  Then writes
    _LINK_COMMANDS[mode]'s CSV and summary, which a failed batch leaves out."""
    csv, header, line, count_key, summary = _LINK_COMMANDS[mode]
    if mode == "bench-controller":
        check_enumerable(scenario.cols)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    batches = _batches(scenario, n_links, parallel)
    workers = min(parallel, len(batches))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_start_worker,
                initargs=(scenario,)) as pool:
            done = list(pool.map(_worker_links, batches, [mode] * len(batches),
                                 [out_dir] * len(batches)))
    else:
        responder = scenario.responder()
        done = [run_links(scenario, responder, batch, mode, out_dir) for batch in batches]
    columns = list(zip(*(row for batch in done for row in batch)))
    report = RunReport(mode, scenario.name, scenario.scenario_hash())
    report.csv_paths.append(write_table(out_dir / csv, header, line, columns))
    report.summary[count_key] = n_links
    if n_links:
        report.summary.update(summary(scenario, dict(zip(header.split(","), columns))))
    return _finish(report, out_dir)


def cmd_links(scenario: Scenario, out_dir, n_links: int, parallel: int = 1) -> RunReport:
    """Sample n_links seeded channels and run the controller on each."""
    return _link_command("links", scenario, out_dir, n_links, parallel)


def cmd_backscatter(scenario: Scenario, out_dir, n_links: int, parallel: int = 1) -> RunReport:
    """Two-way emulation: controller driven by the product-channel feedback."""
    return _link_command("backscatter", scenario, out_dir, n_links, parallel)


def cmd_bench_controller(scenario: Scenario, out_dir, n_seeds: int = 100,
                         parallel: int = 1) -> RunReport:
    """Randomized voting vs exhaustive enumeration vs column-wise control."""
    return _link_command("bench-controller", scenario, out_dir, n_seeds, parallel)
