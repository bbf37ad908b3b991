"""The benchmark's workloads: seeded inputs, one op per user study, output checks.

An op is one call (or, for physics, one pair of calls) into a
``mediamatch.harness.cmd_*`` command on one generated scenario.  Inputs are
generated here from the workload seed; the library only ever receives the
generated scenario dicts.  Every op's outputs are read back from the files the
command wrote (and from its RunReport) and checked; a failed check is
recorded on the op, never raised.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FREQUENCY_HZ = 2.4e9
VOLTAGES = (30.0, 20.0, 15.0, 10.0, 5.0, 2.5, 0.0)
#: best_admittance's default search range; the oracle optimum is clipped to it.
SEARCH_RANGE_S = (0.0, 0.12)
#: Largest allowed |library - oracle| through power, matched or per sweep cell.
TOLERANCE_DB = 0.01
GAP_MM = (2.0, 12.0)
FAT_MM = (5.0, 50.0)
SKIN_MM = 2.5
COLUMN_VOTING_CONFIGS = 32
#: Distinct op inputs generated per run; ops cycle through them.
POOL = {"physics": 512, "links64": 512, "links1024": 32}

SWEEP_AXES = {
    "gap_mm": {"start": 2.0, "stop": 12.0, "step": 1.0},
    "fat_mm": {"start": 5.0, "stop": 50.0, "step": 5.0},
    "susceptance_s": {"start": 0.0, "stop": 0.12, "step": 0.002},
    "capacitance_pf": {"start": 0.71, "stop": 3.72, "step": 0.05},
}

WORKLOADS = {
    "physics": {
        "why": "op: cmd_match+cmd_sweep on one seeded water or tissue stack (susceptance and "
               "capacitance sweeps); cascade/surface/matching do the work, so the closed-form "
               "kernel must show here",
        "op": "cmd_match + cmd_sweep on one air|water (gap sweep) or air|skin|fat|muscle "
              "(fat sweep) stack, each swept over susceptance and capacitance; kinds cycle "
              "water, tissue, tissue; gap and fat thickness drawn from the seed",
    },
    "links64": {
        "why": "op: cmd_links (9 links), cmd_backscatter (9) or cmd_bench_controller (4 seeds) "
               "on a seeded 8x8 scenario (ROADMAP's CLI runs / 5); per-link overhead, which "
               "one run_link pipeline must cut in all three",
        "op": "one of cmd_links (9 links), cmd_backscatter (9 links, uplink reciprocal on "
              "every other one) or cmd_bench_controller (4 seeds) on one generated 8x8 "
              "scenario, in that cycle; stack kind alternates water/tissue",
    },
    "links1024": {
        "why": "op: cmd_links (1 link) on one seeded 32x32 scenario; O(N^2) stage-2 config "
               "building and per-probe hashing dominate, so index-based configurations must "
               "show here",
        "op": "cmd_links (1 link) on one generated 32x32 water scenario",
    },
}


# ---------------------------------------------------------------------------
# input generation

def _radical_inverse(i: int, base: int) -> float:
    out, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        out += digit * scale
        scale /= base
    return out


def _spread(i: int, base: int, shift: float, lo: float, hi: float) -> float:
    """i-th point of a shifted van der Corput sequence on [lo, hi).

    Every prefix of the sequence covers the range evenly, so the op mix of a
    short run and of a long run have the same shape; the seed sets the shift.
    """
    return lo + (hi - lo) * ((_radical_inverse(i + 1, base) + shift) % 1.0)


def _scenario_dict(name, tissue, gap_mm, fat_mm, circuit, rows, seed, sweep,
                   reciprocal=True) -> dict:
    layers = [{"medium": "air", "thickness_mm": gap_mm}]
    if tissue:
        layers += [{"medium": "skin", "thickness_mm": SKIN_MM},
                   {"medium": "fat", "thickness_mm": fat_mm}]
    return {
        "name": name,
        "frequency_hz": FREQUENCY_HZ,
        "source_medium": "air",
        "load_medium": "muscle" if tissue else "water",
        "layers": layers,
        "surface_index": 0,
        "circuit": dict(circuit),
        "voltage_set_v": list(VOLTAGES),
        "array_rows": rows,
        "array_cols": rows,
        "channel": {"env_power": 0.25, "element_power": 1.0 / (rows * rows),
                    "noise_db": None, "rss_quantization_db": 0.1,
                    "reciprocal_uplink": reciprocal},
        "seed": seed,
        "sweep": {k: dict(SWEEP_AXES[k]) for k in sweep},
        "spectrum_hz": {"start": 1.8e9, "stop": 3.0e9, "points": 49},
    }


@dataclass
class OpInput:
    kind: str
    raw: dict
    tissue: bool
    scenario: object = None   # the parsed mediamatch Scenario
    scenario_hash: str = ""


def generate(workload: str, seed: int, circuit: dict) -> list[OpInput]:
    """The op inputs of one run, a pure function of (workload, seed, circuit)."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    shift_gap, shift_fat = rng.random(2)
    scenario_seeds = rng.choice(10 ** 6, size=POOL[workload], replace=False) + 1
    ops = []
    for i in range(POOL[workload]):
        gap = round(_spread(i, 2, shift_gap, *GAP_MM), 3)
        fat = round(_spread(i, 3, shift_fat, *FAT_MM), 3)
        sseed = int(scenario_seeds[i])
        if workload == "physics":
            tissue = i % 3 != 0
            axis1 = "fat_mm" if tissue else "gap_mm"
            raw = _scenario_dict(f"physics-{i}", tissue, gap, fat, circuit, 8, sseed,
                                 (axis1, "susceptance_s", "capacitance_pf"))
            kind = "stack"
        elif workload == "links64":
            kind = ("links", "backscatter", "bench-controller")[i % 3]
            tissue = (i // 3) % 2 == 1
            reciprocal = not (kind == "backscatter" and (i // 3) % 2 == 1)
            raw = _scenario_dict(f"links64-{i}", tissue, gap, fat, circuit, 8, sseed, (),
                                 reciprocal=reciprocal)
        else:
            kind, tissue = "links", False
            raw = _scenario_dict(f"links1024-{i}", False, gap, fat, circuit, 32, sseed, ())
        ops.append(OpInput(kind, raw, tissue))
    return ops


# ---------------------------------------------------------------------------
# running one op

#: links64 runs the three CLI invocations ROADMAP.md times (links --links 45,
#: backscatter --links 45, bench-controller --links 20) once each per cycle,
#: scaled by 1/5.  links1024 runs one link per op: a link costs ~3 s there.
LINKS_PER_OP = {"links64": 9, "links1024": 1}
BACKSCATTER_LINKS = 9
BENCH_SEEDS = 4


def run_op(harness, workload: str, op: OpInput, out: Path):
    """Run one op; returns the RunReports in call order."""
    if op.kind == "stack":
        return [harness.cmd_match(op.scenario, out / "match"),
                harness.cmd_sweep(op.scenario, out / "sweep")]
    if op.kind == "links":
        return [harness.cmd_links(op.scenario, out, LINKS_PER_OP[workload])]
    if op.kind == "backscatter":
        return [harness.cmd_backscatter(op.scenario, out, BACKSCATTER_LINKS)]
    return [harness.cmd_bench_controller(op.scenario, out, BENCH_SEEDS)]


# ---------------------------------------------------------------------------
# checks

@dataclass
class Checked:
    """What the checks of one op found."""

    failures: list[str] = field(default_factory=list)
    quality: list[float] = field(default_factory=list)   # achieved / best achievable power
    gains_db: list[float] = field(default_factory=list)  # matched gain or one-way link gain
    err_db: float = 0.0                                   # largest |library - oracle|

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _oracle_layers(oracles, raw: dict, gap_mm=None, fat_mm=None):
    layers = []
    for i, entry in enumerate(raw["layers"]):
        th = entry["thickness_mm"]
        if i == 0 and gap_mm is not None:
            th = gap_mm
        if entry["medium"] == "fat" and fat_mm is not None:
            th = fat_mm
        layers.append(oracles.MEDIA[entry["medium"]] + (th * 1e-3,))
    return layers, oracles.MEDIA[raw["load_medium"]]


def _shunt_through_power(oracles, layers, load, ys, f):
    """Through power with a lossy shunt Y_s at the source-side face.

    Power into the (lossless) layers over incident power, |1 + Gamma|^2
    Re(Y_in) / Y_src; equals through_power_lossless when Y_s is imaginary.
    """
    y_in = 1.0 / oracles.input_impedance(layers, load, f)
    y_src = 1.0 / oracles.wave_impedance(*oracles.MEDIA["air"], f)
    gamma = (y_src - y_in - ys) / (y_src + y_in + ys)
    return np.abs(1.0 + gamma) ** 2 * y_in.real / y_src.real


def _element_admittance(table, circuit: dict, capacitance_pf, f):
    """Element admittance at a capacitance, loss resistance read off the table."""
    c_tab = np.asarray(table.capacitances, dtype=float)
    r_tab = np.asarray(table.resistances, dtype=float)
    order = np.argsort(c_tab)
    c = np.clip(np.asarray(capacitance_pf, dtype=float) * 1e-12, c_tab.min(), c_tab.max())
    r = np.interp(c, c_tab[order], r_tab[order])
    w = 2.0 * np.pi * f
    l1 = circuit["patch_inductance_nh"] * 1e-9
    l2 = circuit["bias_wire_inductance_nh"] * 1e-9
    return 1.0 / (1.0 / (1j * w * c) + r + 1j * w * l1) + 1.0 / (1j * w * l2)


def check_stack(oracles, table, op: OpInput, reports, out: Path) -> Checked:
    """Matched power and every sweep cell against tests/oracles.py."""
    got = Checked()
    match = reports[0].summary
    layers, load = _oracle_layers(oracles, op.raw)
    b_opt = float(np.clip(oracles.optimal_susceptance(layers, load, FREQUENCY_HZ),
                          *SEARCH_RANGE_S))
    best_db = 10.0 * math.log10(oracles.through_power_lossless(
        layers, oracles.MEDIA["air"], load, b_opt, FREQUENCY_HZ))
    err = abs(match["matched_through_db"] - best_db)
    got.err_db = err
    if not err <= TOLERANCE_DB:
        got.fail(f"matched {match['matched_through_db']:.6f} dB vs oracle {best_db:.6f} dB")
    if not match["matched_gain_db"] >= 0.0:
        got.fail(f"negative matched gain {match['matched_gain_db']}")
    got.gains_db.append(match["matched_gain_db"])
    got.quality.append(10.0 ** ((match["matched_through_db"] - best_db) / 10.0))

    axis1 = "fat_mm" if op.tissue else "gap_mm"
    for axis2 in ("susceptance_s", "capacitance_pf"):
        path = out / "sweep" / f"sweep_{axis1}_{axis2}.csv"
        if not path.exists():
            got.fail(f"missing {path.name}")
            continue
        rows = _read_csv(path)
        a1 = np.array([float(r["axis1"]) for r in rows])
        a2 = np.array([float(r["axis2"]) for r in rows])
        lib_db = np.array([float(r["through_power_db"]) for r in rows])
        expect_db = np.empty_like(lib_db)
        for v1 in np.unique(a1):
            sel = a1 == v1
            kw = {"fat_mm": v1} if op.tissue else {"gap_mm": v1}
            layers1, load1 = _oracle_layers(oracles, op.raw, **kw)
            if axis2 == "susceptance_s":
                p = oracles.through_power_lossless(layers1, oracles.MEDIA["air"], load1,
                                                   a2[sel], FREQUENCY_HZ)
            else:
                ys = _element_admittance(table, op.raw["circuit"], a2[sel], FREQUENCY_HZ)
                p = _shunt_through_power(oracles, layers1, load1, ys, FREQUENCY_HZ)
            expect_db[sel] = np.maximum(10.0 * np.log10(p), oracles.DB_FLOOR)
        cell_err = float(np.max(np.abs(lib_db - expect_db))) if len(rows) else math.inf
        got.err_db = max(got.err_db, cell_err)
        if len(rows) != _axis_len(SWEEP_AXES[axis1]) * _axis_len(SWEEP_AXES[axis2]):
            got.fail(f"{path.name}: {len(rows)} cells")
        if not cell_err <= TOLERANCE_DB:
            got.fail(f"{path.name}: cell off the oracle by {cell_err:.3g} dB")
    return got


def _axis_len(spec: dict) -> int:
    return int(round((spec["stop"] - spec["start"]) / spec["step"])) + 1


def best_two_level_power(h_env: complex, h: np.ndarray, s) -> float:
    """Largest |h_env + sum_i s(V_i) h_i|^2 over configurations using two levels.

    Every configuration the controller can return uses at most two voltages
    (stage 1 is uniform, stages 2 and 3 split on/off), so this bounds what it
    can achieve.  For levels (on, off) the channel is a + sum_{i in S} b_i
    with a = h_env + s_off sum(h) and b = (s_on - s_off) h.  The largest
    magnitude is reached by the elements whose b_i lie in an open half-plane,
    and that set changes only where the half-plane's edge crosses some b_i,
    so one half-plane between each pair of adjacent crossings (2N of them)
    covers every candidate.
    """
    total = complex(np.sum(h))
    best = max(abs(h_env + sv * total) for sv in s)
    for i, s_on in enumerate(s):
        for s_off in s[i + 1:]:
            b = (s_on - s_off) * h
            phi = np.angle(b) % (2.0 * np.pi)
            order = np.argsort(phi)
            ps = np.concatenate([phi[order], phi[order] + 2.0 * np.pi])
            prefix = np.concatenate([[0j], np.cumsum(np.concatenate([b[order], b[order]]))])
            edges = np.sort(np.concatenate([phi, phi - np.pi]) % (2.0 * np.pi))
            lo = edges + 0.5 * np.diff(edges, append=edges[0] + 2.0 * np.pi)
            start = np.searchsorted(ps, lo, side="right")
            end = np.searchsorted(ps, lo + np.pi, side="left")
            sums = h_env + s_off * total + prefix[end] - prefix[start]
            best = max(best, float(np.max(np.abs(sums))))
    return best * best


def _finite(got: Checked, label: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        got.fail(f"{label}: non-finite gain in {values}")


def check_links(op: OpInput, out: Path, n_links: int) -> Checked:
    """Per-link probe budget, trace consistency, finite gains; quality per link."""
    got = Checked()
    n = op.raw["array_rows"] * op.raw["array_cols"]
    responder = op.scenario.responder()
    levels = [responder.s(v) for v in VOLTAGES]
    rows = _read_csv(out / "links.csv")
    if len(rows) != n_links:
        got.fail(f"links.csv has {len(rows)} rows, expected {n_links}")
    for r in rows:
        link = int(r["link"])
        trace = _read_csv(out / "traces" / f"link_{link:04d}.csv")
        stages = [int(t["stage"]) for t in trace]
        counts = [stages.count(k) for k in (1, 2, 3)]
        if counts[0] != len(VOLTAGES) or counts[1] != 2 * n or counts[2] > 9:
            got.fail(f"link {link}: stage probes {counts}, expected {len(VOLTAGES)}/{2 * n}/<=9")
        if len(trace) != sum(counts) or counts != [int(r[f"probes_stage{k}"]) for k in (1, 2, 3)]:
            got.fail(f"link {link}: {len(trace)} trace rows vs probes {counts}")
        top = max(float(t["rss_db"]) for t in trace)
        if not abs(float(r["final_db"]) - top) <= 1e-6:
            got.fail(f"link {link}: final_db {r['final_db']} is not the trace maximum {top}")
        gain = float(r["gain_db"])
        _finite(got, f"link {link}", gain, float(r["stage1_gain_db"]), float(r["stage12_gain_db"]))
        if not math.isfinite(gain):
            continue
        paths = _read_csv(out / "channels" / f"link_{link:04d}.csv")
        h = np.array([complex(float(p["re"]), float(p["im"])) for p in paths])
        achieved = 10.0 ** ((float(r["baseline_db"]) + gain) / 10.0)
        quality = achieved / best_two_level_power(h[0], h[1:], levels)
        if not quality <= 1.0 + 1e-9:
            got.fail(f"link {link}: beats the best two-level configuration ({quality})")
        got.quality.append(quality)
        got.gains_db.append(gain)
    return got


def check_backscatter(op: OpInput, out: Path) -> Checked:
    got = Checked()
    rows = _read_csv(out / "backscatter.csv")
    if len(rows) != BACKSCATTER_LINKS:
        got.fail(f"backscatter.csv has {len(rows)} rows, expected {BACKSCATTER_LINKS}")
    for r in rows:
        down, up, both = (float(r[k]) for k in ("gain_down_db", "gain_up_db", "backscatter_db"))
        _finite(got, f"backscatter link {r['link']}", down, up, both)
        if not abs(both - (down + up)) <= 1e-6:
            got.fail(f"backscatter link {r['link']}: {both} != {down} + {up}")
        if op.raw["channel"]["reciprocal_uplink"] and not abs(down - up) <= 1e-9:
            got.fail(f"backscatter link {r['link']}: reciprocal gains {down} != {up}")
    return got


def check_bench_controller(op: OpInput, out: Path) -> Checked:
    got = Checked()
    n = op.raw["array_rows"] * op.raw["array_cols"]
    stage2 = {"probes_element": 2 * n, "probes_column": COLUMN_VOTING_CONFIGS,
              "probes_enum": 2 ** op.raw["array_cols"]}
    rows = _read_csv(out / "bench_controller.csv")
    if len(rows) != BENCH_SEEDS:
        got.fail(f"bench_controller.csv has {len(rows)} rows, expected {BENCH_SEEDS}")
    for r in rows:
        _finite(got, f"bench seed {r['seed_index']}", *(float(r[k]) for k in (
            "element_voting_db", "column_voting_db", "column_enum_db")))
        for key, s2 in stage2.items():
            if not len(VOLTAGES) + s2 <= int(r[key]) <= len(VOLTAGES) + s2 + 9:
                got.fail(f"bench seed {r['seed_index']}: {key} = {r[key]}, "
                         f"expected {len(VOLTAGES)}/{s2}/<=9")
    return got


def check_op(oracles, table, workload: str, op: OpInput, reports, out: Path) -> Checked:
    if op.kind == "stack":
        return check_stack(oracles, table, op, reports, out)
    if op.kind == "links":
        return check_links(op, out, LINKS_PER_OP[workload])
    if op.kind == "backscatter":
        return check_backscatter(op, out)
    return check_bench_controller(op, out)
