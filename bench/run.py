"""Benchmark of mediamatch user studies, end to end and per layer.

    python3 bench/run.py --workload physics --seed 1 --seconds 30 --trace 0

Builds the inputs of one workload from the seed, then runs its ops back to
back in this one process (parallel=1) for the given seconds.  An op is one
user study: one call into a ``mediamatch.harness.cmd_*`` command (physics: a
match plus a sweep) on one generated scenario.  Every op's outputs are
checked; a failing op is counted, never raised.

With ``--trace 0`` the end-to-end metrics are measured, with times at
reference speed (see speed.py); with ``--trace 1`` every op runs twice, once
untraced and once with every layer wrapped (see tracer.py), giving the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with keys
correct, attempted, failed and metrics.  The full result, with run
metadata and per-op records, is written to .bench_out/ in the checkout,
together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import speed
import tracer as tr
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
#: Set-up is repeated this many times and its median reported.
SETUP_REPS = 9

#: Times ``import mediamatch`` alone (numpy, its one third-party dependency, is
#: imported before the clock starts), then the reference loop in the same
#: interpreter.
IMPORT_PROBE = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mediamatch; took = time.perf_counter() - t; "
                "sys.path.insert(0, sys.argv[2]); import speed; "
                "print(took, speed.reference_seconds())")


def load_library():
    """Import mediamatch from this checkout's src/ and the test oracles."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mediamatch
        import mediamatch.harness
    except ImportError as exc:
        sys.exit(f"bench: cannot import mediamatch from {src}: {exc}")
    if not Path(mediamatch.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: mediamatch imported from {mediamatch.__file__}, not {src}")
    oracle_path = ROOT / "tests" / "oracles.py"
    if not oracle_path.is_file():
        sys.exit(f"bench: missing {oracle_path}")
    spec = importlib.util.spec_from_file_location("bench_oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return mediamatch, oracles


def import_seconds() -> float:
    """Time of ``import mediamatch`` in a fresh interpreter, at reference speed.

    The import is scaled by the reference loop of the interpreter that did it,
    timed right after it.
    """
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(BENCH)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    took, ref = map(float, done.stdout.split())
    return took * speed.NOMINAL_S / ref


def setup_seconds(mm, workload: str, seed: int):
    """The op inputs, and the median set-up time at reference speed.

    Set-up is the import of the library, the calibration, and the generation
    and parsing of the op inputs; it is done SETUP_REPS times.
    """
    setups = []
    for _ in range(SETUP_REPS):
        before = speed.reference_seconds()
        start = perf_counter()
        ops = prepare(mm, workload, seed)
        took = perf_counter() - start
        ref = 0.5 * (before + speed.reference_seconds())
        setups.append(took * speed.NOMINAL_S / ref + import_seconds())
    return ops, statistics.median(setups)


def prepare(mm, workload: str, seed: int):
    """Calibrate the element circuit, generate the op inputs and parse them."""
    circuit = mm.surface.calibrate_inductances(
        mm.surface.SMV1405_TABLE, wl.FREQUENCY_HZ, control_voltages=wl.VOLTAGES)
    frozen = {"patch_inductance_nh": circuit.patch_inductance * 1e9,
              "bias_wire_inductance_nh": circuit.bias_wire_inductance * 1e9}
    ops = wl.generate(workload, seed, frozen)
    for op in ops:
        op.scenario = mm.scenario.scenario_from_dict(op.raw)
        op.scenario_hash = op.scenario.scenario_hash()
    return ops


def _tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()] if path.exists() else []
    return len(files), sum(p.stat().st_size for p in files)


def run_and_check(mm, oracles, workload, op, i: int, work: Path, tracer=None) -> dict:
    """Run and check one op; with a tracer, the op runs traced (and unsampled)."""
    out = work / f"op{i}"
    if tracer is not None:
        tracer.op, tracer.on = i, True
    sampler = speed.Sampler()
    with sampler if tracer is None else contextlib.nullcontext():
        start = perf_counter()
        try:
            reports, error = wl.run_op(mm.harness, workload, op, out), None
        except Exception as exc:  # a raising op is a failed op, not a failed run
            reports, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start - sampler.spent
    if tracer is not None:
        tracer.on = False
    if error is None:
        try:
            checked = wl.check_op(oracles, mm.surface.SMV1405_TABLE, workload, op, reports, out)
        except Exception as exc:  # unreadable or missing outputs fail the op
            checked = wl.Checked()
            checked.fail(f"check raised {type(exc).__name__}: {exc}")
    else:
        checked = wl.Checked(failures=[error])
    files, nbytes = _tree_size(out)
    shutil.rmtree(out, ignore_errors=True)
    record = {"op": i, "kind": op.kind, "scenario_hash": op.scenario_hash,
              "traced": tracer is not None, "latency_s": latency, "in_op_ref_s": sampler.samples,
              "raised": error is not None,
              "failures": checked.failures, "files": files, "bytes": nbytes,
              "quality": checked.quality, "gains_db": checked.gains_db, "err_db": checked.err_db}
    if tracer is not None:
        record["counts"] = tracer.op_counts(i)
    return record


def run_loop(mm, oracles, workload, ops, seconds, work: Path, tracer=None) -> list[dict]:
    """Run ops back to back until ``seconds`` of wall clock have passed.

    The reference loop runs before every op and once at the end, and is
    sampled every speed.SAMPLE_EVERY_S during an op.  These loops cut the op
    into intervals of about equal length, so its time at reference speed (the
    sum over intervals of wall time times NOMINAL_S over loop time) is its
    wall time times NOMINAL_S over the harmonic mean of the loop times on
    either side of it and during it.
    With a tracer every op runs twice in a row, untraced and traced, in an
    order that alternates between ops.
    """
    records = []
    t0 = perf_counter()
    i = 0
    while perf_counter() - t0 < seconds:
        op = ops[i % len(ops)]
        for traced in ((False,) if tracer is None else
                       (False, True) if i % 2 == 0 else (True, False)):
            ref = speed.reference_seconds()
            record = run_and_check(mm, oracles, workload, op, i, work, tracer if traced else None)
            record["ref_s"] = ref
            records.append(record)
        i += 1
    refs = [r["ref_s"] for r in records] + [speed.reference_seconds()]
    for r, after in zip(records, refs[1:]):
        ref = statistics.harmonic_mean([r["ref_s"], after] + r["in_op_ref_s"])
        r["scaled_s"] = r["latency_s"] * speed.NOMINAL_S / ref
    return records


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile would sit under the median, so the
    maximum is reported instead and labelled so.
    """
    lat = sorted(latencies)
    n = len(lat)
    if n < 21:
        return lat[-1], f"max of {n} ops (fewer than 21)"
    k = n - 11
    return lat[k], f"p{100.0 * k / (n - 1):.1f} of {n} ops, 10 beyond it"


def reference_summary(records: list[dict]) -> dict:
    """Median reference-loop time between ops and during them, kept apart."""
    in_op = [t for r in records for t in r["in_op_ref_s"]]
    return {"between_ops_s": statistics.median(r["ref_s"] for r in records),
            "in_op_s": statistics.median(in_op) if in_op else None,
            "in_op_samples": len(in_op)}


def kind_shares(records: list[dict]) -> dict:
    """Each command's share of the op time, at reference speed."""
    total = sum(r["scaled_s"] for r in records)
    shares = {}
    for r in records:
        shares[r["kind"]] = shares.get(r["kind"], 0.0) + r["scaled_s"] / total
    return shares


def end_to_end(records: list[dict], setup_s: float) -> tuple[dict, list[str]]:
    done = [r for r in records if not r["raised"]]
    if not done:
        sys.exit(f"bench: no op completed; first failure: {records[0]['failures'][0]}")
    lat = [r["scaled_s"] for r in done]
    tail_s, tail_label = tail(lat)
    failed = sum(1 for r in records if r["failures"])
    quality = [q for r in records for q in r["quality"]]
    gains = [g for r in records for g in r["gains_db"]]
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / sum(r["scaled_s"] for r in records), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "quality_frac": (statistics.fmean(quality) if quality else 0.0, "ratio"),
    }
    ref = reference_summary(records)
    notes = [
        f"op_tail_ms is the {tail_label}",
        f"times are at reference speed; raw op p50 "
        f"{1e3 * statistics.median(r['latency_s'] for r in done):.6g} ms, reference loop "
        f"median {1e3 * ref['between_ops_s']:.4g} ms between ops, "
        + (f"{1e3 * ref['in_op_s']:.4g} ms during them ({ref['in_op_samples']} samples)"
           if ref["in_op_samples"] else "none during them")
        + f" (nominal {1e3 * speed.NOMINAL_S:g} ms)",
        "share of op time: " + ", ".join(f"{kind} {share:.3f}"
                                          for kind, share in kind_shares(records).items()),
        f"failed_ops_frac = {failed / len(records):.6g} ({failed} of {len(records)} ops)",
        f"median_gain_db = {statistics.median(gains) if gains else float('nan'):.6g} dB "
        f"(over {len(gains)} {'stacks' if records[0]['kind'] == 'stack' else 'links'})",
        f"quality_frac over {len(quality)} studies",
    ]
    if records[0]["kind"] == "stack":
        notes.append(f"match_err_db = {max(r['err_db'] for r in records):.3g} dB "
                     f"(tolerance {wl.TOLERANCE_DB} dB)")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, notes


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metadata(mm, workload: str, seed: int, ops) -> dict:
    hashes = [op.scenario_hash for op in ops]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mediamatch": getattr(mm, "__version__", "unknown"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
        "workload": workload,
        "seed": seed,
        "op_definition": wl.WORKLOADS[workload]["op"],
        "scenarios_hash": hashlib.sha256(",".join(hashes).encode()).hexdigest()[:16],
        "scenario_hashes": hashes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    mm, oracles = load_library()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            tracer = tr.Tracer()
            tracer.install()
            try:
                tracer.op = "setup"
                ops = prepare(mm, args.workload, args.seed)
                tracer.on = False
                records = run_loop(mm, oracles, args.workload, ops, args.seconds, work, tracer)
            finally:
                tracer.uninstall()
            tracer.write(OUT / f"{label}-spans.jsonl")
            traced = [r for r in records if r["traced"]]
            overhead = (sum(r["latency_s"] for r in traced)
                        / sum(r["latency_s"] for r in records if not r["traced"]) - 1.0)
            layers = tr.layer_metrics(tracer, [r["op"] for r in traced])
            layers["trace.overhead_frac"] = overhead
            layers["harness.files_written"] = statistics.fmean(r["files"] for r in traced)
            layers["harness.bytes_written"] = statistics.fmean(r["bytes"] for r in traced)
            gains = [g for r in traced for g in r["gains_db"]]
            layers["check.median_gain_db"] = statistics.median(gains) if gains else 0.0
            layers["check.match_err_db"] = max(r["err_db"] for r in traced)
            units = {name: unit for name, unit, *_ in tr.LAYER_METRICS}
            metrics = {name: {"value": layers[name], "unit": units[name]}
                       for name, *_ in tr.LAYER_METRICS}
            notes = [f"{len(traced)} ops, each run untraced and traced"]
            if tracer.missing:
                notes.append("not traced (absent from the library): " + ", ".join(tracer.missing))
        else:
            ops, setup_s = setup_seconds(mm, args.workload, args.seed)
            records = run_loop(mm, oracles, args.workload, ops, args.seconds, work)
            metrics, notes = end_to_end(records, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if r["failures"])
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    full = dict(result, metadata=metadata(mm, args.workload, args.seed, ops), notes=notes,
                layer_predictions=[dict(zip(("name", "unit", "better", "moves", "on"), row))
                                   for row in tr.LAYER_METRICS] if args.trace else None,
                reference_speed=None if args.trace else reference_summary(records),
                records=records)
    (OUT / f"{label}.json").write_text(json.dumps(full, indent=1) + "\n")

    print(f"# {label}: {len(records)} ops, {failed} failed; {wl.WORKLOADS[args.workload]['op']}")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"# {note}")
    for r in [r for r in records if r["failures"]][:10]:
        for failure in r["failures"][:3]:
            print(f"# op {r['op']} ({r['kind']}) failed: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
