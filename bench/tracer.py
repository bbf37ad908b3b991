"""Spans and counts recorded around calls into the library's modules.

The library is not instrumented.  Instead, the traced run replaces each
public function named in LAYER_TARGETS at the module attribute its callers
resolve (``mediamatch.matching.solve_stack``, ``mediamatch.harness.run_controller``
style) with a wrapper that records a span: name, start, end, parent span and
op id.  Spans are kept in memory and written out when the run ends.

Calls made thousands of times per op (stack solves, admittances, composite
channels) are "leaf" layers: their count and time are summed per
(op, layer, enclosing span) instead of being kept one by one, which keeps the
trace small; their time still counts as child time of the enclosing span, so
self time (span time minus child spans) stays exact.  Two more layers are
counted without timing because they sit in the innermost loop: element
responses (with cache hits) and controller probes (by the stage they fall in).
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

SPAN, LEAF, RESPONDER, PROBE = "span", "leaf", "responder", "probe"

#: (module, attribute, layer name, kind).  Each module attribute is patched
#: where its callers look it up; a missing attribute is reported, not fatal.
LAYER_TARGETS = [
    ("mediamatch.cascade", "solve_stack", "cascade.solve", LEAF),
    ("mediamatch.matching", "solve_stack", "cascade.solve", LEAF),
    ("mediamatch.channel", "solve_stack", "cascade.solve", LEAF),
    ("mediamatch.surface", "admittance_at_voltage", "surface.admittance", LEAF),
    ("mediamatch.matching", "admittance_at_voltage", "surface.admittance", LEAF),
    ("mediamatch.matching", "admittance_exact", "surface.admittance", LEAF),
    ("mediamatch.channel", "admittance_at_voltage", "surface.admittance", LEAF),
    ("mediamatch.surface", "calibrate_inductances", "surface.calibrate", SPAN),
    ("mediamatch.scenario", "calibrate_inductances", "surface.calibrate", SPAN),
    ("mediamatch.scenario", "scenario_from_dict", "scenario.parse", SPAN),
    ("mediamatch.harness", "scenario_from_dict", "scenario.parse", SPAN),
    ("mediamatch.scenario", "sample_channel", "channel.sample", SPAN),
    ("mediamatch.channel", "composite_channel", "channel.composite", LEAF),
    ("mediamatch.scenario", "composite_channel", "channel.composite", LEAF),
    ("mediamatch.channel", "ElementResponder.s", "channel.responder", RESPONDER),
    ("mediamatch.harness", "best_admittance", "matching.best_admittance", SPAN),
    ("mediamatch.harness", "best_voltage", "matching.best_voltage", SPAN),
    ("mediamatch.harness", "reflection_spectrum", "matching.spectrum", SPAN),
    ("mediamatch.harness", "sweep_through_power", "matching.sweep", SPAN),
    ("mediamatch.control", "stage1_uniform_probe", "control.stage1", SPAN),
    ("mediamatch.harness", "stage1_uniform_probe", "control.stage1", SPAN),
    ("mediamatch.control", "stage2_majority_voting", "control.stage2", SPAN),
    ("mediamatch.control", "stage3_fine_tune", "control.stage3", SPAN),
    ("mediamatch.harness", "stage3_fine_tune", "control.stage3", SPAN),
    ("mediamatch.harness", "brute_force_baseline", "control.enum", SPAN),
    ("mediamatch.control", "ControlTrace.serialize", "control.serialize", SPAN),
    ("mediamatch.control", "ControlTrace.record", "control.probes", PROBE),
    ("mediamatch.harness", "cmd_match", "harness.match", SPAN),
    ("mediamatch.harness", "cmd_sweep", "harness.sweep", SPAN),
    ("mediamatch.harness", "cmd_links", "harness.links", SPAN),
    ("mediamatch.harness", "cmd_backscatter", "harness.backscatter", SPAN),
    ("mediamatch.harness", "cmd_bench_controller", "harness.bench_controller", SPAN),
]

#: Spans a controller probe is attributed to, innermost first.
PROBE_STAGES = ("control.enum", "control.stage1", "control.stage2", "control.stage3")


class Tracer:
    """In-memory spans and counts; ``op`` tags everything recorded."""

    def __init__(self):
        self.op = None
        self.on = True
        self.spans = []                        # (id, name, start, end, parent, op, child_s)
        self.leaves = defaultdict(lambda: [0, 0.0])  # (op, name, enclosing) -> [calls, s]
        self._op_spans = defaultdict(list)     # op -> indexes into spans
        self._op_leaves = defaultdict(set)     # op -> keys of leaves
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> name -> count
        self.missing = []
        self._stack = []                       # open frames: [span id or None, name, child_s]
        self._next_id = 0
        self._solves = 0
        self._patched = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, name: str, leaf: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack
            owner = next((f for f in reversed(stack) if f[0] is not None), [None, None])
            if leaf:
                frame = [None, name, 0.0]
                if name == "cascade.solve":
                    tracer._solves += 1
            else:
                frame = [tracer._next_id, name, 0.0]
                tracer._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                if leaf:
                    key = (tracer.op, name, owner[1])
                    cell = tracer.leaves[key]
                    cell[0] += 1
                    cell[1] += end - start
                    tracer._op_leaves[tracer.op].add(key)
                else:
                    tracer._op_spans[tracer.op].append(len(tracer.spans))
                    tracer.spans.append((frame[0], name, start, end, owner[0],
                                         tracer.op, frame[2]))
            if name == "matching.sweep":
                tracer.counts[tracer.op]["matching.sweep.points"] += int(result.size)
            return result

        return wrapper

    def _responder(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            before = tracer._solves
            result = fn(*args, **kwargs)
            counts = tracer.counts[tracer.op]
            counts["channel.responder.calls"] += 1
            if tracer._solves == before:
                counts["channel.responder.hits"] += 1
            return result

        return wrapper

    def _probe(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.on:
                stage = next((f[1] for f in reversed(tracer._stack) if f[1] in PROBE_STAGES),
                             "control.other")
                tracer.counts[tracer.op]["control.probes." + stage.split(".")[1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, kind in LAYER_TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, leaf_attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None) if owner is not None else None
            original = getattr(owner, leaf_attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if kind == RESPONDER:
                wrapper = self._responder(original)
            elif kind == PROBE:
                wrapper = self._probe(original)
            else:
                wrapper = self._timed(original, name, kind == LEAF)
            setattr(owner, leaf_attr, wrapper)
            self._patched.append((owner, leaf_attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def op_counts(self, op) -> dict:
        """Exact work counts of one op (the repeat check compares these)."""
        out = dict(self.counts[op])
        for key in self._op_leaves[op]:
            out[key[1] + ".calls"] = out.get(key[1] + ".calls", 0) + self.leaves[key][0]
        for index in self._op_spans[op]:
            name = self.spans[index][1] + ".calls"
            out[name] = out.get(name, 0) + 1
        return dict(sorted(out.items()))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, child in self.spans:
                fh.write(json.dumps({"span": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "child_s": child}) + "\n")
            for (op, name, enclosing), (calls, seconds) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "op": op, "enclosing": enclosing,
                                     "calls": calls, "seconds": seconds}) + "\n")


#: Per-layer metrics of the traced run: (name, unit, better, end-to-end metric
#: it should move, on which workloads).  "s/op" and "1/op" are per op of the
#: traced loop; span times include the spans' children.
LAYER_METRICS = [
    ("cascade.solve.calls", "1/op", "lower", "ops_per_s, op_p50_ms",
     "physics (links: ~8 solves per link, so no change)"),
    ("cascade.solve_s", "s/op", "lower", "ops_per_s, op_p50_ms", "physics"),
    ("matching.best_admittance_s", "s/op", "lower", "ops_per_s", "physics"),
    ("matching.best_admittance.solves_per_search", "1/call", "lower", "ops_per_s", "physics"),
    ("matching.best_voltage_s", "s/op", "lower", "ops_per_s", "physics"),
    ("matching.sweep_s", "s/op", "lower", "ops_per_s", "physics"),
    ("matching.sweep.points", "1/op", "higher", "ops_per_s", "physics"),
    ("matching.spectrum_s", "s/op", "lower", "ops_per_s", "physics"),
    ("surface.admittance.calls", "1/op", "lower", "ops_per_s", "physics"),
    ("surface.admittance_s", "s/op", "lower", "ops_per_s", "physics"),
    ("surface.calibrate_s", "s", "lower", "setup_s", "all"),
    ("scenario.parse.calls", "1/op", "lower", "op_p50_ms", "links64 (one parse per link)"),
    ("scenario.parse_s", "s", "lower", "setup_s; op_p50_ms", "all; links64"),
    ("channel.sample_s", "s/op", "lower", "ops_per_s", "links64, links1024"),
    ("channel.composite.calls", "1/op", "lower", "ops_per_s", "links64, links1024"),
    ("channel.composite_s", "s/op", "lower", "ops_per_s", "links64, links1024"),
    ("channel.responder.calls", "1/op", "lower", "ops_per_s", "links64, links1024"),
    ("channel.responder.hit_ratio", "ratio", "higher", "ops_per_s", "links64, links1024"),
    ("control.stage1_s", "s/op", "lower", "ops_per_s, op_tail_ms", "links1024 most; links64"),
    ("control.stage2_s", "s/op", "lower", "ops_per_s, op_tail_ms", "links1024 most; links64"),
    ("control.stage3_s", "s/op", "lower", "ops_per_s, op_tail_ms", "links1024 most; links64"),
    ("control.enum_s", "s/op", "lower", "ops_per_s, op_tail_ms", "links64"),
    ("control.probes.stage1", "1/op", "lower", "ops_per_s, op_tail_ms", "links1024, links64"),
    ("control.probes.stage2", "1/op", "lower", "ops_per_s, op_tail_ms", "links1024, links64"),
    ("control.probes.stage3", "1/op", "lower", "ops_per_s, op_tail_ms", "links1024, links64"),
    ("control.probes.enum", "1/op", "lower", "ops_per_s, op_tail_ms", "links64"),
    ("control.serialize_s", "s/op", "lower", "op_p50_ms; peak_rss_mb", "links1024, links64"),
    ("harness.self_s", "s/op", "lower", "op_p50_ms", "links64 (little on physics)"),
    ("harness.files_written", "1/op", "lower", "op_p50_ms", "links64"),
    ("harness.bytes_written", "B/op", "lower", "op_p50_ms", "links64"),
    ("trace.overhead_frac", "ratio", "lower", "none: sanity check of the traced run", "all"),
    ("check.median_gain_db", "dB", "higher", "quality_frac",
     "physics: matched gain per stack; links: one-way gain per link"),
    ("check.match_err_db", "dB", "lower", "failed ops past the tolerance", "physics"),
]

_PER_OP_TIMES = {
    "cascade.solve_s": "cascade.solve",
    "matching.best_admittance_s": "matching.best_admittance",
    "matching.best_voltage_s": "matching.best_voltage",
    "matching.sweep_s": "matching.sweep",
    "matching.spectrum_s": "matching.spectrum",
    "surface.admittance_s": "surface.admittance",
    "channel.sample_s": "channel.sample",
    "channel.composite_s": "channel.composite",
    "control.stage1_s": "control.stage1",
    "control.stage2_s": "control.stage2",
    "control.stage3_s": "control.stage3",
    "control.enum_s": "control.enum",
    "control.serialize_s": "control.serialize",
}
_PER_OP_CALLS = {
    "cascade.solve.calls": "cascade.solve",
    "surface.admittance.calls": "surface.admittance",
    "scenario.parse.calls": "scenario.parse",
    "channel.composite.calls": "channel.composite",
}
_PER_OP_COUNTS = ("matching.sweep.points", "channel.responder.calls", "control.probes.stage1",
                  "control.probes.stage2", "control.probes.stage3", "control.probes.enum")


def _median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def layer_metrics(tracer: Tracer, ops) -> dict:
    """Per-layer values over the ops in ``ops`` (ids of the traced loop)."""
    ops = set(ops)
    n = max(len(ops), 1)
    seconds, calls = defaultdict(float), defaultdict(int)
    searches = solves_in_search = 0
    for (op, name, enclosing), (c, s) in tracer.leaves.items():
        if op in ops:
            seconds[name] += s
            calls[name] += c
            if name == "cascade.solve" and enclosing == "matching.best_admittance":
                solves_in_search += c
    harness_self = 0.0
    durations = defaultdict(list)
    for _, name, start, end, _, op, child in tracer.spans:
        durations[name].append(end - start)
        if op in ops:
            seconds[name] += end - start
            calls[name] += 1
            if name.startswith("harness."):
                harness_self += end - start - child
            searches += name == "matching.best_admittance"
    counts = defaultdict(int)
    for op in ops:
        for name, c in tracer.counts[op].items():
            counts[name] += c
    out = {k: seconds[v] / n for k, v in _PER_OP_TIMES.items()}
    out.update({k: calls[v] / n for k, v in _PER_OP_CALLS.items()})
    out.update({k: counts[k] / n for k in _PER_OP_COUNTS})
    out["matching.best_admittance.solves_per_search"] = (
        solves_in_search / searches if searches else 0.0)
    out["channel.responder.hit_ratio"] = (
        counts["channel.responder.hits"] / counts["channel.responder.calls"]
        if counts["channel.responder.calls"] else 0.0)
    out["surface.calibrate_s"] = _median(durations["surface.calibrate"])
    out["scenario.parse_s"] = _median(durations["scenario.parse"])
    out["harness.self_s"] = harness_self / n
    return out
