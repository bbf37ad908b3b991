"""Three-stage surface control against a black-box RSS feedback oracle.

Stage 1 probes every control voltage applied uniformly and keeps the two
extreme states (v1 maximizing feedback, v0 minimizing).  Stage 2 runs
randomized majority voting over on/off (v1/v0) configurations.  Stage 3
fine-tunes v1 and v0 to adjacent control voltages without touching the
on/off split.  The returned configuration is the argmax over everything the
controller ever probed, so it can never regress below a measured state.

The oracle is any callable SurfaceConfig -> rss_db.  Probes are issued
strictly one at a time in trace order (feedback is stateful in a real
deployment); only whole controller runs may execute concurrently.

A configuration is a uint8 index vector over the voltage alphabet
(``voltage_set``, or (v1, v0) for on/off configurations); the trace hash is
unchanged, still taken over the per-element voltages it stands for.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .channel import SurfaceConfig

#: Control voltage alphabet (descending).  The hardware bias range allows
#: finer steps; these levels cover the realizable susceptance span.
DEFAULT_VOLTAGE_SET = (30.0, 20.0, 15.0, 10.0, 5.0, 2.5, 0.0)

ENUMERATION_CAP = 65536


def config_hash(voltages) -> str:
    """Canonical 12-hex-digit hash of an element-voltage vector.

    Canonical form: voltages rendered with format(v, '.6g'), joined by
    commas, UTF-8 encoded, SHA-256, first 12 hex digits.
    """
    text = ",".join(format(float(v), ".6g") for v in voltages)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@functools.lru_cache(maxsize=256)
def _level_parts(levels: bytes) -> np.ndarray:
    """Each level rendered once, comma included, ready to be gathered.

    Keyed by the alphabet's float64 bytes: a tuple key would let (0.0,) and
    (-0.0,) share one entry, and they render differently.
    """
    return np.array([format(v, ".6g") + "," for v in np.frombuffer(levels).tolist()],
                    dtype=object)


def _digest(config: SurfaceConfig) -> str:
    """config_hash of the configuration's voltages, joined from its levels."""
    parts = _level_parts(np.array(config.levels, dtype=float).tobytes())
    text = "".join(parts[config.index].tolist())[:-1]
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class ProbeRecord:
    stage: int
    probe_index: int
    config: SurfaceConfig
    rss_db: float


@dataclass
class ControlTrace:
    """Everything the controller measured, in the order it measured it."""

    probes: list[ProbeRecord] = field(default_factory=list)
    low_contrast: bool = False
    notes: list[str] = field(default_factory=list)

    def record(self, stage: int, config: SurfaceConfig, rss_db: float) -> float:
        self.probes.append(ProbeRecord(stage, len(self.probes), config, float(rss_db)))
        return float(rss_db)

    def stage_probe_count(self, stage: int) -> int:
        return sum(1 for p in self.probes if p.stage == stage)

    @property
    def budget_used(self) -> int:
        return len(self.probes)

    def best_probe(self, through_stage: int | None = None) -> ProbeRecord:
        pool = self.probes if through_stage is None else [
            p for p in self.probes if p.stage <= through_stage]
        best = pool[0]
        for p in pool[1:]:
            if p.rss_db > best.rss_db:
                best = p
        return best

    def serialize(self) -> str:
        """Line-oriented records: stage,probe_index,config_hash,rss_db."""
        lines = ["stage,probe_index,config_hash,rss_db"]
        for p in self.probes:
            lines.append(f"{p.stage},{p.probe_index},{_digest(p.config)},{p.rss_db:.10g}")
        return "\n".join(lines) + "\n"


@dataclass
class ControlState:
    """Interim controller state threaded through the stages."""

    v1: float
    v0: float
    on_set: frozenset[int] = frozenset()


def element_groups(n_elements: int) -> list[list[int]]:
    """Element-wise control: every element is its own group."""
    return [[i] for i in range(n_elements)]


def column_groups(rows: int, cols: int) -> list[list[int]]:
    """Column-wise control of a row-major rows x cols array."""
    return [[r * cols + c for r in range(rows)] for c in range(cols)]


def _onoff_index(groups, masks, n_elements: int) -> np.ndarray:
    """Index rows over (v1, v0), one per row of the on/off group masks.

    Element e takes index 0 (v1) where its group is on and 1 (v0) otherwise;
    elements in no group stay at v0.  Groups must be disjoint.
    """
    n_groups = len(groups)
    members = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.intp)
    owner = np.full(n_elements, n_groups)
    owner[members] = np.repeat(np.arange(n_groups), [len(m) for m in groups])
    if np.count_nonzero(owner != n_groups) != len(members):
        raise ValueError("control groups must not share or repeat elements")
    off = np.ones((len(masks), n_groups + 1), dtype=bool)
    off[:, :n_groups] = masks == 0
    index = off.take(owner, axis=1).view(np.uint8)
    index.flags.writeable = False  # its rows become the configurations' indices
    return index


def _validate_voltage_set(voltages) -> tuple[float, ...]:
    vs = tuple(float(v) for v in voltages)
    if len(vs) < 2:
        raise ValueError("need at least two control voltages")
    if len(vs) > 256:
        raise ValueError("at most 256 control voltages")
    if any(b >= a for a, b in zip(vs, vs[1:])):
        raise ValueError("control voltages must be strictly decreasing")
    return vs


def stage1_uniform_probe(oracle, voltages, n_elements: int,
                         trace: ControlTrace | None = None):
    """Probe each control voltage uniformly; pick the extreme responders.

    Ties go to the higher voltage for both v1 and v0 (which means a constant
    oracle degenerates to v1 == v0; the run is then flagged low-contrast).
    Returns (v1, v0, trace).
    """
    vs = _validate_voltage_set(voltages)
    trace = trace if trace is not None else ControlTrace()
    seen = []
    # descending order makes strict comparisons resolve ties upward
    for k, v in enumerate(vs):
        cfg = SurfaceConfig.from_index(vs, np.full(n_elements, k, dtype=np.uint8))
        rss = trace.record(1, cfg, oracle(cfg))
        seen.append((v, rss))
    v1, r1 = seen[0]
    v0, r0 = seen[0]
    for v, r in seen[1:]:
        if r > r1:
            v1, r1 = v, r
        if r < r0:
            v0, r0 = v, r
    if r1 - r0 < 1e-12:
        trace.low_contrast = True
        trace.notes.append("stage1: low-contrast feedback, extreme states are ties")
    return v1, v0, trace


def stage2_majority_voting(oracle, v1: float, v0: float, n_elements: int,
                           n_configs: int | None = None, rng_seed: int = 0,
                           groups=None, trace: ControlTrace | None = None):
    """Randomized majority voting over on/off configurations.

    Draws n_configs (default 2x the number of control groups) uniform random
    on/off assignments, measures each, and lets every configuration whose
    feedback is strictly above the median cast one vote for each group it
    turned on.  A group ends up on when it collects votes from more than half
    of the voting configurations; exactly half goes to off.

    Returns (on_set, off_set, trace) with element index sets.
    """
    if v1 == v0:
        raise ValueError("stage 2 needs distinct on/off voltages (v1 != v0)")
    groups = groups if groups is not None else element_groups(n_elements)
    n_groups = len(groups)
    if n_configs is None:
        n_configs = 2 * n_groups
    if n_configs < 1:
        raise ValueError("n_configs must be >= 1")
    trace = trace if trace is not None else ControlTrace()

    rng = np.random.default_rng(rng_seed)
    masks = rng.integers(0, 2, size=(n_configs, n_groups))
    index = _onoff_index(groups, masks, n_elements)
    rss = np.empty(n_configs)
    for i in range(n_configs):
        cfg = SurfaceConfig.from_index((v1, v0), index[i])
        rss[i] = trace.record(2, cfg, oracle(cfg))

    median = np.median(rss)
    voting = rss > median
    n_voting = int(np.count_nonzero(voting))
    votes = masks[voting].sum(axis=0) if n_voting else np.zeros(n_groups, dtype=int)
    on_mask = votes > n_voting / 2.0  # strict majority of the voting configs

    on_set, off_set = set(), set()
    for gi, members in enumerate(groups):
        (on_set if on_mask[gi] else off_set).update(members)
    return frozenset(on_set), frozenset(off_set), trace


def stage3_fine_tune(oracle, voltages, state: ControlState, n_elements: int,
                     trace: ControlTrace | None = None) -> SurfaceConfig:
    """Fine-tune v1/v0 over adjacent control voltages, on/off split fixed.

    Probes the 3x3 grid of (adjacent-lower, same, adjacent-higher) moves for
    v1 and v0 (up to 9 probes; fewer at the ends of the voltage set) and
    returns the best configuration over the entire trace, so anything stage 1
    or 2 measured can still win.
    """
    vs = _validate_voltage_set(voltages)
    trace = trace if trace is not None else ControlTrace()

    def neighborhood(v: float):
        i = vs.index(v)  # descending voltages: ascending indices
        return [np.uint8(j) for j in (i - 1, i, i + 1) if 0 <= j < len(vs)]

    on = np.zeros(n_elements, dtype=bool)
    on[list(state.on_set)] = True
    for k1 in neighborhood(state.v1):
        for k0 in neighborhood(state.v0):
            cfg = SurfaceConfig.from_index(vs, np.where(on, k1, k0))
            trace.record(3, cfg, oracle(cfg))

    return trace.best_probe().config


def run_controller(oracle, n_elements: int, voltages=DEFAULT_VOLTAGE_SET,
                   n_configs: int | None = None, rng_seed: int = 0,
                   groups=None):
    """Run the three stages in order; returns (final config, trace).

    Total probes are bounded by len(voltages) + n_configs + 9.  A constant
    (low-contrast) stage-1 outcome would leave v1 == v0; the controller then
    substitutes the lowest control voltage for v0 so the later stages stay
    well-defined.
    """
    trace = ControlTrace()
    v1, v0, _ = stage1_uniform_probe(oracle, voltages, n_elements, trace)
    if v1 == v0:
        v0 = min(voltages)
        trace.notes.append(f"degenerate stage1, forcing v0={v0}")
    on_set, _, _ = stage2_majority_voting(
        oracle, v1, v0, n_elements, n_configs=n_configs, rng_seed=rng_seed,
        groups=groups, trace=trace)
    state = ControlState(v1=v1, v0=v0, on_set=on_set)
    final = stage3_fine_tune(oracle, voltages, state, n_elements, trace)
    return final, trace


def brute_force_baseline(oracle, groups, v1: float, v0: float, n_elements: int,
                         cap: int = ENUMERATION_CAP,
                         trace: ControlTrace | None = None):
    """Exhaustive argmax over all 2^len(groups) on/off assignments.

    Refuses group counts whose enumeration would exceed the cap.  Returns
    (config, rss_db, trace).
    """
    n_groups = len(groups)
    if 2 ** n_groups > cap:
        raise ValueError(
            f"enumeration of 2^{n_groups} configs exceeds cap {cap}; "
            "use randomized voting instead")
    trace = trace if trace is not None else ControlTrace()
    codes = np.arange(2 ** n_groups)
    index = _onoff_index(groups, (codes[:, None] >> np.arange(n_groups)) & 1, n_elements)
    best_cfg, best_rss = None, float("-inf")
    for code in codes:
        cfg = SurfaceConfig.from_index((v1, v0), index[code])
        rss = trace.record(2, cfg, oracle(cfg))
        if rss > best_rss:
            best_cfg, best_rss = cfg, rss
    return best_cfg, best_rss, trace
