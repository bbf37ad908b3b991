"""Three-stage surface control against a black-box RSS feedback oracle.

Stage 1 probes every control voltage applied uniformly and keeps the two
extreme states (v1 maximizing feedback, v0 minimizing).  Stage 2 runs
randomized majority voting over on/off (v1/v0) configurations.  Stage 3
fine-tunes v1 and v0 to adjacent control voltages without touching the
on/off split.  The returned configuration is the argmax over everything the
controller ever probed, so it can never regress below a measured state.

The oracle is any callable SurfaceConfig -> rss_db.  It may also offer
``batch(levels, index) -> ndarray``, which measures every row of an (n, N)
index matrix; probe i of a batch must return exactly what the i-th of n
sequential calls would (feedback is stateful in a real deployment, so a noisy
oracle keys its noise by probe count).  Every stage sends its probes through
one path, ``_probe_many``, which uses ``batch`` when the oracle has it and
calls the oracle row by row otherwise.  Only whole controller runs may
execute concurrently.

A configuration is a uint8 index vector over the voltage alphabet
(``voltage_set``, or (v1, v0) for on/off configurations).  The trace is a
list of probe blocks, one per ``_probe_many`` call: the stage, the alphabet,
the read-only index matrix and the readings.  Probes keep the order they were
measured in, and the trace hash is still taken over the per-element voltages
a row stands for: ``_digests`` renders each row from a cached table of runs of
up to 8 elements, whatever the alphabet.  Stage 2 draws its on/off masks and
builds their index rows MASK_BLOCK rows at a time, so only the bool masks and
the uint8 index matrix grow with the array.
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

#: Rows of stage 2's on/off masks drawn per generator call.  Drawing block by
#: block gives the same random stream as one whole int64 draw, which at
#: 64x64 elements would take 268 MB.
MASK_BLOCK = 128


def config_hash(voltages) -> str:
    """Canonical 12-hex-digit hash of an element-voltage vector.

    Canonical form: voltages rendered with format(v, '.6g'), joined by
    commas, UTF-8 encoded, SHA-256, first 12 hex digits.
    """
    text = ",".join(format(float(v), ".6g") for v in voltages)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


#: Probe rows hashed per block in _digests.
HASH_BLOCK = 256


def _run_width(n_levels: int) -> int:
    """Elements per run in _digests: the largest w <= 8 with n_levels**w <= 256, at least 1."""
    return max([w for w in range(1, 9) if n_levels ** w <= 256], default=1)


@functools.lru_cache(maxsize=256)
def _run_table(levels: bytes, width: int) -> np.ndarray:
    """Every run of `width` levels rendered once, as an object array of bytes.

    Entry c is the '.6g' renderings of the run whose base-len(levels) code is
    c (first element most significant), each closed by a comma, joined.
    Keyed by the alphabet's float64 bytes: a tuple key would let (0.0,) and
    (-0.0,) share one entry, and they render differently.
    """
    parts = [format(v, ".6g").encode() + b"," for v in np.frombuffer(levels).tolist()]
    table = np.empty(len(parts) ** width, dtype=object)
    table[:] = [b"".join(run) for run in itertools.product(parts, repeat=width)]
    return table


def _run_codes(rows: np.ndarray, base: int, width: int) -> np.ndarray:
    """Base-`base` code of every run of `width` elements of each row."""
    runs = rows.reshape(len(rows), -1, width)
    codes = runs[..., 0].astype(np.intp)
    for k in range(1, width):
        codes *= base
        codes += runs[..., k]
    return codes


def _digests(levels, index) -> list[str]:
    """config_hash of every row of an (n, N) index matrix over levels, in order.

    Each row is cut into runs of _run_width(len(levels)) elements (8 for an
    on/off pair, 2 for the 7-level set, 1 past 16 levels), with a shorter last
    run.  A run's code picks its rendering from a cached table, so a row
    becomes one join of N/width table entries and one SHA-256 of it without
    its trailing comma, HASH_BLOCK rows at a time.
    """
    key = np.array(levels, dtype=float).tobytes()
    base, n = len(levels), index.shape[1]
    width = _run_width(base)
    cut = n - n % width
    table, tail = _run_table(key, width), _run_table(key, n - cut)
    out = []
    for start in range(0, len(index), HASH_BLOCK):
        rows = index[start:start + HASH_BLOCK]
        text = table.take(_run_codes(rows[:, :cut], base, width))
        if cut < n:
            text = np.hstack([text, tail.take(_run_codes(rows[:, cut:], base, n - cut))])
        out += [hashlib.sha256(b"".join(row)[:-1]).hexdigest()[:12] for row in text.tolist()]
    return out


@dataclass(frozen=True)
class ProbeRecord:
    """One probe of a trace, built on demand from its block."""

    stage: int
    probe_index: int
    config: SurfaceConfig
    rss_db: float


@dataclass
class ControlTrace:
    """Everything the controller measured, in the order it measured it.

    ``blocks`` holds one (stage, levels, index, rss) entry per batch of
    probes: row k of the read-only (n, N) index matrix over the alphabet
    ``levels`` read rss[k].  Probe indices run on across blocks.
    """

    blocks: list[tuple] = field(default_factory=list)
    low_contrast: bool = False
    notes: list[str] = field(default_factory=list)

    def append(self, stage: int, levels, index, rss) -> None:
        """Record a block of probes; a writeable index matrix is copied."""
        index = np.asarray(index)
        rss = np.array(rss, dtype=float)
        if index.ndim != 2 or rss.shape != (len(index),):
            raise ValueError(f"probe batch of {rss.shape} readings for an index of {index.shape}")
        if index.flags.writeable:
            index = index.copy()
        self.blocks.append((stage, tuple(levels), _read_only(index), _read_only(rss)))

    def stage_probe_count(self, stage: int) -> int:
        return sum(len(rss) for s, _, _, rss in self.blocks if s == stage)

    @property
    def budget_used(self) -> int:
        return sum(len(rss) for *_, rss in self.blocks)

    @property
    def probes(self) -> list[ProbeRecord]:
        """Every probe as a record, in trace order (an on-demand view)."""
        counter = itertools.count()
        return [ProbeRecord(stage, next(counter), SurfaceConfig.from_index(levels, row), r)
                for stage, levels, index, rss in self.blocks
                for row, r in zip(index, rss.tolist())]

    def best_probe(self, through_stage: int | None = None) -> ProbeRecord:
        """The first probe with the highest reading up to through_stage.

        Picks what a running "reading > best" scan from the first probe picks:
        a NaN reading never wins, except as the very first probe, which then
        stays.  Raises ValueError when no probe qualifies.
        """
        best, offset = None, 0
        for stage, levels, index, rss in self.blocks:
            if len(rss) and (through_stage is None or stage <= through_stage):
                k = 0 if best is None and np.isnan(rss[0]) else _first_max(rss)
                if best is None or rss[k] > best[0]:
                    best = (rss[k], stage, offset + k, levels, index[k])
            offset += len(rss)
        if best is None:
            raise ValueError(f"no probes through stage {through_stage}")
        rss_db, stage, probe_index, levels, row = best
        return ProbeRecord(stage, probe_index, SurfaceConfig.from_index(levels, row),
                           float(rss_db))

    def serialize(self) -> str:
        """Records stage,probe_index,config_hash,rss_db; one line template per block."""
        parts, first = ["stage,probe_index,config_hash,rss_db\n"], 0
        for stage, levels, index, rss in self.blocks:
            n = len(rss)
            values = [stage] * (4 * n)
            values[1::4] = range(first, first + n)
            values[2::4] = _digests(levels, index)
            values[3::4] = rss.tolist()
            parts.append("%d,%d,%s,%.10g\n" * n % tuple(values))
            first += n
        return "".join(parts)


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
    index = np.empty((len(masks), n_elements), dtype=bool)
    off = np.ones((MASK_BLOCK, n_groups + 1), dtype=bool)  # last column: no group
    for start in range(0, len(masks), MASK_BLOCK):
        rows = masks[start:start + MASK_BLOCK]
        np.logical_not(rows, out=off[:len(rows), :n_groups])
        off[:len(rows)].take(owner, axis=1, out=index[start:start + len(rows)])
    return _read_only(index.view(np.uint8))


def _probe_many(oracle, trace: ControlTrace, stage: int, levels, index) -> np.ndarray:
    """Measure every row of an (n, N) index matrix over levels, in order.

    Uses ``oracle.batch(levels, index)`` when the oracle has it and calls the
    oracle once per row otherwise; the probes go into the trace as one block.
    Returns the readings as a float array.
    """
    batch = getattr(oracle, "batch", None)
    if batch is not None:
        rss = np.asarray(batch(levels, index), dtype=float)
    else:
        rss = np.array([oracle(SurfaceConfig.from_index(levels, row)) for row in index],
                       dtype=float)
    trace.append(stage, levels, index, rss)
    return rss


def _first_max(rss: np.ndarray) -> int:
    """Index of the first maximum of the readings, a NaN counting as -inf."""
    return int(np.argmax(np.where(np.isnan(rss), -np.inf, rss)))


def _read_only(index: np.ndarray) -> np.ndarray:
    """The index matrix made read-only: its rows become configurations' indices."""
    index.flags.writeable = False
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
    index = np.repeat(np.arange(len(vs), dtype=np.uint8)[:, None], n_elements, axis=1)
    rss = _probe_many(oracle, trace, 1, vs, _read_only(index))
    # descending order makes first extremes resolve ties upward; as in a
    # running scan, a NaN first reading stays both extremes
    i1, i0 = (0, 0) if np.isnan(rss[0]) else (_first_max(rss), _first_max(-rss))
    (v1, r1), (v0, r0) = (vs[i1], rss[i1]), (vs[i0], rss[i0])
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
    masks = np.empty((n_configs, n_groups), dtype=bool)
    for start in range(0, n_configs, MASK_BLOCK):  # the int64 draw, a block at a time
        block = masks[start:start + MASK_BLOCK]
        block[...] = rng.integers(0, 2, size=block.shape)
    rss = _probe_many(oracle, trace, 2, (v1, v0), _onoff_index(groups, masks, n_elements))

    median = np.median(rss)
    voting = rss > median
    n_voting = int(np.count_nonzero(voting))
    votes = masks[voting].sum(axis=0) if n_voting else np.zeros(n_groups, dtype=int)
    on_mask = votes > n_voting / 2.0  # strict majority of the voting configs

    on = on_mask.tolist()
    on_set = frozenset(itertools.chain.from_iterable(g for g, x in zip(groups, on) if x))
    off_set = frozenset(itertools.chain.from_iterable(g for g, x in zip(groups, on) if not x))
    return on_set, off_set, trace


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
        return [j for j in (i - 1, i, i + 1) if 0 <= j < len(vs)]

    on = np.zeros(n_elements, dtype=bool)
    on[list(state.on_set)] = True
    moves = np.array(list(itertools.product(neighborhood(state.v1), neighborhood(state.v0))),
                     dtype=np.uint8)
    index = np.where(on, moves[:, :1], moves[:, 1:])
    _probe_many(oracle, trace, 3, vs, _read_only(index))

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
    rss = _probe_many(oracle, trace, 2, (v1, v0), index)
    # the first strict maximum above -inf, as a running "rss > best" scan finds it
    best = _first_max(rss)
    if not rss[best] > float("-inf"):
        return None, float("-inf"), trace
    return SurfaceConfig.from_index((v1, v0), index[best]), float(rss[best]), trace
