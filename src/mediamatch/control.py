"""Three-stage surface control against a black-box RSS feedback oracle.

Stage 1 probes every control voltage applied uniformly and keeps the two
extreme states (v1 maximizing feedback, v0 minimizing).  Stage 2 runs
randomized majority voting over on/off (v1/v0) configurations.  Stage 3
fine-tunes v1 and v0 to adjacent control voltages without touching the
on/off split.  The returned configuration is the argmax over everything the
controller ever probed, so it can never regress below a measured state.

The controller's one record of a batch of L links (L = 1 for one link) is a
ControlTrace over the run's voltage set: every stage takes it, probes its
links together, keeps what it found in it (v1 and v0 as positions i1 and
i0, the on/off split, the probe block) and returns it; ``run_controllers``
runs the stages.  Each link's best probe (ControlTrace.best) and trace text
(ControlTrace.serialize) are read from it; a trace hash chunk is a slice of
one block, and link l's digests are its slice of the block's.
Every stage probes through one path, ``_probe_many``, and one oracle
protocol (see channel.FeedbackOracle): ``batch(levels, codes, bits, rows)``
reads the voltage set, an (L, n, 2) stack of code pairs and an
(L, n, ceil(N/8)) stack of bit rows as (L, n) readings, link l's first
rows[l] rows being probes and the rest padding.  A link's readings must not
depend on the other links, and probe i reads what the i-th of n one-row
batches would (a noisy oracle draws its noise in probe order) up to
FeedbackOracle's kernel rule.  Only whole controller runs may execute
concurrently.

A configuration is a (codes, bits) pair: codes is an (on, off) pair of
positions in the voltage set ``levels`` and bits the packed on bits,
ceil(N/8) uint8 in little bit order (element e is bit e % 8 of byte e // 8)
with the tail bits clear.  Element e is biased at levels[codes[0]] where its
bit is set and at levels[codes[1]] where it is clear.  Stage 1's row k is
codes (k, k), stage 2's and the enumeration's are (i1, i0), and stage 3's
are moves of (i1, i0), each over the batch's packed ``on`` split.
Stage 2 draws its masks MASK_BLOCK rows at a time into the bit rows the trace
keeps (2N ceil(N/8) bytes a link) and counts its votes from them.  Its masks
take one bit each from PCG64 on the link's voting stream: mask bit k
(row-major over configurations x groups) is bit k % 64 of raw word k // 64,
least significant bit first, and a set bit turns the group on.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
import struct

import numpy as np

from .table import table_text

#: Control voltage alphabet (descending).  The hardware bias range allows
#: finer steps; these levels cover the realizable susceptance span.
DEFAULT_VOLTAGE_SET = (30.0, 20.0, 15.0, 10.0, 5.0, 2.5, 0.0)

#: Most on/off assignments brute_force_baseline enumerates: 16 groups.
ENUMERATION_CAP = 65536

#: Stage-2 bit rows drawn per generator call and summed per vote count.  A
#: multiple of 64, so every block but the last takes whole raw words; at most
#: 255, so a block's votes fit a uint8.
MASK_BLOCK = 128


def check_voltage_set(levels) -> tuple[float, ...]:
    """The control voltage set as floats: 2 to 256 finite, strictly decreasing levels."""
    vs = tuple(float(v) for v in levels)
    if not 2 <= len(vs) <= 256:
        raise ValueError(f"need at least two and at most 256 control voltages, got {len(vs)}")
    if not all(map(math.isfinite, vs)):
        raise ValueError("control voltages must be finite")
    if any(b >= a for a, b in zip(vs, vs[1:])):
        raise ValueError("control voltages must be strictly decreasing")
    return vs


def config_hash(voltages) -> str:
    """Canonical 12-hex-digit hash of an element-voltage vector.

    SHA-256, first 12 hex digits, over struct.pack("<II", N, k), the k
    distinct float64 bit patterns of the N voltages as '<f8' in order of
    first appearance (-0.0 apart from 0.0, each NaN pattern its own), then
    each element's position among them: packed bits (np.packbits, first
    element in the top bit) if k == 2, else little-endian
    np.min_scalar_type(k - 1) integers.
    """
    words = np.array([float(v) for v in voltages], dtype="<f8").view("<u8")
    levels, first, inverse = np.unique(words, return_index=True, return_inverse=True)
    order = np.argsort(first)
    codes = np.argsort(order)[inverse]  # each element's position, by first appearance
    k = len(levels)
    body = np.packbits(codes == 1) if k == 2 else codes.astype(
        np.min_scalar_type(k - 1).newbyteorder("<"))
    head = struct.pack("<II", len(words), k) + levels[order].tobytes()
    return hashlib.sha256(head + body.tobytes()).hexdigest()[:12]


#: A trace's CSV header and row template (see table.py).
TRACE_TABLE = ("stage,probe_index,config_hash,rss_db", "%s,%s,%s,%.10g")

#: Most probe rows hashed together by _hash_rows.
HASH_BLOCK = 256

#: Every byte bit-reversed: little-endian packed bits in np.packbits' order.
_REVERSED = np.packbits(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1),
                        axis=1, bitorder="little").ravel()


def _hash_rows(levels, codes, bits, n: int) -> list[str]:
    """config_hash of every N-element row of (rows, 2) codes and (rows,
    ceil(N/8)) bits over the alphabet ``levels``, in slices of HASH_BLOCK rows.

    A row's voltages take at most two bit patterns, so it hashes one
    fixed-place record: its header, element 0's level, the other level
    (zeros for one level) and the packed "differs from element 0" bits,
    which are the N zero bytes of a one-level row.
    """
    words = np.array(levels, dtype="<f8").view("<u8")
    return [digest for at in range(0, len(codes), HASH_BLOCK) for digest in _hash_chunk(
        words.take(codes[at:at + HASH_BLOCK]), bits[at:at + HASH_BLOCK], n)]


def _hash_chunk(words, bits, n: int) -> list[str]:
    """The digests of N-element rows of (on, off) level words and bit rows,
    hashing slices of one record buffer at one stride, as wide as the
    widest record (see _hash_rows)."""
    lead = (bits[:, 0] & 1).astype(bool)  # element 0 on
    first = np.where(lead, words[:, 0], words[:, 1])
    other = np.where(lead, words[:, 1], words[:, 0])
    differs = bits ^ np.where(lead, 255, 0).astype(np.uint8)[:, None]
    differs[:, -1] &= 255 >> (-n % 8)  # the tail bits
    two = (first != other) & differs.any(axis=1)
    sizes = (16 + n, 24 + bits.shape[1])
    stride = -(-(sizes[1] if two.all() else max(sizes)) // 8) * 8  # the widest record
    record = np.zeros((len(bits), stride), dtype=np.uint8)
    fields = record.view("<u8")
    head = np.array([n | 1 << 32, n | 2 << 32], dtype="<u8")  # "<II" of (N, k)
    head.take(two, out=fields[:, 0])
    fields[:, 1] = first
    np.multiply(other, two, out=fields[:, 2])
    np.multiply(_REVERSED.take(differs), two[:, None], out=record[:, 24:sizes[1]])
    buffer = memoryview(record).cast("B")
    return [hashlib.sha256(buffer[at:at + sizes[k]]).hexdigest()[:12]
            for at, k in zip(range(0, record.size, stride), two.tolist())]


class ControlTrace:
    """Everything the controller measured on a batch of L links of N
    elements over the voltage set ``levels``, in the order it measured it,
    and the stage state.

    ``blocks`` holds one (stage, codes, bits, rss, rows) entry per
    ``_probe_many`` call, as the oracle read it: the read-only (L, n, 2)
    codes, (L, n, ceil(N/8)) bits and (L, n) readings, and rows[l], the
    number of link l's rows that are probes (the rest is stage-3 padding,
    hashed but never read).  Row k of link l read rss[l, k]; a link's probe
    indices run on across blocks.  The batch keeps, per link, the positions
    of stage 1's v1 and v0 (``i1``, ``i0``: length-L arrays) and the elements
    stage 2 left on (``on``: read-only (L, ceil(N/8)) packed bits).
    """

    def __init__(self, n_links: int, n_elements: int, levels):
        self.n_links, self.n_elements = n_links, n_elements
        self.levels = check_voltage_set(levels)
        self.blocks = []
        self.i1 = self.i0 = self.on = None

    def __len__(self) -> int:
        return self.n_links

    def fork(self) -> "ControlTrace":
        """A copy that goes on from this trace's blocks and state on its own."""
        other = copy.copy(self)
        other.blocks = list(self.blocks)
        return other

    def probes(self, stage: int | None = None) -> list[int]:
        """Each link's number of probes, in one stage if ``stage`` is given."""
        return np.array([rows for s, *_, rows in self.blocks if stage in (None, s)],
                        dtype=int).reshape(-1, self.n_links).sum(axis=0).tolist()

    def best(self) -> list[tuple]:
        """Each link's best probe as (codes, bits) with read-only rows,
        None before any probe, and its best reading through stages 1, 2 and 3
        (NaN before any probe), as a running scan picks them: the first probe,
        then each strictly higher reading, so a NaN first reading stays best."""
        out = []
        for link in range(self.n_links):
            config, top, through = None, math.nan, [math.nan] * 3
            for stage, codes, bits, rss, rows in self.blocks:
                rss = rss[link, :rows[link]]
                if len(rss):
                    k = 0 if config is None and math.isnan(rss[0]) else int(_first_max(rss))
                    if config is None or rss[k] > top:
                        config, top = (codes[link, k], bits[link, k]), float(rss[k])
                    through[stage - 1:] = [top] * (4 - stage)
            out.append((config, tuple(through)))
        return out

    def configs(self) -> list[tuple]:
        """Each link's best probed configuration (see best)."""
        return [config for config, _ in self.best()]

    def serialize(self) -> list[str]:
        """Each link's CSV text, one TRACE_TABLE row per probe: a hash chunk is a
        slice of one block, and link l's digests are its slice [l n, l n + rows[l])."""
        links = [([], [], []) for _ in range(self.n_links)]
        for stage, codes, bits, rss, rows in self.blocks:
            n_rows = codes.shape[1]
            digests = _hash_rows(self.levels, codes.reshape(-1, 2),
                                 bits.reshape(-1, bits.shape[2]), self.n_elements)
            for link, (stages, hashes, readings) in enumerate(links):
                stages += [stage] * rows[link]
                hashes += digests[link * n_rows:link * n_rows + rows[link]]
                readings += rss[link, :rows[link]].tolist()
        return [table_text(*TRACE_TABLE, [stages, range(len(stages)), hashes, readings])
                for stages, hashes, readings in links]


def column_groups(rows: int, cols: int) -> list[list[int]]:
    """Column-wise control of a row-major rows x cols array."""
    return [[r * cols + c for r in range(rows)] for c in range(cols)]


def _owners(groups, n_elements: int) -> np.ndarray:
    """The group of every element, len(groups) for an element in none.
    Groups must be disjoint."""
    n_groups = len(groups)
    members = np.fromiter(itertools.chain.from_iterable(groups), dtype=np.intp)
    owner = np.full(n_elements, n_groups)
    owner[members] = np.repeat(np.arange(n_groups), [len(m) for m in groups])
    if np.count_nonzero(owner != n_groups) != len(members):
        raise ValueError("control groups must not share or repeat elements")
    return owner


def _element_bits(owner, masks) -> np.ndarray:
    """The packed on bits of the rows of 0/1 group masks: element e takes the
    bit of its group owner[e] (see _owners), and an element in no group is off."""
    on = np.zeros((len(masks), masks.shape[1] + 1), dtype=np.uint8)  # last column: no group
    on[:, :-1] = masks
    return np.packbits(on.take(owner, axis=1), axis=1, bitorder="little")


def _probe_many(oracle, trace: ControlTrace, stage: int, codes, bits, rows=None) -> np.ndarray:
    """Measure every probe row of a batch of L links, in order.

    ``codes`` and ``bits`` are the (L, n, 2) and (L, n, ceil(N/8)) uint8
    stacks over the trace's alphabet whose first rows[l] rows of link l are
    probes (all rows by default) and the rest padding;
    ``oracle.batch(trace.levels, codes, bits, rows)`` returns the (L, n)
    readings.  The stacks and readings go into the trace as one block, made
    read-only, not copied.
    """
    shape = (len(trace), codes.shape[1] if codes.ndim == 3 else -1)
    if codes.shape != (*shape, 2) or bits.dtype != np.uint8 or \
            bits.shape != (*shape, -(-trace.n_elements // 8)):
        raise ValueError(f"probe batch of codes {codes.shape} and {bits.dtype} bits "
                         f"{bits.shape} for {shape[0]} links of N = {trace.n_elements}")
    rows = (shape[1],) * shape[0] if rows is None else tuple(rows)
    rss = np.array(oracle.batch(trace.levels, codes, bits, rows), dtype=float)
    if rss.shape != shape:
        raise ValueError(f"probe batch of {rss.shape} readings for codes {codes.shape}")
    trace.blocks.append((stage, *map(_read_only, (codes, bits, rss)), rows))
    return rss


def _probe_onoff(oracle, trace: ControlTrace, bits) -> np.ndarray:
    """Probe (L, n, ceil(N/8)) on/off bit rows as stage 2 does: an element is
    on at its link's v1 where its bit is set and off at v0 where it is clear."""
    pairs = np.stack([trace.i1, trace.i0], axis=1).astype(np.uint8)[:, None]
    return _probe_many(oracle, trace, 2, np.broadcast_to(pairs, (*bits.shape[:2], 2)), bits)


def _first_max(rss: np.ndarray):
    """Index of the first maximum of the readings (of each row), a NaN counting as -inf."""
    return np.argmax(np.where(np.isnan(rss), -np.inf, rss), axis=-1)


def _read_only(array: np.ndarray) -> np.ndarray:
    """The array made read-only: its rows become configurations' rows."""
    array.flags.writeable = False
    return array


def stage1_uniform_probe(oracle, trace: ControlTrace) -> ControlTrace:
    """Probe each control voltage uniformly; keep the extreme responders as
    the batch's v1 (maximizing feedback) and v0 (minimizing), one per link.

    Ties go to the higher voltage for both v1 and v0, so a constant oracle
    degenerates to v1 == v0 (see run_controllers).  Returns the trace.
    """
    shape = (len(trace), len(trace.levels))
    codes = np.broadcast_to(np.arange(shape[1], dtype=np.uint8)[:, None], (*shape, 2))  # (k, k)
    bits = np.broadcast_to(np.zeros(1, np.uint8), (*shape, -(-trace.n_elements // 8)))
    rss = _probe_many(oracle, trace, 1, codes, bits)
    # descending order makes first extremes resolve ties upward; as in a
    # running scan, a NaN first reading stays both extremes
    nan = np.isnan(rss[:, 0])
    trace.i1, trace.i0 = np.where(nan, 0, _first_max(rss)), np.where(nan, 0, _first_max(-rss))
    return trace


def stage2_majority_voting(oracle, trace: ControlTrace, n_configs: int | None = None,
                           rng_seed=0, groups=None) -> ControlTrace:
    """Randomized majority voting over on/off configurations of the batch's v1/v0.

    Each link draws n_configs (default 2x the number of control groups)
    uniform random on/off assignments from its own seed (``rng_seed``: an int
    or SeedSequence per link, or one for all), measures each, and lets every
    configuration whose feedback is strictly above the median cast one vote
    for each group it turned on.  A group ends up on when it collects votes
    from more than half of the voting configurations; exactly half goes to
    off.  Keeps the packed bits of the elements left on as the batch's ``on``
    and returns the trace.  Only the probes' bit rows are built, a block's
    group bits expanded to element bits once; an element's votes are the
    voting rows that turn it on (an element in no group gets none).
    """
    if np.any(trace.i1 == trace.i0):
        raise ValueError("stage 2 needs distinct on/off voltages (v1 != v0)")
    n_elements = trace.n_elements
    n_groups = n_elements if groups is None else len(groups)
    n_configs = 2 * n_groups if n_configs is None else n_configs
    if n_configs < 1:
        raise ValueError("n_configs must be >= 1")
    seeds = rng_seed if np.ndim(rng_seed) else [rng_seed] * len(trace)
    if len(seeds) != len(trace):
        raise ValueError(f"{len(seeds)} voting seeds for {len(trace)} links")

    bits = np.empty((len(trace), n_configs, -(-n_elements // 8)), dtype=np.uint8)
    owner = np.arange(n_elements) if groups is None else _owners(groups, n_elements)
    for link_bits, seed in zip(bits, seeds):
        pcg = np.random.PCG64(seed)
        for start in range(0, n_configs, MASK_BLOCK):  # mask bit k: bit k % 64 of word k // 64
            block = link_bits[start:start + MASK_BLOCK]
            size = len(block) * n_groups
            raw = pcg.random_raw(-(-size // 64)).astype("<u8", copy=False).view(np.uint8)
            if groups is None and n_elements % 8 == 0:  # a row is whole raw bytes
                block[:] = raw[:block.size].reshape(block.shape)
            else:
                masks = np.unpackbits(raw, count=size, bitorder="little")
                block[:] = _element_bits(owner, masks.reshape(len(block), n_groups))
    rss = _probe_onoff(oracle, trace, bits)

    voting = rss > np.median(rss, axis=1, keepdims=True)
    n_voting = np.count_nonzero(voting, axis=1)[:, None]
    votes = np.zeros((len(trace), n_elements), dtype=np.intp)
    for start in range(0, n_configs, MASK_BLOCK):  # uint8 sums of <= MASK_BLOCK 0/1s are exact
        block = slice(start, start + MASK_BLOCK)
        on = np.unpackbits(bits[:, block], axis=2, count=n_elements, bitorder="little")
        votes += np.einsum("lrn,lr->ln", on, voting[:, block].view(np.uint8))
    on = 2 * votes > n_voting  # a strict majority of the voters
    trace.on = _read_only(np.packbits(on, axis=1, bitorder="little"))
    return trace


def stage3_fine_tune(oracle, trace: ControlTrace) -> ControlTrace:
    """Fine-tune v1/v0 over adjacent control voltages, on/off split fixed.

    Probes, per link, the 3x3 grid of (adjacent-lower, same, adjacent-higher)
    moves for the batch's v1 and v0 (up to 9 probes; fewer at the ends of the
    voltage set) over its ``on`` split, padding every link's moves to the most
    any link has.  The batch's best configurations cover the entire trace, so
    anything stage 1 or 2 measured can still win.  Returns the trace.
    """
    def neighborhood(i: int):  # descending voltages: ascending positions
        return [j for j in (i - 1, i, i + 1) if 0 <= j < len(trace.levels)]

    moves = [list(itertools.product(neighborhood(a), neighborhood(b)))
             for a, b in zip(trace.i1.tolist(), trace.i0.tolist())]
    rows = [len(m) for m in moves]
    codes = np.array([m + m[-1:] * (max(rows) - len(m)) for m in moves], dtype=np.uint8)
    bits = np.broadcast_to(trace.on[:, None], (len(trace), max(rows), trace.on.shape[1]))
    _probe_many(oracle, trace, 3, codes, bits, rows)
    return trace


def run_controllers(oracle, n_elements: int, voltages=DEFAULT_VOLTAGE_SET,
                    n_configs: int | None = None, rng_seeds=(0,), groups=None,
                    stage2=None, trace: ControlTrace | None = None) -> ControlTrace:
    """Run the three stages on a batch of links of N = ``n_elements``, one per
    rng seed; returns its trace.

    The oracle reads the links as one stack (see FeedbackOracle).  ``stage2``
    replaces majority voting with a function called as brute_force_baseline
    is (the oracle, the trace, ``groups``).  A ``trace`` that has been
    through stage 1 goes on from there, on its own N and alphabet:
    ``n_elements`` and ``voltages`` only build a new trace.  Total
    probes per link are bounded by len(voltages) + n_configs + 9.  A constant
    stage-1 outcome would leave v1 == v0; the controller then substitutes the
    lowest control voltage for v0 so the later stages stay well-defined.
    """
    if trace is None:
        trace = stage1_uniform_probe(oracle, ControlTrace(len(rng_seeds), n_elements, voltages))
    trace.i0 = np.where(trace.i1 == trace.i0, len(trace.levels) - 1, trace.i0)
    if stage2 is None:
        stage2_majority_voting(oracle, trace, n_configs, rng_seeds, groups)
    else:
        stage2(oracle, trace, groups)
    return stage3_fine_tune(oracle, trace)


def check_enumerable(n_groups: int) -> None:
    """Refuse an enumeration of 2^n_groups on/off assignments past ENUMERATION_CAP."""
    if 2 ** n_groups > ENUMERATION_CAP:
        raise ValueError(f"enumeration of 2^{n_groups} configs exceeds cap "
                         f"{ENUMERATION_CAP}; use randomized voting instead")


def brute_force_baseline(oracle, trace: ControlTrace, groups) -> ControlTrace:
    """Exhaustive argmax over all 2^len(groups) on/off assignments of the
    batch's v1/v0.

    Refuses group counts whose enumeration would exceed ENUMERATION_CAP.
    Keeps as the batch's ``on`` the packed bits of the elements each link's
    best assignment turns on, none where no reading is above -inf, and
    returns the trace.
    """
    n_groups = len(groups)
    check_enumerable(n_groups)
    masks = (np.arange(2 ** n_groups)[:, None] >> np.arange(n_groups)) & 1
    bits = _element_bits(_owners(groups, trace.n_elements), masks)
    rss = _probe_onoff(oracle, trace, np.broadcast_to(bits, (len(trace), *bits.shape)))
    # the first strict maximum above -inf, as a running "rss > best" scan finds it
    best = _first_max(rss)
    found = rss[np.arange(len(rss)), best] > float("-inf")
    trace.on = _read_only(bits[best] * (found & (trace.i1 != trace.i0))[:, None])
    return trace
