"""Three-stage surface control against a black-box RSS feedback oracle.

Stage 1 probes every control voltage applied uniformly and keeps the two
extreme states (v1 maximizing feedback, v0 minimizing).  Stage 2 runs
randomized majority voting over on/off (v1/v0) configurations.  Stage 3
fine-tunes v1 and v0 to adjacent control voltages without touching the
on/off split.  The returned configuration is the argmax over everything the
controller ever probed, so it can never regress below a measured state.

The controller state is a LinkBatch of L links (L = 1 for one link): every
stage takes the batch, probes its links together, keeps what it found in it
(v1 and v0, the on/off split, each link's trace) and returns it;
``run_controllers`` runs the stages.  A link's best probe is read from its
trace (ControlTrace.best).  Every stage probes through one path,
``_probe_many``, and one oracle protocol (see channel.FeedbackOracle):
``batch(levels, index, rows)`` reads L alphabets and an (L, n, N) index stack
as (L, n) readings, link l's first rows[l] rows being probes and the rest
padding.  Probe i must read what the i-th of n one-row batches would (a noisy
oracle draws its noise in probe order).  Only whole controller runs may
execute concurrently.

A configuration is a (levels, index row) pair: a uint8 index vector over the
voltage alphabet (``voltage_set``, or (v1, v0) for on/off configurations).
The trace (ControlTrace) keeps one block of probes per ``_probe_many`` call,
in measurement order.  Stage 2 draws its on/off rows MASK_BLOCK at a time into
the uint8 index the trace keeps and counts its votes from it, so only that
index grows with the array.  Its masks take one bit each from PCG64 on the
link's voting stream: mask bit k (row-major over configurations x groups) is
bit k % 64 of raw word k // 64, least significant bit first, and a set bit
turns the group on.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .table import table_text

#: Control voltage alphabet (descending).  The hardware bias range allows
#: finer steps; these levels cover the realizable susceptance span.
DEFAULT_VOLTAGE_SET = (30.0, 20.0, 15.0, 10.0, 5.0, 2.5, 0.0)

#: Most on/off assignments brute_force_baseline enumerates: 16 groups.
ENUMERATION_CAP = 65536

#: Rows of stage 2's on/off index drawn per generator call and summed per vote
#: count.  A multiple of 64, so every block but the last takes whole raw words;
#: at most 255, so a block's votes fit a uint8.
MASK_BLOCK = 128


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

#: Most probe rows hashed together by _hash_blocks.
HASH_BLOCK = 256


def _hash_blocks(blocks) -> list[list[str]]:
    """config_hash of every row of each (levels, index) block, per block.

    Rows of one length N are hashed in chunks of up to HASH_BLOCK rows that
    cross blocks (a chunk inside one block is a view of it), rows over
    alphabets of more than two bit patterns last.  An alphabet's entries
    that repeat a bit pattern are folded to the first.  A row of at most two
    levels (every row the controller probes) hashes one fixed-place record:
    its header, first level, other level (the first that differs from
    element 0; zeros for one level) and packed "differs from element 0"
    bits, which are the N zero bytes of a one-level row.  Other rows go
    through config_hash.
    """
    words, alphabets, out, pools = [], {}, [], {}
    for levels, index in blocks:
        key = struct.pack(f"<{len(levels)}d", *levels)
        if key not in alphabets:
            bits, first = struct.unpack(f"<{len(levels)}Q", key), {}
            fold = [first.setdefault(w, j) for j, w in enumerate(bits)]
            alphabets[key] = (len(words), np.array(fold) if len(first) < len(bits) else None,
                              len(first) > 2)
            words += bits
        out.append([] if index.shape[1] else [config_hash(())] * len(index))
        if index.size:
            pools.setdefault(index.shape[1], []).append((out[-1], index, *alphabets[key]))
    words = np.array(words, dtype="<u8")
    for pool in pools.values():
        chunk, size = [], 0
        for digests, index, offset, fold, many in sorted(pool, key=lambda piece: piece[4]):
            at = 0
            while at < len(index):
                part = index[at:at + HASH_BLOCK - size]
                chunk.append((digests, part if fold is None else fold[part], offset, many))
                at, size = at + len(part), size + len(part)
                if size == HASH_BLOCK:
                    _hash_chunk(chunk, words)
                    chunk, size = [], 0
        if chunk:
            _hash_chunk(chunk, words)
    return out


def _hash_chunk(chunk, words) -> None:
    """Extend the digests of a chunk's (digests, rows, alphabet offset in words,
    more than two patterns) pieces, hashing slices of one record buffer at one
    stride, as wide as the chunk's widest record (see _hash_blocks)."""
    rows = np.concatenate([piece[1] for piece in chunk]) if len(chunk) > 1 else chunk[0][1]
    base = np.repeat([piece[2] for piece in chunk], [len(piece[1]) for piece in chunk])
    n, bits = rows.shape[1], -(-rows.shape[1] // 8)
    first = rows[:, 0]
    differs = rows != first[:, None]
    other = rows[np.arange(len(rows)), differs.argmax(axis=1)]
    two = other != first
    sizes = (16 + n, 24 + bits)
    stride = -(-(sizes[1] if two.all() else max(sizes)) // 8) * 8  # the widest record
    record = np.zeros((len(rows), stride), dtype=np.uint8)
    fields = record.view("<u8")
    head = np.array([n | 1 << 32, n | 2 << 32], dtype="<u8")  # "<II" of (N, k)
    head.take(two, out=fields[:, 0])
    words.take(base + first, out=fields[:, 1])
    np.multiply(words.take(base + other), two, out=fields[:, 2])
    record[:, 24:24 + bits] = np.packbits(differs, axis=1)
    buffer = memoryview(record).cast("B")
    digests = [hashlib.sha256(buffer[at:at + sizes[k]]).hexdigest()[:12]
               for at, k in zip(range(0, record.size, stride), two.tolist())]
    skip = len(rows) - sum(len(piece[1]) for piece in chunk if piece[3])  # those come last
    if skip < len(rows):
        rest = differs[skip:] & (rows[skip:] != other[skip:, None])
        for k in (skip + np.flatnonzero(np.any(rest, axis=1))).tolist():
            digests[k] = config_hash(words[base[k] + rows[k]].view("<f8"))
    for target, part, *_ in chunk:
        target += digests[:len(part)]
        del digests[:len(part)]


@dataclass
class ControlTrace:
    """Everything the controller measured, in the order it measured it.

    ``blocks`` holds one (stage, levels, index, rss) entry per batch of
    probes: row k of the read-only (n, N) index matrix over the alphabet
    ``levels`` read rss[k].  Probe indices run on across blocks.
    """

    blocks: list[tuple] = field(default_factory=list)

    def append(self, stage: int, levels, index, rss) -> None:
        """Record a block of probes; a writeable index or reading array is
        copied, a read-only one (a view of a batch) is kept as it is."""
        index = np.asarray(index)
        rss = np.asarray(rss, dtype=float)
        if index.ndim != 2 or rss.shape != (len(index),):
            raise ValueError(f"probe batch of {rss.shape} readings for an index of {index.shape}")
        if index.flags.writeable:
            index = index.copy()
        if rss.flags.writeable:
            rss = rss.copy()
        self.blocks.append((stage, tuple(levels), _read_only(index), _read_only(rss)))

    def stage_probe_count(self, stage: int) -> int:
        return sum(len(rss) for s, _, _, rss in self.blocks if s == stage)

    @property
    def budget_used(self) -> int:
        return sum(len(rss) for *_, rss in self.blocks)

    def best(self) -> tuple:
        """The best probe's (levels, read-only index row), None before any
        probe, and the best reading through stages 1, 2 and 3 (NaN before
        any probe), as a running scan picks them: the first probe, then each
        strictly higher reading, so a NaN first reading stays best."""
        config, top, through = None, math.nan, [math.nan] * 3
        for stage, levels, index, rss in self.blocks:
            if len(rss):
                k = 0 if config is None and math.isnan(rss[0]) else int(_first_max(rss))
                if config is None or rss[k] > top:
                    config, top = (levels, index[k]), float(rss[k])
                through[stage - 1:] = [top] * (4 - stage)
        return config, tuple(through)

    def serialize(self, *others) -> list[str]:
        """The CSV texts of this trace and of ``others``, one TRACE_TABLE row
        per probe; all their rows are hashed together (see _hash_blocks)."""
        traces = (self, *others)
        hashes = iter(_hash_blocks([(levels, index) for trace in traces
                                    for _, levels, index, _ in trace.blocks]))
        texts = []
        for trace in traces:
            stages, digests, readings = [], [], []
            for stage, *_, rss in trace.blocks:
                stages += [stage] * len(rss)
                digests += next(hashes)
                readings += rss.tolist()
            texts.append(table_text(*TRACE_TABLE, [stages, range(len(stages)), digests,
                                                   readings]))
        return texts


class LinkBatch:
    """Controller runs on L links, one trace each, carried through the stages
    together.

    Every stage probes the L links with one (L, n, N) index stack.  The batch
    keeps, per link, the on/off voltages of stage 1 (``v1``, ``v0``: length-L
    arrays) and the elements stage 2 left on (``on``: an (L, N) bool matrix).
    """

    def __init__(self, traces):
        self.traces = list(traces)
        self.v1 = self.v0 = self.on = None

    @classmethod
    def new(cls, n_links: int) -> "LinkBatch":
        return cls(ControlTrace() for _ in range(n_links))

    def __len__(self) -> int:
        return len(self.traces)

    def fork(self) -> "LinkBatch":
        """A copy whose traces go on from this batch's blocks on their own."""
        other = LinkBatch(ControlTrace(list(t.blocks)) for t in self.traces)
        other.v1, other.v0, other.on = self.v1, self.v0, self.on
        return other

    def configs(self) -> list[tuple]:
        """Each link's best probed configuration (see ControlTrace.best)."""
        return [trace.best()[0] for trace in self.traces]


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


def _onoff_index(owner, masks, out=None) -> np.ndarray:
    """Index rows over (v1, v0), one per row of the on/off group masks (into ``out``).

    Element e takes index 0 (v1) where its group owner[e] (see _owners) is on
    and 1 (v0) otherwise; elements in no group stay at v0.  Leading axes of
    the masks (a links axis) carry over to the index.
    """
    n_groups = masks.shape[-1]
    flat = masks.reshape(-1, n_groups)
    index = np.empty((len(flat), len(owner)), dtype=np.uint8) if out is None else out
    off = np.ones((MASK_BLOCK, n_groups + 1), dtype=bool)  # last column: no group
    for start in range(0, len(flat), MASK_BLOCK):
        rows = flat[start:start + MASK_BLOCK]
        np.logical_not(rows, out=off[:len(rows), :n_groups])
        off[:len(rows)].take(owner, axis=1, out=index[start:start + len(rows)].view(bool))
    return _read_only(index.reshape(*masks.shape[:-1], len(owner)))


def _probe_many(oracle, links: LinkBatch, stage: int, levels, index, rows=None) -> np.ndarray:
    """Measure every probe row of a batch of L links, in order.

    ``levels`` holds L alphabets and ``index`` is an (L, n, N) stack whose
    first rows[l] rows of link l are probes (all rows by default) and the
    rest padding; ``oracle.batch(levels, index, rows)`` returns the (L, n)
    readings.  Each link's probes go into its trace as one block, padding
    left out.
    """
    rows = [index.shape[1]] * len(links) if rows is None else list(rows)
    rss = np.array(oracle.batch(levels, index, rows), dtype=float)
    if rss.shape != index.shape[:2]:
        raise ValueError(f"probe batch of {rss.shape[1:]} readings for an index of "
                         f"{index.shape[1:]}")
    _read_only(rss)
    for link, (trace, n) in enumerate(zip(links.traces, rows)):
        trace.append(stage, levels[link], index[link, :n], rss[link, :n])
    return rss


def _first_max(rss: np.ndarray):
    """Index of the first maximum of the readings (of each row), a NaN counting as -inf."""
    return np.argmax(np.where(np.isnan(rss), -np.inf, rss), axis=-1)


def _read_only(index: np.ndarray) -> np.ndarray:
    """The array made read-only: index rows become configurations' indices."""
    index.flags.writeable = False
    return index


def _validate_voltage_set(voltages) -> tuple[float, ...]:
    vs = tuple(float(v) for v in voltages)
    if len(vs) < 2:
        raise ValueError("need at least two control voltages")
    if len(vs) > 256:
        raise ValueError("at most 256 control voltages")
    if not np.isfinite(vs).all():
        raise ValueError("control voltages must be finite")
    if any(b >= a for a, b in zip(vs, vs[1:])):
        raise ValueError("control voltages must be strictly decreasing")
    return vs


def stage1_uniform_probe(oracle, links: LinkBatch, voltages, n_elements: int) -> LinkBatch:
    """Probe each control voltage uniformly; keep the extreme responders as
    the batch's v1 (maximizing feedback) and v0 (minimizing), one per link.

    Ties go to the higher voltage for both v1 and v0, so a constant oracle
    degenerates to v1 == v0 (see run_controllers).  Returns the batch.
    """
    vs = _validate_voltage_set(voltages)
    index = np.repeat(np.arange(len(vs), dtype=np.uint8)[:, None], n_elements, axis=1)
    rss = _probe_many(oracle, links, 1, [vs] * len(links),
                      np.broadcast_to(index, (len(links), *index.shape)))
    # descending order makes first extremes resolve ties upward; as in a
    # running scan, a NaN first reading stays both extremes
    nan = np.isnan(rss[:, 0])
    i1, i0 = np.where(nan, 0, _first_max(rss)), np.where(nan, 0, _first_max(-rss))
    links.v1, links.v0 = np.array(vs)[i1], np.array(vs)[i0]
    return links


def stage2_majority_voting(oracle, links: LinkBatch, n_elements: int,
                           n_configs: int | None = None, rng_seed=0,
                           groups=None) -> LinkBatch:
    """Randomized majority voting over on/off configurations of the batch's v1/v0.

    Each link draws n_configs (default 2x the number of control groups)
    uniform random on/off assignments from its own seed (``rng_seed``: an int
    or SeedSequence per link, or one for all), measures each, and lets every
    configuration whose feedback is strictly above the median cast one vote
    for each group it turned on.  A group ends up on when it collects votes
    from more than half of the voting configurations; exactly half goes to
    off.  Keeps the (L, N) bool matrix of the elements left on as the batch's
    ``on`` and returns the batch.  Only the uint8 index over (v1, v0) is built
    for the probes; the voting rows that put an element at v1 are its group's
    votes (an element in no group gets none), so votes are counted per element.
    """
    v1, v0 = links.v1, links.v0
    if np.any(v1 == v0):
        raise ValueError("stage 2 needs distinct on/off voltages (v1 != v0)")
    n_groups = n_elements if groups is None else len(groups)
    n_configs = 2 * n_groups if n_configs is None else n_configs
    if n_configs < 1:
        raise ValueError("n_configs must be >= 1")

    index = np.empty((len(links), n_configs, n_elements), dtype=np.uint8)
    owner = None if groups is None else _owners(groups, n_elements)
    seeds = rng_seed if np.ndim(rng_seed) else [rng_seed] * len(links)
    for link_index, seed in zip(index, seeds):
        pcg = np.random.PCG64(seed)
        for start in range(0, n_configs, MASK_BLOCK):  # mask bit k: bit k % 64 of word k // 64
            block = link_index[start:start + MASK_BLOCK]
            size = len(block) * n_groups
            raw = pcg.random_raw(-(-size // 64)).astype("<u8", copy=False).view(np.uint8)
            on = np.unpackbits(raw, count=size, bitorder="little").reshape(len(block), n_groups)
            if owner is None:  # element e is group e: a clear bit is v0, index 1
                np.logical_not(on, out=block.view(bool))
            else:
                _onoff_index(owner, on.view(bool), block)  # the block's group masks
    rss = _probe_many(oracle, links, 2, list(zip(v1.tolist(), v0.tolist())), _read_only(index))

    voting = rss > np.median(rss, axis=1, keepdims=True)
    n_voting = np.count_nonzero(voting, axis=1)[:, None]
    off_votes = np.zeros((len(links), n_elements), dtype=np.intp)
    for start in range(0, n_configs, MASK_BLOCK):  # uint8 sums of <= MASK_BLOCK 0/1s are exact
        block = slice(start, start + MASK_BLOCK)
        off_votes += np.einsum("lrn,lr->ln", index[:, block], voting[:, block].view(np.uint8))
    links.on = 2 * (n_voting - off_votes) > n_voting  # strict majority of the voters
    return links


def stage3_fine_tune(oracle, links: LinkBatch, voltages) -> LinkBatch:
    """Fine-tune v1/v0 over adjacent control voltages, on/off split fixed.

    Probes, per link, the 3x3 grid of (adjacent-lower, same, adjacent-higher)
    moves for the batch's v1 and v0 (up to 9 probes; fewer at the ends of the
    voltage set) over its ``on`` split, padding every link's moves to the most
    any link has.  The batch's best configurations cover the entire trace, so
    anything stage 1 or 2 measured can still win.  Returns the batch.
    """
    vs = _validate_voltage_set(voltages)

    def neighborhood(v: float):
        i = vs.index(v)  # descending voltages: ascending indices
        return [j for j in (i - 1, i, i + 1) if 0 <= j < len(vs)]

    moves = [list(itertools.product(neighborhood(a), neighborhood(b)))
             for a, b in zip(links.v1.tolist(), links.v0.tolist())]
    rows = [len(m) for m in moves]
    grid = np.array([m + m[-1:] * (max(rows) - len(m)) for m in moves], dtype=np.uint8)
    index = np.where(links.on[:, None, :], grid[:, :, :1], grid[:, :, 1:])
    _probe_many(oracle, links, 3, [vs] * len(links), _read_only(index), rows)
    return links


def run_controllers(oracle, n_elements: int, voltages=DEFAULT_VOLTAGE_SET,
                    n_configs: int | None = None, rng_seeds=(0,), groups=None,
                    stage2=None, links: LinkBatch | None = None) -> LinkBatch:
    """Run the three stages on a batch of links, one per rng seed; returns the batch.

    The oracle reads the links as one stack (see FeedbackOracle).  ``stage2``
    replaces majority voting with a function called as brute_force_baseline
    is (the oracle, the batch, ``n_elements``, ``groups``).  A ``links`` batch that has been through
    stage 1 goes on from there.  Total probes per link are bounded by
    len(voltages) + n_configs + 9.  A constant stage-1 outcome would leave
    v1 == v0; the controller then substitutes the lowest control
    voltage for v0 so the later stages stay well-defined.
    """
    if links is None:
        links = stage1_uniform_probe(oracle, LinkBatch.new(len(rng_seeds)), voltages, n_elements)
    degenerate = links.v1 == links.v0
    if degenerate.any():
        links.v0 = np.where(degenerate, min(voltages), links.v0)
    if stage2 is None:
        stage2_majority_voting(oracle, links, n_elements, n_configs, rng_seeds, groups)
    else:
        stage2(oracle, links, n_elements, groups)
    return stage3_fine_tune(oracle, links, voltages)


def check_enumerable(n_groups: int) -> None:
    """Refuse an enumeration of 2^n_groups on/off assignments past ENUMERATION_CAP."""
    if 2 ** n_groups > ENUMERATION_CAP:
        raise ValueError(f"enumeration of 2^{n_groups} configs exceeds cap "
                         f"{ENUMERATION_CAP}; use randomized voting instead")


def brute_force_baseline(oracle, links: LinkBatch, n_elements: int, groups) -> LinkBatch:
    """Exhaustive argmax over all 2^len(groups) on/off assignments of the
    batch's v1/v0.

    Refuses group counts whose enumeration would exceed ENUMERATION_CAP.
    Keeps as the batch's ``on`` the (L, N) bool matrix of the elements each
    link's best assignment turns on, none where no reading is above -inf,
    and returns the batch.
    """
    n_groups = len(groups)
    check_enumerable(n_groups)
    v1, v0 = links.v1, links.v0
    codes = np.arange(2 ** n_groups)
    index = _onoff_index(_owners(groups, n_elements), (codes[:, None] >> np.arange(n_groups)) & 1)
    rss = _probe_many(oracle, links, 2, list(zip(v1.tolist(), v0.tolist())),
                      np.broadcast_to(index, (len(links), *index.shape)))
    # the first strict maximum above -inf, as a running "rss > best" scan finds it
    best = _first_max(rss)
    found = rss[np.arange(len(rss)), best] > float("-inf")
    links.on = (index[best] == 0) & (found & (v1 != v0))[:, None]
    return links
