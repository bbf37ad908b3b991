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
``batch(levels, codes, bits, rows)`` reads L alphabets, an (L, n, 2) stack of
code pairs and an (L, n, ceil(N/8)) stack of bit rows as (L, n) readings,
link l's first rows[l] rows being probes and the rest padding.  Probe i must
read what the i-th of n one-row batches would (a noisy oracle draws its noise
in probe order).  Only whole controller runs may execute concurrently.

A configuration is a (levels, codes, bits) triple: codes is an (on, off) pair
of positions in the voltage alphabet ``levels`` and bits the packed on bits,
ceil(N/8) uint8 in little bit order (element e is bit e % 8 of byte e // 8)
with the tail bits clear.  Element e is biased at levels[codes[0]] where its
bit is set and at levels[codes[1]] where it is clear.  Every probe is two
voltages and a bit row: stage 1's row k is codes (k, k) over ``voltage_set``,
stage 2's and the enumeration's are codes (0, 1) over (v1, v0), and stage 3's
are per-row (i1, i0) over ``voltage_set`` on the batch's packed ``on`` split.
The trace (ControlTrace) keeps one block of probes per ``_probe_many`` call,
in measurement order.  Stage 2 draws its masks MASK_BLOCK rows at a time into
the bit rows the trace keeps (2N ceil(N/8) bytes a link) and counts its votes
from them.  Its masks take one bit each from PCG64 on the link's voting
stream: mask bit k (row-major over configurations x groups) is bit k % 64 of
raw word k // 64, least significant bit first, and a set bit turns the group
on.
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

#: Stage-2 bit rows drawn per generator call and summed per vote count.  A
#: multiple of 64, so every block but the last takes whole raw words; at most
#: 255, so a block's votes fit a uint8.
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

#: Every byte bit-reversed: little-endian packed bits in np.packbits' order.
_REVERSED = np.packbits(np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1),
                        axis=1, bitorder="little").ravel()


def _hash_blocks(blocks) -> list[list[str]]:
    """config_hash of every probe row of each (levels, codes, bits, N) block,
    per block.

    Rows of one length N are hashed in chunks of up to HASH_BLOCK rows that
    cross blocks (a chunk inside one block is a view of it).  A row's
    voltages take at most two bit patterns, so it hashes one fixed-place
    record: its header, element 0's level, the other level (zeros for one
    level) and the packed "differs from element 0" bits, which are the N zero
    bytes of a one-level row.
    """
    alphabets, out, pools = {}, [], {}
    for levels, codes, bits, n in blocks:
        key = struct.pack(f"<{len(levels)}d", *levels)
        words = alphabets.setdefault(key, np.frombuffer(key, dtype="<u8"))
        out.append([])
        if len(codes):
            pools.setdefault(n, []).append((out[-1], words, codes, bits))
    for n, pool in pools.items():
        chunk, size = [], 0
        for digests, words, codes, bits in pool:
            at = 0
            while at < len(codes):
                part = slice(at, at + HASH_BLOCK - size)
                chunk.append((digests, words.take(codes[part]), bits[part]))
                at, size = at + len(chunk[-1][1]), size + len(chunk[-1][1])
                if size == HASH_BLOCK:
                    _hash_chunk(chunk, n)
                    chunk, size = [], 0
        if chunk:
            _hash_chunk(chunk, n)
    return out


def _hash_chunk(chunk, n: int) -> None:
    """Extend the digests of a chunk's (digests, (on, off) level words, bit
    rows) pieces of N-element rows, hashing slices of one record buffer at
    one stride, as wide as the chunk's widest record (see _hash_blocks)."""
    words, bits = (np.concatenate(x) if len(x) > 1 else x[0] for x in list(zip(*chunk))[1:])
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
    digests = [hashlib.sha256(buffer[at:at + sizes[k]]).hexdigest()[:12]
               for at, k in zip(range(0, record.size, stride), two.tolist())]
    for target, part, _ in chunk:
        target += digests[:len(part)]
        del digests[:len(part)]


@dataclass
class ControlTrace:
    """Everything the controller measured on one link of N elements, in the
    order it measured it.

    ``blocks`` holds one (stage, levels, codes, bits, rss) entry per batch of
    probes: row k of the read-only (n, 2) codes and (n, ceil(N/8)) bits over
    the alphabet ``levels`` read rss[k].  Probe indices run on across blocks.
    """

    n_elements: int
    blocks: list[tuple] = field(default_factory=list)

    def append(self, stage: int, levels, codes, bits, rss) -> None:
        """Record a block of probes; a writeable array is copied, a read-only
        one (a view of a batch) is kept as it is."""
        codes, bits, rss = np.asarray(codes), np.asarray(bits), np.asarray(rss, dtype=float)
        if codes.shape != (len(rss), 2) or bits.dtype != np.uint8 or \
                bits.shape != (len(rss), -(-self.n_elements // 8)):
            raise ValueError(f"probe batch of {rss.shape} readings for codes {codes.shape} and "
                             f"{bits.dtype} bits {bits.shape} of N = {self.n_elements}")
        copies = [_read_only(a.copy() if a.flags.writeable else a) for a in (codes, bits, rss)]
        self.blocks.append((stage, tuple(levels), *copies))

    def stage_probe_count(self, stage: int) -> int:
        return sum(len(rss) for s, *_, rss in self.blocks if s == stage)

    @property
    def budget_used(self) -> int:
        return sum(len(rss) for *_, rss in self.blocks)

    def best(self) -> tuple:
        """The best probe's (levels, codes, bits) with read-only rows, None
        before any probe, and the best reading through stages 1, 2 and 3 (NaN
        before any probe), as a running scan picks them: the first probe,
        then each strictly higher reading, so a NaN first reading stays best."""
        config, top, through = None, math.nan, [math.nan] * 3
        for stage, levels, codes, bits, rss in self.blocks:
            if len(rss):
                k = 0 if config is None and math.isnan(rss[0]) else int(_first_max(rss))
                if config is None or rss[k] > top:
                    config, top = (levels, codes[k], bits[k]), float(rss[k])
                through[stage - 1:] = [top] * (4 - stage)
        return config, tuple(through)

    def serialize(self, *others) -> list[str]:
        """The CSV texts of this trace and of ``others``, one TRACE_TABLE row
        per probe; all their rows are hashed together (see _hash_blocks)."""
        traces = (self, *others)
        hashes = iter(_hash_blocks([(levels, codes, bits, trace.n_elements) for trace in traces
                                    for _, levels, codes, bits, _ in trace.blocks]))
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

    Every stage probes the L links with one (L, n, 2) code stack and one
    (L, n, ceil(N/8)) bit stack.  The batch keeps, per link, the on/off
    voltages of stage 1 (``v1``, ``v0``: length-L arrays) and the elements
    stage 2 left on (``on``: read-only (L, ceil(N/8)) packed bits).
    """

    def __init__(self, traces):
        self.traces = list(traces)
        self.v1 = self.v0 = self.on = None

    @classmethod
    def new(cls, n_links: int, n_elements: int) -> "LinkBatch":
        return cls(ControlTrace(n_elements) for _ in range(n_links))

    def __len__(self) -> int:
        return len(self.traces)

    def fork(self) -> "LinkBatch":
        """A copy whose traces go on from this batch's blocks on their own."""
        other = LinkBatch(ControlTrace(t.n_elements, list(t.blocks)) for t in self.traces)
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


def _element_bits(owner, masks) -> np.ndarray:
    """The packed on bits of the rows of 0/1 group masks: element e takes the
    bit of its group owner[e] (see _owners), and an element in no group is off."""
    on = np.zeros((len(masks), masks.shape[1] + 1), dtype=np.uint8)  # last column: no group
    on[:, :-1] = masks
    return np.packbits(on.take(owner, axis=1), axis=1, bitorder="little")


def _probe_many(oracle, links: LinkBatch, stage: int, levels, codes, bits,
                rows=None) -> np.ndarray:
    """Measure every probe row of a batch of L links, in order.

    ``levels`` holds L alphabets, ``codes`` and ``bits`` the (L, n, 2) and
    (L, n, ceil(N/8)) stacks whose first rows[l] rows of link l are probes
    (all rows by default) and the rest padding; ``oracle.batch(levels, codes,
    bits, rows)`` returns the (L, n) readings.  Each link's probes go into its
    trace as one block, padding left out.
    """
    rows = [codes.shape[1]] * len(links) if rows is None else list(rows)
    rss = np.array(oracle.batch(levels, codes, bits, rows), dtype=float)
    if rss.shape != codes.shape[:2]:
        raise ValueError(f"probe batch of {rss.shape[1:]} readings for codes {codes.shape[1:]}")
    _read_only(rss)
    for link, (trace, n) in enumerate(zip(links.traces, rows)):
        trace.append(stage, levels[link], codes[link, :n], bits[link, :n], rss[link, :n])
    return rss


def _first_max(rss: np.ndarray):
    """Index of the first maximum of the readings (of each row), a NaN counting as -inf."""
    return np.argmax(np.where(np.isnan(rss), -np.inf, rss), axis=-1)


def _read_only(array: np.ndarray) -> np.ndarray:
    """The array made read-only: its rows become configurations' rows."""
    array.flags.writeable = False
    return array


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
    codes = np.repeat(np.arange(len(vs), dtype=np.uint8)[:, None], 2, axis=1)  # row k: (k, k)
    shape = (len(links), len(vs))
    rss = _probe_many(oracle, links, 1, [vs] * len(links), np.broadcast_to(codes, (*shape, 2)),
                      np.broadcast_to(np.zeros(1, np.uint8), (*shape, -(-n_elements // 8))))
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
    off.  Keeps the packed bits of the elements left on as the batch's ``on``
    and returns the batch.  Only the probes' bit rows are built, a block's
    group bits expanded to element bits once; an element's votes are the
    voting rows that turn it on (an element in no group gets none).
    """
    v1, v0 = links.v1, links.v0
    if np.any(v1 == v0):
        raise ValueError("stage 2 needs distinct on/off voltages (v1 != v0)")
    n_groups = n_elements if groups is None else len(groups)
    n_configs = 2 * n_groups if n_configs is None else n_configs
    if n_configs < 1:
        raise ValueError("n_configs must be >= 1")

    bits = np.empty((len(links), n_configs, -(-n_elements // 8)), dtype=np.uint8)
    owner = np.arange(n_elements) if groups is None else _owners(groups, n_elements)
    seeds = rng_seed if np.ndim(rng_seed) else [rng_seed] * len(links)
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
    rss = _probe_many(oracle, links, 2, list(zip(v1.tolist(), v0.tolist())),
                      np.broadcast_to(np.uint8([0, 1]), (*bits.shape[:2], 2)), _read_only(bits))

    voting = rss > np.median(rss, axis=1, keepdims=True)
    n_voting = np.count_nonzero(voting, axis=1)[:, None]
    votes = np.zeros((len(links), n_elements), dtype=np.intp)
    for start in range(0, n_configs, MASK_BLOCK):  # uint8 sums of <= MASK_BLOCK 0/1s are exact
        block = slice(start, start + MASK_BLOCK)
        on = np.unpackbits(bits[:, block], axis=2, count=n_elements, bitorder="little")
        votes += np.einsum("lrn,lr->ln", on, voting[:, block].view(np.uint8))
    on = 2 * votes > n_voting  # a strict majority of the voters
    links.on = _read_only(np.packbits(on, axis=1, bitorder="little"))
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
    codes = np.array([m + m[-1:] * (max(rows) - len(m)) for m in moves], dtype=np.uint8)
    bits = np.broadcast_to(links.on[:, None], (len(links), max(rows), links.on.shape[1]))
    _probe_many(oracle, links, 3, [vs] * len(links), _read_only(codes), bits, rows)
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
        links = stage1_uniform_probe(oracle, LinkBatch.new(len(rng_seeds), n_elements),
                                     voltages, n_elements)
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
    Keeps as the batch's ``on`` the packed bits of the elements each link's
    best assignment turns on, none where no reading is above -inf, and
    returns the batch.
    """
    n_groups = len(groups)
    check_enumerable(n_groups)
    v1, v0 = links.v1, links.v0
    masks = (np.arange(2 ** n_groups)[:, None] >> np.arange(n_groups)) & 1
    bits = _read_only(_element_bits(_owners(groups, n_elements), masks))
    rss = _probe_many(oracle, links, 2, list(zip(v1.tolist(), v0.tolist())),
                      np.broadcast_to(np.uint8([0, 1]), (len(links), len(bits), 2)),
                      np.broadcast_to(bits, (len(links), *bits.shape)))
    # the first strict maximum above -inf, as a running "rss > best" scan finds it
    best = _first_max(rss)
    found = rss[np.arange(len(rss)), best] > float("-inf")
    links.on = _read_only(bits[best] * (found & (v1 != v0))[:, None])
    return links
