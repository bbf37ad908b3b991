"""Multipath feedback channel: h = h_env + sum_i s(V_i) h_i.

Channels are synthesized (the real system measures them): environment and
per-element paths are circularly-symmetric complex Gaussians drawn from a
seeded numpy Generator (PCG64), so full runs replay bit-identically.
FeedbackOracle makes the RSS readings the controller sees, one-way or two-way,
noise and quantization included.  A surface configuration is a (levels,
codes, bits) triple (see control): element i is biased at levels[codes[0]]
where bit i of the packed row is set and at levels[codes[1]] where it is clear.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .cascade import DegenerateStackError, StackSpec, _scalar_times, db, solve_stack
from .surface import ElementCircuit, admittances, varactor_at


class ElementResponder:
    """Maps a bias voltage to the element response s(V) on a given stack.

    s(V) is the end-to-end field transmission T of the stack with the
    element's admittance at that voltage inserted as the shunt surface; it is
    identical for every element (infinite-surface approximation).  The bare
    response (no surface, Y_s = 0) anchors all gain comparisons.  Responses
    are cached per voltage and tabulated per voltage alphabet; the voltages
    not cached yet take their admittances from one surface.admittances call
    and are solved in one solve_stack call.  Repeated calls are bit-identical.
    """

    def __init__(self, stack: StackSpec, circuit: ElementCircuit, frequency: float,
                 coupling_offset: complex = 0j):
        self.stack = stack
        self.circuit = circuit
        self.frequency = frequency
        self.coupling_offset = complex(coupling_offset)
        self._cache: dict[float, complex] = {}
        self._tables: dict[tuple[float, ...], np.ndarray] = {}
        self.s_bare = solve_stack(stack, 0j, frequency).t

    def s(self, voltage: float) -> complex:
        return complex(self.table((float(voltage),))[0])

    def table(self, levels: tuple[float, ...]) -> np.ndarray:
        """s(V) at every level of a voltage alphabet, as a complex array."""
        if levels not in self._tables:
            new = [v for v in dict.fromkeys(map(float, levels)) if v not in self._cache]
            if new:
                ys = admittances(self.circuit, *varactor_at(self.circuit.varactors, new),
                                 self.frequency)
                t = solve_stack(self.stack, ys + self.coupling_offset, self.frequency).t
                if np.isnan(t).any():
                    raise DegenerateStackError("singular stack at a bias voltage")
                self._cache.update(zip(new, t.tolist()))
            self._tables[levels] = np.array([self._cache[float(v)] for v in levels], dtype=complex)
        return self._tables[levels]


@dataclass(frozen=True)
class MultipathChannel:
    """One realization of the environment path and the per-element paths."""

    h_env: complex
    h_elements: np.ndarray          # shape (N,), complex
    responder: ElementResponder | None = None
    phase_jitter: np.ndarray | None = None  # optional per-element unit phasors

    @property
    def n_elements(self) -> int:
        return len(self.h_elements)


def sample_channel(seed, n_elements: int, env_power: float = 0.0,
                   element_power: float | np.ndarray = 1.0,
                   responder: ElementResponder | None = None,
                   phase_jitter_std: float = 0.0) -> MultipathChannel:
    """Draw one channel realization from default_rng(seed) (an int or SeedSequence).

    env_power and element_power are variances of circularly-symmetric complex
    Gaussians; element_power may be a per-element profile.  env_power = 0
    models the absorber-walled bench (h_env identically zero).
    phase_jitter_std > 0 adds a fixed random phase per element to its
    response, a stress knob for the controller.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    profile = np.broadcast_to(np.asarray(element_power, dtype=float), (n_elements,))
    if np.any(profile < 0) or env_power < 0 or phase_jitter_std < 0:
        raise ValueError("path variances and phase_jitter_std must be non-negative")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(profile / 2.0)
    h = rng.normal(0.0, 1.0, n_elements) * scale + 1j * rng.normal(0.0, 1.0, n_elements) * scale
    if env_power > 0:
        se = np.sqrt(env_power / 2.0)
        h_env = complex(rng.normal(0.0, se) + 1j * rng.normal(0.0, se))
    else:
        h_env = 0j
    jitter = None
    if phase_jitter_std > 0:
        jitter = np.exp(1j * rng.normal(0.0, phase_jitter_std, n_elements))
    return MultipathChannel(h_env=h_env, h_elements=h, responder=responder, phase_jitter=jitter)


class ChannelStack:
    """L channels on one responder, stacked along a leading links axis:
    ``h_env`` (L,), ``h_elements`` (L, N) and ``phase_jitter`` (L, N), or None
    when no link has it.  Takes one MultipathChannel or a sequence of them."""

    def __init__(self, channels):
        channels = [channels] if isinstance(channels, MultipathChannel) else list(channels)
        if len({(c.n_elements, id(c.responder), c.phase_jitter is None)
                for c in channels}) != 1:
            raise ValueError("stacked channels must share their element count and "
                             "responder, and have phase jitter all or none")
        self.h_env = np.array([c.h_env for c in channels])
        self.h_elements = np.stack([c.h_elements for c in channels])
        self.responder = channels[0].responder
        self.phase_jitter = None if channels[0].phase_jitter is None else \
            np.stack([c.phase_jitter for c in channels])

    def __getitem__(self, links) -> "ChannelStack":
        """The stack of the links an index array picks."""
        sub = copy.copy(self)
        sub.h_env, sub.h_elements = self.h_env[links], self.h_elements[links]
        sub.phase_jitter = None if self.phase_jitter is None else self.phase_jitter[links]
        return sub


#: Probe rows per composite_channels block at N = 1024.  A block holds whole
#: links, or rows of one link, of at most PROBE_BLOCK x 1024 complex values
#: (512 kB of temporaries, small enough to stay in cache) whatever the number
#: of links and probes: a 32 x 32 link runs in blocks of 32 probes, and the
#: stage 2 of 8 x 8 links four links at a time.
PROBE_BLOCK = 32
_BLOCK_VALUES = PROBE_BLOCK * 1024


def _checked(channels: ChannelStack, levels, codes, bits) -> tuple:
    """The probe kernels' input checks: returns the code and bit arrays and
    the s(V) tables."""
    codes, bits, h = np.asarray(codes), np.asarray(bits), channels.h_elements
    if codes.dtype.kind not in "iu":
        raise ValueError(f"codes must be of an integer dtype, got {codes.dtype}")
    if codes.ndim != 3 or codes.shape[2] != 2 or bits.dtype != np.uint8 or \
            bits.shape != (*codes.shape[:2], -(-h.shape[1] // 8)):
        raise ValueError(f"codes of shape {codes.shape} and {bits.dtype} bit rows of shape "
                         f"{bits.shape} for channel N {h.shape[1]}")
    if len(codes) != len(h) or len(levels) != len(h):
        raise ValueError(f"{len(codes)} links of probes and {len(levels)} alphabets "
                         f"for {len(h)} channels")
    if channels.responder is None:
        raise ValueError("channel has no element responder attached")
    tables = [channels.responder.table(tuple(lv)) for lv in levels]
    # each link's code pairs against its own alphabet (and >= 0 if signed)
    if codes.size and (codes.dtype.kind == "i" and codes.min() < 0 or np.any(
            codes.max(axis=(1, 2)) >= [len(t) for t in tables])):
        raise IndexError("codes must lie in [0, len(levels)) of their link")
    return codes, bits, tables


def composite_channels(channels: ChannelStack, levels, codes, bits) -> np.ndarray:
    """h_env + sum_i s(V_i) h_i for every probe row of a (codes, bits) stack.

    ``channels`` is a ChannelStack of L links, ``levels`` a sequence of L
    alphabets, ``codes`` an (L, n, 2) integer stack of (on, off) positions in
    them and ``bits`` the (L, n, ceil(N/8)) packed on bits; returns the (L, n)
    values.  The rows run in blocks of whole links, or of one link's rows, of
    at most PROBE_BLOCK x 1024 values, each block's bits unpacked once.  Each
    row's responses are gathered from its link's table (the on level where
    its bit is set, the off level elsewhere), multiplied in place and summed
    along its own contiguous axis: the same numpy loops, in the same order,
    as a lone row takes as a vector, so every entry equals the one-row result
    bit for bit, whatever links and rows share its block.
    """
    codes, bits, tables = _checked(channels, levels, codes, bits)
    h_env, h, jitter = channels.h_env[:, None], channels.h_elements, channels.phase_jitter
    (n_links, n_rows, _), n = codes.shape, h.shape[1]
    rows = max(1, min(n_rows, _BLOCK_VALUES // max(n, 1)))
    links = max(1, _BLOCK_VALUES // max(n * n_rows, 1)) if rows == n_rows else 1
    out = np.empty((n_links, n_rows), dtype=complex)
    buffer = np.empty(min(links, n_links) * rows * n, dtype=complex)
    for l0 in range(0, n_links, links):
        ls = slice(l0, l0 + links)
        for r0 in range(0, n_rows, rows):
            on = np.unpackbits(bits[ls, r0:r0 + rows], axis=2, count=n, bitorder="little")
            pair = codes[ls, r0:r0 + rows]  # each element's level: off, or on where its bit is set
            block = on * (pair[..., :1] - pair[..., 1:]) + pair[..., 1:]
            if block.shape[0] * block.shape[1] == 1:
                # a lone row stays a vector: numpy multiplies a 1 x 1 block by
                # another loop than a length-1 vector, and the last bit can differ
                s = tables[l0][block[0, 0]]
                if jitter is not None:
                    s = s * jitter[l0]
                out[l0, r0] = np.sum(s * h[l0])
                continue
            s = buffer[:block.size].reshape(block.shape)
            for table, link_rows, link_s in zip(tables[ls], block, s):
                table.take(link_rows, out=link_s, mode="clip")
            if jitter is not None:
                s *= jitter[ls, None]
            s *= h[ls, None]
            s.sum(axis=2, out=out[ls, r0:r0 + rows])
    out += h_env
    return out


#: N from which FeedbackOracle reads links over at most two levels with
#: onoff_channels (16 x 16; the crossover is in BENCH_onoff_tables.json).
ONOFF_MIN_ELEMENTS = 256
#: Probe rows per onoff_channels block (temporaries of 25 bytes per row and group).
ONOFF_ROWS = 256


def onoff_channels(channels: ChannelStack, levels, codes, bits) -> np.ndarray:
    """composite_channels over alphabets of at most two levels, read from
    per-byte subset-sum tables; same checks and errors, other last bits.

    Its arithmetic is its definition.  q_i = h_i u_i (u the phase jitter, or
    q = h), zero-padded to G = ceil(N/8) groups of 8; s0, s1 are the levels'
    responses (s0 twice for one level).  Group g's table holds, for c = 0..255,
    T_g[c] = s_{bit j of c} q_{8g+j} added in order j = 0..7, each complex
    product by cascade._scalar_times.  A row reads h_env + np.sum of T_g[byte
    g of its level bits] over g, bit i of the little-endian level bits being
    1 where element i takes position 1 of the alphabet and the tail bits 0:
    its link's channel, alphabet, codes and on bits alone fix it.  Tables take
    512 N bytes per link.
    """
    codes, bits, tables = _checked(channels, levels, codes, bits)
    if max(map(len, tables)) > 2:
        raise ValueError("onoff_channels reads alphabets of at most two levels")
    h, jitter, (n_links, n_rows, _) = channels.h_elements, channels.phase_jitter, codes.shape
    q = np.pad(h if jitter is None else _scalar_times(h, jitter), ((0, 0), (0, -h.shape[1] % 8)))
    groups, out = q.shape[1] // 8, np.empty((n_links, n_rows), dtype=complex)
    for link, s in enumerate(tables):
        terms = np.ascontiguousarray(  # [g, j, b]: s_b q_{8g+j}
            _scalar_times(s[[0, -1], None], q[link]).reshape(2, groups, 8).transpose(1, 2, 0))
        t = terms[:, 0]
        for j in range(1, 8):  # entry b 2^j + c: entry c of bits 0..j-1 plus s_b q_{8g+j}
            t = (t[:, None, :] + terms[:, j, :, None]).reshape(groups, -1)
        for r0 in range(0, n_rows, ONOFF_ROWS):
            on, block = bits[link, r0:r0 + ONOFF_ROWS], codes[link, r0:r0 + ONOFF_ROWS]
            last = np.where(block == 1, 255, 0).astype(np.uint8)  # (on, off) at position 1
            level_bits = on & last[:, :1] | ~on & last[:, 1:]
            level_bits[:, -1] &= 255 >> (-h.shape[1] % 8)  # the tail bits
            t.take(level_bits + np.arange(0, 256 * groups, 256)).sum(
                axis=1, out=out[link, r0:r0 + ONOFF_ROWS])
    return out + channels.h_env[:, None]


def _probe_channels(channels: ChannelStack, levels, codes, bits) -> np.ndarray:
    """FeedbackOracle's read: onoff_channels for the links over at most two
    levels from ONOFF_MIN_ELEMENTS on, composite_channels for the others."""
    tables = channels.h_elements.shape[1] >= ONOFF_MIN_ELEMENTS
    onoff = [tables and len(lv) <= 2 for lv in levels]
    if len(set(onoff)) < 2:
        return (onoff_channels if all(onoff) else composite_channels)(channels, levels, codes,
                                                                        bits)
    codes, bits, _ = _checked(channels, levels, codes, bits)
    out = np.empty(codes.shape[:2], dtype=complex)
    for kernel, links in ((onoff_channels, np.flatnonzero(onoff)),
                          (composite_channels, np.flatnonzero(np.logical_not(onoff)))):
        out[links] = kernel(channels[links], [levels[k] for k in links], codes[links], bits[links])
    return out


def baseline_channel(channel: MultipathChannel) -> complex:
    """Composite channel with the bare (no-surface) response on every element."""
    if channel.responder is None:
        raise ValueError("channel has no element responder attached")
    s = channel.responder.s_bare
    return complex(channel.h_env + s * np.sum(channel.h_elements))


def rss_db(magnitude, quantization_db: float | None = 0.1) -> np.ndarray:
    """RSS in dB of channel magnitudes, on a quantization_db grid if one is set.

    A magnitude that is not positive reads -inf; non-finite readings are not
    quantized.  Rounding is half to even, as Python's round, and a reading that
    rounds to zero is +0.0, never -0.0.
    """
    rss = db(magnitude, 20.0)
    rss[np.isnan(rss)] = float("-inf")
    if quantization_db:
        rss = np.where(np.isfinite(rss),
                       np.round(rss / quantization_db) * quantization_db + 0.0, rss)
    return rss


class FeedbackOracle:
    """RSS feedback for the controller, read by rss_db: the downlink's
    composite channel with optional additive noise (one-way), times the
    uplink's magnitude when one is given (two-way, backscatter).

    ``downlink`` and ``uplink`` are one channel or a sequence of L; the same
    sequence passed as both is reciprocal and reads the downlink's magnitude
    squared.  ``batch(levels, codes, bits, rows)`` reads L alphabets, an
    (L, n, 2) stack of (on, off) code pairs and an (L, n, ceil(N/8)) stack of
    packed on bits as (L, n) readings; the first rows[l] rows of link l (all
    by default) are probes and the rest padding, read without noise.  A link
    reads its channel values from onoff_channels when its alphabet has at most
    two levels and N >= ONOFF_MIN_ELEMENTS, else from composite_channels;
    either value depends only on the link's channel, alphabet and row, so
    probe i of a batch reads exactly what the i-th of as many one-row batches
    would, noise included.

    Noise, added to the downlink only, is complex Gaussian with power
    10^(noise_db/10) relative to a unit-magnitude channel.  Each link draws it
    from one Generator on its ``noise_seed`` (an int or SeedSequence; one per
    link, or one for all), one (re, im) normal pair per probe in probe order,
    none for padding.  RSS is read on a 0.1 dB grid by default (typical RSSI
    resolution), continuously with quantization_db=None.  copy.copy gives an
    oracle that goes on from the same noise state on its own.
    """

    def __init__(self, downlink, uplink=None, noise_db: float | None = None,
                 quantization_db: float | None = 0.1, noise_seed=0):
        self.downlink = ChannelStack(downlink)
        self.uplink = None if uplink is None else \
            self.downlink if uplink is downlink else ChannelStack(uplink)
        if self.uplink is not None and \
                self.downlink.h_elements.shape != self.uplink.h_elements.shape:
            raise ValueError("backscatter directions must share the link and element counts")
        self.noise_db, self.quantization_db = noise_db, quantization_db
        seeds = noise_seed if np.ndim(noise_seed) else [noise_seed] * len(self.downlink.h_env)
        self.noise = None if noise_db is None else [np.random.default_rng(s) for s in seeds]

    def __copy__(self) -> "FeedbackOracle":
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__, noise=copy.deepcopy(self.noise))  # own generators
        return other

    def batch(self, levels, codes, bits, rows=None) -> np.ndarray:
        h = _probe_channels(self.downlink, levels, codes, bits)
        rows = [h.shape[1]] * len(h) if rows is None else list(rows)
        if self.noise is not None:
            s = np.sqrt(10.0 ** (self.noise_db / 10.0) / 2.0)
            for link, (rng, n) in enumerate(zip(self.noise, rows)):
                h[link, :n] += rng.normal(0.0, s, (n, 2)).view(complex)[:, 0]  # (re, im) pairs
        magnitude = np.hypot(h.real, h.imag)
        if self.uplink is self.downlink:
            magnitude = magnitude * magnitude
        elif self.uplink is not None:
            up = _probe_channels(self.uplink, levels, codes, bits)
            magnitude = magnitude * np.hypot(up.real, up.imag)
        return rss_db(magnitude, self.quantization_db)


def gains_db(downlinks, configs, uplinks=None) -> np.ndarray:
    """Gain in dB of configurations against their link's no-surface baseline.

    ``downlinks`` holds L channels and ``configs`` k (levels, codes, bits)
    configurations per link, variant-major (v*L + l is link l's in variant v); k is inferred,
    and a count that is not a multiple of L is a ValueError.  One-way returns
    the (2, k*L) stack of gains and their links' baselines in dB; with
    ``uplinks`` the (3, k*L) stack of downlink, uplink and two-way gains.  The
    output is taken proportional to its input power, so the two directions'
    dB gains add.  Each direction is one stacked composite_channels call and
    one baseline sum per link; downlinks passed again as the uplinks
    (reciprocal) are read once.  A magnitude or baseline that is not positive
    gains -inf, and a zero baseline reads -inf dB.
    """
    k = len(configs) // max(len(downlinks), 1)
    if not k or k * len(downlinks) != len(configs):
        raise ValueError(f"{len(configs)} configurations for {len(downlinks)} links")
    levels, codes, bits = zip(*configs)
    codes, bits = np.stack(codes)[:, None], np.stack(bits)[:, None]

    def magnitudes(channels):
        h = composite_channels(ChannelStack(list(channels) * k), levels, codes, bits)[:, 0]
        base = np.array([baseline_channel(c) for c in channels])
        return np.hypot(h.real, h.imag), np.tile(np.hypot(base.real, base.imag), k)

    def gain(num, den):
        with np.errstate(invalid="ignore"):  # -inf - -inf where both are not positive
            return np.where((num <= 0) | (den <= 0), float("-inf"), db(num, 20.0) - db(den, 20.0))

    down = magnitudes(downlinks)
    if uplinks is None:
        return np.stack([gain(*down), db(down[1], 20.0)])
    up = down if uplinks is downlinks else magnitudes(uplinks)
    return np.stack([gain(*down), gain(*up), gain(down[0] * up[0], down[1] * up[1])])
