"""Multipath feedback channel: h = h_env + sum_i s(V_i) h_i.

Channels are synthesized (the real system measures them): environment and
per-element paths are circularly-symmetric complex Gaussians drawn from a
seeded numpy Generator (PCG64), so every sampled quantity is a pure function
of (seed, params) and full runs replay bit-identically.  FeedbackOracle and
ProductFeedbackOracle make the RSS readings the controller sees (noise
keying and quantization included).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import DegenerateStackError, StackSpec, solve_stack
from .surface import ElementCircuit, admittance_at_voltage


class SurfaceConfig:
    """Per-element bias voltages, held as an index vector over a voltage alphabet.

    ``levels`` is the alphabet (a tuple of floats) and ``index`` a read-only
    unsigned vector (uint8 unless more than 256 distinct voltages are given)
    with one entry per element: element i is biased at ``levels[index[i]]``.
    ``voltages`` is the derived per-element tuple, and two configurations are
    equal when they bias every element alike, whatever their alphabets.
    """

    __slots__ = ("levels", "index")

    def __init__(self, voltages):
        values = np.array(list(voltages), dtype=float)
        if values.ndim != 1:
            raise ValueError("voltages must be a flat sequence of numbers")
        # unique over the float64 bits, so 0.0 and -0.0 stay distinct levels
        _, first, index = np.unique(values.view(np.int64), return_index=True,
                                    return_inverse=True)
        self.levels = tuple(values[first].tolist())
        self.index = index.astype(np.min_scalar_type(max(len(first) - 1, 0)))
        self.index.flags.writeable = False

    @classmethod
    def from_index(cls, levels, index) -> "SurfaceConfig":
        """Element i at levels[index[i]]; a writeable index is copied.

        The index is held as the narrowest unsigned type that covers the
        alphabet; a non-empty index that is not of an integer dtype (float and
        bool included) or has an entry outside [0, len(levels)) raises ValueError.
        """
        cfg = cls.__new__(cls)
        cfg.levels = tuple(levels)
        index = np.asarray(index)
        if index.size and index.dtype.kind not in "iu":
            raise ValueError(f"index must be of an integer dtype, got {index.dtype}")
        top = len(cfg.levels) - 1
        if index.size and not (index.min() >= 0 and index.max() <= top):
            raise ValueError(f"index entries must lie in [0, {top}] for {top + 1} levels")
        cfg.index = index.astype(np.min_scalar_type(max(top, 0)), copy=index.flags.writeable)
        cfg.index.flags.writeable = False
        return cfg

    @classmethod
    def uniform(cls, voltage: float, n: int) -> "SurfaceConfig":
        return cls.from_index((float(voltage),), np.zeros(n, dtype=np.uint8))

    @property
    def voltages(self) -> tuple[float, ...]:
        return tuple(np.asarray(self.levels)[self.index].tolist())

    def __len__(self):
        return len(self.index)

    def __eq__(self, other):
        if not isinstance(other, SurfaceConfig):
            return NotImplemented
        return self.voltages == other.voltages

    def __hash__(self):
        return hash(self.voltages)

    def __repr__(self):
        return f"SurfaceConfig(voltages={self.voltages!r})"


class ElementResponder:
    """Maps a bias voltage to the element response s(V) on a given stack.

    s(V) is the end-to-end field transmission T of the stack with the
    element's admittance at that voltage inserted as the shunt surface; it is
    identical for every element (infinite-surface approximation).  The bare
    response (no surface, Y_s = 0) anchors all gain comparisons.  Responses
    are cached per voltage and tabulated per voltage alphabet; repeated calls
    are bit-identical.
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
        """s(V) at every level of a voltage alphabet, as a complex array; the
        levels not cached yet are solved in one call."""
        if levels not in self._tables:
            new = [v for v in dict.fromkeys(map(float, levels)) if v not in self._cache]
            if new:
                ys = np.array([admittance_at_voltage(self.circuit, v, self.frequency) for v in new])
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
    seed: int
    responder: ElementResponder | None = None
    phase_jitter: np.ndarray | None = None  # optional per-element unit phasors

    @property
    def n_elements(self) -> int:
        return len(self.h_elements)


def sample_channel(seed: int, n_elements: int, env_power: float = 0.0,
                   element_power: float | np.ndarray = 1.0,
                   responder: ElementResponder | None = None,
                   phase_jitter_std: float = 0.0) -> MultipathChannel:
    """Draw one channel realization from a named, seeded generator.

    env_power and element_power are variances of circularly-symmetric complex
    Gaussians; element_power may be a per-element profile.  env_power = 0
    models the absorber-walled bench (h_env identically zero).
    phase_jitter_std > 0 adds a fixed random phase per element to its
    response, a stress knob for the controller.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    profile = np.broadcast_to(np.asarray(element_power, dtype=float), (n_elements,))
    if np.any(profile < 0) or env_power < 0:
        raise ValueError("path variances must be non-negative")
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
    return MultipathChannel(h_env=h_env, h_elements=h, seed=seed,
                            responder=responder, phase_jitter=jitter)


#: Probe rows per block in composite_channels: the complex temporaries stay at
#: PROBE_BLOCK x N values (2 MB at N = 1024) whatever the number of probes.
PROBE_BLOCK = 128


def composite_channels(channel: MultipathChannel, levels, index) -> np.ndarray:
    """h_env + sum_i s(V_i) h_i for every row of an (n, N) index matrix.

    Row k is biased at levels[index[k]].  Each row is gathered from the
    responder's table for the alphabet, multiplied in place and summed along
    its own contiguous axis, which runs the same numpy loops, in the same
    order, as a lone row does as a vector; every entry therefore equals the
    one-row result bit for bit.
    """
    index = np.asarray(index)
    if index.ndim != 2 or index.shape[1] != channel.n_elements:
        raise ValueError(f"config length {index.shape[-1]} != channel N {channel.n_elements}")
    if channel.responder is None:
        raise ValueError("channel has no element responder attached")
    table = channel.responder.table(tuple(levels))
    jitter, h = channel.phase_jitter, channel.h_elements
    out = np.empty(len(index), dtype=complex)
    for start in range(0, len(index), PROBE_BLOCK):
        rows = index[start:start + PROBE_BLOCK]
        if len(rows) == 1:
            # a lone row stays a vector: numpy multiplies a 1 x 1 block by
            # another loop than a length-1 vector, and the last bit can differ
            s = table[rows[0]]
            if jitter is not None:
                s = s * jitter
            out[start] = np.sum(s * h)
            continue
        s = table.take(rows)
        if jitter is not None:
            s *= jitter
        s *= h
        s.sum(axis=1, out=out[start:start + PROBE_BLOCK])
    out += channel.h_env
    return out


def composite_channel(channel: MultipathChannel, config: SurfaceConfig) -> complex:
    """h_env + sum_i s(V_i) h_i for one surface configuration."""
    return complex(composite_channels(channel, config.levels, config.index[None])[0])


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
    magnitude = np.asarray(magnitude, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rss = 20.0 * np.log10(magnitude)
    rss[~(magnitude > 0)] = float("-inf")
    if quantization_db:
        rss = np.where(np.isfinite(rss),
                       np.round(rss / quantization_db) * quantization_db + 0.0, rss)
    return rss


class FeedbackOracle:
    """RSS feedback for the controller: the composite channel with optional
    additive noise, read by rss_db.

    Noise is complex Gaussian with power 10^(noise_db/10) relative to a
    unit-magnitude channel.  Each probe draws it from its own seed, derived
    from noise_seed and the probe count, so a replay with the same base seed
    reproduces the identical sequence.  RSS is read at 0.1 dB granularity by
    default (typical RSSI resolution); quantization_db=None reads it
    continuously.  ``batch`` measures every row of an index matrix at once;
    row i reads exactly what the i-th of as many sequential calls would,
    noise seed included.
    """

    def __init__(self, channel: MultipathChannel, noise_db: float | None = None,
                 quantization_db: float | None = 0.1, noise_seed: int = 0):
        self.channel = channel
        self.noise_db = noise_db
        self.quantization_db = quantization_db
        self.noise_seed = noise_seed
        self.probes = 0

    def batch(self, levels, index) -> np.ndarray:
        h = composite_channels(self.channel, levels, index)
        if self.noise_db is not None:
            s = np.sqrt(10.0 ** (self.noise_db / 10.0) / 2.0)
            first = self.noise_seed * 1000003 + self.probes
            for k in range(len(h)):
                rng = np.random.default_rng((first + k) & 0x7FFFFFFF)
                h[k] += complex(rng.normal(0.0, s) + 1j * rng.normal(0.0, s))
        self.probes += len(h)
        return rss_db(np.hypot(h.real, h.imag), self.quantization_db)

    def __call__(self, config: SurfaceConfig) -> float:
        return float(self.batch(config.levels, config.index[None])[0])


class ProductFeedbackOracle:
    """Backscatter feedback: the dB sum of both directions' RSS."""

    def __init__(self, downlink: MultipathChannel, uplink: MultipathChannel,
                 quantization_db: float | None = 0.1):
        if downlink.n_elements != uplink.n_elements:
            raise ValueError("backscatter directions must share the element count")
        self.downlink = downlink
        self.uplink = uplink
        self.quantization_db = quantization_db

    def batch(self, levels, index) -> np.ndarray:
        down = composite_channels(self.downlink, levels, index)
        up = composite_channels(self.uplink, levels, index)
        magnitude = np.hypot(down.real, down.imag) * np.hypot(up.real, up.imag)
        return rss_db(magnitude, self.quantization_db)

    def __call__(self, config: SurfaceConfig) -> float:
        return float(self.batch(config.levels, config.index[None])[0])


def backscatter_gain(downlink: MultipathChannel, uplink: MultipathChannel,
                     config: SurfaceConfig) -> float:
    """Two-way (backscatter) gain in dB against the no-surface baseline.

    The backscatter output is taken proportional to its input power, so the
    end-to-end magnitude is the product |h_down| * |h_up| and the dB gains of
    the two directions add.  With the downlink passed as the uplink
    (reciprocal mode) the result is exactly twice the one-way gain.
    """
    if downlink.n_elements != uplink.n_elements:
        raise ValueError("downlink and uplink must share the element count")
    down = abs(composite_channel(downlink, config)) * abs(composite_channel(uplink, config))
    base = abs(baseline_channel(downlink)) * abs(baseline_channel(uplink))
    if down <= 0 or base <= 0:
        return float("-inf")
    return float(20.0 * np.log10(down) - 20.0 * np.log10(base))


def oneway_gain(channel: MultipathChannel, config: SurfaceConfig) -> float:
    """One-way gain in dB of a configuration against the no-surface baseline."""
    num = abs(composite_channel(channel, config))
    den = abs(baseline_channel(channel))
    if num <= 0 or den <= 0:
        return float("-inf")
    return float(20.0 * np.log10(num) - 20.0 * np.log10(den))
