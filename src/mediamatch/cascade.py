"""Cascaded two-port (ABCD) solution of a surface + layered-media stack.

The stack between the source and load half-spaces is a product of 2x2
transmission matrices: the shunt [[1, 0], [Y, 1]] for the surface admittance
and one line matrix per medium layer, multiplied left to right in propagation
order.  End-to-end transmission and reflection follow from the composite
matrix and the two half-space impedances:

    T = 2 / (A + B/Z_load + C Z_src + D Z_src/Z_load)
    Gamma = (A + B/Z_load - C Z_src - D Z_src/Z_load) / (same denominator)

solve_stack is the one propagation kernel: it broadcasts over arrays of
surface admittance and frequency, with matrices held as complex arrays of
shape (2, 2) + batch.  Products are written in real arithmetic and
magnitudes taken with np.hypot (numpy's vectorised complex multiply and abs
round the last bit differently), so every point of an array call is
bit-identical to the scalar call at that point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .media import Layer, Medium, intrinsic_impedance, phase_constant

DB_FLOOR = -200.0  # clamp used when emitting dB columns to files


class DegenerateStackError(RuntimeError):
    """The cascade denominator vanished (resonance singularity)."""


@dataclass(frozen=True)
class StackSpec:
    """Source half-space | layers (with a shunt surface inserted) | load half-space.

    surface_index
        Position of the shunt surface in the layer sequence: 0 places it on
        the source-side face before every layer (the usual deployment, the
        surface sits in front of the gap), len(layers) places it against the
        load half-space.
    """

    source_medium: Medium
    load_medium: Medium
    layers: tuple[Layer, ...] = field(default_factory=tuple)
    surface_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not 0 <= self.surface_index <= len(self.layers):
            raise ValueError(
                f"surface_index {self.surface_index} outside [0, {len(self.layers)}]")

    def reversed(self) -> "StackSpec":
        """The same physical stack solved from the load side."""
        return StackSpec(
            source_medium=self.load_medium,
            load_medium=self.source_medium,
            layers=self.layers[::-1],
            surface_index=len(self.layers) - self.surface_index,
        )


@dataclass(frozen=True)
class CascadeSolution:
    """Scalars for a scalar solve; arrays (NaN at singular points) otherwise."""

    t: complex | np.ndarray              # E+_load / E+_src
    gamma: complex | np.ndarray          # E-_src / E+_src
    through_power: float | np.ndarray
    reflected_power: float | np.ndarray


def _mul(x, y) -> np.ndarray:
    """Complex x * y, elementwise, as (xr yr - xi yi) + j (xr yi + xi yr)."""
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    out = np.array(xr * yr - xi * yi, dtype=complex)
    out.imag = xr * yi + xi * yr
    return out


def _power(z) -> np.ndarray:
    """|z|^2, rounded as the scalar abs(z) ** 2 (pow, not a square)."""
    return np.float_power(np.hypot(z.real, z.imag), 2)


# Searches and sweeps solve the same layers at the same frequencies again and
# again: memoized per (medium or layer, frequency shape, float64 bytes), read-only.
@functools.lru_cache(maxsize=1024)
def _impedance(medium: Medium, shape: tuple, data: bytes) -> np.ndarray:
    out = np.asarray(intrinsic_impedance(medium, np.frombuffer(data).reshape(shape)))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=1024)
def _line(layer: Layer, shape: tuple, data: bytes) -> np.ndarray:
    """Transmission-line matrices of one layer, shape (2, 2) + frequency shape."""
    z = _impedance(layer.medium, shape, data)
    bl = _mul(phase_constant(layer.medium, np.frombuffer(data).reshape(shape)),
              layer.thickness)
    cos, sin = np.cos(bl), np.sin(bl)
    out = np.array([[cos, _mul(_mul(1j, z), sin)], [_mul(1j, sin) / z, cos]])
    out.flags.writeable = False
    return out


def solve_stack(stack: StackSpec, surface_admittance, frequency) -> CascadeSolution:
    """End-to-end T and Gamma of the stack, broadcast over admittance and frequency.

    through_power is the power fraction crossing into the load half-space,
    |T|^2 Re(1/Z_load*)/Re(1/Z_src*); for real impedances this is the familiar
    |T|^2 Z_src/Z_load.

    A point whose denominator magnitude is below 1e-12 is a resonance
    singularity rather than a huge valid value: a scalar solve raises
    DegenerateStackError, an array solve returns NaN in every field there.
    """
    y = np.asarray(surface_admittance, dtype=complex)
    f = np.asarray(frequency, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError(f"shunt admittance must be finite, got {surface_admittance}")
    if y.size == 0 or f.size == 0:
        raise ValueError("solve of zero admittances or frequencies is undefined")
    nd = max(y.ndim, f.ndim)  # align both on the same trailing batch axes
    y = y.reshape((1,) * (nd - y.ndim) + y.shape)
    key, batch = (f.shape, f.tobytes()), (1,) * (nd - f.ndim) + f.shape
    shunt = np.zeros((2, 2) + y.shape, dtype=complex)
    shunt[0, 0], shunt[1, 0], shunt[1, 1] = 1.0, y, 1.0
    mats = [_line(layer, *key).reshape((2, 2) + batch) for layer in stack.layers]
    mats.insert(stack.surface_index, shunt)
    m = mats[0]
    for nxt in mats[1:]:  # m @ nxt, each entry summed as row . column
        terms = _mul(m[:, :, None], nxt[None])
        m = terms[:, 0] + terms[:, 1]
    (a, b), (c, d) = m

    z_src, z_load = (_impedance(medium, *key).reshape(batch)
                     for medium in (stack.source_medium, stack.load_medium))
    b_load, c_src, d_ratio = b / z_load, _mul(c, z_src), _mul(d, z_src) / z_load
    den = a + b_load + c_src + d_ratio
    size = np.hypot(den.real, den.imag)
    singular = size < 1e-12
    if nd == 0 and singular:
        raise DegenerateStackError(f"singular stack: |denominator| = {size:.3e}")
    with np.errstate(invalid="ignore"):  # NaN marks the singular points
        den = np.where(singular, np.nan, den)
        t = 2.0 / den
        gamma = (a + b_load - c_src - d_ratio) / den
    through = _power(t) * (z_load.real / _power(z_load)) / (z_src.real / _power(z_src))
    reflected = _power(gamma)
    if nd == 0:
        return CascadeSolution(complex(t), complex(gamma), float(through), float(reflected))
    return CascadeSolution(t, gamma, through, reflected)


def through_power_db(stack: StackSpec, surface_admittance: complex, frequency: float) -> float:
    """10 log10 of the through power; -inf when nothing gets through."""
    p = solve_stack(stack, surface_admittance, frequency).through_power
    if p <= 0.0:
        return float("-inf")
    return float(10.0 * np.log10(p))
