"""Surface + layered-media stack, solved through the affine form of its shunt.

The stack between the source and load half-spaces is a chain M of 2x2
transmission (ABCD) matrices: one line matrix per layer, with the shunt
[[1, 0], [Y, 1]] of the surface admittance Y at the surface's position.  With
r = [1, Z_src], r' = [1, -Z_src] and c = [1, 1/Z_load]^T,

    T = 2 / (r M c)        Gamma = (r' M c) / (r M c)

The shunt is the identity plus Y in its lower-left entry, so r M c =
alpha + beta Y and r' M c = alpha_gamma + beta_gamma Y.  alpha (alpha_gamma)
is r L c (r' L c) for the chain L of the lines alone; beta (beta_gamma) is the
second entry of r (r') carried through the lines before the surface times the
first entry of c carried back through the lines after it.  The through power
is |T|^2 kappa with kappa = Re(1/Z_load*) / Re(1/Z_src*).

stack_coefficients does the chain product once per (structure, layer
thicknesses, frequencies), memoized.  The thicknesses may carry leading rows
axes, over which bl = k d broadcasts, so one build covers a sweep's family of
stacks.  solve_stack evaluates the expressions above with numpy broadcasting
over rows, admittance and frequency.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .media import Layer, Medium, _check_frequency, _impedance, _permittivity, _wavenumber

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

    @property
    def structure(self) -> tuple:
        """(source, load, layer media, surface_index): all but the thicknesses."""
        return (self.source_medium, self.load_medium,
                tuple(layer.medium for layer in self.layers), self.surface_index)

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


def _scalar_times(p, q) -> np.ndarray:
    """p * q with each real product rounded apart, as numpy complex scalars
    multiply; numpy's array loop fuses them (FMA) where the CPU has it."""
    out = np.empty(np.broadcast_shapes(np.shape(p), np.shape(q)), dtype=complex)
    out.real, out.imag = p.real * q.real - p.imag * q.imag, p.real * q.imag + p.imag * q.real
    return out


# Searches, sweeps and responders solve the same stack at the same frequencies
# again and again: memoized per (structure, thicknesses, frequencies), read-only.
@functools.lru_cache(maxsize=1024)
def _coefficients(structure: tuple, rows: tuple, thicknesses: bytes, shape: tuple,
                  data: bytes) -> tuple:
    source, load, layer_media, surface_index = structure
    f = np.frombuffer(data).reshape(shape)
    d = np.frombuffer(thicknesses).reshape(rows + (len(layer_media),))
    _check_frequency(f)  # once per build: every medium's quantities share f
    # A one-frequency stack's entries are numpy scalars, which round each real
    # product apart: a rows build multiplies as they do, keeping each row's bits.
    times = _scalar_times if rows and f.ndim == 0 else operator.mul
    eps = {m: _permittivity(m, f) for m in (source, load, *layer_media)}
    z_src, z_load = _impedance(source, eps[source]), _impedance(load, eps[load])
    lines = []  # (A = D, B, C) of each layer's line matrix
    for j, m in enumerate(layer_media):
        z = _impedance(m, eps[m])
        bl = _wavenumber(m, eps[m], f) * d[..., j].reshape(rows + (1,) * len(shape))
        lines.append((np.cos(bl), times(1j * z, np.sin(bl)), 1j * np.sin(bl) / z))
    x = np.ones((2,) + rows + shape, dtype=complex)  # rows r, r', stacked ahead of rows
    y = np.array([z_src, -z_src]).reshape((2,) + (1,) * len(rows) + shape)
    y_after = [y]  # second entries of the rows after 0, 1, ... lines
    for a, b, c in lines:
        x, y = x * a + y * c, x * b + y * a
        y_after.append(y)
    u, v = np.ones(rows + shape, dtype=complex), 1.0 / z_load  # column c
    for a, b, c in reversed(lines[surface_index:]):
        u, v = times(a, u) + times(b, v), times(c, u) + times(a, v)
    (alpha, alpha_gamma), (beta, beta_gamma) = x + y / z_load, y_after[surface_index] * u
    kappa = (z_load.real / abs(z_load) ** 2) / (z_src.real / abs(z_src) ** 2)
    out = tuple(map(np.asarray, (alpha, beta, alpha_gamma, beta_gamma, kappa)))
    for array in out:
        array.flags.writeable = False
    return out


def stack_coefficients(stack: StackSpec, frequency, thicknesses=None) -> tuple:
    """(alpha, beta, alpha_gamma, beta_gamma, kappa), each shaped like frequency.

    thicknesses (m), shaped (rows..., len(stack.layers)), replaces the stack's
    own and puts its leading rows axes on the first four.
    """
    f = np.asarray(frequency, dtype=float)
    d = np.asarray([layer.thickness for layer in stack.layers] if thicknesses is None
                   else thicknesses, dtype=float)
    return _coefficients(stack.structure, d.shape[:-1], d.tobytes(), f.shape, f.tobytes())


def solve_stack(stack: StackSpec, surface_admittance, frequency,
                thicknesses=None) -> CascadeSolution:
    """End-to-end T and Gamma of the stack, broadcast over admittance and frequency.

    through_power is the power fraction crossing into the load half-space,
    |T|^2 Re(1/Z_load*)/Re(1/Z_src*); for real impedances this is the familiar
    |T|^2 Z_src/Z_load.  thicknesses is as in stack_coefficients; its rows
    axes broadcast against the admittance's.

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
    alpha, beta, alpha_gamma, beta_gamma, kappa = stack_coefficients(stack, f, thicknesses)
    with np.errstate(over="ignore"):  # a huge admittance overflows to inf: T = 0
        den = alpha + beta * y
    size = abs(den)
    singular = size < 1e-12
    if den.ndim == 0 and singular:
        raise DegenerateStackError(f"singular stack: |denominator| = {size:.3e}")
    with np.errstate(invalid="ignore", over="ignore"):  # NaN marks the singular points
        den = np.where(singular, np.nan, den)
        t = 2.0 / den
        gamma = (alpha_gamma + beta_gamma * y) / den
    through, reflected = abs(t) ** 2 * kappa, abs(gamma) ** 2
    if den.ndim == 0:
        return CascadeSolution(complex(t), complex(gamma), float(through), float(reflected))
    return CascadeSolution(t, gamma, through, reflected)


def through_power_db(stack: StackSpec, surface_admittance: complex, frequency: float) -> float:
    """10 log10 of the through power; -inf when nothing gets through."""
    p = solve_stack(stack, surface_admittance, frequency).through_power
    if p <= 0.0:
        return float("-inf")
    return float(10.0 * np.log10(p))
