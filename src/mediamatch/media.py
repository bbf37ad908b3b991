"""Electromagnetic media and the bare two-medium interface.

A medium is described by its relative permittivity, relative permeability
(positive; 1.0 for every built-in medium) and conductivity.  Conductivity
folds into a complex permittivity under the e^{+j omega t} time convention,
so lossy media carry a negative imaginary part.  All derived quantities
(intrinsic impedance and phase constant, at one frequency or an array of
them; interface reflection/transmission) follow from those three numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# CODATA vacuum constants
Z_VACUUM = 376.730313668        # ohm, impedance of free space
C_VACUUM = 299792458.0          # m/s
EPS_VACUUM = 8.8541878128e-12   # F/m


@dataclass(frozen=True)
class Medium:
    """A homogeneous propagation medium.

    relative_permittivity is dimensionless (>= 1), relative_permeability is
    dimensionless (> 0, else the wave impedance is zero or imaginary and
    carries no power), conductivity is in S/m.
    """

    name: str
    relative_permittivity: float
    relative_permeability: float = 1.0
    conductivity: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.relative_permittivity) or self.relative_permittivity < 1.0:
            raise ValueError(f"relative_permittivity must be >= 1, got {self.relative_permittivity}")
        if not math.isfinite(self.relative_permeability) or self.relative_permeability <= 0.0:
            raise ValueError(
                f"relative_permeability must be > 0, got {self.relative_permeability}")
        if not math.isfinite(self.conductivity) or self.conductivity < 0.0:
            raise ValueError(f"conductivity must be >= 0, got {self.conductivity}")

    def with_conductivity(self, sigma: float, name: str | None = None) -> "Medium":
        """Lossy variant of this medium with a user-supplied conductivity."""
        return Medium(name or f"{self.name}-lossy", self.relative_permittivity,
                      self.relative_permeability, sigma)


@dataclass(frozen=True)
class Layer:
    """A slab of a medium with finite thickness in meters."""

    medium: Medium
    thickness: float

    def __post_init__(self):
        if not math.isfinite(self.thickness) or self.thickness <= 0.0:
            raise ValueError(f"layer thickness must be positive and finite, got {self.thickness}")


@dataclass(frozen=True)
class FresnelResult:
    """Interface solution: field coefficients and the power split."""

    gamma: complex          # reflection coefficient
    t: complex              # transmission coefficient, t = 1 + gamma
    reflected_power: float  # |gamma|^2
    through_power: float    # |t|^2 * Re(Z_src) / Re(Z_dst) in the lossless case


def complex_permittivity(medium: Medium, frequency):
    """Relative permittivity including the conductive loss term.

    Under e^{+j omega t}: eps = eps_r - j sigma / (omega eps_0).
    """
    if not np.all(np.isfinite(frequency) & (np.asarray(frequency) > 0.0)):
        raise ValueError(f"frequency must be positive, got {frequency}")
    omega = 2.0 * np.pi * frequency
    return medium.relative_permittivity - 1j * (medium.conductivity / (omega * EPS_VACUUM))


def intrinsic_impedance(medium: Medium, frequency):
    """Intrinsic wave impedance Z = Z_vac * sqrt(mu_r / eps_c), principal root."""
    f = np.asarray(frequency, dtype=float)
    return _quantities(medium, f.shape, f.tobytes())[0]


def phase_constant(medium: Medium, frequency):
    """Wavenumber k = (omega/c) sqrt(mu_r eps_c) in rad/m.

    Purely real for lossless media; a positive imaginary magnitude encodes
    attenuation when sigma > 0.
    """
    f = np.asarray(frequency, dtype=float)
    return _quantities(medium, f.shape, f.tobytes())[1]


# The one evaluator of both quantities.  Stacks over the same media and
# frequencies differ only in their thicknesses: each medium's quantities are
# memoized per frequencies, read-only.
@functools.lru_cache(maxsize=256)
def _quantities(medium: Medium, shape: tuple, data: bytes) -> tuple:
    """(impedance, wavenumber) at the frequencies whose float64 bytes are data."""
    f = np.frombuffer(data).reshape(shape)
    eps_c = complex_permittivity(medium, f)
    # Python's complex division point by point: numpy's rounds arrays differently
    ratio = [medium.relative_permeability / complex(e) for e in np.ravel(eps_c)]
    out = (Z_VACUUM * np.sqrt(np.reshape(ratio, shape)),
           (2.0 * np.pi * f / C_VACUUM) * np.sqrt(medium.relative_permeability * eps_c))
    for q in out:
        if isinstance(q, np.ndarray):  # a one-frequency medium's are numpy scalars
            q.flags.writeable = False
    return out


def fresnel_interface(src: Medium, dst: Medium, frequency: float) -> FresnelResult:
    """Reflection/transmission for a plane wave hitting a bare interface.

    gamma = (Z_dst - Z_src) / (Z_dst + Z_src) and t = 1 + gamma.  The power
    bookkeeping divides out the wave impedances so that, for lossless media,
    reflected_power + through_power == 1.
    """
    z_src = intrinsic_impedance(src, frequency)
    z_dst = intrinsic_impedance(dst, frequency)
    gamma = (z_dst - z_src) / (z_dst + z_src)
    t = 1.0 + gamma
    # power flux ~ |E|^2 Re(1/Z*); reduces to |t|^2 Z_src/Z_dst for real Z
    flux_src = z_src.real / abs(z_src) ** 2
    flux_dst = z_dst.real / abs(z_dst) ** 2
    return FresnelResult(
        gamma=complex(gamma),
        t=complex(t),
        reflected_power=float(abs(gamma) ** 2),
        through_power=float(abs(t) ** 2 * flux_dst / flux_src),
    )


# Built-in media (permittivities of the usual suspects at 2.4 GHz, sigma = 0
# so that matching behaviour is isolated from attenuation; lossy variants are
# one with_conductivity() call away).
AIR = Medium("air", 1.0)
WATER = Medium("water", 81.0)
SKIN = Medium("skin", 43.75)
FAT = Medium("fat", 5.46)
MUSCLE = Medium("muscle", 55.03)

BUILTIN_MEDIA = {m.name: m for m in (AIR, WATER, SKIN, FAT, MUSCLE)}
