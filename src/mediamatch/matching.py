"""Admittance / voltage search for maximal through-interface power.

The matcher only ever searches purely imaginary surface admittances (an
idealized lossless surface); conductance enters through the varactor path
when optimizing over bias voltages instead.  Every grid is one solve_stack
call, and the continuous search reads the minimiser straight off the stack's
affine coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import DB_FLOOR, DegenerateStackError, StackSpec, solve_stack, stack_coefficients
from .surface import ElementCircuit, admittance_at_voltage, admittance_exact, varactor_at

@dataclass(frozen=True)
class SweepGrid:
    """Two named, strictly monotone axes plus the operating frequency."""

    axis1_name: str
    axis1_values: tuple[float, ...]
    axis2_name: str
    axis2_values: tuple[float, ...]
    frequency: float

    def __post_init__(self):
        for name, values in ((self.axis1_name, self.axis1_values),
                             (self.axis2_name, self.axis2_values)):
            v = np.asarray(values, dtype=float)
            if v.size == 0:
                raise ValueError(f"axis {name!r} is empty")
            if v.size > 1 and not (np.all(v[1:] > v[:-1]) or np.all(v[1:] < v[:-1])):
                raise ValueError(f"axis {name!r} must be strictly monotone")


@dataclass(frozen=True)
class MatchResult:
    """Best surface setting found for one stack."""

    through_power_db: float
    baseline_db: float          # through power at Y_s = 0
    gain_db: float              # through_power_db - baseline_db, >= 0
    best_admittance: complex | None = None
    best_voltage: float | None = None


def _db(power, floor: float) -> np.ndarray:
    """10 log10 of each power, ``floor`` where it is not positive (or NaN)."""
    power = np.asarray(power)
    out, ok = np.full(power.shape, floor), power > 0
    out[ok] = 10.0 * np.log10(power[ok])
    return out


def _through_db(stack: StackSpec, ys: np.ndarray, frequency: float,
                thicknesses=None) -> np.ndarray:
    """Through power in dB; -inf where nothing gets through or the stack is singular."""
    return _db(solve_stack(stack, ys, frequency, thicknesses).through_power, float("-inf"))


def _axis_admittances(name: str, values, circuit: ElementCircuit | None,
                      frequency: float) -> np.ndarray:
    """Surface admittance at each axis-2 coordinate.  A capacitance (pF) takes
    the table's loss resistance at its clamped value, one np.interp per axis."""
    if name == "susceptance_s":
        return np.array([1j * value for value in values])
    if circuit is None:
        raise ValueError(f"axis {name!r} needs an ElementCircuit")
    if name != "capacitance_pf":
        raise ValueError(f"unknown axis-2 interpretation {name!r}")
    # C and R both fall with the bias voltage, so sorting each sorts the rows
    c, r = np.sort(circuit.varactors.capacitances), np.sort(circuit.varactors.resistances)
    caps = np.asarray(values, dtype=float) * 1e-12
    res = np.interp(np.clip(caps, c[0], c[-1]), c, r)
    return np.array([admittance_exact(circuit, cap, loss, frequency)
                     for cap, loss in zip(caps.tolist(), res.tolist())])


def sweep_through_power(stack_family, grid: SweepGrid,
                        circuit: ElementCircuit | None = None) -> np.ndarray:
    """Dense matrix of through power (dB), rows = axis1, cols = axis2.

    stack_family maps an axis-1 value (gap, fat thickness, ...) to a
    StackSpec.  Its stacks may differ only in layer thicknesses: they must share
    source, load, layer media and surface_index, else ValueError names the
    axis.  The grid is one chain build over the stacked thicknesses and one
    broadcast solve.  Singular grid points are recorded at the -200 dB floor.
    """
    ys = _axis_admittances(grid.axis2_name, grid.axis2_values, circuit, grid.frequency)
    stacks = [stack_family(a1) for a1 in grid.axis1_values]
    if any(stack.structure != stacks[0].structure for stack in stacks):
        raise ValueError(f"axis {grid.axis1_name!r}: stacks differ in more than thicknesses")
    # rows axes (axis 1, 1), so that the axis-2 admittances broadcast along the last
    thicknesses = [[[layer.thickness for layer in stack.layers]] for stack in stacks]
    return np.maximum(_through_db(stacks[0], ys, grid.frequency, thicknesses), DB_FLOOR)


def best_admittance(stack: StackSpec, frequency: float) -> MatchResult:
    """Exact best purely imaginary Y_s = jB over B in [0, 0.12] S.

    Wherever the surface sits, the cascade denominator is affine in its
    admittance, den(Y) = alpha + beta Y, and T = 2 / den.  So |den(jB)|^2 is
    a convex quadratic in B whose minimiser, Im(conj(alpha) beta) / |beta|^2
    clipped to the range, maximises the through power.  Y_s = 0 is reported
    unless that point is strictly better, so the gain is never negative.
    """
    alpha, beta = stack_coefficients(stack, frequency)[:2]
    b_star = float(np.clip((alpha.conjugate() * beta).imag / abs(beta) ** 2, 0.0, 0.12))
    baseline, best_db = _through_db(stack, np.array([0j, 1j * b_star]), frequency)
    if not best_db > baseline:
        b_star, best_db = 0.0, baseline
    return MatchResult(
        through_power_db=float(best_db),
        baseline_db=float(baseline),
        gain_db=float(best_db - baseline),
        best_admittance=1j * b_star,
    )


def best_voltage(stack: StackSpec, circuit: ElementCircuit, frequency: float,
                 voltage_set) -> MatchResult:
    """Argmax of through power over a discrete voltage set (full lossy Y_s).

    Ties go to the higher voltage: the varactor table says higher bias means
    lower loss resistance.
    """
    voltages = list(voltage_set)
    if not voltages:
        raise ValueError("voltage set is empty")
    lo, hi = circuit.varactors.voltage_range
    for v in voltages:
        if not lo <= v <= hi:
            raise ValueError(f"voltage {v} V outside varactor table range [{lo}, {hi}] V")

    order = sorted(voltages, reverse=True)  # descending, so strict > keeps higher V on ties
    ys = np.array([0j] + [admittance_at_voltage(circuit, v, frequency) for v in order])
    baseline, *dbs = _through_db(stack, ys, frequency)
    best_v, best_db = None, float("-inf")
    for v, db in zip(order, dbs):
        if db > best_db:
            best_v, best_db = v, db
    return MatchResult(
        through_power_db=float(best_db),
        baseline_db=float(baseline),
        gain_db=float(best_db - baseline),
        best_voltage=best_v,
    )


def reflection_spectrum(stack: StackSpec, frequencies, ys: complex | None = None,
                        circuit: ElementCircuit | None = None,
                        voltage: float | None = None):
    """Reflection vs frequency and the reduction against the bare stack.

    Exactly one of ys (a frequency-independent admittance) or
    (circuit, voltage) must be given; in the latter case the voltage's (C, R)
    is read off the varactor table once and the admittance is re-evaluated at
    every frequency, which is what moves the reflection trough as the
    capacitance changes.

    Returns a list of (frequency, reflection_db, reduction_db) tuples.
    """
    freqs = np.array(list(frequencies), dtype=float)
    if np.any(freqs[1:] < freqs[:-1]):
        raise ValueError("frequency list must be monotone non-decreasing")
    if (ys is None) == (voltage is None):
        raise ValueError("give either a fixed admittance or a (circuit, voltage) pair")
    if voltage is not None and circuit is None:
        raise ValueError("voltage mode needs the element circuit")

    if ys is None:
        c, r = varactor_at(circuit.varactors, voltage)
        ys = np.array([admittance_exact(circuit, c, r, f) for f in freqs.tolist()])
    refl = solve_stack(stack, ys, freqs).reflected_power
    bare = solve_stack(stack, 0j, freqs).reflected_power
    if np.isnan(refl).any() or np.isnan(bare).any():
        raise DegenerateStackError("singular stack inside the spectrum")
    refl_db, bare_db = _db(refl, DB_FLOOR), _db(bare, DB_FLOOR)
    return list(zip(freqs.tolist(), refl_db.tolist(), (bare_db - refl_db).tolist()))
