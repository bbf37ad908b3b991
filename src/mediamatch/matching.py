"""Admittance / voltage search for maximal through-interface power.

The matcher only ever searches purely imaginary surface admittances (an
idealized lossless surface); conductance enters through the varactor path
when optimizing over bias voltages instead, whose element admittances come
from surface.admittances.  Every grid is one solve_stack call, and the
continuous search reads the minimiser straight off the stack's affine
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cascade import DB_FLOOR, DegenerateStackError, StackSpec, db, solve_stack, stack_coefficients
from .surface import ElementCircuit, admittances, varactor_at


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
    # C and R both fall with the bias voltage, so reversed they rise together
    c, r = (column[::-1] for column in circuit.varactors.knots[1:])
    caps = np.asarray(values, dtype=float) * 1e-12
    return admittances(circuit, caps, np.interp(np.clip(caps, c[0], c[-1]), c, r), frequency)


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
    structure = stacks[0].structure
    if any(stack.structure != structure for stack in stacks):
        raise ValueError(f"axis {grid.axis1_name!r}: stacks differ in more than thicknesses")
    # rows axes (axis 1, 1), so that the axis-2 admittances broadcast along the last
    thicknesses = [[[layer.thickness for layer in stack.layers]] for stack in stacks]
    return np.fmax(db(solve_stack(stacks[0], ys, grid.frequency, thicknesses).through_power),
                   DB_FLOOR)


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
    ys = np.array([0j, 1j * b_star])
    baseline, best_db = db(solve_stack(stack, ys, frequency).through_power)
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
    order = sorted(voltage_set, reverse=True)  # descending, so strict > keeps higher V on ties
    if not order:
        raise ValueError("voltage set is empty")
    ys = admittances(circuit, *varactor_at(circuit.varactors, order), frequency)
    baseline, *dbs = db(solve_stack(stack, np.concatenate(([0j], ys)), frequency).through_power)
    best_v, best_db = None, float("-inf")
    for v, through in zip(order, dbs):
        if through > best_db:
            best_v, best_db = v, through
    return MatchResult(
        through_power_db=float(best_db),
        baseline_db=float(baseline),
        gain_db=float(best_db - baseline),
        best_voltage=best_v,
    )


def reflection_spectrum(stack: StackSpec, frequencies, ys):
    """Reflection vs frequency and the reduction against the bare stack.

    ys is the surface admittance: one for every frequency, or one per
    frequency, such as a bias voltage's element admittances
    admittances(circuit, *varactor_at(circuit.varactors, voltage), frequencies),
    which move the reflection trough as the capacitance changes.

    Returns a list of (frequency, reflection_db, reduction_db) tuples.
    """
    freqs = np.array(list(frequencies), dtype=float)
    if np.any(freqs[1:] < freqs[:-1]):
        raise ValueError("frequency list must be monotone non-decreasing")
    refl = solve_stack(stack, ys, freqs).reflected_power
    bare = solve_stack(stack, 0j, freqs).reflected_power
    if np.isnan(refl).any() or np.isnan(bare).any():
        raise DegenerateStackError("singular stack inside the spectrum")
    refl_db, bare_db = (np.where(p > 0, db(p), DB_FLOOR) for p in (refl, bare))
    return list(zip(freqs.tolist(), refl_db.tolist(), (bare_db - refl_db).tolist()))
