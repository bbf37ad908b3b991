"""Voltage-tunable surface admittance from the element equivalent circuit.

Each surface element behaves as two parallel branches: the patch/varactor
branch (series C, R, L1) and the biasing-wire branch (L2):

    Y_s = 1 / (1/(j w C) + R + j w L1) + 1 / (j w L2)

The reverse-bias voltage sets C and R through the measured varactor table,
so voltage -> (C, R) -> Y_s is the whole control path.  L1 and L2 are not
direct measurements; they are produced once by calibrate_inductances so that
the susceptance sweeps from ~0 up past the target at the bottom of the
voltage range, then frozen into scenario files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ResonanceError(ValueError):
    """The series branch is at or past resonance (1 - w^2 C L1 <= 0)."""


class CalibrationError(ValueError):
    """No inductance pair realizes the requested susceptance span."""


@dataclass(frozen=True)
class VaractorTable:
    """Measured (bias voltage, capacitance, resistance) rows.

    Voltages must be strictly monotone; capacitance and resistance must both
    strictly decrease as the bias voltage increases.  Queries between knots
    interpolate linearly, which preserves that monotonicity; queries outside
    the table range are refused rather than extrapolated.
    """

    voltages: tuple[float, ...]
    capacitances: tuple[float, ...]
    resistances: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.voltages, dtype=float)
        c = np.asarray(self.capacitances, dtype=float)
        r = np.asarray(self.resistances, dtype=float)
        if not (len(v) == len(c) == len(r)) or len(v) < 2:
            raise ValueError("table needs >= 2 rows of equal length")
        dv = np.diff(v)
        if not (np.all(dv > 0) or np.all(dv < 0)):
            raise ValueError("voltages must be strictly monotone without duplicates")
        order = np.argsort(v)
        if not (np.all(np.diff(c[order]) < 0) and np.all(np.diff(r[order]) < 0)):
            raise ValueError("capacitance and resistance must strictly decrease with voltage")

    @property
    def voltage_range(self) -> tuple[float, float]:
        return min(self.voltages), max(self.voltages)


def varactor_at(table: VaractorTable, voltage: float) -> tuple[float, float]:
    """(capacitance, resistance) at a bias voltage, piecewise-linear between knots."""
    lo, hi = table.voltage_range
    if not (lo <= voltage <= hi):
        raise ValueError(f"voltage {voltage} V outside table range [{lo}, {hi}] V")
    v = np.asarray(table.voltages, dtype=float)
    order = np.argsort(v)
    v = v[order]
    c = np.asarray(table.capacitances, dtype=float)[order]
    r = np.asarray(table.resistances, dtype=float)[order]
    return float(np.interp(voltage, v, c)), float(np.interp(voltage, v, r))


# SMV1405-class varactor: SPICE-derived capacitance/resistance vs reverse bias.
SMV1405_TABLE = VaractorTable(
    voltages=(30.0, 20.0, 15.0, 10.0, 5.0, 0.0),
    capacitances=(0.71e-12, 0.81e-12, 0.90e-12, 1.0e-12, 1.32e-12, 3.72e-12),
    resistances=(0.26, 0.30, 0.36, 0.38, 0.45, 0.63),
)


@dataclass(frozen=True)
class ElementCircuit:
    """Per-element LC circuit: patch inductance L1, biasing-wire inductance L2."""

    patch_inductance: float       # H
    bias_wire_inductance: float   # H
    varactors: VaractorTable
    design_frequency: float       # Hz

    def __post_init__(self):
        if self.patch_inductance <= 0 or self.bias_wire_inductance <= 0:
            raise ValueError("inductances must be positive")
        w = 2.0 * np.pi * self.design_frequency
        # the factor 1 - w^2 C L1 is least at the largest table capacitance
        if 1.0 - w * w * max(self.varactors.capacitances) * self.patch_inductance <= 0:
            raise ResonanceError(
                "patch inductance puts a table capacitance past series resonance")


def _passive(admittance: complex) -> complex:
    """The admittance itself; a negative conductance (an active surface) raises."""
    if admittance.real < -1e-15:
        raise ValueError(f"negative conductance {admittance.real} (active surface?)")
    return admittance


def admittance_exact(circuit: ElementCircuit, capacitance: float, resistance: float,
                     frequency: float) -> complex:
    """Exact two-branch evaluation of the element admittance Y_s = G + jB."""
    if capacitance <= 0 or resistance <= 0 or frequency <= 0:
        raise ValueError("capacitance, resistance and frequency must be positive")
    w = 2.0 * np.pi * frequency
    if 1.0 - w * w * capacitance * circuit.patch_inductance <= 0:
        raise ResonanceError(
            f"1 - w^2 C L1 <= 0 at C={capacitance:.3e} F, f={frequency:.3e} Hz")
    branch = 1.0 / (1.0 / (1j * w * capacitance) + resistance + 1j * w * circuit.patch_inductance)
    return _passive(complex(branch + 1.0 / (1j * w * circuit.bias_wire_inductance)))


def admittance_approx(circuit: ElementCircuit, capacitance: float, resistance: float,
                      frequency: float) -> complex:
    """Closed-form small-loss approximation of admittance_exact.

    G ~ w^2 C^2 R / (1 - w^2 C L1)^2
    B ~ w C / (1 - w^2 C L1) - 1 / (w L2)

    Valid while (w C R)^2 is small against the resonance factor; on the
    calibrated circuit it tracks the exact form to well under 2%.
    """
    if capacitance <= 0 or resistance <= 0 or frequency <= 0:
        raise ValueError("capacitance, resistance and frequency must be positive")
    w = 2.0 * np.pi * frequency
    factor = 1.0 - w * w * capacitance * circuit.patch_inductance
    if factor <= 0:
        raise ResonanceError(
            f"1 - w^2 C L1 <= 0 at C={capacitance:.3e} F, f={frequency:.3e} Hz")
    g = (w * capacitance) ** 2 * resistance / factor ** 2
    b = w * capacitance / factor - 1.0 / (w * circuit.bias_wire_inductance)
    return _passive(complex(g, b))


def admittance_at_voltage(circuit: ElementCircuit, voltage: float,
                          frequency: float) -> complex:
    """Bias voltage -> (C, R) from the table -> exact admittance."""
    c, r = varactor_at(circuit.varactors, voltage)
    return admittance_exact(circuit, c, r, frequency)


def calibrate_inductances(table: VaractorTable, frequency: float,
                          target_span: tuple[float, float] = (0.0, 0.1),
                          max_loss_ratio: float = 0.1,
                          resonance_margin: float = 0.05,
                          control_voltages=None) -> ElementCircuit:
    """Deterministic grid search for (L1, L2) realizing a susceptance span.

    The anchor condition pins the top-of-range susceptance: L2 is solved so
    that B at the highest table voltage sits at max(B_min, 12 G), the small
    positive floor keeping conductance an order of magnitude under
    susceptance even at the top voltage.  L1 then walks a 5 pH grid from
    0.1 nH to 1.1 nH; the first value whose exact admittances satisfy

      * resonance factor 1 - w^2 C L1 > resonance_margin for every table C,
      * G <= max_loss_ratio * B at every control voltage,
      * max susceptance >= B_max,

    wins.  Smallest feasible L1 keeps the loss ratio as healthy as possible
    while just covering the span.  Infeasible targets raise CalibrationError
    reporting the best span that was achievable.
    """
    b_min, b_max = target_span
    if b_min >= b_max:
        raise ValueError(f"target span endpoints must satisfy B_min < B_max, got {target_span}")
    if frequency <= 0:
        raise ValueError("frequency must be positive")
    w = 2.0 * np.pi * frequency
    caps = np.asarray(table.capacitances, dtype=float)
    top_voltage = max(table.voltages)
    if control_voltages is None:
        control_voltages = tuple(sorted(table.voltages, reverse=True))
    c_top, r_top = varactor_at(table, top_voltage)

    best_span = None
    for i in range(20, 221):  # L1 = 0.100 .. 1.100 nH in 5 pH steps
        l1 = (i * 0.005) * 1e-9
        if np.any(1.0 - w * w * caps * l1 <= resonance_margin):
            continue
        branch_top = 1.0 / (1.0 / (1j * w * c_top) + r_top + 1j * w * l1)
        b_anchor = max(b_min, 12.0 * branch_top.real)
        headroom = branch_top.imag - b_anchor
        if headroom <= 0:
            continue
        l2 = 1.0 / (w * headroom)
        if not 1e-9 <= l2 <= 50e-9:
            continue
        circuit = ElementCircuit(l1, l2, table, frequency)
        ys = [admittance_at_voltage(circuit, v, frequency) for v in control_voltages]
        if any(y.real < 0 or y.real > max_loss_ratio * y.imag for y in ys):
            continue
        span = max(y.imag for y in ys)
        if best_span is None or span > best_span:
            best_span = span
        if span >= b_max:
            return circuit
    raise CalibrationError(
        f"target span {target_span} S not realizable; best achievable max "
        f"susceptance {best_span if best_span is not None else 0.0:.4g} S")
