"""From bias voltage to surface admittance: the element circuit end to end.

Calibrates the patch / bias-wire inductances against the varactor table,
then tabulates C(V), R(V) and the resulting Y_s = G + jB at each control
voltage, checking the closed-form approximation along the way.
"""

import numpy as np

from mediamatch import (DEFAULT_VOLTAGE_SET, SMV1405_TABLE, admittance_approx,
                        admittance_at_voltage, admittance_exact,
                        calibrate_inductances, varactor_at)

F = 2.4e9

circuit = calibrate_inductances(SMV1405_TABLE, F, target_span=(0.0, 0.1),
                                control_voltages=DEFAULT_VOLTAGE_SET)
print(f"calibrated: L1 = {circuit.patch_inductance * 1e9:.3f} nH (patch), "
      f"L2 = {circuit.bias_wire_inductance * 1e9:.3f} nH (bias wire)")

print("\n  V      C (pF)   R (ohm)   G (mS)     B (mS)    G/B")
for v in DEFAULT_VOLTAGE_SET:
    c, r = varactor_at(SMV1405_TABLE, v)
    y = admittance_at_voltage(circuit, v, F)
    print(f"{v:5.1f}   {c * 1e12:6.2f}   {r:6.2f}   {y.real * 1e3:7.4f}  "
          f"{y.imag * 1e3:8.3f}   {y.real / y.imag:6.3f}")

print("\nsusceptance spans ~0 to >100 mS while the conductance stays an order")
print("of magnitude lower: a big tuning range at low loss.")

# closed-form vs exact branch arithmetic
worst = 0.0
for v in SMV1405_TABLE.voltages:
    c, r = varactor_at(SMV1405_TABLE, v)
    ye = admittance_exact(circuit, c, r, F)
    ya = admittance_approx(circuit, c, r, F)
    worst = max(worst, abs(ya - ye) / abs(ye))
print(f"\nclosed-form approximation vs exact: worst relative error {worst:.2%}")

# susceptance rises with capacitance until the series resonance bites
print("\nB vs C on the calibrated circuit:")
for c_pf in (0.7, 1.0, 1.5, 2.0, 3.0, 3.7):
    y = admittance_exact(circuit, c_pf * 1e-12, 0.4, F)
    bar = "#" * int(y.imag * 400)
    print(f"  {c_pf:4.1f} pF  {y.imag * 1e3:8.3f} mS |{bar}")
