"""Reflection reduction over frequency, and how the trough moves with bias.

The matched bias voltage carves a deep reflection trough at the operating
frequency; detuning the capacitance slides the trough sideways.  Emits one
CSV per bias voltage.
"""

from pathlib import Path

import numpy as np

from mediamatch import admittances, best_voltage, reflection_spectrum, varactor_at
from mediamatch.scenario import default_water_scenario

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

scenario = default_water_scenario()
stack = scenario.stack()
freqs = list(np.linspace(1.8e9, 3.0e9, 121))

matched = best_voltage(stack, scenario.circuit, scenario.frequency,
                       scenario.voltage_set).best_voltage
print(f"matched bias on the water stack: {matched:.1f} V")

circuit = scenario.circuit
for voltage in (matched, 20.0, 30.0):
    ys = admittances(circuit, *varactor_at(circuit.varactors, voltage), freqs)
    rows = reflection_spectrum(stack, freqs, ys)
    path = OUT / f"spectrum_{voltage:g}V.csv"
    with open(path, "w") as fh:
        fh.write("frequency_hz,reflection_db,reduction_db\n")
        for f, refl, red in rows:
            fh.write(f"{f:.10g},{refl:.10g},{red:.10g}\n")
    trough = min(rows, key=lambda r: r[1])
    at_center = min(rows, key=lambda r: abs(r[0] - scenario.frequency))
    print(f"  {voltage:4.1f} V: trough {trough[1]:7.2f} dB at {trough[0] / 1e9:.2f} GHz, "
          f"reduction at 2.4 GHz {at_center[2]:6.2f} dB  -> {path.name}")

print("""
The matched voltage puts the trough on the operating frequency; raising the
bias (less capacitance, less susceptance) slides it up-band. In a live
deployment that frequency selectivity is what stage-3 fine tuning leans on.
""")
