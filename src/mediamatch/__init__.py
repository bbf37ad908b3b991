"""mediamatch: impedance matching of media interfaces with a tunable surface.

Cascaded two-port model of a surface + layered media, a voltage-tunable
surface-admittance circuit, admittance/voltage matching searches, a seeded
multipath feedback channel, and the three-stage black-box surface controller.
Scenarios and commands live in mediamatch.scenario and mediamatch.harness,
which ``import mediamatch`` leaves unloaded.
"""

from .media import AIR, BUILTIN_MEDIA, fresnel_interface, intrinsic_impedance, phase_constant
from .cascade import through_power_db
from .surface import (SMV1405_TABLE, admittance_approx, admittance_at_voltage,
                      admittance_exact, admittances, calibrate_inductances, varactor_at)
from .matching import (SweepGrid, best_admittance, best_voltage, reflection_spectrum,
                       sweep_through_power)
from .channel import baseline_channel, gains_db
from .control import DEFAULT_VOLTAGE_SET, run_controllers

__version__ = "0.1.0"
