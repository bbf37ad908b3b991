"""Backscatter doubling and endpoint-depth behavior.

Backscatter signals cross the interface twice, so the surface's dB gain is
collected twice; and with a conductive load medium the matched gain holds
steady while absolute received power falls with endpoint depth.
"""

import numpy as np

from mediamatch import (backscatter_gain, best_admittance, oneway_gain,
                        run_controller, through_power_db)
from mediamatch.channel import ProductFeedbackOracle
from mediamatch.scenario import default_water_scenario, load_scenario
from pathlib import Path

scenario = default_water_scenario(seed=11)
responder = scenario.responder()

print("reciprocal backscatter links (uplink == downlink):")
for i in range(5):
    down = scenario.sample_link_channel(11000000 + i, responder)
    up = down  # reciprocity: the uplink retraces the downlink's paths
    oracle = ProductFeedbackOracle(down, up)
    cfg, _ = run_controller(oracle, scenario.n_elements,
                            voltages=scenario.voltage_set, rng_seed=i)
    one = oneway_gain(down, cfg)
    two = backscatter_gain(down, up, cfg)
    print(f"  link {i}: one-way {one:+6.2f} dB, backscatter {two:+6.2f} dB "
          f"(= 2x to {abs(two - 2 * one):.1e})")

print("\nendpoint depth inside a conductive load (tissue stack, sigma = 1 S/m):")
depth_scenario = load_scenario(Path(__file__).parent.parent / "scenarios/tissue_depth.json")
ys = best_admittance(depth_scenario.stack(), depth_scenario.frequency).best_admittance
print("  depth   absolute (dB)   matched gain (dB)")
for depth_cm in (2, 4, 6, 8, 10):
    stack = depth_scenario.stack(load_depth_m=depth_cm * 1e-2)
    matched = through_power_db(stack, ys, depth_scenario.frequency)
    bare = through_power_db(stack, 0j, depth_scenario.frequency)
    print(f"  {depth_cm:3d} cm   {matched:10.2f}      {matched - bare:10.4f}")

print("""
Attenuation eats the absolute signal as the endpoint sinks deeper, but the
matched-vs-bare gain does not move: impedance matching happens at the
interface and is indifferent to what the wave does afterwards. For a
batteryless in-medium endpoint, the doubled backscatter gain is usually the
difference between a dead link and a usable one.
""")
