"""Backscatter doubling and endpoint-depth behavior.

Backscatter signals cross the interface twice, so the surface's dB gain is
collected twice; and with a conductive load medium the matched gain holds
steady while absolute received power falls with endpoint depth.
"""

import numpy as np

from mediamatch import best_admittance, gains_db, run_controllers, through_power_db
from mediamatch.channel import FeedbackOracle
from mediamatch.scenario import (CHANNEL_STREAM, VOTING_STREAM, default_water_scenario,
                                 link_stream, load_scenario)
from pathlib import Path

scenario = default_water_scenario(seed=11)
responder = scenario.responder()

print("reciprocal backscatter links (uplink == downlink):")
downs = [scenario.sample_link_channel(link_stream(scenario.seed, i, CHANNEL_STREAM), responder)
         for i in range(5)]
ups = downs  # reciprocity: the uplink retraces the downlink's paths
links = run_controllers(FeedbackOracle(downs, ups), scenario.n_elements,
                        voltages=scenario.voltage_set,
                        rng_seeds=[link_stream(scenario.seed, i, VOTING_STREAM) for i in range(5)])
down, _, both = gains_db(downs, links.levels, links.configs(), ups).tolist()  # both directions
for i, (one, two) in enumerate(zip(down, both)):
    print(f"  link {i}: one-way {one:+6.2f} dB, backscatter {two:+6.2f} dB "
          f"(= 2x within 1e-12: {abs(two - 2 * one) < 1e-12})")

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
