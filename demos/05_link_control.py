"""One controlled link, stage by stage.

Samples a multipath channel, runs the three-stage controller against its RSS
feedback, and narrates what each stage bought.  Then runs 45 links as one batch
for the gain distribution.
"""

import numpy as np

from mediamatch import gains_db, run_controllers
from mediamatch.harness import median_lower
from mediamatch.channel import FeedbackOracle
from mediamatch.scenario import (CHANNEL_STREAM, VOTING_STREAM, default_water_scenario,
                                 link_stream)

scenario = default_water_scenario(seed=5)
responder = scenario.responder()

# link 1 of the scenario, with the random streams `links` would give it
channel = scenario.sample_link_channel(link_stream(scenario.seed, 1, CHANNEL_STREAM), responder)
oracle = FeedbackOracle(channel, quantization_db=scenario.channel.rss_quantization_db)
trace = run_controllers(oracle, scenario.n_elements, voltages=scenario.voltage_set,
                        rng_seeds=[link_stream(scenario.seed, 1, VOTING_STREAM)])  # one link
(codes, bits), best_db = trace.best()[0]  # best probe, best reading through each stage
on_bits = np.unpackbits(bits, count=scenario.n_elements, bitorder="little")
# codes are positions in the trace's one alphabet: on at codes[0], off at codes[1]
voltages = np.asarray(trace.levels)[np.where(on_bits, *codes)].tolist()

(gain,), (base_db,) = gains_db([channel], trace.levels, trace.configs())  # gain and baseline
print(f"baseline (no surface): {base_db:7.2f} dB")
for stage, label in ((1, "uniform voltage probe"),
                     (2, "randomized majority voting"),
                     (3, "adjacent-voltage fine tune")):
    best = best_db[stage - 1]
    (n,) = trace.probes(stage)
    print(f"stage {stage} ({label:28s}): {n:3d} probes, best so far "
          f"{best:7.2f} dB ({best - base_db:+.2f} dB)")

print(f"\nfinal gain: {gain:+.2f} dB "
      f"using {trace.probes()[0]} probes total")
v1, v0 = max(voltages), min(voltages)
on = voltages.count(v1)
print(f"final config: {on}/{len(voltages)} elements at {v1:g} V, rest at {v0:g} V")

print("\nfirst probes of the trace:")
for line in trace.serialize()[0].splitlines()[:6]:
    print("  " + line)

print("\nnow 45 links of the same scenario family:")
channels = [scenario.sample_link_channel(link_stream(scenario.seed, i, CHANNEL_STREAM), responder)
            for i in range(45)]
stacked = FeedbackOracle(channels, quantization_db=scenario.channel.rss_quantization_db)
voting = [link_stream(scenario.seed, i, VOTING_STREAM) for i in range(45)]
batch = run_controllers(stacked, scenario.n_elements, voltages=scenario.voltage_set,
                        rng_seeds=voting)  # one trace of 45 links
gains = sorted(gains_db(channels, batch.levels, batch.configs())[0].tolist())
print(f"  median {median_lower(gains):5.2f} dB,  "
      f"p10 {gains[4]:5.2f} dB,  max {gains[-1]:5.2f} dB")
print("  gain CDF:", "  ".join(f"{g:5.1f}" for g in gains[::6]))
