"""One controlled link, stage by stage.

Samples a multipath channel, runs the three-stage controller against its RSS
feedback, and narrates what each stage bought.  Then repeats over 45 links
for the gain distribution.
"""

import numpy as np

from mediamatch import run_controller, oneway_gain, baseline_channel
from mediamatch.harness import median_lower
from mediamatch.channel import FeedbackOracle
from mediamatch.scenario import default_water_scenario

scenario = default_water_scenario(seed=5)
responder = scenario.responder()

channel = scenario.sample_link_channel(5000001, responder)
oracle = FeedbackOracle(channel, quantization_db=scenario.channel.rss_quantization_db)
config, trace = run_controller(oracle, scenario.n_elements,
                               voltages=scenario.voltage_set, rng_seed=42)

base_db = 20 * np.log10(abs(baseline_channel(channel)))
print(f"baseline (no surface): {base_db:7.2f} dB")
for stage, label in ((1, "uniform voltage probe"),
                     (2, "randomized majority voting"),
                     (3, "adjacent-voltage fine tune")):
    best = trace.best_probe(through_stage=stage)
    n = trace.stage_probe_count(stage)
    print(f"stage {stage} ({label:28s}): {n:3d} probes, best so far "
          f"{best.rss_db:7.2f} dB ({best.rss_db - base_db:+.2f} dB)")

print(f"\nfinal gain: {oneway_gain(channel, config):+.2f} dB "
      f"using {trace.budget_used} probes total")
v1 = max(config.voltages)
v0 = min(config.voltages)
on = sum(1 for v in config.voltages if v == v1)
print(f"final config: {on}/{len(config)} elements at {v1:g} V, rest at {v0:g} V")

print("\nfirst probes of the trace:")
for line in trace.serialize().splitlines()[:6]:
    print("  " + line)

print("\nnow 45 links of the same scenario family:")
gains = []
for i in range(45):
    ch = scenario.sample_link_channel(scenario.seed * 1000000 + i, responder)
    orc = FeedbackOracle(ch, quantization_db=scenario.channel.rss_quantization_db)
    cfg, _ = run_controller(orc, scenario.n_elements,
                            voltages=scenario.voltage_set,
                            rng_seed=scenario.seed * 1000000 + i + 500000)
    gains.append(oneway_gain(ch, cfg))
gains.sort()
print(f"  median {median_lower(gains):5.2f} dB,  "
      f"p10 {gains[4]:5.2f} dB,  max {gains[-1]:5.2f} dB")
print("  gain CDF:", "  ".join(f"{g:5.1f}" for g in gains[::6]))
