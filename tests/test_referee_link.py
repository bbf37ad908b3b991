"""Whole links against oracles.reference_link, byte for byte.

Each case runs a link command on a small seeded scenario and rebuilds its
outputs from the referee: every link's trace CSV for ``links`` and the rows
of links.csv, backscatter.csv and bench_controller.csv.  The referee takes
the scenario's channels and s(V) from the library and states everything the
controller does with them on its own.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mediamatch import harness
from mediamatch.control import DEFAULT_VOLTAGE_SET
from mediamatch.scenario import (CHANNEL_STREAM, UPLINK_STREAM, default_water_dict, link_stream,
                                 scenario_from_dict)

import oracles

COMMANDS = {"links": harness.cmd_links, "backscatter": harness.cmd_backscatter,
            "bench-controller": harness.cmd_bench_controller}


def _scenario(rows, cols, seed, voltage_set, **channel):
    raw = default_water_dict(name="referee", array_rows=rows, array_cols=cols, seed=seed,
                             voltage_set_v=list(voltage_set))
    raw["channel"].update(channel)
    return scenario_from_dict(raw)


def _expected(scenario, mode, n_links):
    """The command's CSV text and, for links, each trace's text, from the referee."""
    responder, n, params = scenario.responder(), scenario.n_elements, scenario.channel
    s = {v: responder.s(v) for v in scenario.voltage_set}
    cols = [[r * scenario.cols + c for r in range(scenario.rows)] for c in range(scenario.cols)]
    variants = [(2 * n, None, False)]
    if mode == "bench-controller":
        variants += [(32, cols, False), (2 ** scenario.cols, cols, True)]
    noisy = mode != "backscatter" and params.noise_db is not None

    def channel(link, stream):
        c = scenario.sample_link_channel(link_stream(scenario.seed, link, stream), responder)
        return c.h_env, c.h_elements.tolist(), \
            None if c.phase_jitter is None else c.phase_jitter.tolist()

    rows, traces = [], {}
    for i in range(n_links):
        down = channel(i, CHANNEL_STREAM)
        up = None
        if mode == "backscatter":
            up = down if params.reciprocal_uplink else channel(i, UPLINK_STREAM)
        runs = oracles.reference_link(
            down, s, responder.s_bare, scenario.voltage_set, scenario.seed, i, variants,
            params.noise_db if noisy else None, params.rss_quantization_db, up)
        if mode == "backscatter":
            rows.append((i, scenario.seed, *runs[0]["gains"]))
        elif mode == "bench-controller":
            rows.append((i, scenario.seed, *(run["gain"] for run in runs),
                         *(len(run["probes"]) for run in runs)))
        else:
            run = runs[0]
            base, (stage1, stage2, final) = run["baseline_db"], run["through"]
            stages = [p[0] for p in run["probes"]]
            rows.append((i, scenario.seed, base, final, run["gain"], stage1 - base,
                         stage2 - base, final - stage2, *(stages.count(k) for k in (1, 2, 3))))
            traces[f"traces/link_{i:04d}.csv"] = oracles.row_csv_text(
                "stage,probe_index,config_hash,rss_db",
                [(stage, k, oracles.config_hash_reference(voltages), rss)
                 for k, (stage, voltages, rss) in enumerate(run["probes"])], ".10g")
    command = harness._LINK_COMMANDS[mode]
    return {command.csv: oracles.row_csv_text(command.header, rows), **traces}


def _check(scenario, mode, n_links):
    with tempfile.TemporaryDirectory() as tmp:
        COMMANDS[mode](scenario, tmp, n_links)
        want = _expected(scenario, mode, n_links)
        got = {name: (Path(tmp) / name).read_text() for name in want}
    assert got == want


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4),
       mode=st.sampled_from(sorted(COMMANDS)), n_links=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16),
       voltage_set=st.sampled_from([DEFAULT_VOLTAGE_SET, (30.0, 0.0), (20.0, 10.0, 2.5)]),
       noise_db=st.sampled_from([None, -20.0, -3.0]),
       env_power=st.sampled_from([0.0, 0.25]), element_power=st.sampled_from([0.0, 1 / 64, 1.0]),
       quantization=st.sampled_from([0.1, None, 60.0]), jitter=st.sampled_from([0.0, 0.3]),
       reciprocal=st.booleans())
def test_small_links_match_the_referee(rows, cols, mode, n_links, seed, voltage_set, noise_db,
                                       env_power, element_power, quantization, jitter,
                                       reciprocal):
    """N = 1..16, element and column groups, noise on and off, silent
    channels (both powers zero), degenerate stage 1 (a 60 dB grid or a
    silent channel reads every level alike) and 1-5 links per batch."""
    scenario = _scenario(rows, cols, seed, voltage_set, noise_db=noise_db, env_power=env_power,
                         element_power=element_power, rss_quantization_db=quantization,
                         phase_jitter_std=jitter, reciprocal_uplink=reciprocal)
    _check(scenario, mode, n_links)


def test_16x16_link_matches_the_referee():
    """From 16 x 16 on, on/off probes read the subset-sum tables; with two
    control voltages stages 1 and 3 read them too."""
    scenario = _scenario(16, 16, 4, (30.0, 0.0), noise_db=-20.0, phase_jitter_std=0.3,
                         element_power=1 / 256)
    _check(scenario, "links", 1)
