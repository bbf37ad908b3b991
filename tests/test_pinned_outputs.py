"""Seeded command outputs pinned by SHA-256 across versions of the library.

The determinism tests elsewhere compare two runs of one build; these digests
were recorded once and fail on any byte that changes in links.csv, the
per-link traces and channel dumps, backscatter.csv or bench_controller.csv.
Besides the shipped scenarios they cover the feedback-noise, phase-jitter,
separate-uplink and 16x16 paths, which no shipped scenario exercises.
A change that is meant to alter these outputs must say so and re-record them.
"""

import hashlib
from pathlib import Path

import pytest

from mediamatch.harness import cmd_backscatter, cmd_bench_controller, cmd_links
from mediamatch.scenario import default_water_dict, load_scenario, scenario_from_dict

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _variant(name, channel=(), **top):
    """The default water scenario with channel and top-level fields replaced."""
    raw = default_water_dict(name=name, **top)
    raw["channel"].update(channel)
    return scenario_from_dict(raw)


RUNS = {
    "links-water": lambda out: cmd_links(load_scenario(SCENARIOS / "water_links.json"), out, 6),
    "backscatter-water": lambda out: cmd_backscatter(
        load_scenario(SCENARIOS / "water_backscatter.json"), out, 6),
    "backscatter-uplink": lambda out: cmd_backscatter(
        _variant("uplink", {"reciprocal_uplink": False}), out, 4),
    "bench-controller": lambda out: cmd_bench_controller(
        load_scenario(SCENARIOS / "controller_bench.json"), out, 3),
    "links-noise": lambda out: cmd_links(_variant("noise", {"noise_db": -20.0}), out, 4),
    "links-jitter": lambda out: cmd_links(_variant("jitter", {"phase_jitter_std": 0.3}), out, 4),
    "links-16x16": lambda out: cmd_links(
        _variant("16x16", array_rows=16, array_cols=16), out, 4),
}

PINNED = {
    "backscatter-uplink": {
        "backscatter.csv":
            "2699d64157469388723ca610fd0e6da0c25db53466715fea9bd58c171f193110",
    },
    "backscatter-water": {
        "backscatter.csv":
            "7365978888dfa86568a698e63b1fd15e8352215c9a2f64755047fc594a860bce",
    },
    "bench-controller": {
        "bench_controller.csv":
            "5e4c3fe5b7bb5ae09c288efbc3d9bcd2e6e80d7e3c9edc3b052949fb435c49aa",
    },
    "links-16x16": {
        "channels/link_0000.csv":
            "a711efcc3e1b44d31be21a6d37e4c298d7d0ada904ad2c0dd9f965f4864eda3a",
        "channels/link_0001.csv":
            "5f8e6360db8b1606b090d5ed635a19675b4cd73f6abb18a558d38f1e623abcd9",
        "channels/link_0002.csv":
            "ec05453786d7ed24a326f6a63e1d959599a83504320facfce2304d4bf75b38ff",
        "channels/link_0003.csv":
            "d0343ae7641fd078339acd8ce1b14e8b9e8bf46e8468e1bbd8bdf4e47e3c0090",
        "links.csv":
            "a354a46d44827f60063d969b0211cf2dab144b32a8187c66b1753164e8ed6909",
        "traces/link_0000.csv":
            "d4bcf97c8a6668aadde96605ab60824c450eb5f97bba6e478a0d0ab1361c6264",
        "traces/link_0001.csv":
            "a28e0c70fa82cc6b4eabb310512cb9e87ac66cd5db6497d93e2ad158adb597b9",
        "traces/link_0002.csv":
            "0ea087d64f77a3be80f1c0d35065ce6edfae54da740103eeaf3775b83b868a1e",
        "traces/link_0003.csv":
            "02dcb5863d3974dc8c5773d05410ee17f017cb25fb2d2d541684dc35847ecfdf",
    },
    "links-jitter": {
        "channels/link_0000.csv":
            "2f3a79ba89f1fc49078c6881d349b9f1061d226d174b10294c4aa77ea7b48f26",
        "channels/link_0001.csv":
            "74145404208ae7bc9edc0d753e3454b7c31d11e629bad16f96f7eb2a2d8977f9",
        "channels/link_0002.csv":
            "a1d9d152cd3cfd52902849a84e609a325d6b8f028039e9656344c01f4b669342",
        "channels/link_0003.csv":
            "87109150b3b8e9f3b7d9b52a00b1f7327907c4ff18ff3cc6af5f6e24cf7bccc0",
        "links.csv":
            "25c448bd6873fca8c6015d800efcecad2d2eab50af4c63a66e29447673f102c3",
        "traces/link_0000.csv":
            "bddca92e9f21011abf804a58fb52b3671d98b90a5b1f55dfe12040bebb03a639",
        "traces/link_0001.csv":
            "9d6a50f28897994a428536be29eaa16da72efc3ca68e7b2e253dff6af7b0a484",
        "traces/link_0002.csv":
            "824a571773d45e44f19cf3f48bcf86282e3a2361d3f96f96d37b2670f360f2c6",
        "traces/link_0003.csv":
            "c4519037762ee705c3bd4a3b187968fa3c36b381936b5959dadab1a93da25fa3",
    },
    "links-noise": {
        "channels/link_0000.csv":
            "2f3a79ba89f1fc49078c6881d349b9f1061d226d174b10294c4aa77ea7b48f26",
        "channels/link_0001.csv":
            "74145404208ae7bc9edc0d753e3454b7c31d11e629bad16f96f7eb2a2d8977f9",
        "channels/link_0002.csv":
            "a1d9d152cd3cfd52902849a84e609a325d6b8f028039e9656344c01f4b669342",
        "channels/link_0003.csv":
            "87109150b3b8e9f3b7d9b52a00b1f7327907c4ff18ff3cc6af5f6e24cf7bccc0",
        "links.csv":
            "11fd4b3926ba3874cc007e6f48aca776209cb35987c089b62fc2f44fac59af9c",
        "traces/link_0000.csv":
            "efc37ba6e314046b4628c06e352d6592384e670fc5a9c825a3b0184d775ff6a3",
        "traces/link_0001.csv":
            "6f4a64f950158c9840ce36619c76c876ce286dec24ced1eec231ac0fb8cc83fc",
        "traces/link_0002.csv":
            "ac3ae212c1d0fe685dbb12ea7eafeb76a1e6d42de3af1116a649ddb3d6dbca49",
        "traces/link_0003.csv":
            "f1568067b26ea84bf82a4101bd2581e581e6c34ab49df649da1f86ed623e48e9",
    },
    "links-water": {
        "channels/link_0000.csv":
            "bffefa48982e27e84a69bbd5f91cb461e300b090146dacd697f28fef907089fe",
        "channels/link_0001.csv":
            "ce5989c3626bd595f433465b18162837db7496ca3f37274f176754e3986b7107",
        "channels/link_0002.csv":
            "779155fedb1c3c81947326cb87c6591482103eab4ad4b35ee3e652ed189c5266",
        "channels/link_0003.csv":
            "ca0c2fe0239cc2c51d97f49514758d3b00656c16fd555a4e59decaa4a728d705",
        "channels/link_0004.csv":
            "e7c2a305626fe1af9e899eaef748e7026a962076676b0adcaf402e65d27ea425",
        "channels/link_0005.csv":
            "39e7ca326ef60c649efdf9a4891515a8ec2916731ce64f9a2949aee6dccbb2b9",
        "links.csv":
            "21e69bcb59988f7d3f6dc28fc62b428f3a8a6bfd4cf80e5eba48e6ef2d604cf5",
        "traces/link_0000.csv":
            "b217f90a9dfcfb306f9b4e8c49b5728fdb5665e79f8cfb33a2cb9ddec32dfce2",
        "traces/link_0001.csv":
            "eebc4df2029d022116dede5a7a2ccd31ea2a57319829d8ba24c577289cabb71e",
        "traces/link_0002.csv":
            "0e58a44385a89f78b79987c1ab995a71f46294a2828523d53d611540ba24a1bc",
        "traces/link_0003.csv":
            "fba4f67491e305244effd50adc875a6edc35a1fd49df639dec01d9e0da0cf449",
        "traces/link_0004.csv":
            "d19062b072d549df0e4cce41724401d19c4d5997188a7b72b6312080b945ceaf",
        "traces/link_0005.csv":
            "c7f0c0d70d0fe15f38422aa6f8c47fb6990a357f42f10f28394f4cab08528c73",
    },
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_csv_outputs_byte_identical(tmp_path, run):
    RUNS[run](tmp_path)
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("*.csv"))}
    assert got == PINNED[run]
