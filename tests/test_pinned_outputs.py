"""Seeded command outputs pinned by SHA-256 across versions of the library.

The determinism tests elsewhere compare two runs of one build; these digests
were recorded once and fail on any byte that changes in links.csv, the
per-link traces and channel dumps, backscatter.csv, bench_controller.csv,
the match spectra or the sweep heatmaps, and on any change of a value in the
command's RunReport summary (summary.txt is left out: it embeds the absolute
artifact paths).  Besides the shipped scenarios they cover the feedback-noise,
phase-jitter, separate-uplink and 16x16 paths, a lossy gap and load, and a
surface against the load half-space, which no shipped scenario exercises.
A change that is meant to alter these outputs must say so and re-record them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mediamatch.harness import (cmd_backscatter, cmd_bench_controller, cmd_links,
                                cmd_match, cmd_sweep)
from mediamatch.scenario import (default_tissue_dict, default_water_dict,
                                 load_scenario, scenario_from_dict)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _variant(name, channel=(), **top):
    """The default water scenario with channel and top-level fields replaced."""
    raw = default_water_dict(name=name, **top)
    raw["channel"].update(channel)
    return scenario_from_dict(raw)


def _lossy_water():
    """Water behind a lossy gap slab, into a lossy water half-space."""
    raw = default_water_dict(name="lossy", load_medium="water_lossy",
                             layers=[{"medium": "air", "thickness_mm": 4.0},
                                     {"medium": "skin_lossy", "thickness_mm": 2.0}])
    raw["media"] = {"water_lossy": {"relative_permittivity": 77.0,
                                    "conductivity_s_per_m": 2.5},
                    "skin_lossy": {"relative_permittivity": 38.0,
                                   "conductivity_s_per_m": 1.4}}
    return scenario_from_dict(raw)


def _surface_at_load():
    """The tissue stack with the surface against the muscle half-space."""
    return scenario_from_dict(default_tissue_dict(name="at-load", surface_index=3))


PHYSICS = {
    **{name: (lambda name=name: load_scenario(SCENARIOS / f"{name}.json"))
       for name in ("water_match", "tissue_match", "water_gap_heatmap",
                    "water_gap_capacitance", "tissue_fat_heatmap",
                    "tissue_fat_capacitance", "tissue_gap_heatmap", "tissue_depth")},
    "lossy": _lossy_water,
    "at_load": _surface_at_load,
}

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
    **{f"match-{name}": (lambda out, make=make: cmd_match(make(), out))
       for name, make in PHYSICS.items()},
    **{f"sweep-{name}": (lambda out, make=make: cmd_sweep(make(), out))
       for name, make in PHYSICS.items()},
}

PINNED = {
    "backscatter-uplink": {
        "backscatter.csv":
            "2699d64157469388723ca610fd0e6da0c25db53466715fea9bd58c171f193110",
        "summary":
            "448b0b51a726e402053f044790625398afd1eb6241fe1fee284247a65fe21ac3",
    },
    "backscatter-water": {
        "backscatter.csv":
            "7365978888dfa86568a698e63b1fd15e8352215c9a2f64755047fc594a860bce",
        "summary":
            "b37a5a97e0d6ca2c9531f85e63b93fba1020bba562cdd934a3c398b077d9a3d5",
    },
    "bench-controller": {
        "bench_controller.csv":
            "5e4c3fe5b7bb5ae09c288efbc3d9bcd2e6e80d7e3c9edc3b052949fb435c49aa",
        "summary":
            "654307cee2dc2f9fe8c1bcce98b7178cb518912125d36fd9b59c3fcd9c45738a",
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
        "summary":
            "542505f43a186d09575db60ecc7b659601fb2a12f04978b11806a7a9b13d8f52",
        "traces/link_0000.csv":
            "738030b6453123b6d23ffbc6ef20beeb2a552fbad4684952b38cdfb9a1e6b1fe",
        "traces/link_0001.csv":
            "a441564a948a7d230cfc85d48b63d10626a60b96c23ed62bc04027f55c59b19c",
        "traces/link_0002.csv":
            "90293ea5b27397ca5fa4b94579f4c2f5f3252daa9c3e2f37da167f5652927dc7",
        "traces/link_0003.csv":
            "17cc4abc41bf8cee1edb6bc1de68e2dc77a0f65482d5a33dbcb0a93c9e6c116a",
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
        "summary":
            "be52f25a4a7327c392b35f01f99b92784d6fcaa148b9d60fa1bf27337d6084bf",
        "traces/link_0000.csv":
            "84e1737b403fe05aca2aa293138ecdee58b2a9f7c957385763210dfcf2cc1977",
        "traces/link_0001.csv":
            "4ba77d0547224d2e6231cb9b7f645f94b01d0507293a041e1df7d3756ad27653",
        "traces/link_0002.csv":
            "4eff99e1f6edbb58dfb1ae764ad7fb14d7128348f5b8cec029985bb74b9b3e48",
        "traces/link_0003.csv":
            "5ceba9bd377c812e61f5a8bb904be61a48c49a769bab1dbe85bf16389c9c6250",
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
        "summary":
            "4f11ec38f1c3c9230781af17b024b719eb0845579131c7170b64187d84a09d8d",
        "traces/link_0000.csv":
            "78869ff3c6c09609336d224f03652083fe97438c203773ed1ec994439641e1a2",
        "traces/link_0001.csv":
            "938939e50e63c2a94b0f04044306c7352b4ce3bd365ed80a77fe19ca8a4fbf56",
        "traces/link_0002.csv":
            "bc0269a6aec3ea5588c8757dbe32803f6231d616ce4134d8dc91f71253faab53",
        "traces/link_0003.csv":
            "7f9b4e6c42348760ac9187f4c99259ac04c5b7710599b16e527422eb6b59e1ba",
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
        "summary":
            "52079d5fbe4d74c18b3de95d488f295e2b1b236015c04de3d875cb747d7d26f7",
        "traces/link_0000.csv":
            "588df05b713798792042eefc58785f8c277354a6a6aa8fed2e6912786e1c608d",
        "traces/link_0001.csv":
            "18b0a1e723e9f29401ec8852f8ba8f9aafb6ed3f6dba8abc4127e7ba8de0c89a",
        "traces/link_0002.csv":
            "51a3f85c7f0278bc2bcb573b4a077981df47b907efd9f5865cee906f53f1568e",
        "traces/link_0003.csv":
            "ca7c660ca2f86bf5c0cd2ee87e34e1f9372423fb2bf0eb129ef75b86e5c9a7c3",
        "traces/link_0004.csv":
            "499816b905981945fa39b26b5e705af11fc3f85331c80de37fbfbaf2c8ffcc37",
        "traces/link_0005.csv":
            "2a8203f57ba608089f8581618621eb428ad86dd52ccd76482855f7402f727c58",
    },
    "match-at_load": {
        "spectrum_admittance.csv":
            "9cba709c8ed1db03a1421918813a600f44b7e321f2511af1be56db3832a4047e",
        "spectrum_voltage.csv":
            "567c60771a0e791acc29dde8e4d47b2ce79ce54da63375e0e8d45739272b9473",
        "summary":
            "424435bbfb519e3249d3883cda97665d6c16fe4e6ba36d68d4053632c8acc562",
    },
    "match-lossy": {
        "spectrum_admittance.csv":
            "c1129e59516bacc30d482db6b570ce37cbf7f32cf6d22933f717d5f7bb3f862c",
        "spectrum_voltage.csv":
            "83c2cda94934fdded64f681aeca09769924b8077136627b34680f47c9b08d9cf",
        "summary":
            "3cb77943f624ef5f6e0b81af459ad128db5c6128dc9c2bcb4438b34b3803d872",
    },
    "match-tissue_depth": {
        "spectrum_admittance.csv":
            "64c48f5c7da8135098eea30f1789e4ab75265046be54a01fb0524f2baab087bb",
        "spectrum_voltage.csv":
            "073008183d0f0b32cf032cb73a2ec640785653ae802730f62b0f6289a570c989",
        "summary":
            "a4e743d0343596800b659f942193d4c3559f4c6bac9601b6b1d8a3ce04293efc",
    },
    "match-tissue_fat_capacitance": {
        "spectrum_admittance.csv":
            "85b682660ec79652d6bb6e3672fb01f84f46ece7398e9b406ef803d8a95715c7",
        "spectrum_voltage.csv":
            "1837e3948fa03ba1d714daa2727facbb1db30d0eadf2f6bcee440b152a145de4",
        "summary":
            "74d22eb68ad87ee4f9dd6dbe5c56defc6290741cf9b91728b0dfda333b8ead02",
    },
    "match-tissue_fat_heatmap": {
        "spectrum_admittance.csv":
            "85b682660ec79652d6bb6e3672fb01f84f46ece7398e9b406ef803d8a95715c7",
        "spectrum_voltage.csv":
            "1837e3948fa03ba1d714daa2727facbb1db30d0eadf2f6bcee440b152a145de4",
        "summary":
            "74d22eb68ad87ee4f9dd6dbe5c56defc6290741cf9b91728b0dfda333b8ead02",
    },
    "match-tissue_gap_heatmap": {
        "spectrum_admittance.csv":
            "85b682660ec79652d6bb6e3672fb01f84f46ece7398e9b406ef803d8a95715c7",
        "spectrum_voltage.csv":
            "1837e3948fa03ba1d714daa2727facbb1db30d0eadf2f6bcee440b152a145de4",
        "summary":
            "74d22eb68ad87ee4f9dd6dbe5c56defc6290741cf9b91728b0dfda333b8ead02",
    },
    "match-tissue_match": {
        "spectrum_admittance.csv":
            "85b682660ec79652d6bb6e3672fb01f84f46ece7398e9b406ef803d8a95715c7",
        "spectrum_voltage.csv":
            "1837e3948fa03ba1d714daa2727facbb1db30d0eadf2f6bcee440b152a145de4",
        "summary":
            "74d22eb68ad87ee4f9dd6dbe5c56defc6290741cf9b91728b0dfda333b8ead02",
    },
    "match-water_gap_capacitance": {
        "spectrum_admittance.csv":
            "63d3679d5299496e5ababa489750ef99ea00cb9435cc7394997f7e00bbfb6396",
        "spectrum_voltage.csv":
            "3acdbd5bc6dd820bc47c006336224fe1f5c5f13d4465e032c8a324125cb404f6",
        "summary":
            "7932405ba18da8f2803c7a30eafa4f4e1f5ee6093ec9b21eeada40c33cdb85c8",
    },
    "match-water_gap_heatmap": {
        "spectrum_admittance.csv":
            "63d3679d5299496e5ababa489750ef99ea00cb9435cc7394997f7e00bbfb6396",
        "spectrum_voltage.csv":
            "3acdbd5bc6dd820bc47c006336224fe1f5c5f13d4465e032c8a324125cb404f6",
        "summary":
            "7932405ba18da8f2803c7a30eafa4f4e1f5ee6093ec9b21eeada40c33cdb85c8",
    },
    "match-water_match": {
        "spectrum_admittance.csv":
            "63d3679d5299496e5ababa489750ef99ea00cb9435cc7394997f7e00bbfb6396",
        "spectrum_voltage.csv":
            "3acdbd5bc6dd820bc47c006336224fe1f5c5f13d4465e032c8a324125cb404f6",
        "summary":
            "7932405ba18da8f2803c7a30eafa4f4e1f5ee6093ec9b21eeada40c33cdb85c8",
    },
    "sweep-at_load": {
        "summary":
            "a8ad098a64ce13194a05ae85ff9b972018b77858b6255ef299500d8bcd1a06e7",
        "sweep_fat_mm_capacitance_pf.csv":
            "2fed850e685dea89827cf625dc8ae3b9bf9b280a487c7f0f8c51eebdaecbf5d5",
        "sweep_fat_mm_susceptance_s.csv":
            "84f67881002b5339919ca7665605beb8301baf237881fbdff9dc59d70b5c5661",
        "sweep_gap_mm_capacitance_pf.csv":
            "fbb0d114dcc017c59126fad21066df339f053cbca527e2d0a15fa9ada6c9fe64",
        "sweep_gap_mm_susceptance_s.csv":
            "547f4c186d4525903b8438163a09c4b2b188f9abad3f4c5a4d64a1e48ce5bf84",
    },
    "sweep-lossy": {
        "summary":
            "aa48393541e5a9e15e1dd2fa81b9375dded826566d93c865ba055c7c4bfd8a7f",
        "sweep_gap_mm_capacitance_pf.csv":
            "6558fbbd2d33750ccb2c0b82cdab5450770a560c3018b1feb082ee08285ff7da",
        "sweep_gap_mm_susceptance_s.csv":
            "5f28c86e5f5f5b6f038bfa108c938486df2890a3823ded5c89e95d447d836eab",
    },
    "sweep-tissue_depth": {
        "summary":
            "e44ea19890c9b7e769735eba30f5ee30b3330e35b341d56fbb58e6e9fe399df9",
        "sweep_fat_mm_capacitance_pf.csv":
            "29cbeca046023df29a5e2b9c205e090ab5156a421b33c10dd33f4b5e454f2359",
        "sweep_fat_mm_susceptance_s.csv":
            "98c4eb6e531b72127a25547906818be8a9e4e8e0c7a2f18e6c2549ec083adcf0",
        "sweep_gap_mm_capacitance_pf.csv":
            "fb78a7d720cdcd4676314c1662a2a2e9a29ad04f507a0ac455d5ad1e936a8018",
        "sweep_gap_mm_susceptance_s.csv":
            "07b563acec332f4654ee9cfa6c146d100a8c1aefda2d783b6ad4fe2671228a67",
    },
    "sweep-tissue_fat_capacitance": {
        "summary":
            "24b44aeb7bf65d6f3fd911d749cbdcd14c4a9599f8ee168c183ce9df1696c35d",
        "sweep_fat_mm_capacitance_pf.csv":
            "1f7da0c4c65d1ca6f2816c28f8f1e7680048e01b369e20110c5ae7f8b857982d",
    },
    "sweep-tissue_fat_heatmap": {
        "summary":
            "e8532007d907a28109e04c48039f7ce732e4ab0a8b3f59e2cf2e3a14d6ace26a",
        "sweep_fat_mm_susceptance_s.csv":
            "82596048038a6e413e0b93bb30d12ecd6892a0b2c8dc89635d5fdc8d434d9609",
    },
    "sweep-tissue_gap_heatmap": {
        "summary":
            "b74afd883d02cca88ad320883494511d25c1c0fc5768cbf37e6255ccdf7054c9",
        "sweep_gap_mm_susceptance_s.csv":
            "7a8c64f629d6c41b9622511056f6df11f2382cb5d0af295e26e4910d2c3fbece",
    },
    "sweep-tissue_match": {
        "summary":
            "7e0aa21ee6256efb658e852b8847818568d2086623e1f16a41ff7f157490faa8",
        "sweep_fat_mm_capacitance_pf.csv":
            "1f7da0c4c65d1ca6f2816c28f8f1e7680048e01b369e20110c5ae7f8b857982d",
        "sweep_fat_mm_susceptance_s.csv":
            "82596048038a6e413e0b93bb30d12ecd6892a0b2c8dc89635d5fdc8d434d9609",
        "sweep_gap_mm_capacitance_pf.csv":
            "9026674cb8afbe5568413754f33503e3c36917be6d3c97a078e788130b0b9071",
        "sweep_gap_mm_susceptance_s.csv":
            "7a8c64f629d6c41b9622511056f6df11f2382cb5d0af295e26e4910d2c3fbece",
    },
    "sweep-water_gap_capacitance": {
        "summary":
            "6a22a1b8a552b8f7d55580051faf0034ce4bec0660c527f301072c90835e8b36",
        "sweep_gap_mm_capacitance_pf.csv":
            "44ae07ddca49542220b74d768a414147734622eeb6fae8640ddf1a26971e9178",
    },
    "sweep-water_gap_heatmap": {
        "summary":
            "60af9ed5ada9ec59cbb61ecaccde52041773afad02993d545ca586d05e7e93fb",
        "sweep_gap_mm_susceptance_s.csv":
            "e4f8106fc1a9f7c126527be146ed47cd80416e948dc7ce5bdb0fc4f88ed36ac1",
    },
    "sweep-water_match": {
        "summary":
            "e2565282261d71406beb7efa399562967f9986508d9a3b19a327ada9575fe728",
        "sweep_gap_mm_capacitance_pf.csv":
            "44ae07ddca49542220b74d768a414147734622eeb6fae8640ddf1a26971e9178",
        "sweep_gap_mm_susceptance_s.csv":
            "e4f8106fc1a9f7c126527be146ed47cd80416e948dc7ce5bdb0fc4f88ed36ac1",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("run", sorted(RUNS))
def test_csv_outputs_byte_identical(tmp_path, run):
    report = RUNS[run](tmp_path)
    got = {p.relative_to(tmp_path).as_posix(): _sha256(p.read_bytes())
           for p in sorted(tmp_path.rglob("*.csv"))}
    # floats render with repr, so the canonical JSON changes with any bit
    got["summary"] = _sha256(json.dumps(report.summary, sort_keys=True).encode())
    assert got == PINNED[run]


if __name__ == "__main__":
    # Print the digests of the current build in PINNED's layout, so that a
    # deliberate re-pin is generated and reviewed as a diff:
    #     PYTHONPATH=src python tests/test_pinned_outputs.py
    import tempfile

    print("PINNED = {")
    for run in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            report = RUNS[run](out)
            got = {p.relative_to(out).as_posix(): _sha256(p.read_bytes())
                   for p in sorted(out.rglob("*.csv"))}
            got["summary"] = _sha256(json.dumps(report.summary, sort_keys=True).encode())
        print(f'    "{run}": {{')
        for name in sorted(got):
            print(f'        "{name}":\n            "{got[name]}",')
        print("    },")
    print("}")
