"""Seeded command outputs pinned by SHA-256 across versions of the library.

The determinism tests elsewhere compare two runs of one build; these digests
were recorded once and fail on any byte that changes in links.csv, the
per-link traces and channel dumps, backscatter.csv, bench_controller.csv,
the match spectra or the sweep heatmaps, and on any change of a value in the
command's RunReport summary (summary.txt is left out: it embeds the absolute
artifact paths).  Besides the shipped scenarios they cover the feedback-noise,
phase-jitter, separate-uplink, 16x16, 17x17, 24x24 and 32x32 paths (from 16x16
on, on/off probes are read from subset-sum tables, and with a two-level voltage
set the uniform and fine-tune probes too), a 3x5 bench-controller run (an
element count that is not a multiple of 8), a lossy gap and load, and a
surface against the load half-space, which no shipped scenario exercises.
A change that is meant to alter these outputs must say so and re-record them.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
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
    "links-16x16-two-level": lambda out: cmd_links(
        _variant("16x16-two-level", array_rows=16, array_cols=16, voltage_set_v=[30.0, 0.0]),
        out, 2),
    "bench-controller-3x5": lambda out: cmd_bench_controller(
        _variant("3x5", array_rows=3, array_cols=5), out, 3),
    "links-32x32": lambda out: cmd_links(
        _variant("32x32", array_rows=32, array_cols=32), out, 2),
    "links-17x17": lambda out: cmd_links(
        _variant("17x17", {"noise_db": -20.0, "phase_jitter_std": 0.3},
                 array_rows=17, array_cols=17), out, 2),
    "backscatter-24x24": lambda out: cmd_backscatter(
        _variant("24x24", {"reciprocal_uplink": False}, array_rows=24, array_cols=24), out, 2),
    **{f"match-{name}": (lambda out, make=make: cmd_match(make(), out))
       for name, make in PHYSICS.items()},
    **{f"sweep-{name}": (lambda out, make=make: cmd_sweep(make(), out))
       for name, make in PHYSICS.items()},
}

PINNED = {
    "backscatter-24x24": {
        "backscatter.csv":
            "35216e32fd8ef31cd55bcddbb708d0ea105bad5f048d277739679cd753470e1a",
        "summary":
            "1002f2c09830fcc056e6028371efe6ebd32814d459fffcfbc8a2aef8412399a4",
    },
    "backscatter-uplink": {
        "backscatter.csv":
            "bdc0f57fe297a1026a41449b56ea966324bd5e2f4d5dfd777e4009f3da0f81bf",
        "summary":
            "e88be8bfc1a7559e720cc280a02244583cda43f92396e9a94b96f31a5d5c1122",
    },
    "backscatter-water": {
        "backscatter.csv":
            "fe57635c98a040e2fa9ffcd2309eee92de01abd78569a72f5ab320c3ff785a43",
        "summary":
            "de0d316460f0ce3cf3d6169014f381ae3032b983bbc0fb1350fe38c7b7bfa11d",
    },
    "bench-controller": {
        "bench_controller.csv":
            "1e0b87f45ff96dce71cc2761ed9a3d830114b60138850653b9d4736b2c905959",
        "summary":
            "76944d493d5b95dc18689827f53e2ec2aed3eb09c8681eab8e875bf39096bc47",
    },
    "bench-controller-3x5": {
        "bench_controller.csv":
            "b3d15c51bfe6211ee806010062b80bab94a2557ea435524f0bff8eedab01b77c",
        "summary":
            "ceef8509386314678652fd7cef10b2ea9a553bc60c5909d4c744114636062cf6",
    },
    "links-16x16": {
        "channels/link_0000.csv":
            "023868fa62288ee6d6134aa198f64e11114a177311773ccab2ff830869fcc5f5",
        "channels/link_0001.csv":
            "51fe1047acfa0c0df7ac1b15d0b2641706e6c5d8e8c68032375902998ab8f9f2",
        "channels/link_0002.csv":
            "60707b9801177b53ece569e92778adfcf7a43f507f3d0df657ff3e8edf29276d",
        "channels/link_0003.csv":
            "b8e8840eb0778a8d0241a8387d472e98b55041144f88816c322225fa3b990d6d",
        "links.csv":
            "73fd9faacd4e0516a7b6ad019252c6ef585089fc926ca8cf8d3c5ec215993b7e",
        "summary":
            "01da49a2c18e87a02ea3f4be57dd84d98aad3e1b0012f8698fecd32fcf0be038",
        "traces/link_0000.csv":
            "536979b9dc675f241479af7e01a25ce817a4e20e693be106755cc2793cc92159",
        "traces/link_0001.csv":
            "7601259c070aab07e16ba72fa4471b3b0153daecc06c356b912fb7aea6e35ec0",
        "traces/link_0002.csv":
            "14af97d1863b45105e781fb1e7f6a97ff974617e5b3071044118c7199ff6297f",
        "traces/link_0003.csv":
            "32971154ee801f278fcb1e6c06a1c4cecf8ab8c9c825499c5a156528a966fbea",
    },
    "links-16x16-two-level": {
        "channels/link_0000.csv":
            "023868fa62288ee6d6134aa198f64e11114a177311773ccab2ff830869fcc5f5",
        "channels/link_0001.csv":
            "51fe1047acfa0c0df7ac1b15d0b2641706e6c5d8e8c68032375902998ab8f9f2",
        "links.csv":
            "aa60779b2d1349bcd04e311072dad4917f334fa4ae90f041164b933611714b17",
        "summary":
            "a82adfd044d8ccd0450cd91bf8e15a5808f413b1977afa9a94e6e57a77d18337",
        "traces/link_0000.csv":
            "e39a0975d216974a9036dfc24f5cd6216e0b098ea4412df49b17643d6849ebeb",
        "traces/link_0001.csv":
            "2763ec9944f3053d2953b2defb3b1966d1baaa6a91fbdc8b5e345412fbea7da9",
    },
    "links-17x17": {
        "channels/link_0000.csv":
            "82b4b53e07fb83f5f4398e10d2a9f5b300a4586f05253adad75dcaaf3dacc6a9",
        "channels/link_0001.csv":
            "70544150c383a36373ec02a601367605b6760b2c466bf3bb071e5f1f7fc996d7",
        "links.csv":
            "c6099c9d5fbca29980da3bd290a2f5ee9fcb63c7da6174a72e92d17755635784",
        "summary":
            "eefb26e5ebeb3265e26ed0e2b29f2c8ed1324de849789fb360734ded778a0df8",
        "traces/link_0000.csv":
            "4bd409a89916618ebb505969f5b88b3ab2aea0a47b5c6b285e8c746455b96337",
        "traces/link_0001.csv":
            "606411b929e0162fa61ecd8e4f019f9628d5f7bd1e7db70c9087a10df1126d31",
    },
    "links-32x32": {
        "channels/link_0000.csv":
            "63069797b7fa31792a4eddea227f727b2807d7557d08bfe5583af77c2213e20e",
        "channels/link_0001.csv":
            "f16b0160aee5d96dccd80d7f93f991fb0feabf0857b24158c690cc4315d11fef",
        "links.csv":
            "4404cef31d52593341654e64c58fce93a4ef8f9b9d22de7104b62ecd04f3d959",
        "summary":
            "8fc69a7407d627ddad62599fe83db685cfc758a933147bd07e33d164c1410355",
        "traces/link_0000.csv":
            "ff52804d5cd29374fb4a902222dd672a40895e6de870e2685c03975ab13cf21f",
        "traces/link_0001.csv":
            "576578d8dec09278171157815a3d60f9500ba26911d243e02d0659525f08eef1",
    },
    "links-jitter": {
        "channels/link_0000.csv":
            "10de80e35ee63708c34968300c2c3e4c831907732e39e6abd952533c2c512d3f",
        "channels/link_0001.csv":
            "041b6d7c218622c6b9847817a585886938556883623ae1ed9ff5ffe0d086c106",
        "channels/link_0002.csv":
            "bc437bba04e530cdec76d8c4a320f1d87af8d1be611d1c7b16afc87d240c09ea",
        "channels/link_0003.csv":
            "ef78766538553f1b327df974bbd62185fd3494a951b2b58c76dcc671a5c0e39e",
        "links.csv":
            "cf36212fa0bc4ac0bd5da48d8154f5aec3ebab0c8d2ec6582d55949aa28dbdf2",
        "summary":
            "64d28f810b50c74c9805998b814517cdaff6b750868ef74e3b5590ccbecebc2f",
        "traces/link_0000.csv":
            "a3d48d7b9f6a3a5f5d59532089139046c9220feef3f6bcae1bc8695e8e9f2348",
        "traces/link_0001.csv":
            "e4f83947cfaf67c485fdfe7815452f369cea72641f4829b2a0e213b2482472d5",
        "traces/link_0002.csv":
            "629a9bdf0a895e83864bd8eeca3b72e3866baa9854cdb360121f1bd060dad823",
        "traces/link_0003.csv":
            "d79be15def0c2d7a5270f4240fdfde5c07501c87d56401dceaf4385c63a6e9ff",
    },
    "links-noise": {
        "channels/link_0000.csv":
            "10de80e35ee63708c34968300c2c3e4c831907732e39e6abd952533c2c512d3f",
        "channels/link_0001.csv":
            "041b6d7c218622c6b9847817a585886938556883623ae1ed9ff5ffe0d086c106",
        "channels/link_0002.csv":
            "bc437bba04e530cdec76d8c4a320f1d87af8d1be611d1c7b16afc87d240c09ea",
        "channels/link_0003.csv":
            "ef78766538553f1b327df974bbd62185fd3494a951b2b58c76dcc671a5c0e39e",
        "links.csv":
            "ddbe3dc56221902a888bef0fbaf69a9f75a37914eac875c6e05be7922e5b2327",
        "summary":
            "7e85c7cfe5b3a490366e551652dda35157b8152b5a67ed1649c2986f80fe480e",
        "traces/link_0000.csv":
            "10d2e37e9a1a1784e308a7dd219a228d8e7f439e30f636807d601f56636bcd0b",
        "traces/link_0001.csv":
            "1c9085570a866a2654a64d48486276dea5a1ca28e25703b1e30b4338567dd7c6",
        "traces/link_0002.csv":
            "f98f97e24116d90642c028f8a47837e142d89dcb81f982010817d2b751b8de3c",
        "traces/link_0003.csv":
            "36be86420fa24812e828ef0c4dcaa3f5027ea23b8317daf76fea398bb4fd7232",
    },
    "links-water": {
        "channels/link_0000.csv":
            "5fa8e600b7b62724c57647070ad9dc9784d1db03cd2492c03de5f13527e1a47e",
        "channels/link_0001.csv":
            "0ff6fbc7807132ff990c1b5e2fd0a7fba5c135b202b917526224fac395e94b62",
        "channels/link_0002.csv":
            "0d1a41f5eca43b9c755d7eeeca6f794a09bae367b49ed8914aebb04e6bc84691",
        "channels/link_0003.csv":
            "e96e355fb415a301dc82cc442494d295a6e1d3077f67a7dbc025f5d253af1656",
        "channels/link_0004.csv":
            "5eabfb13eb355cf9600edc55b151cb0ca42077e916a7f674d5e0b160ce9a96e5",
        "channels/link_0005.csv":
            "5b781985a4a98d5a1fc12d5d3f1ca0d4f885d110709bc38042716db5fb5b187e",
        "links.csv":
            "714bcf17b6b8d488ffdbfbe38ef200f47725914ab4f81e5eec6777897cb8969e",
        "summary":
            "a3a0afbf2070b8f006731999e6b3f78f7af8ba11bda76634a3cccc9abb03c4d4",
        "traces/link_0000.csv":
            "b707c555e5e14820925d4c19cd20d6a218719062e738ffa65f47625071101b72",
        "traces/link_0001.csv":
            "19799fca34f036215e267c4dfaba6411d6cce53ee26144adac77f6aa334555b2",
        "traces/link_0002.csv":
            "3af657f97199c02ad7a2a59f4629b9f138b65c08ca6d78050835d9131d54d35c",
        "traces/link_0003.csv":
            "bb07610bc735dac349c20ab894718c41809e1ce94611306f2406be16ef4def0d",
        "traces/link_0004.csv":
            "9f8b39d9c6d574cebcd00ac510765f660a98192b377073b487ebaf0d14cbe425",
        "traces/link_0005.csv":
            "d655e75dd39fc4733c27df380f594e585866246fd7b1feda921acff84e4d5afa",
    },
    "match-at_load": {
        "spectrum_admittance.csv":
            "9cba709c8ed1db03a1421918813a600f44b7e321f2511af1be56db3832a4047e",
        "spectrum_voltage.csv":
            "a8857e062c4c1b1392cb5aec08295c71bc84cd72fdbc2f90924763ea448c8a58",
        "summary":
            "e4370a723be0f70d32c6b84f4076e4028b8413acf546b30a45e02fa6211bdc8e",
    },
    "match-lossy": {
        "spectrum_admittance.csv":
            "c1129e59516bacc30d482db6b570ce37cbf7f32cf6d22933f717d5f7bb3f862c",
        "spectrum_voltage.csv":
            "83c2cda94934fdded64f681aeca09769924b8077136627b34680f47c9b08d9cf",
        "summary":
            "2bde6d2e679d520b7d4f490fa6f7e8b63e6aa287536b6d95f759cfcb40a86d3d",
    },
    "match-tissue_depth": {
        "spectrum_admittance.csv":
            "64c48f5c7da8135098eea30f1789e4ab75265046be54a01fb0524f2baab087bb",
        "spectrum_voltage.csv":
            "073008183d0f0b32cf032cb73a2ec640785653ae802730f62b0f6289a570c989",
        "summary":
            "995b2bf0270edd3d5cb027eeea44c875cd2748060dd6e333cc6121b8ec7645f6",
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
            "84362fe39b09abe09c59f5ace9b5100fc95d289c6dbb9f8f2f44726ea41d9944",
    },
    "match-water_gap_heatmap": {
        "spectrum_admittance.csv":
            "63d3679d5299496e5ababa489750ef99ea00cb9435cc7394997f7e00bbfb6396",
        "spectrum_voltage.csv":
            "3acdbd5bc6dd820bc47c006336224fe1f5c5f13d4465e032c8a324125cb404f6",
        "summary":
            "84362fe39b09abe09c59f5ace9b5100fc95d289c6dbb9f8f2f44726ea41d9944",
    },
    "match-water_match": {
        "spectrum_admittance.csv":
            "63d3679d5299496e5ababa489750ef99ea00cb9435cc7394997f7e00bbfb6396",
        "spectrum_voltage.csv":
            "3acdbd5bc6dd820bc47c006336224fe1f5c5f13d4465e032c8a324125cb404f6",
        "summary":
            "84362fe39b09abe09c59f5ace9b5100fc95d289c6dbb9f8f2f44726ea41d9944",
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
            "49bf66b9bd2c3cebb27cdc27e02e84e2b821dba3cde172f4c122eedc301db7c2",
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
            "34fa528a678ab7ff72179d7014ce53b81e9bb405c2f4f7510457e6fc01dfb444",
        "sweep_fat_mm_susceptance_s.csv":
            "82596048038a6e413e0b93bb30d12ecd6892a0b2c8dc89635d5fdc8d434d9609",
    },
    "sweep-tissue_gap_heatmap": {
        "summary":
            "1ef006536a0ab7f43bdf54f002ea76c5c2ff47bf0bffe57109b38c4abcd5a904",
        "sweep_gap_mm_susceptance_s.csv":
            "7a8c64f629d6c41b9622511056f6df11f2382cb5d0af295e26e4910d2c3fbece",
    },
    "sweep-tissue_match": {
        "summary":
            "2e0a3a2540cc652d0236e643a2efa070db1da9909e9612295494e5be0b2bcc7b",
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
            "67a001bc0c8a5b0ae27efa8d34e1bdc6aea013cd0a87c63532fa1fe58b90fbe8",
        "sweep_gap_mm_susceptance_s.csv":
            "e4f8106fc1a9f7c126527be146ed47cd80416e948dc7ce5bdb0fc4f88ed36ac1",
    },
    "sweep-water_match": {
        "summary":
            "25501214c75b56435b8ce444e5feaab92ac0dc1885bc4067ee90f39d36905a18",
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


def test_pins_hold_under_avx2_dispatch():
    """The pinned runs give PINNED with numpy's AVX-512 kernels turned off.

    The process-local NPY_DISABLE_CPU_FEATURES makes numpy in a subprocess
    dispatch as on an AVX2-only (x86-64-v3) CPU, and the printer below runs
    every pinned run there.  On a host without AVX-512 the variable disables
    nothing and this test checks nothing new.  CPUs without X86_V3 (AVX2/FMA)
    are out of scope: there numpy's complex multiply and abs still move bits,
    so x86-64-v3 is the floor the pins hold from.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          check=True, timeout=600)
    assert ast.literal_eval(done.stdout.removeprefix("PINNED = ")) == PINNED


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
