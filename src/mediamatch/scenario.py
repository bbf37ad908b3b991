"""Scenario files: one self-contained description fully determines a run.

Scenarios are JSON with SI units spelled out in the key names (thickness_mm,
patch_inductance_nh, ...) so unit mistakes stay visible.  A scenario pins the
media stack, the element circuit (explicit inductances or a "calibrate"
directive), the array geometry, the control voltage set, channel statistics
and every seed, which makes re-running a file bit-identical.  One table,
_FIELDS, gives every field's kind and default, and one pass over it reads a
scenario or names the field that is malformed.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cascade import StackSpec
from .channel import ElementResponder, MultipathChannel, sample_channel
from .control import DEFAULT_VOLTAGE_SET
from .media import BUILTIN_MEDIA, Layer, Medium
from .surface import SMV1405_TABLE, ElementCircuit, calibrate_inductances


class ScenarioError(ValueError):
    """Malformed scenario content."""


#: A link's random streams: channel, separate uplink, stage-2 voting, noise.
CHANNEL_STREAM, UPLINK_STREAM, VOTING_STREAM, NOISE_STREAM = range(4)


def link_stream(seed: int, link: int, stream: int) -> np.random.SeedSequence:
    """Stream `stream` of link `link` under scenario seed `seed` (numpy NEP 19):
    SeedSequence([seed, link, stream]), so distinct triples never share one."""
    return np.random.SeedSequence([seed, link, stream])


@dataclass(frozen=True)
class ChannelParams:
    """The scenario's "channel" object; its defaults are in _FIELDS."""

    env_power: float
    element_power: float
    noise_db: float | None
    rss_quantization_db: float | None
    reciprocal_uplink: bool
    phase_jitter_std: float


@dataclass
class Scenario:
    name: str
    frequency: float
    source_medium: Medium
    load_medium: Medium
    layers: tuple[Layer, ...]
    surface_index: int
    circuit: ElementCircuit
    voltage_set: tuple[float, ...]
    rows: int
    cols: int
    channel: ChannelParams
    seed: int
    coupling_offset: complex
    sweeps: dict[str, np.ndarray]
    spectrum: np.ndarray
    digest: str = field(repr=False)  # see scenario_hash

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    def scenario_hash(self) -> str:
        """SHA-256 over the canonical JSON rendering of the dict as parsed."""
        return self.digest

    def stack(self, gap_mm: float | None = None, fat_mm: float | None = None,
              load_depth_m: float | None = None) -> StackSpec:
        """The scenario stack, optionally rewriting the sweep knobs.

        gap_mm rewrites the first layer (the surface-media gap by
        convention), fat_mm rewrites the layer whose medium is named "fat",
        and load_depth_m appends that much load medium before the half-space
        (an endpoint at depth).
        """
        layers = list(self.layers)
        if gap_mm is not None:
            if not layers:
                raise ScenarioError("gap override needs at least one layer")
            layers[0] = Layer(layers[0].medium, gap_mm * 1e-3)
        if fat_mm is not None:
            idx = [i for i, l in enumerate(layers) if l.medium.name == "fat"]
            if not idx:
                raise ScenarioError('fat override needs a layer of medium "fat"')
            layers[idx[0]] = Layer(layers[idx[0]].medium, fat_mm * 1e-3)
        if load_depth_m is not None:
            layers.append(Layer(self.load_medium, load_depth_m))
        return StackSpec(source_medium=self.source_medium, load_medium=self.load_medium,
                         layers=tuple(layers), surface_index=self.surface_index)

    def responder(self) -> ElementResponder:
        return ElementResponder(self.stack(), self.circuit, self.frequency,
                                coupling_offset=self.coupling_offset)

    def sample_link_channel(self, stream, responder: ElementResponder) -> MultipathChannel:
        """A channel drawn from `stream` (a link_stream) with the scenario's statistics."""
        c = self.channel
        return sample_channel(stream, self.n_elements, c.env_power, c.element_power,
                              responder, c.phase_jitter_std)


# ---------------------------------------------------------------------------
# parsing

_MAX = sys.float_info.max
#: Most points a {start, stop, step} sweep axis expands to.
MAX_AXIS_POINTS = 100_000
#: Most elements an array may have (128 x 128): a batch's stage-2 bit rows
#: hold 2N ceil(N/8) bytes per link, 64 MB at this ceiling and 1 GB at 256 x 256.
MAX_ELEMENTS = 128 * 128
#: Number kinds, named as a message reads them: (type, lowest, highest value).
_NUMBERS = {"a number": (float, -_MAX, _MAX), "a number > 0": (float, 5e-324, _MAX),
            "a number >= 0": (float, 0.0, _MAX), "a number >= 1": (float, 1.0, _MAX),
            "a whole number": (int, -math.inf, math.inf),
            "a whole number >= 0": (int, 0, math.inf), "a whole number >= 1": (int, 1, math.inf)}
#: The Python type of each other kind's JSON values.
_TYPES = {"a string": str, "true or false": bool, "null": type(None), '"calibrate"': str,
          "an object": dict, "a map": dict, "a list": list, "a non-empty list of numbers": list,
          "a list of two numbers": list}
_AXIS = {"": ("null|a non-empty list of numbers|an object", None), ".start": ("a number", ...),
         ".stop": ("a number", ...), ".step": ("a number > 0", ...)}
#: Every scenario field by JSON path: (kind, default), ... for a required one.
#: "a.b" is key b of object a and "a.*" each entry of list a or map a (an object
#: with free keys); an object takes no other keys.  "x|y" is an x or a y.
_FIELDS = {
    "name": ("a string", "unnamed"), "frequency_hz": ("a number > 0", 2.4e9),
    "source_medium": ("a string", "air"), "load_medium": ("a string", ...),
    "media": ("a map", {}), "media.*": ("an object", ...),
    "media.*.relative_permittivity": ("a number >= 1", ...),
    "media.*.relative_permeability": ("a number > 0", 1.0),
    "media.*.conductivity_s_per_m": ("a number >= 0", 0.0),
    "layers": ("a list", []), "layers.*": ("an object", ...),
    "layers.*.medium": ("a string", ...), "layers.*.thickness_mm": ("a number > 0", ...),
    "surface_index": ("a whole number >= 0", 0),
    "circuit": ('"calibrate"|an object', "calibrate"),
    "circuit.patch_inductance_nh": ("a number > 0", ...),
    "circuit.bias_wire_inductance_nh": ("a number > 0", ...),
    "calibration_target_s": ("a list of two numbers", [0.0, 0.1]),
    "voltage_set_v": ("a non-empty list of numbers", list(DEFAULT_VOLTAGE_SET)),
    "array_rows": ("a whole number", 8), "array_cols": ("a whole number", 8),
    "channel": ("an object", {}),
    "channel.env_power": ("a number >= 0", 0.25),
    "channel.element_power": ("a number >= 0", 1.0 / 64.0),
    "channel.noise_db": ("null|a number", None),
    "channel.rss_quantization_db": ("null|a number > 0", 0.1),
    "channel.reciprocal_uplink": ("true or false", True),
    "channel.phase_jitter_std": ("a number >= 0", 0.0),
    "seed": ("a whole number >= 0", 1),
    "coupling_offset_s": ("a list of two numbers", [0.0, 0.0]),
    "sweep": ("an object", {}),
    **{f"sweep.{axis}{key}": field for key, field in _AXIS.items()
       for axis in ("gap_mm", "fat_mm", "susceptance_s", "capacitance_pf")},
    "spectrum_hz": ("an object", {}),
    "spectrum_hz.start": ("a number > 0", 1.8e9), "spectrum_hz.stop": ("a number > 0", 3.0e9),
    "spectrum_hz.points": ("a whole number >= 1", 49),
}


def _name(parent, key) -> str:
    """The dotted name of entry `key` of parent, a (parent, key) pair or ""."""
    parent = _name(*parent) if parent else ""
    return f"{parent}[{key}]" if type(key) is int else f"{parent}.{key}" if parent else key


def _check(value, kind: str, pattern: str, parent, key):
    """value read as a `kind` field, _FIELDS[pattern], named _name(parent, key): a
    number as its kind's type, a list of numbers as a tuple, an object as a dict."""
    one = _BY_TYPE[kind].get(type(value))
    if one == "an object":
        path, checked = (parent, key), {}
        for sub_key, sub_kind, sub, default, plain, of, low, high in _KEYS[pattern]:
            item = value.get(sub_key, default)
            if item is default:  # absent
                if item is ...:
                    raise ScenarioError(f"{_name(path, sub_key)} is required")
            elif not (type(item) is of and low <= item <= high or type(item) is plain):
                item = _check(item, sub_kind, sub, path, sub_key)
            checked[sub_key] = item
        if not checked.keys() >= value.keys():
            raise ScenarioError(f"unknown field {_name(path, min(value.keys() - checked.keys()))}")
        return checked
    elif one in _NUMBERS:
        of, low, high = _NUMBERS[one]
        if (of is float or type(value) is int or value.is_integer()) and low <= value <= high:
            return of(value)
    elif one in ("a map", "a list"):
        path, (_, sub_kind, sub, *_) = (parent, key), _KEYS[pattern][0]
        if one == "a map":
            return {k: _check(item, sub_kind, sub, path, k) for k, item in value.items()}
        return [_check(item, sub_kind, sub, path, i) for i, item in enumerate(value)]
    elif one in ("a non-empty list of numbers", "a list of two numbers"):
        if len(value) == 2 if one == "a list of two numbers" else value:
            return tuple([item if type(item) is float and -_MAX <= item <= _MAX
                          else _check(item, "a number", "", (parent, key), i)
                          for i, item in enumerate(value)])
    elif one is not None and (one != '"calibrate"' or value == "calibrate"):
        return value
    raise ScenarioError(f"{_name(parent, key) or 'the scenario'} must be "
                        f"{kind.replace('|', ' or ')}, got {value!r}")


#: Each field kind's kinds by Python type, and each object's keys (a map's or
#: list's "*") as (key, kind, field path, checked default, and what is taken as
#: it is: the type of a string, boolean or null kind, a number kind's bounds).
_BY_TYPE, _KEYS = {}, {}
for _path, (_kind, _default) in sorted(_FIELDS.items(), key=lambda f: -f[0].count(".")):
    _parent, _, _key = _path.rpartition(".")  # children come first, for the defaults
    _kinds = _kind.split("|")
    _BY_TYPE[_kind] = {of: one for one in _kinds for of in
                       ((int, float, np.float64) if one in _NUMBERS else (_TYPES[one],))}
    _default = _default if _default is ... else _check(_default, _kind, _path, "", _key)
    _plain = next((_TYPES[k] for k in _kinds if k in ("a string", "true or false", "null")), None)
    _number = next((_NUMBERS[k] for k in _kinds if k in _NUMBERS), (None, 0, 0))
    _KEYS.setdefault(_parent, []).append((_key, _kind, _path, _default, _plain, *_number))


def scenario_from_dict(raw: dict) -> Scenario:
    """The Scenario of a JSON object; a malformed field raises ScenarioError."""
    fields = _check(raw, "an object", "", "", "")
    media = {**BUILTIN_MEDIA, **{n: Medium(n, *m.values()) for n, m in fields["media"].items()}}
    names = {fields["source_medium"], fields["load_medium"],
             *(layer["medium"] for layer in fields["layers"])}
    if not media.keys() >= names:
        raise ScenarioError(f"unknown medium {sorted(names - media.keys())[0]!r}")
    rows, cols = fields["array_rows"], fields["array_cols"]
    if rows < 1 or cols < 1:
        raise ScenarioError(f"array_rows and array_cols must be >= 1, got {rows}x{cols}")
    if rows * cols > MAX_ELEMENTS:
        raise ScenarioError(f"array_rows x array_cols must be at most {MAX_ELEMENTS} "
                            f"(128 x 128), got {rows}x{cols}")
    frequency, voltage_set = fields["frequency_hz"], fields["voltage_set_v"]
    if (nh := fields["circuit"]) == "calibrate":
        circuit = calibrate_inductances(SMV1405_TABLE, frequency, control_voltages=voltage_set,
                                        target_span=fields["calibration_target_s"])
    else:
        circuit = ElementCircuit(nh["patch_inductance_nh"] * 1e-9,
                                 nh["bias_wire_inductance_nh"] * 1e-9, SMV1405_TABLE, frequency)
    sweeps = {}
    for name, axis in fields["sweep"].items():
        if type(axis) is dict:
            start, stop, step = axis.values()
            steps = (stop - start) / step  # inf when the span overflows
            if not (math.isfinite(steps) and 0 <= round(steps) < MAX_AXIS_POINTS):
                raise ScenarioError(f"sweep.{name} must rise to stop in at most {MAX_AXIS_POINTS} "
                                    f"points, got (stop - start) / step = {steps:.6g}")
            with np.errstate(over="ignore"):  # a value past stop may overflow; it is dropped
                values = start + step * np.arange(round(steps) + 1)
            sweeps[name] = values[values <= stop + 1e-12 * max(1.0, abs(stop))]
        elif axis is not None:
            sweeps[name] = np.array(axis)
    return Scenario(
        name=fields["name"], frequency=frequency, source_medium=media[fields["source_medium"]],
        load_medium=media[fields["load_medium"]],
        layers=tuple(Layer(media[layer["medium"]], layer["thickness_mm"] * 1e-3)
                     for layer in fields["layers"]),
        surface_index=fields["surface_index"], circuit=circuit, voltage_set=voltage_set,
        rows=rows, cols=cols, channel=ChannelParams(**fields["channel"]), seed=fields["seed"],
        coupling_offset=complex(*fields["coupling_offset_s"]), sweeps=sweeps,
        spectrum=np.linspace(*fields["spectrum_hz"].values()),
        digest=hashlib.sha256(json.dumps(raw, sort_keys=True, separators=(",", ":"))
                              .encode("utf-8")).hexdigest()[:16])


def read_scenario_dict(path) -> dict:
    """The JSON object of a scenario file, its fields not yet checked."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"scenario file {path} must be a JSON object, "
                            f"got {type(raw).__name__}")
    return raw


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_scenario_dict(path))


# ---------------------------------------------------------------------------
# built-in defaults (fixtures mirror the fixed bench setups: 6 mm gap,
# 2.5 mm skin, 15 mm fat; calibrated circuit frozen to explicit inductances)

_CALIBRATED_CIRCUIT = {
    "patch_inductance_nh": 0.59,
    "bias_wire_inductance_nh": 5.818720599663381,
}


def default_water_dict(**overrides) -> dict:
    d = {
        "name": "water-default",
        "frequency_hz": 2.4e9,
        "source_medium": "air",
        "load_medium": "water",
        "layers": [{"medium": "air", "thickness_mm": 6.0}],
        "surface_index": 0,
        "circuit": dict(_CALIBRATED_CIRCUIT),
        "voltage_set_v": list(DEFAULT_VOLTAGE_SET),
        "array_rows": 8,
        "array_cols": 8,
        "channel": {"env_power": 0.25, "element_power": 0.015625,
                    "noise_db": None, "rss_quantization_db": 0.1,
                    "reciprocal_uplink": True},
        "seed": 1,
        "sweep": {
            "gap_mm": {"start": 2.0, "stop": 12.0, "step": 1.0},
            "susceptance_s": {"start": 0.0, "stop": 0.12, "step": 0.002},
            "capacitance_pf": {"start": 0.71, "stop": 3.72, "step": 0.05},
        },
        "spectrum_hz": {"start": 1.8e9, "stop": 3.0e9, "points": 49},
    }
    d.update(overrides)
    return d


def default_tissue_dict(**overrides) -> dict:
    d = default_water_dict(
        name="tissue-default",
        load_medium="muscle",
        layers=[{"medium": "air", "thickness_mm": 6.0},
                {"medium": "skin", "thickness_mm": 2.5},
                {"medium": "fat", "thickness_mm": 15.0}],
    )
    d["sweep"]["fat_mm"] = {"start": 5.0, "stop": 50.0, "step": 5.0}
    d.update(overrides)
    return d


def default_water_scenario(**overrides) -> Scenario:
    return scenario_from_dict(default_water_dict(**overrides))


def default_tissue_scenario(**overrides) -> Scenario:
    return scenario_from_dict(default_tissue_dict(**overrides))
