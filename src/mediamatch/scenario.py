"""Scenario files: one self-contained description fully determines a run.

Scenarios are JSON with SI units spelled out in the key names (thickness_mm,
patch_inductance_nh, ...) so unit mistakes stay visible.  A scenario pins the
media stack, the element circuit (explicit inductances or a "calibrate"
directive), the array geometry, the control voltage set, channel statistics
and every seed, which makes re-running a file bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cascade import StackSpec
from .channel import (ElementResponder, MultipathChannel, SurfaceConfig,
                      composite_channels, feedback_batch, rss_db, sample_channel)
from .control import DEFAULT_VOLTAGE_SET
from .media import BUILTIN_MEDIA, Layer, Medium
from .surface import (CalibrationError, SMV1405_TABLE, ElementCircuit,
                      calibrate_inductances)


class ScenarioError(ValueError):
    """Malformed scenario content."""


@dataclass(frozen=True)
class ChannelParams:
    env_power: float = 0.25
    element_power: float = 1.0 / 64.0
    noise_db: float | None = None
    rss_quantization_db: float | None = 0.1
    reciprocal_uplink: bool = True
    phase_jitter_std: float = 0.0


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
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    def scenario_hash(self) -> str:
        """SHA-256 over the canonical JSON rendering of the raw scenario."""
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

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

    def responder(self, **stack_kwargs) -> ElementResponder:
        return ElementResponder(self.stack(**stack_kwargs), self.circuit, self.frequency,
                                coupling_offset=self.coupling_offset)

    def sample_link_channel(self, link_seed: int,
                            responder: ElementResponder | None = None) -> MultipathChannel:
        return sample_channel(
            seed=link_seed,
            n_elements=self.n_elements,
            env_power=self.channel.env_power,
            element_power=self.channel.element_power,
            responder=responder if responder is not None else self.responder(),
            phase_jitter_std=self.channel.phase_jitter_std,
        )


class FeedbackOracle:
    """RSS feedback for the controller, with deterministic per-probe noise.

    Each probe gets its own derived noise seed so a replay with the same
    base seed reproduces the identical sequence.  ``batch`` measures every row
    of an index matrix at once; row i reads exactly what the i-th of as many
    sequential calls would, noise seed included.
    """

    def __init__(self, channel: MultipathChannel, noise_db: float | None = None,
                 quantization_db: float | None = 0.1, noise_seed: int = 0):
        self.channel = channel
        self.noise_db = noise_db
        self.quantization_db = quantization_db
        self.noise_seed = noise_seed
        self.probes = 0

    def batch(self, levels, index) -> np.ndarray:
        first = self.noise_seed * 1000003 + self.probes
        seeds = None
        if self.noise_db is not None:
            seeds = [(first + i) & 0x7FFFFFFF for i in range(len(index))]
        rss = feedback_batch(self.channel, levels, index, noise_db=self.noise_db,
                             noise_seeds=seeds, quantization_db=self.quantization_db)
        self.probes += len(rss)
        return rss

    def __call__(self, config: SurfaceConfig) -> float:
        return float(self.batch(config.levels, config.index[None])[0])


class ProductFeedbackOracle:
    """Backscatter feedback: the dB sum of both directions' RSS."""

    def __init__(self, downlink: MultipathChannel, uplink: MultipathChannel,
                 quantization_db: float | None = 0.1):
        if downlink.n_elements != uplink.n_elements:
            raise ValueError("backscatter directions must share the element count")
        self.downlink = downlink
        self.uplink = uplink
        self.quantization_db = quantization_db

    def batch(self, levels, index) -> np.ndarray:
        down = composite_channels(self.downlink, levels, index)
        up = composite_channels(self.uplink, levels, index)
        magnitude = np.hypot(down.real, down.imag) * np.hypot(up.real, up.imag)
        return rss_db(magnitude, self.quantization_db)

    def __call__(self, config: SurfaceConfig) -> float:
        return float(self.batch(config.levels, config.index[None])[0])


# ---------------------------------------------------------------------------
# parsing

def _expand_axis(name: str, spec) -> np.ndarray:
    """An axis is either an explicit list or {start, stop, step}."""
    if isinstance(spec, dict):
        start, stop, step = (float(spec[k]) for k in ("start", "stop", "step"))
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ScenarioError(f"sweep axis {name!r}: start and stop must be finite")
        if not (math.isfinite(step) and step > 0):
            raise ScenarioError(f"sweep axis {name!r}: step must be positive and finite, "
                                f"got {step}")
        n = int(round((stop - start) / step))
        values = start + step * np.arange(n + 1)
        return values[values <= stop + 1e-12 * max(1.0, abs(stop))]
    return np.asarray(spec, dtype=float)


def _parse_medium(name: str, entry, registry) -> Medium:
    if name in registry and entry is None:
        return registry[name]
    return Medium(
        name=name,
        relative_permittivity=float(entry["relative_permittivity"]),
        relative_permeability=float(entry.get("relative_permeability", 1.0)),
        conductivity=float(entry.get("conductivity_s_per_m", 0.0)),
    )


def _object(value, what: str) -> dict:
    """A JSON object (a dict); anything else is a ScenarioError."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _finite(value, what: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ScenarioError(f"{what} must be finite, got {value!r}")
    return number


def _whole(value, what: str) -> int:
    """An integral count: 8 and 8.0 pass, 2.5 (which int() would cut to 2) and
    true/false (which Python counts as 1/0) do not."""
    if isinstance(value, bool):
        raise ScenarioError(f"{what} must be a whole number, got {value!r}")
    if isinstance(value, int):
        return value
    number = float(value)
    if not number.is_integer():
        raise ScenarioError(f"{what} must be a whole number, got {value!r}")
    return int(number)


def scenario_from_dict(raw: dict) -> Scenario:
    _object(raw, "the scenario")
    try:
        registry = dict(BUILTIN_MEDIA)
        for name, entry in _object(raw.get("media", {}), "media").items():
            registry[name] = _parse_medium(name, entry, registry)

        def medium(name: str) -> Medium:
            if name not in registry:
                raise ScenarioError(f"unknown medium {name!r}")
            return registry[name]

        frequency = float(raw.get("frequency_hz", 2.4e9))
        layers = tuple(
            Layer(medium(entry["medium"]), float(entry["thickness_mm"]) * 1e-3)
            for entry in raw.get("layers", []))

        voltage_set = tuple(float(v) for v in raw.get("voltage_set_v", DEFAULT_VOLTAGE_SET))

        circuit_spec = raw.get("circuit", "calibrate")
        if circuit_spec == "calibrate":
            target = raw.get("calibration_target_s", [0.0, 0.1])
            circuit = calibrate_inductances(SMV1405_TABLE, frequency,
                                            target_span=(float(target[0]), float(target[1])),
                                            control_voltages=voltage_set)
        else:
            circuit = ElementCircuit(
                patch_inductance=float(circuit_spec["patch_inductance_nh"]) * 1e-9,
                bias_wire_inductance=float(circuit_spec["bias_wire_inductance_nh"]) * 1e-9,
                varactors=SMV1405_TABLE,
                design_frequency=frequency,
            )

        ch = _object(raw.get("channel", {}), "channel")
        env_power, element_power = (_finite(ch.get(k, d), f"channel.{k}") for k, d in
                                    (("env_power", 0.25), ("element_power", 1.0 / 64.0)))
        if env_power < 0 or element_power < 0:
            raise ScenarioError(f"channel powers must be >= 0, got {env_power}, {element_power}")
        step = ch.get("rss_quantization_db", 0.1)
        if step is not None and not _finite(step, "channel.rss_quantization_db") > 0:
            raise ScenarioError(f"channel.rss_quantization_db must be null or > 0, got {step!r}")
        channel = ChannelParams(
            env_power=env_power,
            element_power=element_power,
            noise_db=(None if ch.get("noise_db") is None
                      else _finite(ch["noise_db"], "channel.noise_db")),
            rss_quantization_db=None if step is None else float(step),
            reciprocal_uplink=bool(ch.get("reciprocal_uplink", True)),
            phase_jitter_std=_finite(ch.get("phase_jitter_std", 0.0),
                                     "channel.phase_jitter_std"),
        )

        rows = _whole(raw.get("array_rows", 8), "array_rows")
        cols = _whole(raw.get("array_cols", 8), "array_cols")
        if rows < 1 or cols < 1:
            raise ScenarioError(f"array_rows and array_cols must be >= 1, got {rows}x{cols}")

        offset = raw.get("coupling_offset_s", [0.0, 0.0])
        spectrum_spec = raw.get("spectrum_hz", {"start": 1.8e9, "stop": 3.0e9, "points": 49})
        spectrum = np.linspace(float(spectrum_spec["start"]), float(spectrum_spec["stop"]),
                               _whole(spectrum_spec["points"], "spectrum_hz.points"))

        seed = _whole(raw.get("seed", 1), "seed")
        if seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {seed}")
        return Scenario(
            name=str(raw.get("name", "unnamed")),
            frequency=frequency,
            source_medium=medium(raw.get("source_medium", "air")),
            load_medium=medium(raw["load_medium"]),
            layers=layers,
            surface_index=_whole(raw.get("surface_index", 0), "surface_index"),
            circuit=circuit,
            voltage_set=voltage_set,
            rows=rows,
            cols=cols,
            channel=channel,
            seed=seed,
            coupling_offset=complex(_finite(offset[0], "coupling_offset_s[0]"),
                                    _finite(offset[1], "coupling_offset_s[1]")),
            sweeps={k: _expand_axis(k, v)
                    for k, v in _object(raw.get("sweep", {}), "sweep").items()},
            spectrum=spectrum,
            raw=raw,
        )
    except (LookupError, TypeError, ValueError) as exc:
        if isinstance(exc, (ScenarioError, CalibrationError)):
            raise
        raise ScenarioError(f"bad scenario: {exc}") from exc


def read_scenario_dict(path) -> dict:
    """The JSON object of a scenario file, its fields not yet checked."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    return _object(raw, f"scenario file {path}")


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
