"""Independent oracles the test suite checks the library against.

Everything here is deliberately written via a different route than the
library: layered stacks are solved by recursive impedance transformation
(not ABCD products), power accounting goes through 1 - |Gamma|^2 (valid for
the lossless fixtures), and tiny on/off search problems are enumerated
outright.  Keep this module free of mediamatch imports.

Running it as a script regenerates the committed golden heatmap CSVs:

    python3 tests/oracles.py --write-goldens
"""

import copy
import hashlib
import math
import struct

import numpy as np

Z0 = 376.730313668
C0 = 299792458.0
EPS0 = 8.8541878128e-12

MEDIA = {
    "air": (1.0, 0.0),
    "water": (81.0, 0.0),
    "skin": (43.75, 0.0),
    "fat": (5.46, 0.0),
    "muscle": (55.03, 0.0),
}


def wave_impedance(eps_r, sigma, f):
    eps_c = eps_r - 1j * sigma / (2 * np.pi * f * EPS0)
    return Z0 * np.sqrt(1.0 / eps_c)


def wavenumber(eps_r, sigma, f):
    eps_c = eps_r - 1j * sigma / (2 * np.pi * f * EPS0)
    return (2 * np.pi * f / C0) * np.sqrt(eps_c)


def input_impedance(layers, load, f):
    """Transform the load impedance back through the layers, last first.

    layers: iterable of (eps_r, sigma, thickness_m); load: (eps_r, sigma).
    """
    z = wave_impedance(*load, f)
    for eps_r, sigma, th in reversed(list(layers)):
        zl = wave_impedance(eps_r, sigma, f)
        t = np.tan(wavenumber(eps_r, sigma, f) * th)
        z = zl * (z + 1j * zl * t) / (zl + 1j * z * t)
    return z


def through_power_lossless(layers, src, load, susceptance, f):
    """1 - |Gamma|^2 with a shunt jB at the source-side face.

    Valid only when every layer, both half-spaces and the shunt are lossless,
    which is exactly the golden-heatmap regime.
    """
    y_in = 1.0 / input_impedance(layers, load, f) + 1j * susceptance
    y_src = 1.0 / wave_impedance(*src, f)
    gamma = (y_src - y_in) / (y_src + y_in)
    return 1.0 - abs(gamma) ** 2


def optimal_susceptance(layers, load, f):
    """The shunt susceptance cancelling the input susceptance exactly."""
    return -float((1.0 / input_impedance(layers, load, f)).imag)


def best_subset_gain(h_env, h, s_on, s_off, s_bare):
    """Exhaustive best on/off assignment of a small channel, gain in dB."""
    n = len(h)
    best = -np.inf
    for code in range(2 ** n):
        s = np.array([s_on if (code >> i) & 1 else s_off for i in range(n)])
        best = max(best, abs(h_env + np.sum(s * h)))
    base = abs(h_env + s_bare * np.sum(h))
    return 20.0 * np.log10(best / base)


def config_hash_reference(voltages):
    """The trace hash of a voltage vector, from its definition.

    SHA-256, first 12 hex digits, over: the header <II (N, k), k being the
    number of distinct float64 bit patterns among the N voltages; those k
    patterns as <f8 in order of first appearance; then each element's
    position among them, as packed bits (first element in the top bit,
    zero-padded to a byte) when k == 2, else as little-endian unsigned
    integers of the narrowest width that holds k - 1.
    """
    words = [struct.pack("<d", float(v)) for v in voltages]
    levels = list(dict.fromkeys(words))
    position = {word: k for k, word in enumerate(levels)}
    codes = [position[word] for word in words]
    body = struct.pack("<II", len(words), len(levels)) + b"".join(levels)
    if len(levels) == 2:
        bits = "".join(map(str, codes)) + "0" * (-len(codes) % 8)
        body += bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))
    else:
        width = next(w for w in (1, 2, 4, 8) if len(levels) - 1 < 256 ** w)
        body += b"".join(code.to_bytes(width, "little") for code in codes)
    return hashlib.sha256(body).hexdigest()[:12]


#: A link's voting stream: stream 2 of SeedSequence([seed, link, stream]).
VOTING_STREAM = 2


def reference_stage2(seed, link, n_configs, n_groups, rss):
    """Stage 2's masks and outcome for one link, from their definition.

    The masks are n_configs rows of n_groups bits drawn from PCG64 on
    SeedSequence([seed, link, 2]): bit k, counted row by row, is bit k % 64
    of the (k // 64)-th raw 64-bit word, least significant first, and a set
    bit turns its group on.  The rows reading strictly above np.median(rss)
    vote, and a group ends up on when strictly more than half of them turned
    it on.  Returns (masks, on) as lists of bools.
    """
    size = n_configs * n_groups
    stream = np.random.SeedSequence([seed, link, VOTING_STREAM])
    words = [int(w) for w in np.random.PCG64(stream).random_raw(-(-size // 64))]
    bits = [(words[k // 64] >> (k % 64)) & 1 == 1 for k in range(size)]
    masks = [bits[r * n_groups:(r + 1) * n_groups] for r in range(n_configs)]
    median = np.median(rss)
    voters = [mask for mask, value in zip(masks, rss) if value > median]
    on = [2 * sum(mask[g] for mask in voters) > len(voters) for g in range(n_groups)]
    return masks, on


def reference_best(probes, through_stage):
    """A controller run's best probe, as a running scan over its probes picks it.

    ``probes`` are (stage, ..., reading) tuples in measurement order.  Over
    the probes of stages up to ``through_stage`` (all for None), the scan
    keeps the first, then each strictly higher reading, so ties keep the
    earlier probe and a NaN first reading stays best.  Returns the picked tuple.
    """
    pool = probes if through_stage is None else [p for p in probes if p[0] <= through_stage]
    best = pool[0]
    for p in pool[1:]:
        if p[-1] > best[-1]:
            best = p
    return best


def reference_onoff_channel(h_env, h, jitter, s0, s1, row):
    """An on/off probe's channel value, from the subset-sum table rule.

    q_i = h_i u_i (u the phase jitter, or q = h when jitter is None), padded
    with zeros to whole groups of 8 elements whose padded row entries read 0.
    Each group sums s_{row[i]} q_i over its 8 elements in order, every complex
    product written as four real multiplies; the value is np.sum of the group
    sums, plus h_env.
    """
    def times(a, b):
        return complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)

    q = [complex(x) if jitter is None else times(complex(x), complex(u))
         for x, u in zip(h, h if jitter is None else jitter)]
    q += [0j] * (-len(q) % 8)
    row = [int(r) for r in row] + [0] * (-len(row) % 8)
    sums = []
    for g in range(0, len(q), 8):
        terms = [times(s1 if row[i] else s0, q[i]) for i in range(g, g + 8)]
        total = terms[0]
        for term in terms[1:]:
            total += term
        sums.append(total)
    return np.sum(np.array(sums)) + h_env


#: A link's noise stream: stream 3 of SeedSequence([seed, link, stream]).
NOISE_STREAM = 3
#: From this many elements on, a probe over at most two levels reads as
#: reference_onoff_channel does.
ONOFF_MIN_ELEMENTS = 256


def reference_link(down, s, s_bare, voltage_set, seed, link, variants, noise_db=None,
                   quantization_db=0.1, up=None):
    """One link's controller runs, from the algorithm's definition.

    ``down`` (and ``up``) are (h_env, h, jitter) channels, jitter None or one
    phasor per element; ``up`` is None one-way, ``down`` itself for a
    reciprocal two-way link, or its own channel.  ``s`` maps a voltage to the
    element response s(V) and ``s_bare`` is the bare response.  ``variants``
    are (n_configs, groups, enumerate) stage-2 settings, groups None for one
    group per element; every variant goes on from one shared stage 1 with
    its own copy of the noise generator.

    A probe over an alphabet (the voltage set, or (v1, v0) in stage 2) sets
    element e to alphabet[row[e]].  Its channel value is h_env + np.sum(s *
    jitter * h), or reference_onoff_channel's for an alphabet of at most two
    levels from ONOFF_MIN_ELEMENTS elements on; noise (one (re, im) normal
    pair per probe from the link's noise stream) is added to the downlink.
    Its reading is 20 log10 of the magnitude (times the uplink's, or squared
    when reciprocal) on the quantization grid, half to even, -inf when not
    positive.

    - Stage 1 probes each level uniformly: v1 is the first maximum, v0 the
      first minimum, so ties go to the higher voltage; v1 == v0 takes the
      lowest voltage as v0.
    - Stage 2 is reference_stage2's vote, or with ``enumerate`` every on/off
      code c of the groups (group g on where bit g of c is set) in order,
      keeping the first reading above -inf that no later one exceeds.
      Elements in no group stay at v0.
    - Stage 3 probes (a, b) over the levels adjacent to v1 (a) and v0 (b), a
      major, on the stage-2 split.

    Returns per variant a dict: ``probes`` [(stage, voltages, reading)],
    ``through`` the best reading through stages 1, 2 and 3 (reference_best),
    and the gains of the best probe against the bare surface, read without
    noise by the first rule: ``gain`` and ``baseline_db`` one-way, ``gains``
    (down, up, two-way) with an uplink.
    """
    n = len(down[1])
    vs = [float(v) for v in voltage_set]

    def value(channel, levels, row):
        h_env, h, jitter = channel
        if n >= ONOFF_MIN_ELEMENTS and len(levels) <= 2:
            return reference_onoff_channel(h_env, h, jitter, s[levels[0]], s[levels[-1]], row)
        return direct(channel, [levels[r] for r in row])

    def direct(channel, voltages):
        h_env, h, jitter = channel
        terms = np.array([s[v] for v in voltages], dtype=complex)
        if jitter is not None:
            terms = terms * np.asarray(jitter)
        return np.sum(terms * np.asarray(h)) + h_env

    def reading(rng, levels, row):
        x = value(down, levels, row)
        if rng is not None:
            re, im = rng.normal(0.0, np.sqrt(10.0 ** (noise_db / 10.0) / 2.0), 2)
            x = x + complex(re, im)
        magnitude = np.hypot(x.real, x.imag)
        if up is down:
            magnitude = magnitude * magnitude
        elif up is not None:
            u = value(up, levels, row)
            magnitude = magnitude * np.hypot(u.real, u.imag)
        if not magnitude > 0:
            return float("-inf")
        rss = 20.0 * math.log10(magnitude)
        return round(rss / quantization_db) * quantization_db + 0.0 if quantization_db else rss

    def probe(probes, rng, stage, levels, row):
        probes.append((stage, tuple(levels[r] for r in row),
                       reading(rng, levels, row)))
        return probes[-1][2]

    rng = None if noise_db is None else np.random.default_rng(
        np.random.SeedSequence([seed, link, NOISE_STREAM]))
    shared = []
    stage1 = [probe(shared, rng, 1, vs, [k] * n) for k in range(len(vs))]
    v1 = vs[stage1.index(max(stage1))]
    v0 = vs[stage1.index(min(stage1))]
    if v1 == v0:
        v0 = min(vs)

    out = []
    for n_configs, groups, enumerate_groups in variants:
        probes, noise = list(shared), copy.deepcopy(rng)
        groups = [[e] for e in range(n)] if groups is None else groups

        def elements_on(mask):
            on = [False] * n
            for g, members in enumerate(groups):
                for e in members:
                    on[e] = bool(mask[g])
            return on

        if enumerate_groups:
            masks = [[(code >> g) & 1 for g in range(len(groups))]
                     for code in range(2 ** len(groups))]
            readings = [probe(probes, noise, 2, (v1, v0), [0 if on else 1 for on in
                                                          elements_on(mask)])
                        for mask in masks]
            best = readings.index(max(readings))
            on = elements_on(masks[best]) if readings[best] > float("-inf") else [False] * n
        else:
            masks, _ = reference_stage2(seed, link, n_configs, len(groups), [0.0] * n_configs)
            readings = [probe(probes, noise, 2, (v1, v0), [0 if on else 1 for on in
                                                          elements_on(mask)])
                        for mask in masks]
            on = elements_on(reference_stage2(seed, link, n_configs, len(groups), readings)[1])

        def adjacent(v):
            i = vs.index(v)
            return [j for j in (i - 1, i, i + 1) if 0 <= j < len(vs)]

        for a in adjacent(v1):
            for b in adjacent(v0):
                probe(probes, noise, 3, vs, [a if e else b for e in on])

        through = tuple(reference_best(probes, stage)[2] for stage in (1, 2, 3))
        voltages = reference_best(probes, None)[1]

        def magnitudes(channel):
            x = direct(channel, voltages)
            base = complex(channel[0] + s_bare * np.sum(np.asarray(channel[1])))
            return np.hypot(x.real, x.imag), np.hypot(base.real, base.imag)

        def db(x):
            return 20.0 * math.log10(x) if x > 0 else float("-inf")

        def gain(num, den):
            return db(num) - db(den) if num > 0 and den > 0 else float("-inf")

        result = {"probes": probes, "through": through}
        d = magnitudes(down)
        if up is None:
            result.update(gain=gain(*d), baseline_db=db(d[1]))
        else:
            u = d if up is down else magnitudes(up)
            result["gains"] = (gain(*d), gain(*u), gain(d[0] * u[0], d[1] * u[1]))
        out.append(result)
    return out


def row_csv_text(header, rows, float_format=".12g"):
    """CSV text of rows under a header, one format call per value: a float
    (numpy float64 included) format(x, float_format), anything else str(x)."""
    return "".join([header + "\n"] + [
        ",".join(format(x, float_format) if isinstance(x, float) else str(x) for x in row) + "\n"
        for row in rows])


# ---------------------------------------------------------------------------
# golden heatmaps: through power (dB) for gap/fat vs susceptance grids

GOLDEN_SPECS = {
    "water_gap_susceptance.csv": {
        "axis1": np.arange(2.0, 12.0 + 1e-9, 1.0),          # gap, mm
        "axis2": np.arange(0.0, 0.12 + 1e-9, 0.002),        # susceptance, S
        "stack": lambda gap_mm: ([("air", gap_mm * 1e-3)], "water"),
    },
    "tissue_gap_susceptance.csv": {
        "axis1": np.arange(2.0, 12.0 + 1e-9, 1.0),
        "axis2": np.arange(0.0, 0.12 + 1e-9, 0.002),
        "stack": lambda gap_mm: ([("air", gap_mm * 1e-3), ("skin", 2.5e-3),
                                  ("fat", 15e-3)], "muscle"),
    },
    "tissue_fat_susceptance.csv": {
        "axis1": np.arange(5.0, 50.0 + 1e-9, 5.0),           # fat, mm
        "axis2": np.arange(0.0, 0.12 + 1e-9, 0.002),
        "stack": lambda fat_mm: ([("air", 6e-3), ("skin", 2.5e-3),
                                  ("fat", fat_mm * 1e-3)], "muscle"),
    },
}

FREQUENCY = 2.4e9
DB_FLOOR = -200.0


def golden_rows(spec):
    rows = []
    for a1 in spec["axis1"]:
        named_layers, load_name = spec["stack"](a1)
        layers = [MEDIA[n] + (th,) for n, th in named_layers]
        load = MEDIA[load_name]
        for a2 in spec["axis2"]:
            p = through_power_lossless(layers, MEDIA["air"], load, a2, FREQUENCY)
            db = 10.0 * np.log10(p) if p > 0 else DB_FLOOR
            rows.append((float(a1), float(a2), max(float(db), DB_FLOOR)))
    return rows


def write_goldens(directory):
    from pathlib import Path
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, spec in GOLDEN_SPECS.items():
        lines = ["axis1,axis2,through_power_db"]
        for a1, a2, db in golden_rows(spec):
            lines.append(f"{a1:.10g},{a2:.10g},{db:.10g}")
        (directory / name).write_text("\n".join(lines) + "\n")
        print(f"wrote {directory / name}")


if __name__ == "__main__":
    import argparse
    from pathlib import Path

    ap = argparse.ArgumentParser()
    ap.add_argument("--write-goldens", action="store_true")
    ap.add_argument("--out", default=str(Path(__file__).parent / "golden"))
    opts = ap.parse_args()
    if opts.write_goldens:
        write_goldens(opts.out)
