"""Independent oracles the test suite checks the library against.

Everything here is deliberately written via a different route than the
library: layered stacks are solved by recursive impedance transformation
(not ABCD products), power accounting goes through 1 - |Gamma|^2 (valid for
the lossless fixtures), and tiny on/off search problems are enumerated
outright.  Keep this module free of mediamatch imports.

Running it as a script regenerates the committed golden heatmap CSVs:

    python3 tests/oracles.py --write-goldens
"""

import hashlib
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
