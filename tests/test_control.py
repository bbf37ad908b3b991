"""Three-stage controller: stage behavior, budgets, voting, enumeration."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mediamatch.control import (DEFAULT_VOLTAGE_SET, HASH_BLOCK, MASK_BLOCK, ControlTrace,
                                LinkBatch, _element_bits, _hash_blocks, _owners, _probe_many,
                                brute_force_baseline, column_groups, config_hash,
                                run_controllers, stage1_uniform_probe, stage2_majority_voting,
                                stage3_fine_tune)
from mediamatch.scenario import VOTING_STREAM, link_stream

import oracles
from per_probe import PerProbeOracle, config, voltages

V1, V0 = 30.0, 0.0


def onoff_oracle(h, h_env=0j, s_on=1.0, s_off=0.0, on_voltage=V1):
    """Feedback for a synthetic channel with binary element response; its
    ``read`` gives one configuration's reading."""
    h = np.asarray(h, dtype=complex)

    def read(config_voltages) -> float:
        s = np.array([s_on if v == on_voltage else s_off for v in config_voltages])
        mag = abs(h_env + np.sum(s * h))
        return 20 * np.log10(mag) if mag > 0 else float("-inf")

    return PerProbeOracle(read, len(h))


def constant(value):
    """An oracle that reads ``value`` for every probe."""
    return PerProbeOracle(lambda v: value, 0)


def one_link(v1=V1, v0=V0, on=None, n=None) -> LinkBatch:
    """A one-link batch of n elements past stage 1 with on/off voltages v1,
    v0 (and, for stage 3, the elements in ``on`` left on; n is its length)."""
    links = LinkBatch.new(1, len(on) if n is None else n)
    links.v1, links.v0 = np.array([float(v1)]), np.array([float(v0)])
    if on is not None:
        links.on = np.packbits([on], axis=1, bitorder="little")
    return links


def on_elements(links, link, n) -> np.ndarray:
    """The elements a batch's ``on`` bits leave on at one link, as bools."""
    return np.unpackbits(links.on[link], count=n, bitorder="little").astype(bool)


def stage1(read, voltage_set, n):
    """Stage 1 on one link whose probes read read(voltages): (v1, v0, trace)."""
    links = stage1_uniform_probe(PerProbeOracle(read, n), LinkBatch.new(1, n), voltage_set, n)
    return links.v1[0], links.v0[0], links.traces[0]


def probe_voltages(trace):
    """The voltages of every probe of a trace, in order."""
    return [voltages(levels, c, b, trace.n_elements)
            for _, levels, codes, bits, _ in trace.blocks for c, b in zip(codes, bits)]


READINGS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, float("inf"), float("-inf"), float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True))


class TestStage1:
    @settings(max_examples=200, deadline=None)
    @given(readings=st.lists(READINGS, min_size=len(DEFAULT_VOLTAGE_SET),
                             max_size=len(DEFAULT_VOLTAGE_SET)))
    @example(readings=[0.0] * 5 + [1.7976931348623157e308, -9.9792015476736e291])
    def test_extremes_match_running_scan(self, readings):
        """v1 and v0 are what a running strict scan from the highest voltage
        keeps, for ties, signed zeros, +-inf and NaN readings alike."""
        by_voltage = dict(zip(DEFAULT_VOLTAGE_SET, readings))
        v1, v0, trace = stage1(lambda v: by_voltage[v[0]], DEFAULT_VOLTAGE_SET, 2)
        seen = list(zip(DEFAULT_VOLTAGE_SET, readings))
        (w1, r1), (w0, r0) = seen[0], seen[0]
        for v, r in seen[1:]:
            if r > r1:
                w1, r1 = v, r
            if r < r0:
                w0, r0 = v, r
        assert (v1, v0) == (w1, w0)

    def test_extremes_on_monotone_toy(self):
        """Response magnitude rising as the voltage falls: v1 = 0 V, v0 = 30 V."""
        level = {v: i + 1.0 for i, v in enumerate(DEFAULT_VOLTAGE_SET)}

        def read(config_voltages):
            return 20 * np.log10(level[config_voltages[0]])

        v1, v0, trace = stage1(read, DEFAULT_VOLTAGE_SET, 4)
        assert v1 == 0.0 and v0 == 30.0
        assert trace.stage_probe_count(1) == len(DEFAULT_VOLTAGE_SET)

    def test_constant_oracle_flagged(self):
        """A constant oracle leaves v1 == v0; run_controllers then substitutes v0."""
        v1, v0, _ = stage1(lambda v: -3.0, DEFAULT_VOLTAGE_SET, 4)
        assert v1 == v0 == 30.0  # ties break toward the higher voltage

    def test_probe_count_is_set_size(self):
        _, _, trace = stage1(lambda v: v[0], (30.0, 10.0, 0.0), 2)
        assert trace.budget_used == 3

    @pytest.mark.parametrize("voltages", [(30.0, float("nan"), 0.0), (float("inf"), 30.0, 0.0),
                                          (30.0, 0.0, float("-inf"))])
    def test_non_finite_voltages_rejected(self, voltages):
        """Every comparison with a NaN is false, so the ordering check alone
        would let it through; stage 3 validates its voltage set the same way."""
        with pytest.raises(ValueError, match="control voltages must be finite"):
            stage1_uniform_probe(constant(0.0), one_link(n=4), voltages, 4)
        with pytest.raises(ValueError, match="control voltages must be finite"):
            stage3_fine_tune(constant(0.0), one_link(n=4), voltages)


class TestStage2:
    def test_two_element_opposed_channel(self):
        """h = (+1, -1): the optimum turns on exactly one element (|h| = 1).

        Enumeration of the 4 on/off configs shows both single-element configs
        tie at the top; seed 0 is one of the seeds whose random draw makes the
        vote resolve to a single element.
        """
        oracle = onoff_oracle([1.0, -1.0])
        on = on_elements(stage2_majority_voting(oracle, one_link(n=2), 2, n_configs=4,
                                                rng_seed=0), 0, 2)
        assert np.count_nonzero(on) == 1
        cfg = voltages(*config((V1, V0), on), 2)
        assert oracle.read(cfg) == pytest.approx(0.0, abs=1e-12)  # |h_TR| = 1

    def test_probe_count_exact(self):
        oracle = onoff_oracle(np.ones(8))
        links = stage2_majority_voting(oracle, one_link(n=8), 8, n_configs=16, rng_seed=1)
        assert links.traces[0].stage_probe_count(2) == 16

    def test_aligned_channel_on_fraction_grows(self):
        """All paths in phase: every element should be on; the voting
        majority approaches all-on as the config budget grows."""
        oracle = onoff_oracle(np.ones(32))
        fractions = {}
        for n_cfg in (64, 1024):
            on_counts = []
            for seed in range(30):
                on = on_elements(stage2_majority_voting(oracle, one_link(n=32), 32,
                                                        n_configs=n_cfg, rng_seed=seed), 0, 32)
                on_counts.append(np.count_nonzero(on) / 32)
            fractions[n_cfg] = float(np.median(on_counts))
        assert fractions[1024] > fractions[64]
        assert fractions[1024] == 1.0

    def test_aligned_all_on_at_large_budget(self):
        """At 32x the element count the full-on config is recovered almost
        always (98/100 seeds at N = 32)."""
        oracle = onoff_oracle(np.ones(32))
        hits = 0
        for seed in range(100):
            on = on_elements(stage2_majority_voting(oracle, one_link(n=32), 32, n_configs=1024,
                                                    rng_seed=seed), 0, 32)
            hits += int(on.all())
        assert hits >= 95

    def test_equal_voltages_rejected(self):
        with pytest.raises(ValueError):
            stage2_majority_voting(constant(0.0), one_link(5.0, 5.0, n=4), 4)

    def test_group_granularity(self):
        oracle = onoff_oracle(np.ones(8))
        groups = column_groups(2, 4)
        on = on_elements(stage2_majority_voting(oracle, one_link(n=8), 8, n_configs=32,
                                                rng_seed=3, groups=groups), 0, 8)
        # group membership is preserved: each column is all-on or all-off
        for col in groups:
            assert on[col].all() or not on[col].any()


class TestStage3:
    def test_adopts_strict_improvement(self):
        """Feedback prefers (20 V, 2.5 V) over the stage-2 (30 V, 0 V) pick."""
        target = {(20.0, 2.5): 0.0}

        def read(config_voltages):
            key = (max(config_voltages), min(config_voltages))
            return target.get(key, -10.0)

        links = stage3_fine_tune(PerProbeOracle(read, 2), one_link(30.0, 0.0, [True, False]),
                                 DEFAULT_VOLTAGE_SET)
        final = voltages(*links.configs()[0], 2)
        assert max(final) == 20.0 and min(final) == 2.5
        assert links.traces[0].stage_probe_count(3) <= 9

    def test_keeps_stage2_config_when_no_improvement(self):
        oracle = onoff_oracle([1.0, 1.0])
        links = one_link(on=[True, True])
        _probe_many(oracle, links, 2, [(V1,)], np.zeros((1, 1, 2), np.uint8),
                    np.zeros((1, 1, 1), np.uint8))
        final = stage3_fine_tune(oracle, links, DEFAULT_VOLTAGE_SET).configs()[0]
        assert voltages(*final, 2) == (V1, V1)

    def test_probe_budget(self):
        links = stage3_fine_tune(constant(0.0), one_link(15.0, 5.0, [True, False]),
                                 DEFAULT_VOLTAGE_SET)
        assert links.traces[0].stage_probe_count(3) == 9  # interior voltages: full 3x3 grid


class TestRunController:
    def test_budget_for_default_array(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=64) + 1j * rng.normal(size=64)
        oracle = onoff_oracle(h)
        trace = run_controllers(oracle, 64, rng_seeds=[5]).traces[0]
        assert trace.stage_probe_count(1) == len(DEFAULT_VOLTAGE_SET)
        assert trace.stage_probe_count(2) == 128
        assert trace.stage_probe_count(3) <= 9
        assert trace.budget_used <= 145

    def test_final_is_argmax_over_all_probes(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=16) + 1j * rng.normal(size=16)
        oracle = onoff_oracle(h)
        links = run_controllers(oracle, 16, rng_seeds=[6])
        cfg, trace = links.configs()[0], links.traces[0]
        every = np.concatenate([rss for *_, rss in trace.blocks])
        assert oracle.read(voltages(*cfg, 16)) == pytest.approx(every.max(), abs=1e-12)

    def test_deterministic_trace(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=16) + 1j * rng.normal(size=16)
        a, b = (run_controllers(onoff_oracle(h), 16, rng_seeds=[7]) for _ in range(2))
        assert voltages(*a.configs()[0], 16) == voltages(*b.configs()[0], 16)
        assert a.traces[0].serialize() == b.traces[0].serialize()

    def test_constant_oracle_survives(self):
        links = run_controllers(constant(-1.0), 8, rng_seeds=[8])
        assert links.v0[0] == min(DEFAULT_VOLTAGE_SET) != links.v1[0]  # v0 substituted
        assert links.configs()[0][2].shape == (1,)  # ceil(8 / 8) bytes of on bits


class TestBruteForce:
    def test_single_group_two_probes(self):
        oracle = onoff_oracle(np.ones(4))
        links = brute_force_baseline(oracle, one_link(n=4), 4, [[0, 1, 2, 3]])
        assert links.traces[0].budget_used == 2
        assert on_elements(links, 0, 4).all()
        assert voltages(*links.configs()[0], 4) == (V1,) * 4

    def test_eight_groups_256_probes_and_optimal(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=8) + 1j * rng.normal(size=8)
        oracle = onoff_oracle(h)
        links = brute_force_baseline(oracle, one_link(n=8), 8, [[i] for i in range(8)])
        assert links.traces[0].budget_used == 256
        want = oracles.best_subset_gain(0j, h, 1.0, 0.0, 1.0)  # oracle enumerates too
        base = 20 * np.log10(abs(h.sum()))
        _, (_, best_db, _) = links.traces[0].best()
        assert best_db - base == pytest.approx(want, abs=1e-9)
        on = voltages(*config((V1, V0), on_elements(links, 0, 8)), 8)
        assert oracle.read(on) == best_db

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError):
            brute_force_baseline(constant(0.0), one_link(n=3), 3, [[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            stage2_majority_voting(constant(0.0), one_link(n=3), 3, groups=[[0, 1], [1, 2]])

    def test_ungrouped_elements_stay_off(self):
        links = brute_force_baseline(PerProbeOracle(lambda v: float(v.count(V1)), 4),
                                     one_link(n=4), 4, [[0], [2]])
        assert on_elements(links, 0, 4).tolist() == [True, False, True, False]
        assert voltages(*links.configs()[0], 4) == (V1, V0, V1, V0)
        assert links.traces[0].budget_used == 4

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            brute_force_baseline(constant(0.0), one_link(n=17), 17, [[i] for i in range(17)])


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestColumnarTrace:
    @settings(max_examples=300, deadline=None)
    @given(readings=st.lists(READINGS, max_size=30),
           cuts=st.sets(st.integers(0, 30), max_size=6),
           stages=st.lists(st.integers(1, 3), min_size=7, max_size=7))
    def test_matches_per_probe_loop(self, readings, cuts, stages):
        """Ties, signed zeros, +-inf and NaN readings in blocks of stages in
        controller order, cut at random boundaries (empty blocks included),
        leave as each stage's best what the per-probe scan picks."""
        bounds = [0] + sorted(c for c in cuts if c <= len(readings)) + [len(readings)]
        trace, probes = ControlTrace(1), []
        for stage, lo, hi in zip(sorted(stages), bounds, bounds[1:]):
            # probe i sits at voltage i, so the picked config names its probe
            levels, codes = tuple(map(float, range(lo, hi))), np.arange(hi - lo, dtype=np.uint8)
            trace.append(stage, levels, np.stack([codes, codes], axis=1),
                         np.zeros((hi - lo, 1), np.uint8), readings[lo:hi])
            probes += [(stage, i, readings[i]) for i in range(lo, hi)]
        assert trace.budget_used == len(probes)
        config, best_db = trace.best()
        for stage in (1, 2, 3):
            assert trace.stage_probe_count(stage) == sum(1 for p in probes if p[0] == stage)
            if not any(p[0] <= stage for p in probes):
                assert np.isnan(best_db[stage - 1])
                continue
            want = oracles.reference_best(probes, stage)
            assert _bits(best_db[stage - 1]) == _bits(want[2])
        if probes:
            want = oracles.reference_best(probes, None)
            assert voltages(*config, 1) == (float(want[1]),)
        else:
            assert config is None

    def test_nan_reading(self):
        uniform, bits = np.array([[0, 0], [1, 1]], np.uint8), np.zeros((2, 1), np.uint8)
        trace = ControlTrace(1)
        trace.append(1, (30.0, 0.0), uniform, bits, [1.0, float("nan")])
        trace.append(2, (5.0,), uniform[:1], bits[:1], [2.0])
        best, best_db = trace.best()
        assert best_db == (1.0, 2.0, 2.0)
        assert voltages(*best, 1) == (5.0,)
        first_nan = ControlTrace(1)
        first_nan.append(1, (30.0, 0.0), uniform, bits, [float("nan"), 5.0])
        best, best_db = first_nan.best()
        assert np.isnan(best_db).all()
        assert voltages(*best, 1) == (30.0,)

    def test_blocks_are_read_only_copies(self):
        trace = ControlTrace(2)
        codes, bits = np.array([[0, 1]], dtype=np.uint8), np.array([[1]], dtype=np.uint8)
        trace.append(1, (30.0, 0.0), codes, bits, [1.0])
        codes[0, 0], bits[0, 0] = 1, 2
        assert probe_voltages(trace) == [(30.0, 0.0)]
        assert not trace.blocks[0][2].flags.writeable and not trace.blocks[0][3].flags.writeable
        with pytest.raises(ValueError, match="batch"):
            trace.append(1, (30.0, 0.0), codes, bits, [1.0, 2.0])
        with pytest.raises(ValueError, match="batch"):  # bit rows are ceil(N/8) uint8
            trace.append(1, (30.0, 0.0), codes, np.array([[1]]), [1.0])


class TestTraceSerialization:
    def test_line_format(self):
        trace = ControlTrace(2)
        trace.append(1, (30.0, 0.0), [[0, 1]], np.array([[1]], np.uint8), [-12.5])
        text, = trace.serialize()
        lines = text.strip().split("\n")
        assert lines[0] == "stage,probe_index,config_hash,rss_db"
        stage, idx, digest, rss = lines[1].split(",")
        assert (stage, idx) == ("1", "0")
        assert digest == oracles.config_hash_reference((30.0, 0.0)) == config_hash((30.0, 0.0))
        assert float(rss) == -12.5

    def test_trace_hash_matches_voltage_hash(self):
        """Index configurations hash as the voltage vectors they stand for."""
        rng = np.random.default_rng(4)
        h = rng.normal(size=12) + 1j * rng.normal(size=12)
        trace = run_controllers(onoff_oracle(h), 12, rng_seeds=[9]).traces[0]
        rows = trace.serialize()[0].strip().split("\n")[1:]
        assert len(rows) == trace.budget_used
        for row, voltages in zip(rows, probe_voltages(trace)):
            assert row.split(",")[2] == oracles.config_hash_reference(voltages)

    def test_hash_of_many_distinct_voltages(self):
        """1024 levels: config_hash's positions are little-endian uint16s, and
        a trace row picks two of 1024 levels by uint16 codes."""
        values = np.linspace(0.0, 30.0, 1024)
        assert config_hash(values) == oracles.config_hash_reference(values)
        trace = ControlTrace(3)
        trace.append(1, values.tolist(), np.array([[1023, 700]], np.uint16),
                     np.array([[0b101]], np.uint8), [0.0])
        picked = (values[1023], values[700], values[1023])
        assert trace.serialize()[0].split("\n")[1].split(",")[2] == config_hash(picked)

    def test_signed_zero_hashes_apart(self):
        assert config_hash((0.0, -0.0)) == oracles.config_hash_reference((0.0, -0.0))
        trace, on = ControlTrace(2), np.array([[1]], np.uint8)
        for levels in ((30.0, 0.0), (30.0, -0.0)):
            trace.append(1, levels, [[0, 1]], on, [0.0])
        trace.append(1, (0.0, -0.0), [[0, 1]], on, [0.0])
        rows = trace.serialize()[0].strip().split("\n")[1:]
        assert [r.split(",")[2] for r in rows] == [
            oracles.config_hash_reference(voltages) for voltages in probe_voltages(trace)]
        assert rows[0].split(",")[2] != rows[1].split(",")[2]
        assert rows[2].split(",")[2] == config_hash((0.0, -0.0))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.lists(
        st.one_of(st.floats(allow_subnormal=True), st.sampled_from([0.0, -0.0, 5e300])),
        min_size=1, max_size=20)), max_size=5))
    def test_matches_per_line_rendering(self, blocks):
        """The trace's CSV gives the bytes of one f-string per probe."""
        trace = ControlTrace(3)
        for stage, rss in blocks:
            trace.append(stage, (30.0, 0.0), np.zeros((len(rss), 2), dtype=np.uint8),
                         np.zeros((len(rss), 1), dtype=np.uint8), rss)
        lines = ["stage,probe_index,config_hash,rss_db"]
        for stage, rss in blocks:
            first = len(lines) - 1
            lines += [f"{stage},{first + k},{config_hash((30.0,) * 3)},{r:.10g}"
                      for k, r in enumerate(rss)]
        assert trace.serialize() == ["\n".join(lines) + "\n"]

    def test_hash_is_canonical(self):
        assert config_hash((30.0, 0.0)) == config_hash([30, 0])
        assert config_hash((30.0, 0.0)) == config_hash(v for v in (30, 0))
        assert config_hash((30.0, 0.0)) != config_hash((0.0, 30.0))
        assert config_hash((30.0, 0.0)) == oracles.config_hash_reference([30, 0])


def _nan(payload: int) -> float:
    """A quiet NaN with the given low payload bits."""
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


#: Levels that are signed zeros, NaNs of two bit patterns, infinities, or
#: anything a float can be; drawn from a short list, so alphabets repeat them.
LEVELS = st.one_of(
    st.sampled_from([0.0, -0.0, 30.0, 2.5, -1.23456e-7, -2.2250738585072014e-308,
                     123456789.0, float("inf"), float("-inf"), _nan(0), _nan(1)]),
    st.floats(allow_subnormal=True))


def block_digests(levels, codes, bits, n) -> list[str]:
    """The trace hashes of a block's rows of n elements, rendered as a block alone."""
    return _hash_blocks([(tuple(levels), np.asarray(codes), bits, n)])[0]


def _row_voltages(levels, codes, bits, n) -> np.ndarray:
    """Each row's voltages, as an (n_rows, n) array."""
    on = np.unpackbits(bits, axis=1, count=n, bitorder="little").astype(bool)
    return np.array(levels)[np.where(on, codes[:, :1], codes[:, 1:])]


class TestDigests:
    """_hash_blocks hashes the rows of a block chunk by chunk; every row must
    hash as the referee hashes the voltages it stands for."""

    @settings(max_examples=150, deadline=None)
    @given(n_levels=st.sampled_from([1, 2, 3, 7, 16, 17, 300]),
           n=st.one_of(st.sampled_from([1, 7, 8, 9, 17]), st.integers(1, 40)),
           n_rows=st.sampled_from([0, 1, 2, HASH_BLOCK - 1, HASH_BLOCK, HASH_BLOCK + 1,
                                   2 * HASH_BLOCK + 3]),
           pair=st.booleans(), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_matches_referee(self, n_levels, n, n_rows, pair, seed, data):
        """Rows of one code pair (``pair``: as stage 2's are), or of a code
        pair each (as stage 3's are), possibly the same position twice."""
        levels = tuple(data.draw(st.lists(LEVELS, min_size=n_levels, max_size=n_levels)))
        dtype = np.uint8 if n_levels <= 256 else np.uint16
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, n_levels, (1 if pair else n_rows, 2)).astype(dtype)
        codes = np.broadcast_to(codes, (n_rows, 2))
        on = rng.integers(0, 2, (n_rows, n)).astype(bool)
        bits = np.packbits(on, axis=1, bitorder="little")
        values = _row_voltages(levels, codes, bits, n)
        expected = [oracles.config_hash_reference(row) for row in values]
        assert block_digests(levels, codes, bits, n) == expected
        assert [config_hash(row) for row in values] == expected

    def test_signed_zero_levels_stay_apart(self):
        codes, bits = np.zeros((1, 2), dtype=np.uint8), np.zeros((1, 2), dtype=np.uint8)
        assert block_digests((0.0, 1.0), codes, bits, 9) == [
            oracles.config_hash_reference((0.0,) * 9)]
        assert block_digests((-0.0, 1.0), codes, bits, 9) == [
            oracles.config_hash_reference((-0.0,) * 9)]
        assert config_hash((0.0,) * 9) != config_hash((-0.0,) * 9)

    def test_repeated_alphabet_entries_hash_as_voltages(self):
        """Entries 0 and 2 share a bit pattern: a row over them is one level."""
        codes = np.array([[0, 2], [1, 2], [3, 3]], dtype=np.uint8)
        bits = np.packbits([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 0]], axis=1, bitorder="little")
        levels = (5.0, 0.0, 5.0, _nan(1))
        assert block_digests(levels, codes, bits, 4) == [
            oracles.config_hash_reference(row) for row in _row_voltages(levels, codes, bits, 4)]
        assert block_digests(levels, codes, bits, 4)[0] == config_hash((5.0,) * 4)

    def test_onoff_row_hashes_as_its_voltages(self):
        """An on/off row over (v1, v0), the same row over (v0, v1), its
        complement with the codes swapped and the row over the 7-level set
        are one voltage vector, so they hash alike."""
        on = np.random.default_rng(2).integers(0, 2, (3, 61)).astype(bool)
        bits, off = (np.packbits(x, axis=1, bitorder="little") for x in (on, ~on))
        v1, v0 = 10.0, 2.5
        vs = DEFAULT_VOLTAGE_SET

        def codes(on_level, off_level):
            return np.array([[on_level, off_level]] * len(on), dtype=np.uint8)

        by_pair = block_digests((v1, v0), codes(0, 1), bits, 61)
        by_swap = block_digests((v0, v1), codes(1, 0), bits, 61)
        by_complement = block_digests((v1, v0), codes(1, 0), off, 61)
        by_set = block_digests(vs, codes(vs.index(v1), vs.index(v0)), bits, 61)
        assert by_pair == by_swap == by_complement == by_set == [
            oracles.config_hash_reference(np.where(row, v1, v0)) for row in on]

    def test_length_is_hashed(self):
        """Packed bits pad to a byte: without N in the header, a 7-element
        row and its 8-element extension would hash alike."""
        seven, eight = [30, 0, 30, 30, 30, 30, 30], [30, 0, 30, 30, 30, 30, 30, 30]
        assert config_hash(seven) != config_hash(eight)
        bits = np.packbits([[1, 0, 1, 1, 1, 1, 1]], axis=1, bitorder="little")
        assert block_digests((30.0, 0.0), [[0, 1]], bits, 7) == [
            oracles.config_hash_reference(seven)]


def _stage2_reference(seed, link, groups, n, n_configs, rss):
    """oracles.reference_stage2 of one link, as the elements each probe turns
    on and the elements the vote leaves on (an element in no group is off)."""
    masks, on = oracles.reference_stage2(seed, link, n_configs, len(groups), rss)
    owner = np.full(n, len(groups))
    for g, members in enumerate(groups):
        owner[members] = g
    masks = np.hstack([np.array(masks, dtype=bool).reshape(n_configs, -1),
                       np.zeros((n_configs, 1), dtype=bool)])
    return masks[:, owner], np.append(on, False)[owner]


def _assert_probes(codes, bits, elements_on):
    """Stage 2's probes: codes (0, 1) over (v1, v0) and the packed elements
    on, tail bits clear."""
    assert codes.tolist() == [[0, 1]] * len(codes)
    assert bits.dtype == np.uint8
    np.testing.assert_array_equal(bits, np.packbits(elements_on, axis=1, bitorder="little"))


class TestStreamedStage2:
    """Stage 2 draws its masks MASK_BLOCK rows at a time from the voting
    stream's raw words; the bit rows it probes equal the referee's one whole
    draw."""

    ROWS, COLS = 5, 13

    @pytest.mark.parametrize("n_configs", [1, MASK_BLOCK - 1, MASK_BLOCK, MASK_BLOCK + 1, 300])
    @pytest.mark.parametrize("grouping", ["element", "column"])
    def test_index_equals_whole_draw(self, n_configs, grouping):
        n = self.ROWS * self.COLS
        groups = [[i] for i in range(n)] if grouping == "element" else \
            column_groups(self.ROWS, self.COLS)
        rng = np.random.default_rng(11)
        h = rng.normal(size=n) + 1j * rng.normal(size=n)
        trace = stage2_majority_voting(onoff_oracle(h), one_link(n=n), n, n_configs=n_configs,
                                       rng_seed=link_stream(5, 3, VOTING_STREAM),
                                       groups=groups).traces[0]
        (_, _, codes, bits, rss), = trace.blocks
        _assert_probes(codes, bits, _stage2_reference(5, 3, groups, n, n_configs, rss)[0])


def _groups(data, grouping, n_groups):
    """(element count, groups) of a grouping over n_groups groups: None for
    the default element groups, each element its own group, rows x n_groups
    columns, or sparse groups of two shuffled elements each with one to five
    elements in none."""
    if grouping in ("default", "element"):
        return n_groups, None if grouping == "default" else [[i] for i in range(n_groups)]
    if grouping == "column":
        rows = data.draw(st.integers(1, 3))
        return rows * n_groups, column_groups(rows, n_groups)
    n = 2 * n_groups + data.draw(st.integers(1, 5))
    members = data.draw(st.permutations(range(n)))[:2 * n_groups]
    return n, [members[g::n_groups] for g in range(n_groups)]


class TestRawWordStage2:
    """The masks take one bit each from the voting stream's raw PCG64 words;
    masks and outcome must equal oracles.reference_stage2, batch or not."""

    def test_mask_block_holds_whole_words(self):
        assert MASK_BLOCK % 64 == 0  # only the last block can end mid-word

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 63 - 1),
           links=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3, unique=True),
           n_configs=st.sampled_from([1, MASK_BLOCK - 1, MASK_BLOCK, MASK_BLOCK + 1, 300]),
           grouping=st.sampled_from(["default", "element", "column", "sparse"]),
           n_groups=st.sampled_from([1, 3, 64, 65]))
    def test_masks_and_votes_equal_reference(self, data, seed, links, n_configs, grouping,
                                             n_groups):
        n, groups = _groups(data, grouping, n_groups)
        weights = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        batch = LinkBatch.new(len(links), n)
        batch.v1, batch.v0 = np.full(len(links), V1), np.full(len(links), V0)
        stage2_majority_voting(_WeightOracle(weights), batch, n, n_configs,
                               [link_stream(seed, link, VOTING_STREAM) for link in links],
                               groups)
        for k, link in enumerate(links):
            (_, _, codes, bits, rss), = batch.traces[k].blocks
            want_probes, want_on = _stage2_reference(
                seed, link, [[i] for i in range(n)] if groups is None else groups, n,
                n_configs, rss)
            _assert_probes(codes, bits, want_probes)
            np.testing.assert_array_equal(on_elements(batch, k, n), want_on)


class TestOnOffIndex:
    """The on/off configurations of group masks, as packed element bits."""

    N = 13

    @pytest.mark.parametrize("groups", [
        [[e] for e in reversed(range(N))],           # singletons out of order
        [[e] for e in range(N - 1)] + [[]],          # N groups, one element in none
        [[e] for e in range(N) if e % 3],            # fewer groups than elements
        column_groups(3, 4)])                        # columns, element 12 in none
    def test_general_path(self, groups):
        masks = np.random.default_rng(4).integers(
            0, 2, (MASK_BLOCK + 3, len(groups))).astype(bool)
        owner = np.full(self.N, len(groups))
        for g, members in enumerate(groups):
            owner[members] = g
        on = np.hstack([masks, np.zeros((len(masks), 1), dtype=bool)])  # no group: off
        bits = _element_bits(_owners(groups, self.N), masks)
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, np.packbits(on[:, owner], axis=1, bitorder="little"))


class _WeightOracle:
    """Reads the sum of the weights of the elements at v1 (position 0)."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)

    def batch(self, levels, codes, bits, rows=None):
        on = np.unpackbits(bits, axis=-1, count=len(self.weights), bitorder="little")
        return np.where(on, codes[..., :1] == 0, codes[..., 1:] == 0) @ self.weights


class _RowOracle:
    """Reads 1 for the probes at the given row numbers and 0 for the rest, so
    those rows alone vote."""

    def __init__(self, high):
        self.high = high

    def batch(self, levels, codes, bits, rows=None):
        rss = np.zeros(np.shape(codes)[:-1])
        rss[..., [r for r in self.high if r < rss.shape[-1]]] = 1.0
        return rss


class TestVotesReferee:
    """Stage 2's ``on`` equals oracles.reference_stage2's majority vote over
    the probes' readings, mapped to the elements through the groups (an
    element in no group off), in a batch and alone."""

    GROUPINGS = ("default", "element", "column", "sparse")

    def test_mask_block_fits_uint8_counts(self):
        assert MASK_BLOCK <= 255  # a row block's votes are summed in uint8

    @settings(max_examples=80, deadline=None)
    @given(grouping=st.sampled_from(GROUPINGS), rows=st.integers(1, 4), cols=st.integers(1, 6),
           n_configs=st.one_of(st.sampled_from([1, MASK_BLOCK - 1, MASK_BLOCK, MASK_BLOCK + 1]),
                               st.integers(1, 2 * MASK_BLOCK + 3)),
           seeds=st.lists(st.integers(0, 2 ** 63 - 1), min_size=1, max_size=3),
           weights=st.one_of(st.lists(st.integers(-2, 2), min_size=24, max_size=24),
                             st.none()),
           high=st.lists(st.integers(0, 2 * MASK_BLOCK + 2), max_size=3))
    @example(grouping="sparse", rows=2, cols=3, n_configs=MASK_BLOCK + 1, seeds=[0, 1],
             weights=[0] * 24, high=[])  # every reading ties: no row votes, every element is off
    @example(grouping="default", rows=4, cols=6, n_configs=MASK_BLOCK + 1, seeds=[0, 1],
             weights=None, high=[MASK_BLOCK - 1])  # the one voter ends a row block
    @example(grouping="column", rows=4, cols=6, n_configs=2 * MASK_BLOCK, seeds=[2],
             weights=None, high=[MASK_BLOCK])  # the one voter starts a row block
    def test_on_equals_reference(self, grouping, rows, cols, n_configs, seeds, weights, high):
        """``weights`` None reads the rows in ``high`` as 1 and the rest as 0."""
        n = rows * cols
        groups = {"default": None, "element": [[i] for i in range(n)],
                  "column": column_groups(rows, cols),
                  "sparse": [[e] for e in range(n - 1)] + [[]]}[grouping]  # element n-1 in none
        oracle = _RowOracle(high) if weights is None else _WeightOracle(weights[:n])
        links = LinkBatch.new(len(seeds), n)
        links.v1, links.v0 = np.full(len(seeds), V1), np.full(len(seeds), V0)
        streams = [link_stream(seed, link, VOTING_STREAM) for link, seed in enumerate(seeds)]
        stage2_majority_voting(oracle, links, n, n_configs, streams, groups)
        for link, (seed, stream) in enumerate(zip(seeds, streams)):
            (_, _, codes, bits, rss), = links.traces[link].blocks
            want_probes, expected = _stage2_reference(
                seed, link, [[i] for i in range(n)] if groups is None else groups, n,
                n_configs, rss)
            one = stage2_majority_voting(oracle, one_link(n=n), n, n_configs, stream, groups)
            _assert_probes(codes, bits, want_probes)
            np.testing.assert_array_equal(on_elements(links, link, n), expected)
            np.testing.assert_array_equal(on_elements(one, 0, n), expected)


class TestOnOffRunCodes:
    """An on/off row's positions are hashed packed 8 to a byte, first element
    in the top bit: each byte is the base-2 multiply-add of its run of 8
    elements, the last run padded with zeros."""

    @pytest.mark.parametrize("n", [7, 8, 9, 16, 17, 23])  # N % 8 in {7, 0, 1}
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])  # of the code pairs
    def test_packed_codes_equal_multiply_add(self, n, dtype):
        rows = np.random.default_rng(n).integers(0, 2, (HASH_BLOCK + 1, n))
        rows[:, :2] = (0, 1)  # both levels used, 30.0 first
        runs = np.zeros((len(rows), -(-n // 8) * 8), dtype=np.intp)
        runs[:, :n] = rows
        runs = runs.reshape(len(rows), -1, 8)
        codes = np.zeros(runs.shape[:2], dtype=np.intp)
        for k in range(8):
            codes = codes * 2 + runs[..., k]
        head = struct.pack("<II2d", n, 2, 30.0, 0.0)
        pairs = np.broadcast_to(np.array([0, 1], dtype=dtype), (len(rows), 2))
        bits = np.packbits(rows == 0, axis=1, bitorder="little")  # position 0 (30.0) is on
        assert block_digests((30.0, 0.0), pairs, bits, n) == [
            hashlib.sha256(head + bytes(row)).hexdigest()[:12] for row in codes.tolist()]
