"""The batch probe contract and the block trace hashes.

Every controller stage sends its probes as one index matrix through
``control._probe_many``.  An oracle with ``batch`` measures the matrix at
once, and probe i of a batch must read exactly what the i-th of as many
sequential calls reads: same bits, signs of zero included, same noise seed,
same probe count afterwards.  ``ControlTrace.serialize`` hashes the probes in
blocks per alphabet, and every digest must equal ``config_hash`` of the
voltages the configuration stands for.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mediamatch.channel import (PROBE_BLOCK, FeedbackOracle, MultipathChannel,
                                ProductFeedbackOracle, SurfaceConfig, composite_channel,
                                composite_channels, rss_db, sample_channel)
from mediamatch.control import (DEFAULT_VOLTAGE_SET, HASH_BLOCK, ControlTrace,
                                _probe_many, brute_force_baseline, column_groups,
                                config_hash, run_controller)
from mediamatch.scenario import default_water_scenario

VS = DEFAULT_VOLTAGE_SET


@functools.lru_cache(maxsize=None)
def responder():
    return default_water_scenario().responder()


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _channel(seed, n, jitter=0.0, env_power=0.25):
    return sample_channel(seed, n, env_power=env_power, element_power=1.0 / 64.0,
                          responder=responder(), phase_jitter_std=jitter)


class Sequential:
    """An oracle without ``batch``: the controller maps it row by row."""

    def __init__(self, oracle):
        self.oracle = oracle

    def __call__(self, cfg):
        return self.oracle(cfg)


class TestBatchEqualsSequential:
    @settings(max_examples=60, deadline=None)
    @given(n_elements=st.one_of(st.integers(1, 40), st.sampled_from([64, 129, 1024])),
           n_probes=st.integers(1, 2 * PROBE_BLOCK + 3),
           seed=st.integers(0, 2 ** 31),
           n_levels=st.integers(1, len(VS)),
           noise_db=st.sampled_from([None, -30.0, 0.0]),
           quantization_db=st.sampled_from([None, 0.1]),
           jitter=st.sampled_from([0.0, 0.4]),
           env_power=st.sampled_from([0.0, 0.25]),
           earlier=st.integers(0, 3))
    def test_feedback_oracles(self, n_elements, n_probes, seed, n_levels, noise_db,
                              quantization_db, jitter, env_power, earlier):
        rng = np.random.default_rng(seed)
        levels = tuple(rng.permutation(VS)[:n_levels].tolist())
        index = rng.integers(0, n_levels, (n_probes, n_elements)).astype(np.uint8)
        down = _channel(seed, n_elements, jitter, env_power)
        up = _channel(seed + 1, n_elements, jitter, env_power)

        batched = FeedbackOracle(down, noise_db=noise_db, quantization_db=quantization_db,
                                 noise_seed=seed)
        sequential = FeedbackOracle(down, noise_db=noise_db,
                                    quantization_db=quantization_db, noise_seed=seed)
        first = SurfaceConfig.from_index(levels, index[0])
        for _ in range(earlier):  # the noise seeds follow the probe count
            assert _bits([batched(first)]) == _bits([sequential(first)])
        got = batched.batch(levels, index)
        want = [sequential(SurfaceConfig.from_index(levels, row)) for row in index]
        assert _bits(got) == _bits(want)
        assert batched.probes == sequential.probes == earlier + n_probes

        product = ProductFeedbackOracle(down, up, quantization_db=quantization_db)
        got = product.batch(levels, index)
        want = [product(SurfaceConfig.from_index(levels, row)) for row in index]
        assert _bits(got) == _bits(want)

        rows = composite_channels(down, levels, index)
        assert _bits(rows.view(float)) == _bits(np.array(
            [composite_channel(down, SurfaceConfig.from_index(levels, row))
             for row in index]).view(float))

    @pytest.mark.parametrize("n_elements", [1, 2, 3, 64])
    @pytest.mark.parametrize("jitter", [0.0, 0.4])
    def test_rows_equal_the_vector_formula(self, n_elements, jitter):
        """Every row, a lone last row of a batch and a one-row call included,
        is h_env + sum(s * h) taken over vectors, bit for bit."""
        table = responder().table(VS)
        for seed in range(4):
            channel = _channel(seed, n_elements, jitter)
            index = np.random.default_rng(seed).integers(
                0, len(VS), (PROBE_BLOCK + 1, n_elements)).astype(np.uint8)
            want = []
            for row in index:
                s = table[row]
                if channel.phase_jitter is not None:
                    s = s * channel.phase_jitter
                want.append(channel.h_env + np.sum(s * channel.h_elements))
            want = np.array(want).view(float)
            assert _bits(composite_channels(channel, VS, index).view(float)) == _bits(want)
            alone = [composite_channel(channel, SurfaceConfig.from_index(VS, row))
                     for row in index[:8]]
            assert _bits(np.array(alone).view(float)) == _bits(want[:16])

    @pytest.mark.parametrize("noise_db", [None, -20.0])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_controller_runs_alike(self, noise_db, jitter):
        """Batched and row-by-row oracles give the same run, trace and all."""
        channel = _channel(11, 64, jitter)

        def fresh():
            return FeedbackOracle(channel, noise_db=noise_db, noise_seed=11)

        cfg_b, trace_b = run_controller(fresh(), 64, rng_seed=5)
        cfg_s, trace_s = run_controller(Sequential(fresh()), 64, rng_seed=5)
        assert cfg_b == cfg_s
        assert trace_b.serialize() == trace_s.serialize()

        groups = column_groups(8, 8)
        best_b, rss_b, enum_b = brute_force_baseline(fresh(), groups, 30.0, 0.0, 64)
        best_s, rss_s, enum_s = brute_force_baseline(Sequential(fresh()), groups,
                                                     30.0, 0.0, 64)
        assert (best_b, rss_b) == (best_s, rss_s)
        assert enum_b.serialize() == enum_s.serialize()


class TestProbePath:
    def test_plain_callable_is_mapped_row_by_row(self):
        seen = []

        def oracle(cfg):
            seen.append(cfg.voltages)
            return len(seen)

        trace = ControlTrace()
        index = np.array([[0, 1], [1, 1], [1, 0]], dtype=np.uint8)
        rss = _probe_many(oracle, trace, 2, (30.0, 0.0), index)
        assert rss.tolist() == [1.0, 2.0, 3.0]
        assert seen == [(30.0, 0.0), (0.0, 0.0), (0.0, 30.0)]
        assert [(p.stage, p.probe_index, p.config.voltages, p.rss_db)
                for p in trace.probes] == [(2, 0, (30.0, 0.0), 1.0),
                                           (2, 1, (0.0, 0.0), 2.0),
                                           (2, 2, (0.0, 30.0), 3.0)]

    def test_batch_of_wrong_length_rejected(self):
        class Short:
            def batch(self, levels, index):
                return np.zeros(len(index) - 1)

        with pytest.raises(ValueError, match="batch"):
            _probe_many(Short(), ControlTrace(), 1, (30.0, 0.0), np.zeros((3, 2), np.uint8))

    def test_one_batch_per_stage(self):
        class BatchOnly:
            def __init__(self):
                self.inner = FeedbackOracle(_channel(3, 16))
                self.calls = []

            def batch(self, levels, index):
                self.calls.append(len(index))
                return self.inner.batch(levels, index)

            def __call__(self, cfg):
                raise AssertionError("probes must go through batch")

        oracle = BatchOnly()
        _, trace = run_controller(oracle, 16, rng_seed=1)
        assert oracle.calls[:2] == [len(VS), 32] and len(oracle.calls) == 3
        assert [p.probe_index for p in trace.probes] == list(range(sum(oracle.calls)))
        assert [p.stage for p in trace.probes] == [
            s for s, n in zip((1, 2, 3), oracle.calls) for _ in range(n)]


class TestZeroReading:
    """-0.03 dB rounds to -0.0 on a 0.1 dB grid unless the sign is dropped."""

    MAGNITUDE = 10.0 ** (-0.03 / 20.0)

    def test_rounds_to_positive_zero(self):
        rss = rss_db([self.MAGNITUDE, 1.0, 0.0], 0.1)
        assert rss[:2].tolist() == [0.0, 0.0]
        assert not np.signbit(rss[:2]).any()
        assert rss[2] == float("-inf")

    def test_serializes_as_zero(self):
        channel = MultipathChannel(h_env=complex(self.MAGNITUDE),
                                   h_elements=np.zeros(4, dtype=complex), seed=0,
                                   responder=responder())
        _, trace = run_controller(FeedbackOracle(channel), 4)
        readings = [row.split(",")[3] for row in trace.serialize().strip().split("\n")[1:]]
        assert readings == ["0"] * len(trace.probes)


class TestBlockDigests:
    def test_equal_config_hash(self):
        """Mixed alphabets and lengths in one trace, signed zeros, 4-, 8- and
        16-byte level words, the widest '.6g' rendering, more than 256
        levels (a uint16 index), an empty config, and blocks of one row or of
        row counts and lengths that are not multiples of HASH_BLOCK."""
        rng = np.random.default_rng(7)
        alphabets = [VS, (30.0, 0.0), (30.0, -0.0), (0.0, -0.0), (12.5, 2.34567),
                     (-1.23456e-7, 2.5), (123456789.0, 1.0, 0.0),
                     (-2.2250738585072014e-308,)]
        sizes = (1, 2 * HASH_BLOCK + 5, 3, HASH_BLOCK, HASH_BLOCK - 1)
        trace = ControlTrace()
        for k in range(3 * len(alphabets)):
            levels = alphabets[k % len(alphabets)] if k % 3 else (30.0, 0.0)
            n = 37 if k % 11 else 5
            index = rng.integers(0, len(levels), (sizes[k % len(sizes)], n)).astype(np.uint8)
            trace.append(2, levels, index, np.zeros(len(index)))
        wide = SurfaceConfig(np.linspace(0.0, 30.0, 300))
        assert wide.index.dtype == np.uint16
        trace.append(1, wide.levels, np.stack([wide.index, wide.index[::-1]]), [0.0, 0.0])
        trace.append(1, (), np.zeros((2, 0), np.uint8), [0.0, 0.0])
        rows = trace.serialize().split("\n")[1:-1]
        assert len(rows) == len(trace.probes)
        assert [row.split(",")[2] for row in rows] == [
            config_hash(p.config.voltages) for p in trace.probes]
