"""The batch probe contract and the block trace hashes.

Every controller stage sends its probes as one (codes, bits) stack through
``control._probe_many`` to the oracle's ``batch``, which measures it at once.
Probe i of a batch must read exactly what the i-th of as many one-row
batches reads: same bits, signs of zero included, same noise seed, same
probe count afterwards.  ``ControlTrace.serialize`` hashes the probes of
its traces in chunks, and every digest must equal the referee's
``oracles.config_hash_reference`` of the voltages the configuration stands for.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mediamatch.channel import (PROBE_BLOCK, ChannelStack, FeedbackOracle, MultipathChannel,
                                composite_channels, rss_db, sample_channel)
from mediamatch.control import (DEFAULT_VOLTAGE_SET, HASH_BLOCK, TRACE_TABLE, ControlTrace,
                                LinkBatch, _probe_many, brute_force_baseline, column_groups,
                                run_controllers)
from mediamatch.scenario import default_water_scenario

import oracles
from per_probe import voltages

VS = DEFAULT_VOLTAGE_SET


@functools.lru_cache(maxsize=None)
def responder():
    return default_water_scenario().responder()


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _channel(seed, n, jitter=0.0, env_power=0.25):
    return sample_channel(seed, n, env_power=env_power, element_power=1.0 / 64.0,
                          responder=responder(), phase_jitter_std=jitter)


def _random_rows(rng, n_levels, n_rows, n):
    """(codes, bits) of n_rows random rows of n elements over n_levels levels."""
    codes = rng.integers(0, n_levels, (n_rows, 2)).astype(np.uint8)
    on = rng.integers(0, 2, (n_rows, n)).astype(bool)
    return codes, np.packbits(on, axis=1, bitorder="little")


def _rows(channel, levels, codes, bits):
    """The composite channel of every row of one link's (n, 2) codes and bits."""
    return composite_channels(ChannelStack(channel), [levels], codes[None], bits[None])[0]


def _one_row(channel, levels, codes, bits):
    """The composite channel of one row, through a one-row call."""
    return _rows(channel, levels, codes[None], bits[None])[0]


def _one_by_one(oracle, levels, codes, bits):
    """One link's readings of every row of its codes and bits, one-row batches."""
    return [oracle.batch([levels], c[None, None], b[None, None])[0, 0]
            for c, b in zip(codes, bits)]


def _probe_voltages(trace):
    return [voltages(levels, c, b, trace.n_elements)
            for _, levels, codes, bits, _ in trace.blocks for c, b in zip(codes, bits)]


class Sequential:
    """A one-link stacked oracle that reads every probe row of a batch with a
    one-row batch of the oracle it wraps."""

    def __init__(self, oracle):
        self.oracle = oracle

    def batch(self, levels, codes, bits, rows):
        (n,) = rows
        return np.array([_one_by_one(self.oracle, levels[0], codes[0, :n], bits[0, :n])])


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
        codes, bits = _random_rows(rng, n_levels, n_probes, n_elements)
        down = _channel(seed, n_elements, jitter, env_power)
        up = _channel(seed + 1, n_elements, jitter, env_power)

        for uplink in (None, down, up):  # one-way, reciprocal and two-way
            batched, sequential = (FeedbackOracle(down, uplink, noise_db, quantization_db,
                                                  noise_seed=seed) for _ in range(2))
            for _ in range(earlier):  # the noise seeds follow the probe count
                assert _bits(_one_by_one(batched, levels, codes[:1], bits[:1])) == _bits(
                    _one_by_one(sequential, levels, codes[:1], bits[:1]))
            got = batched.batch([levels], codes[None], bits[None])[0]
            assert _bits(got) == _bits(_one_by_one(sequential, levels, codes, bits))

        rows = _rows(down, levels, codes, bits)
        assert _bits(rows.view(float)) == _bits(np.array(
            [_one_row(down, levels, c, b) for c, b in zip(codes, bits)]).view(float))

    @pytest.mark.parametrize("n_elements", [1, 2, 3, 64])
    @pytest.mark.parametrize("jitter", [0.0, 0.4])
    def test_rows_equal_the_vector_formula(self, n_elements, jitter):
        """Every row, a lone last row of a batch and a one-row call included,
        is h_env + sum(s * h) taken over vectors, bit for bit."""
        table = responder().table(VS)
        for seed in range(4):
            channel = _channel(seed, n_elements, jitter)
            codes, bits = _random_rows(np.random.default_rng(seed), len(VS), PROBE_BLOCK + 1,
                                       n_elements)
            want = []
            for (on_level, off_level), row in zip(codes, bits):
                on = np.unpackbits(row, count=n_elements, bitorder="little")
                s = table[np.where(on, on_level, off_level)]
                if channel.phase_jitter is not None:
                    s = s * channel.phase_jitter
                want.append(channel.h_env + np.sum(s * channel.h_elements))
            want = np.array(want).view(float)
            assert _bits(_rows(channel, VS, codes, bits).view(float)) == _bits(want)
            alone = [_one_row(channel, VS, c, b) for c, b in zip(codes[:8], bits[:8])]
            assert _bits(np.array(alone).view(float)) == _bits(want[:16])

    @pytest.mark.parametrize("noise_db", [None, -20.0])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_controller_runs_alike(self, noise_db, jitter):
        """Batched and one-row-batch oracles give the same run, trace and all."""
        channel = _channel(11, 64, jitter)

        def fresh():
            return FeedbackOracle(channel, noise_db=noise_db, noise_seed=11)

        run_b = run_controllers(fresh(), 64, rng_seeds=[5])
        run_s = run_controllers(Sequential(fresh()), 64, rng_seeds=[5])
        assert voltages(*run_b.configs()[0], 64) == voltages(*run_s.configs()[0], 64)
        assert run_b.traces[0].serialize() == run_s.traces[0].serialize()

        groups = column_groups(8, 8)
        enums = []
        for oracle in (fresh(), Sequential(fresh())):
            links = LinkBatch.new(1, 64)
            links.v1, links.v0 = np.array([30.0]), np.array([0.0])
            enums.append(brute_force_baseline(oracle, links, 64, groups))
        enum_b, enum_s = enums
        assert enum_b.on.tolist() == enum_s.on.tolist()
        assert _bits(enum_b.traces[0].best()[1]) == _bits(enum_s.traces[0].best()[1])
        assert enum_b.traces[0].serialize() == enum_s.traces[0].serialize()


class TestProbePath:
    def test_batch_of_wrong_length_rejected(self):
        class Short:
            def batch(self, levels, codes, bits, rows):
                return np.zeros((len(codes), codes.shape[1] - 1))

        with pytest.raises(ValueError, match="batch"):
            _probe_many(Short(), LinkBatch.new(1, 2), 1, [(30.0, 0.0)],
                        np.zeros((1, 3, 2), np.uint8), np.zeros((1, 3, 1), np.uint8))

    def test_one_batch_per_stage(self):
        class BatchOnly:
            def __init__(self):
                self.inner = FeedbackOracle(_channel(3, 16))
                self.calls = []

            def batch(self, levels, codes, bits, rows):
                self.calls.append(codes.shape[1])
                return self.inner.batch(levels, codes, bits, rows)

        oracle = BatchOnly()
        trace = run_controllers(oracle, 16, rng_seeds=[1]).traces[0]
        assert oracle.calls[:2] == [len(VS), 32] and len(oracle.calls) == 3
        assert [(stage, len(rss)) for stage, *_, rss in trace.blocks] == list(
            zip((1, 2, 3), oracle.calls))
        assert trace.budget_used == sum(oracle.calls)


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
                                   h_elements=np.zeros(4, dtype=complex),
                                   responder=responder())
        trace = run_controllers(FeedbackOracle(channel), 4).traces[0]
        readings = [row.split(",")[3] for row in trace.serialize()[0].strip().split("\n")[1:]]
        assert readings == ["0"] * trace.budget_used


class TestBlockDigests:
    def test_equal_config_hash(self):
        """Mixed alphabets and lengths in one batch of traces, signed zeros,
        NaNs and infinities, alphabets that repeat a bit pattern, more than
        256 levels (uint16 codes), code pairs of one position, and blocks of
        one row or of row counts and lengths that are not multiples of
        HASH_BLOCK or of 8."""
        rng = np.random.default_rng(7)
        alphabets = [VS, (30.0, 0.0), (30.0, -0.0), (0.0, -0.0), (12.5, 2.34567),
                     (-1.23456e-7, 2.5), (123456789.0, 1.0, 0.0), (float("nan"), float("inf")),
                     (5.0, 0.0, 5.0, -0.0), (-2.2250738585072014e-308,)]
        sizes = (1, 2 * HASH_BLOCK + 5, 3, HASH_BLOCK, HASH_BLOCK - 1)
        traces = [ControlTrace(37), ControlTrace(5), ControlTrace(1)]
        for k in range(3 * len(alphabets)):
            levels = alphabets[k % len(alphabets)] if k % 3 else (30.0, 0.0)
            trace = traces[0 if k % 11 else 1 + k % 2]
            codes, bits = _random_rows(rng, len(levels), sizes[k % len(sizes)], trace.n_elements)
            trace.append(2, levels, codes, bits, np.zeros(len(codes)))
        wide = np.array([[299, 0], [44, 299], [299, 299]], dtype=np.uint16)
        traces[0].append(1, np.linspace(0.0, 30.0, 300).tolist(), wide,
                         _random_rows(rng, 1, 3, 37)[1], [0.0] * 3)
        for trace, text in zip(traces, ControlTrace.serialize(*traces)):
            rows = text.split("\n")[1:-1]
            assert len(rows) == trace.budget_used
            assert [row.split(",")[2] for row in rows] == [
                oracles.config_hash_reference(voltages) for voltages in _probe_voltages(trace)]


class _Readings:
    """A stacked oracle that reads any batch as the readings it was given."""

    def __init__(self, rss):
        self.rss = rss

    def batch(self, levels, codes, bits, rows):
        return self.rss


#: Alphabet entries: signed zeros, NaNs of two bit patterns (0.0/-0.0 and the
#: NaNs repeat within an alphabet as often as drawn), or anything.
_LEVELS = st.one_of(st.sampled_from([0.0, -0.0, 30.0, 2.5, float("inf"), float("nan"),
                                     -float("nan")]), st.floats(allow_subnormal=True))

#: Readings that only their bit patterns tell apart, or that format alike.
_SPECIAL = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), float("-inf"), 5e-324,
            -12.3, 1e16]


class TestBatchRendering:
    """ControlTrace.serialize renders a batch of traces in one pass; each text
    must equal its trace rendered alone, and the plain rendering of one
    referee hash and one format call per probe."""

    @settings(max_examples=40, deadline=None)
    @given(n_links=st.integers(1, 5), n_blocks=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_matches_plain_rendering(self, n_links, n_blocks, seed, data):
        """Links of 1 to 80 elements, blocks of rows over one or two of their
        alphabet's entries, with or without stage-3 style padding, empty or
        straddling HASH_BLOCK; one set of rows and alphabet for all links (as
        stage 1's) or one per link, so chunks mix alphabets."""
        rng = np.random.default_rng(seed)
        # at most two lengths, so links of one N over both kinds of alphabet share chunks
        lengths = data.draw(st.lists(st.one_of(st.sampled_from([1, 7, 8, 9, 64, 80]),
                                               st.integers(1, 80)), min_size=1, max_size=2))
        traces = [ControlTrace(data.draw(st.sampled_from(lengths))) for _ in range(n_links)]
        for block in range(n_blocks):
            n_rows = data.draw(st.sampled_from([0, 1, 7, 9, HASH_BLOCK - 3, HASH_BLOCK + 5]))
            one_level = data.draw(st.booleans())
            k = data.draw(st.integers(2 - one_level, 5 - one_level))
            alphabets = [tuple(data.draw(st.lists(_LEVELS, min_size=k, max_size=k)))
                         for _ in range(n_links)]
            codes = rng.integers(0, k, (n_links, n_rows, 2)).astype(np.uint8)
            if one_level:
                codes[..., 1] = codes[..., 0]
            on = rng.integers(0, 2, (n_links, n_rows, 80)).astype(bool)
            shared = data.draw(st.booleans())
            if shared:
                alphabets, codes, on = alphabets[:1] * n_links, codes[:1], on[:1]
            rss = np.round(rng.normal(-40.0, 5.0, (n_links, n_rows)), 1)
            special = rng.random(rss.shape) < 0.2
            rss[special] = rng.choice(_SPECIAL, np.count_nonzero(special))
            padded = data.draw(st.booleans())
            rows = rng.integers(0, n_rows + 1, n_links) if padded else [n_rows] * n_links
            for link, (trace, n) in enumerate(zip(traces, rows)):
                pick = 0 if shared else link
                bits = np.packbits(on[pick, :n, :trace.n_elements], axis=1, bitorder="little")
                trace.append(1 + block % 3, alphabets[link], codes[pick, :n], bits, rss[link, :n])
        texts = ControlTrace.serialize(*traces)
        assert len(texts) == n_links
        for trace, text in zip(traces, texts):
            probes = [(stage, oracles.config_hash_reference(voltages(levels, c, b,
                                                                     trace.n_elements)), r)
                      for stage, levels, codes, bits, rss in trace.blocks
                      for c, b, r in zip(codes, bits, rss.tolist())]
            assert text == oracles.row_csv_text(
                TRACE_TABLE[0], [(s, k, h, r) for k, (s, h, r) in enumerate(probes)], ".10g")
            assert trace.serialize() == [text]
