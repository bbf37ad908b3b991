"""The batch probe contract and the block trace hashes.

Every controller stage sends its probes as one (codes, bits) stack through
``control._probe_many`` to the oracle's ``batch``, which measures it at once.
Probe i of a batch must read exactly what the i-th of as many one-row
batches reads: same bits, signs of zero included, same noise seed, same
probe count afterwards.  The one exception is the kernel rule: from
ONOFF_MIN_ELEMENTS on, a link whose pairs in a batch take three or more
positions (stage 3 over three or more levels) reads composite_channels,
while each of its one-row batches reads the on/off tables, to other last
bits.  ``ControlTrace.serialize`` hashes each block's probes, all its links'
at once, in slices of the block, and every digest must equal the referee's
``oracles.config_hash_reference`` of the voltages the configuration stands for.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mediamatch.channel import (ONOFF_MIN_ELEMENTS, PROBE_BLOCK, ChannelStack, FeedbackOracle,
                                MultipathChannel, composite_channels, rss_db, sample_channel)
from mediamatch.control import (DEFAULT_VOLTAGE_SET, HASH_BLOCK, TRACE_TABLE, ControlTrace,
                                _hash_rows, _probe_many, brute_force_baseline, column_groups,
                                run_controllers)
from mediamatch.scenario import default_water_scenario

import oracles
from per_probe import Readings, append, link_blocks, voltages

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
    return composite_channels(ChannelStack(channel), levels, codes[None], bits[None])[0]


def _one_row(channel, levels, codes, bits):
    """The composite channel of one row, through a one-row call."""
    return _rows(channel, levels, codes[None], bits[None])[0]


def _one_by_one(oracle, levels, codes, bits):
    """One link's readings of every row of its codes and bits, one-row batches."""
    return [oracle.batch(levels, c[None, None], b[None, None])[0, 0]
            for c, b in zip(codes, bits)]


def _probe_voltages(trace, link=0):
    return [voltages(trace.levels, c, b, trace.n_elements)
            for _, codes, bits, _ in link_blocks(trace, link) for c, b in zip(codes, bits)]


def _alone(trace, link) -> ControlTrace:
    """A one-link trace of one link's probes of a trace, block by block."""
    one = ControlTrace(1, trace.n_elements, trace.levels)
    for block in link_blocks(trace, link):
        append(one, *block)
    return one


class Sequential:
    """A one-link stacked oracle that reads every probe row of a batch with a
    one-row batch of the oracle it wraps."""

    def __init__(self, oracle):
        self.oracle = oracle

    def batch(self, levels, codes, bits, rows):
        (n,) = rows
        return np.array([_one_by_one(self.oracle, levels, codes[0, :n], bits[0, :n])])


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
        """Bit for bit below ONOFF_MIN_ELEMENTS or where the batch's pairs
        take at most two positions.  Elsewhere the batch reads
        composite_channels and each one-row batch, of at most two positions,
        the on/off tables: the readings agree to the kernels' last bits, so
        within 1e-9 dB, or one step where quantized."""
        rng = np.random.default_rng(seed)
        levels = tuple(rng.permutation(VS)[:n_levels].tolist())
        codes, bits = _random_rows(rng, n_levels, n_probes, n_elements)
        down = _channel(seed, n_elements, jitter, env_power)
        up = _channel(seed + 1, n_elements, jitter, env_power)
        same_kernel = n_elements < ONOFF_MIN_ELEMENTS or len(np.unique(codes)) <= 2

        for uplink in (None, down, up):  # one-way, reciprocal and two-way
            batched, sequential = (FeedbackOracle(down, uplink, noise_db, quantization_db,
                                                  noise_seed=seed) for _ in range(2))
            for _ in range(earlier):  # the noise seeds follow the probe count
                assert _bits(_one_by_one(batched, levels, codes[:1], bits[:1])) == _bits(
                    _one_by_one(sequential, levels, codes[:1], bits[:1]))
            got = batched.batch(levels, codes[None], bits[None])[0]
            want = _one_by_one(sequential, levels, codes, bits)
            if same_kernel:
                assert _bits(got) == _bits(want)
            else:
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-9 + 1.001 * (quantization_db or 0.0))

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
        assert voltages(VS, *run_b.configs()[0], 64) == voltages(VS, *run_s.configs()[0], 64)
        assert run_b.serialize() == run_s.serialize()

        groups = column_groups(8, 8)
        enums = []
        for oracle in (fresh(), Sequential(fresh())):
            links = ControlTrace(1, 64, VS)
            links.i1, links.i0 = np.array([VS.index(30.0)]), np.array([VS.index(0.0)])
            enums.append(brute_force_baseline(oracle, links, groups))
        enum_b, enum_s = enums
        assert enum_b.on.tolist() == enum_s.on.tolist()
        assert _bits(enum_b.best()[0][1]) == _bits(enum_s.best()[0][1])
        assert enum_b.serialize() == enum_s.serialize()


class TestProbePath:
    def test_batch_of_wrong_length_rejected(self):
        class Short:
            def batch(self, levels, codes, bits, rows):
                return np.zeros((len(codes), codes.shape[1] - 1))

        with pytest.raises(ValueError, match="batch"):
            _probe_many(Short(), ControlTrace(1, 2, VS), 1, np.zeros((1, 3, 2), np.uint8),
                        np.zeros((1, 3, 1), np.uint8))

    @pytest.mark.parametrize("codes,bits", [
        ((1, 2, 2), (1, 2, 7)), ((1, 2, 2), (1, 3, 8)), ((1, 2, 2), (1, 2, 9)),  # bit rows
        ((1, 2, 3), (1, 2, 8)), ((2, 2, 2), (2, 2, 8)), ((2, 2), (1, 2, 8))])  # codes, links
    def test_stacks_of_another_shape_rejected(self, codes, bits):
        """Codes are (L, n, 2) and bits (L, n, ceil(N/8)) uint8 for the
        trace's L links of N elements; a stack of another shape is refused
        before the oracle reads it, and the trace keeps no block of it."""
        class Never:
            def batch(self, *args):
                raise AssertionError("the oracle read the batch")

        trace = ControlTrace(1, 64, VS)
        with pytest.raises(ValueError, match="batch"):
            _probe_many(Never(), trace, 1, np.zeros(codes, np.uint8), np.zeros(bits, np.uint8))
        with pytest.raises(ValueError, match="batch"):  # bits are uint8
            _probe_many(Never(), trace, 1, np.zeros((1, 2, 2), np.uint8),
                        np.zeros((1, 2, 8), np.int64))
        assert trace.blocks == []

    def test_one_batch_per_stage(self):
        class BatchOnly:
            def __init__(self):
                self.inner = FeedbackOracle(_channel(3, 16))
                self.calls = []

            def batch(self, levels, codes, bits, rows):
                self.calls.append(codes.shape[1])
                return self.inner.batch(levels, codes, bits, rows)

        oracle = BatchOnly()
        trace = run_controllers(oracle, 16, rng_seeds=[1])
        assert oracle.calls[:2] == [len(VS), 32] and len(oracle.calls) == 3
        assert [(stage, rows) for stage, *_, rows in trace.blocks] == list(
            zip((1, 2, 3), ((n,) for n in oracle.calls)))
        assert trace.probes() == [sum(oracle.calls)]


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
        trace = run_controllers(FeedbackOracle(channel), 4)
        readings = [row.split(",")[3] for row in trace.serialize()[0].strip().split("\n")[1:]]
        assert readings == ["0"] * trace.probes()[0]


class TestBlockDigests:
    def test_equal_config_hash(self):
        """Every alphabet's blocks, each hashed by its own _hash_rows call: signed
        zeros, NaNs and infinities, alphabets that repeat a bit pattern, more
        than 256 levels (uint16 codes), code pairs of one position, and blocks
        of one row or of row counts and lengths that are not multiples of
        HASH_BLOCK or of 8."""
        rng = np.random.default_rng(7)
        alphabets = [VS, (30.0, 0.0), (30.0, -0.0), (0.0, -0.0), (12.5, 2.34567),
                     (-1.23456e-7, 2.5), (123456789.0, 1.0, 0.0), (float("nan"), float("inf")),
                     (5.0, 0.0, 5.0, -0.0), (-2.2250738585072014e-308,)]
        sizes = (1, 2 * HASH_BLOCK + 5, 3, HASH_BLOCK, HASH_BLOCK - 1)
        wide = np.array([[299, 0], [44, 299], [299, 299]], dtype=np.uint16)
        for n in (37, 5, 1):
            cases = [(levels, [_random_rows(rng, len(levels), size, n) for size in sizes])
                     for levels in alphabets]
            cases.append((np.linspace(0.0, 30.0, 300).tolist(),
                          [(wide, _random_rows(rng, 1, 3, n)[1])]))
            for levels, blocks in cases:
                for codes, bits in blocks:
                    assert _hash_rows(levels, codes, bits, n) == [
                        oracles.config_hash_reference(voltages(levels, c, b, n))
                        for c, b in zip(codes, bits)]


#: Voltage sets: two to five distinct finite levels, signed zeros and
#: subnormals among them, in descending order.
_VOLTAGE_SETS = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 30.0, 2.5]),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=2, max_size=5, unique=True).map(
                             lambda vs: tuple(sorted(vs, reverse=True)))

#: Readings that only their bit patterns tell apart, or that format alike.
_SPECIAL = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), float("-inf"), 5e-324,
            -12.3, 1e16]


class TestBatchRendering:
    """ControlTrace.serialize renders all the links of a trace in one pass,
    hashing each block's rows of every link flat, in slices of HASH_BLOCK
    rows that stay inside the block; each link's text must equal the plain
    rendering of one referee hash and one format call per probe, and that
    link's rows rendered as a one-link trace."""

    @settings(max_examples=40, deadline=None)
    @given(n_links=st.integers(1, 5), n_blocks=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_matches_plain_rendering(self, n_links, n_blocks, seed, data):
        """Links of 1 to 80 elements (one N and voltage set per trace),
        blocks of rows over one or two of the alphabet's entries, with or
        without stage-3 style padding, empty or straddling HASH_BLOCK; one set
        of rows for all links (as stage 1's) or one per link."""
        rng = np.random.default_rng(seed)
        n = data.draw(st.one_of(st.sampled_from([1, 7, 8, 9, 64, 80]), st.integers(1, 80)))
        trace = ControlTrace(n_links, n, data.draw(_VOLTAGE_SETS))
        for block in range(n_blocks):
            n_rows = data.draw(st.sampled_from([0, 1, 7, 9, HASH_BLOCK - 3, HASH_BLOCK + 5]))
            one_level = data.draw(st.booleans())
            codes = rng.integers(0, len(trace.levels), (n_links, n_rows, 2)).astype(np.uint8)
            if one_level:
                codes[..., 1] = codes[..., 0]
            bits = np.packbits(rng.integers(0, 2, (n_links, n_rows, n)).astype(bool), axis=2,
                               bitorder="little")
            if data.draw(st.booleans()):  # shared
                codes, bits = (np.broadcast_to(x[:1], x.shape) for x in (codes, bits))
            rss = np.round(rng.normal(-40.0, 5.0, (n_links, n_rows)), 1)
            special = rng.random(rss.shape) < 0.2
            rss[special] = rng.choice(_SPECIAL, np.count_nonzero(special))
            rows = rng.integers(0, n_rows + 1, n_links) if data.draw(st.booleans()) else None
            _probe_many(Readings(rss), trace, 1 + block % 3, codes, bits, rows)
        texts = trace.serialize()
        assert len(texts) == n_links
        for link, text in enumerate(texts):
            probes = [(stage, oracles.config_hash_reference(voltages(trace.levels, c, b, n)), r)
                      for stage, codes, bits, rss in link_blocks(trace, link)
                      for c, b, r in zip(codes, bits, rss.tolist())]
            assert text == oracles.row_csv_text(
                TRACE_TABLE[0], [(s, k, h, r) for k, (s, h, r) in enumerate(probes)], ".10g")
            assert _alone(trace, link).serialize() == [text]

    def test_no_copy_of_the_stage2_rows(self):
        """Serializing a one-link 64x64 trace, after a warm call, peaks under
        3 MiB: its stage-2 bit rows (2N ceil(N/8) = 4 MiB) are hashed as
        views, never concatenated or copied."""
        class FirstByte:  # reads each row's first bit byte
            def batch(self, levels, codes, bits, rows):
                return bits[..., 0].astype(float)

        trace = run_controllers(FirstByte(), 64 * 64, rng_seeds=[0])
        assert trace.blocks[1][2].nbytes == 4 * 2 ** 20
        trace.serialize()
        tracemalloc.start()
        try:
            trace.serialize()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


#: Real readings: a 0.1 dB grid, signed zeros, +-inf and NaN.
_READINGS = [-40.0, -39.9, -12.3, 0.0, -0.0, float("inf"), float("-inf"), float("nan")]


class TestOneRecord:
    """A trace of L links reads, link by link, what a one-link trace of that
    link's rows reads: best() and probes() never look at the padding past
    rows[l], whatever it holds, and serialize() drops its digests."""

    @settings(max_examples=150, deadline=None)
    @given(n_links=st.integers(1, 4), n=st.integers(1, 20),
           blocks=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 12)), max_size=5),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_links_read_as_alone(self, n_links, n, blocks, seed, data):
        """Ragged rows whose padding holds NaN, +inf or readings above every
        real one, and real readings of ties, signed zeros, +-inf and NaN."""
        rng = np.random.default_rng(seed)
        trace = ControlTrace(n_links, n, VS)
        for stage, n_rows in sorted(blocks):
            rows = data.draw(st.lists(st.integers(0, n_rows), min_size=n_links,
                                      max_size=n_links))
            rss = rng.choice(_READINGS, (n_links, n_rows))
            padding = np.arange(n_rows) >= np.array(rows)[:, None]
            rss[padding] = rng.choice([float("nan"), float("inf"), 1e300],
                                      np.count_nonzero(padding))
            codes, bits = _random_rows(rng, len(VS), n_links * n_rows, n)
            _probe_many(Readings(rss), trace, stage, codes.reshape(n_links, n_rows, 2),
                        bits.reshape(n_links, n_rows, -(-n // 8)), rows)
        texts, bests = trace.serialize(), trace.best()
        for link in range(n_links):
            alone = _alone(trace, link)
            for stage in (None, 1, 2, 3):
                assert trace.probes(stage)[link] == alone.probes(stage)[0]
            (config, through), = alone.best()
            assert _bits(bests[link][1]) == _bits(through)
            if config is None:
                assert bests[link][0] is None
            else:
                assert voltages(VS, *bests[link][0], n) == voltages(VS, *config, n)
            assert texts[link] == alone.serialize()[0]
