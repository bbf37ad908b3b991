"""Seeded multipath channel, feedback samples, backscatter arithmetic."""

import numpy as np
import pytest

from mediamatch.cascade import StackSpec
from mediamatch.channel import (ElementResponder, FeedbackOracle, MultipathChannel,
                                SurfaceConfig, backscatter_gain, baseline_channel,
                                composite_channel, oneway_gain, sample_channel)
from mediamatch.media import AIR
from mediamatch.scenario import default_water_scenario

F0 = 2.4e9


@pytest.fixture(scope="module")
def scenario():
    return default_water_scenario()


@pytest.fixture(scope="module")
def responder(scenario):
    return scenario.responder()


class TestElementResponse:
    def test_trivial_scenario_is_unity(self, scenario):
        """No layers, load == source, Y_s(V) -> s(V) ~ 1 needs a circuit whose
        admittance is ~0; instead check the bare response directly."""
        stack = StackSpec(AIR, AIR)
        r = ElementResponder(stack, scenario.circuit, F0)
        assert r.s_bare == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_matched_beats_worst_level(self, scenario, responder):
        mags = {v: abs(responder.s(v)) ** 2 for v in scenario.voltage_set}
        assert max(mags.values()) > min(mags.values())
        # matched voltage on the water default is 10 V; 0 V detunes hard
        assert mags[10.0] == max(mags.values())
        assert mags[0.0] == min(mags.values())

    def test_deterministic(self, responder):
        assert responder.s(7.5) == responder.s(7.5)

    def test_table_equals_point_responses(self, scenario):
        """A table solves its uncached levels in one call; each entry is
        bit-identical to s(V) solved alone, whatever was cached before."""
        levels = (30.0, 12.5, 0.0, 12.5)
        by_table = scenario.responder().table(levels)
        alone = [scenario.responder().s(v) for v in levels]
        assert by_table.tobytes() == np.array(alone).tobytes()
        mixed = scenario.responder()
        mixed.s(0.0)
        assert mixed.table(levels).tobytes() == by_table.tobytes()


class TestSurfaceConfig:
    def test_voltages_view(self):
        cfg = SurfaceConfig((30.0, 0.0, 30.0))
        assert cfg.voltages == (30.0, 0.0, 30.0)
        assert all(type(v) is float for v in cfg.voltages)
        assert len(cfg) == 3
        assert cfg.index.dtype == np.uint8

    def test_from_index(self):
        cfg = SurfaceConfig.from_index((30.0, 10.0, 0.0), [2, 0, 1])
        assert cfg.voltages == (0.0, 30.0, 10.0)

    def test_equality_is_on_voltages_across_alphabets(self):
        a = SurfaceConfig.from_index((30.0, 10.0, 0.0), [0, 2])
        b = SurfaceConfig.from_index((30.0, 0.0), [0, 1])
        assert a == b == SurfaceConfig([30, 0])
        assert hash(a) == hash(b)
        assert a != SurfaceConfig((0.0, 30.0))
        assert SurfaceConfig.uniform(5.0, 3) == SurfaceConfig((5.0, 5.0, 5.0))

    def test_repeated_level_compares_by_voltage(self):
        a = SurfaceConfig.from_index((5.0, 5.0), [0, 1])
        assert a == SurfaceConfig.from_index((5.0, 5.0), [1, 0]) == SurfaceConfig.uniform(5.0, 2)

    def test_many_distinct_voltages(self):
        assert SurfaceConfig(np.arange(256.0)).index.dtype == np.uint8
        values = np.linspace(0.0, 30.0, 1024)
        cfg = SurfaceConfig(values)
        assert cfg.voltages == tuple(values.tolist())
        assert len(cfg.levels) == 1024

    def test_wide_index_round_trips(self):
        """An index over more than 256 levels keeps a wide unsigned type
        instead of wrapping modulo 256."""
        levels = tuple(float(v) for v in range(300))
        assert SurfaceConfig.from_index(levels, np.array([299], np.uint16)).voltages == (299.0,)
        cfg = SurfaceConfig(np.linspace(0.0, 30.0, 300))
        again = SurfaceConfig.from_index(cfg.levels, cfg.index)
        assert again.index.dtype == cfg.index.dtype == np.uint16
        assert again.voltages == cfg.voltages
        assert SurfaceConfig.from_index((30.0, 0.0), np.array([1, 0], np.int64)).index.dtype \
            == np.uint8

    @pytest.mark.parametrize("index", [[-1, 0], [0, 3], np.array([256], np.uint16), [300]])
    def test_index_out_of_range_rejected(self, index):
        with pytest.raises(ValueError, match="index entries"):
            SurfaceConfig.from_index((30.0, 15.0, 0.0), index)

    @pytest.mark.parametrize("index", [[1.5], [1.0, 0.0], [True], np.array([False, True])])
    def test_non_integer_index_rejected(self, index):
        with pytest.raises(ValueError, match="integer dtype"):
            SurfaceConfig.from_index((1.0, 2.0, 3.0), index)

    def test_empty_index_accepted(self):
        assert len(SurfaceConfig.from_index((1.0,), [])) == 0

    def test_signed_zero_kept(self):
        cfg = SurfaceConfig((0.0, -0.0, 0.0))
        assert [np.signbit(v) for v in cfg.voltages] == [False, True, False]

    def test_index_is_read_only(self):
        index = np.array([0, 1, 0], dtype=np.uint8)
        cfg = SurfaceConfig.from_index((30.0, 0.0), index)
        index[0] = 1
        assert cfg.voltages == (30.0, 0.0, 30.0)
        for c in (cfg, SurfaceConfig((30.0, 0.0)), SurfaceConfig.uniform(5.0, 2)):
            with pytest.raises(ValueError):
                c.index[0] = 1

    def test_composite_independent_of_alphabet(self, responder):
        ch = sample_channel(8, 6, env_power=0.2, element_power=1.0, responder=responder,
                            phase_jitter_std=0.3)
        a = SurfaceConfig.from_index((30.0, 20.0, 10.0, 0.0), [3, 0, 0, 2, 1, 3])
        b = SurfaceConfig(a.voltages)
        assert composite_channel(ch, a) == composite_channel(ch, b)
        want = ch.h_env + sum(responder.s(v) * j * h for v, j, h in
                              zip(a.voltages, ch.phase_jitter, ch.h_elements))
        assert composite_channel(ch, a) == pytest.approx(want, abs=1e-12)


class TestSampleChannel:
    def test_zero_env_power(self):
        ch = sample_channel(3, 16, env_power=0.0, element_power=1.0)
        assert ch.h_env == 0j

    def test_same_seed_identical(self):
        a = sample_channel(42, 64, env_power=0.5, element_power=1.0 / 64)
        b = sample_channel(42, 64, env_power=0.5, element_power=1.0 / 64)
        assert a.h_env == b.h_env
        assert np.array_equal(a.h_elements, b.h_elements)

    def test_different_seed_differs(self):
        a = sample_channel(1, 8, element_power=1.0)
        b = sample_channel(2, 8, element_power=1.0)
        assert not np.array_equal(a.h_elements, b.h_elements)

    def test_aggregate_power_law_of_large_numbers(self):
        """E[|sum h_i|^2] = N sigma^2; 10,000 seeds land within 5%."""
        n, sigma2 = 64, 1.0 / 64
        total = 0.0
        for seed in range(10000):
            ch = sample_channel(seed, n, element_power=sigma2)
            total += abs(ch.h_elements.sum()) ** 2
        assert total / 10000 == pytest.approx(n * sigma2, rel=0.05)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            sample_channel(0, 0)
        with pytest.raises(ValueError):
            sample_channel(0, 4, env_power=-1.0)


class TestCompositeChannel:
    def test_uniform_voltage_factorizes(self, responder):
        """Uniform V: h = h_env + s(V) sum h_i."""
        ch = sample_channel(5, 16, env_power=0.3, element_power=1.0 / 16,
                            responder=responder)
        cfg = SurfaceConfig.uniform(10.0, 16)
        want = ch.h_env + responder.s(10.0) * ch.h_elements.sum()
        assert composite_channel(ch, cfg) == pytest.approx(want, abs=1e-15)

    def test_single_element_identity(self, responder):
        ch = MultipathChannel(h_env=0j, h_elements=np.array([1.0 + 0j]), seed=0,
                              responder=responder)
        cfg = SurfaceConfig((5.0,))
        assert composite_channel(ch, cfg) == pytest.approx(responder.s(5.0), abs=1e-15)

    def test_linearity(self, responder):
        ch = sample_channel(6, 8, env_power=0.2, element_power=1.0, responder=responder)
        doubled = MultipathChannel(h_env=2 * ch.h_env, h_elements=2 * ch.h_elements,
                                   seed=6, responder=responder)
        cfg = SurfaceConfig.uniform(15.0, 8)
        assert composite_channel(doubled, cfg) == pytest.approx(
            2 * composite_channel(ch, cfg), abs=1e-15)

    def test_length_mismatch(self, responder):
        ch = sample_channel(7, 8, element_power=1.0, responder=responder)
        with pytest.raises(ValueError):
            composite_channel(ch, SurfaceConfig.uniform(5.0, 9))


class TestRssFeedback:
    def fixed_magnitude_channel(self, responder, magnitude):
        # zero-variance element paths leave only h_env: |h_TR| is exact
        return MultipathChannel(h_env=complex(magnitude), h_elements=np.zeros(4, complex),
                                seed=0, responder=responder)

    def test_zero_db_at_unit_magnitude(self, responder):
        ch = self.fixed_magnitude_channel(responder, 1.0)
        s = FeedbackOracle(ch, noise_db=None, quantization_db=None)(
            SurfaceConfig.uniform(10.0, 4))
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_tenth_magnitude_is_minus_20db(self, responder):
        ch = self.fixed_magnitude_channel(responder, 0.1)
        s = FeedbackOracle(ch, noise_db=None, quantization_db=None)(
            SurfaceConfig.uniform(30.0, 4))
        assert s == pytest.approx(-20.0, abs=1e-12)

    def test_noise_repeatable(self, responder):
        ch = sample_channel(11, 8, element_power=1.0, responder=responder)
        cfg = SurfaceConfig.uniform(5.0, 8)
        a = FeedbackOracle(ch, noise_db=-20.0, noise_seed=99)(cfg)
        b = FeedbackOracle(ch, noise_db=-20.0, noise_seed=99)(cfg)
        assert a == b

    def test_quantization(self, responder):
        ch = sample_channel(12, 8, element_power=1.0, responder=responder)
        cfg = SurfaceConfig.uniform(5.0, 8)
        s = FeedbackOracle(ch, quantization_db=0.1)(cfg)
        assert round(s * 10) == pytest.approx(s * 10, abs=1e-9)


class TestBackscatterGain:
    def test_reciprocal_doubles_exactly(self, responder):
        ch = sample_channel(21, 32, env_power=0.25, element_power=1.0 / 32,
                            responder=responder)
        cfg = SurfaceConfig.uniform(10.0, 32)
        one = oneway_gain(ch, cfg)
        two = backscatter_gain(ch, ch, cfg)
        assert two == pytest.approx(2 * one, abs=1e-9)

    def test_independent_channels_gains_add(self, responder):
        down = sample_channel(22, 16, element_power=1.0 / 16, responder=responder)
        up = sample_channel(23, 16, element_power=1.0 / 16, responder=responder)
        cfg = SurfaceConfig.uniform(10.0, 16)
        total = backscatter_gain(down, up, cfg)
        parts = oneway_gain(down, cfg) + oneway_gain(up, cfg)
        assert total == pytest.approx(parts, abs=1e-9)  # log of a product

    def test_gain_is_relative_to_bare_baseline(self, responder):
        """The no-surface reference is the composite channel evaluated with
        the bare response on every element."""
        down = sample_channel(26, 16, element_power=1.0 / 16, responder=responder)
        up = sample_channel(27, 16, element_power=1.0 / 16, responder=responder)
        cfg = SurfaceConfig.uniform(5.0, 16)
        want = 20 * np.log10(
            abs(composite_channel(down, cfg)) * abs(composite_channel(up, cfg))
            / (abs(baseline_channel(down)) * abs(baseline_channel(up))))
        assert backscatter_gain(down, up, cfg) == pytest.approx(want, abs=1e-12)

    def test_element_count_mismatch(self, responder):
        down = sample_channel(24, 8, element_power=1.0, responder=responder)
        up = sample_channel(25, 16, element_power=1.0, responder=responder)
        with pytest.raises(ValueError):
            backscatter_gain(down, up, SurfaceConfig.uniform(5.0, 8))
