"""Seeded multipath channel, feedback samples, backscatter arithmetic."""

import math

import numpy as np
import pytest

from mediamatch.cascade import StackSpec
from mediamatch.channel import (ChannelStack, ElementResponder, FeedbackOracle,
                                MultipathChannel, baseline_channel, composite_channels,
                                gains_db, onoff_channels, sample_channel)
from mediamatch.control import run_controllers
from mediamatch.media import AIR
from mediamatch.scenario import default_water_scenario

from per_probe import voltages

F0 = 2.4e9


def uniform(voltage, n):
    """Every one of n elements at one voltage, as a (levels, codes, bits)
    configuration."""
    return (float(voltage),), np.zeros(2, dtype=np.uint8), np.zeros(-(-n // 8), dtype=np.uint8)


def stacked(cfg):
    """A configuration's alphabets, codes and bits as a one-link, one-row stack."""
    levels, codes, bits = cfg
    return [levels], np.asarray(codes)[None, None], np.asarray(bits)[None, None]


def composite(channel, cfg, kernel=composite_channels):
    """The composite channel of one configuration, through a one-row stack."""
    return complex(kernel(ChannelStack(channel), *stacked(cfg))[0, 0])


def reading(oracle, cfg):
    """One link's oracle reading of one configuration."""
    return float(oracle.batch(*stacked(cfg))[0, 0])


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


class TestConfigIndex:
    """A configuration is a (levels, codes, bits) triple; every code pair (the
    ``index`` of each case: the on and off positions in the alphabet) passes
    through composite_channels, which checks it."""

    def channel(self, responder, n):
        return sample_channel(9, n, env_power=0.2, element_power=1.0, responder=responder)

    def config(self, levels, index, n=2):
        """Elements 0, 2, 4, ... on, the others off."""
        return levels, np.asarray(index), np.packbits(np.arange(n) % 2 == 0, bitorder="little")

    @pytest.mark.parametrize("index", [[-1, 0], [0, 3], np.array([256, 0], np.uint16), [300, 1]])
    def test_index_out_of_range_rejected(self, responder, index):
        with pytest.raises(IndexError, match="codes must lie"):
            composite(self.channel(responder, 2), self.config((30.0, 15.0, 0.0), index))

    @pytest.mark.parametrize("index", [[1.5, 0.5], [1.0, 0.0], [True, False],
                                       np.array([False, True])])
    def test_non_integer_index_rejected(self, responder, index):
        with pytest.raises(ValueError, match="integer dtype"):
            composite(self.channel(responder, 2), self.config((1.0, 2.0, 3.0), index))

    @pytest.mark.parametrize("levels,index,error", [
        *[((30.0, 15.0, 0.0), index, IndexError)
          for index in ([-1, 0], [0, 3], np.array([256, 0], np.uint16), [300, 1])],
        *[((1.0, 2.0, 3.0), index, ValueError)
          for index in ([1.5, 0.5], [1.0, 0.0], [True, False], np.array([False, True]))],
        ((30.0, 0.0), [0, 2], IndexError), ((30.0,), [0, 1], IndexError)])
    def test_onoff_kernel_rejects_alike(self, responder, levels, index, error):
        """onoff_channels runs composite_channels' input checks, so the cases
        above raise the same errors from both; so does a code of 2 under two
        levels (or of 1 under one), which the table bits alone would read as 0."""
        messages = []
        for kernel in (composite_channels, onoff_channels):
            with pytest.raises(error) as raised:
                composite(self.channel(responder, 2), self.config(levels, index), kernel)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]

    def test_bool_index_rejected_in_blocks(self, responder):
        """Code pairs of a block are not read as positions 0/1 either (a lone
        row is rejected above)."""
        oracle = FeedbackOracle(self.channel(responder, 64))
        with pytest.raises(ValueError, match="integer dtype"):
            oracle.batch([(30.0, 0.0)], np.ones((1, 2, 2), bool), np.zeros((1, 2, 8), np.uint8))

    @pytest.mark.parametrize("shape", [(1, 2, 7), (1, 3, 8), (1, 2, 9)])
    def test_bit_rows_of_another_shape_rejected(self, responder, shape):
        """Bit rows are ceil(N/8) bytes, one row per code pair."""
        oracle = FeedbackOracle(self.channel(responder, 64))
        with pytest.raises(ValueError, match="bit rows"):
            oracle.batch([(30.0, 0.0)], np.zeros((1, 2, 2), np.uint8), np.zeros(shape, np.uint8))

    def test_wide_index_round_trips(self, responder):
        """A code over more than 256 levels is read with its wide unsigned
        type instead of wrapping modulo 256."""
        ch = self.channel(responder, 2)
        levels = tuple(np.linspace(0.0, 30.0, 300).tolist())
        want = ch.h_env + np.sum(np.array([responder.s(levels[299]), responder.s(levels[44])])
                                 * ch.h_elements)
        assert composite(ch, self.config(levels, np.array([299, 44], np.uint16))) == want
        assert composite(ch, self.config(levels, np.array([299, 44]))) == want

    def test_index_is_read_only(self, responder):
        """A run's best configuration is read-only views of rows its trace keeps."""
        links = run_controllers(FeedbackOracle(self.channel(responder, 4)), 4)
        (levels, codes, bits), = links.configs()
        blocks = links.traces[0].blocks
        assert any(np.shares_memory(codes, block[2]) for block in blocks)
        assert any(np.shares_memory(bits, block[3]) for block in blocks)
        for row in (codes, bits):
            with pytest.raises(ValueError):
                row[0] = 1

    def test_composite_independent_of_alphabet(self, responder):
        ch = sample_channel(8, 6, env_power=0.2, element_power=1.0, responder=responder,
                            phase_jitter_std=0.3)
        on = np.packbits([1, 0, 0, 1, 1, 0], bitorder="little")
        a = ((30.0, 20.0, 10.0, 0.0), np.array([3, 1]), on)
        b = ((0.0, 10.0, 20.0, 30.0), np.array([0, 2]), on)
        c = ((20.0, 0.0), np.array([1, 0]), on)
        assert voltages(*a, 6) == voltages(*b, 6) == voltages(*c, 6)
        assert composite(ch, a) == composite(ch, b) == composite(ch, c)
        want = ch.h_env + sum(responder.s(v) * j * h for v, j, h in
                              zip(voltages(*a, 6), ch.phase_jitter, ch.h_elements))
        assert composite(ch, a) == pytest.approx(want, abs=1e-12)


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
        with pytest.raises(ValueError, match="phase_jitter_std"):
            sample_channel(0, 4, phase_jitter_std=-0.3)


class TestCompositeChannel:
    def test_uniform_voltage_factorizes(self, responder):
        """Uniform V: h = h_env + s(V) sum h_i."""
        ch = sample_channel(5, 16, env_power=0.3, element_power=1.0 / 16,
                            responder=responder)
        cfg = uniform(10.0, 16)
        want = ch.h_env + responder.s(10.0) * ch.h_elements.sum()
        assert composite(ch, cfg) == pytest.approx(want, abs=1e-15)

    def test_single_element_identity(self, responder):
        ch = MultipathChannel(h_env=0j, h_elements=np.array([1.0 + 0j]),
                              responder=responder)
        cfg = uniform(5.0, 1)
        assert composite(ch, cfg) == pytest.approx(responder.s(5.0), abs=1e-15)

    def test_linearity(self, responder):
        ch = sample_channel(6, 8, env_power=0.2, element_power=1.0, responder=responder)
        doubled = MultipathChannel(h_env=2 * ch.h_env, h_elements=2 * ch.h_elements,
                                   responder=responder)
        cfg = uniform(15.0, 8)
        assert composite(doubled, cfg) == pytest.approx(
            2 * composite(ch, cfg), abs=1e-15)

    def test_length_mismatch(self, responder):
        ch = sample_channel(7, 8, element_power=1.0, responder=responder)
        with pytest.raises(ValueError):
            composite(ch, uniform(5.0, 9))


class TestRssFeedback:
    def fixed_magnitude_channel(self, responder, magnitude):
        # zero-variance element paths leave only h_env: |h_TR| is exact
        return MultipathChannel(h_env=complex(magnitude), h_elements=np.zeros(4, complex),
                                responder=responder)

    def test_zero_db_at_unit_magnitude(self, responder):
        ch = self.fixed_magnitude_channel(responder, 1.0)
        s = reading(FeedbackOracle(ch, noise_db=None, quantization_db=None), uniform(10.0, 4))
        assert s == pytest.approx(0.0, abs=1e-12)

    def test_tenth_magnitude_is_minus_20db(self, responder):
        ch = self.fixed_magnitude_channel(responder, 0.1)
        s = reading(FeedbackOracle(ch, noise_db=None, quantization_db=None), uniform(30.0, 4))
        assert s == pytest.approx(-20.0, abs=1e-12)

    def test_noise_repeatable(self, responder):
        ch = sample_channel(11, 8, element_power=1.0, responder=responder)
        cfg = uniform(5.0, 8)
        a = reading(FeedbackOracle(ch, noise_db=-20.0, noise_seed=99), cfg)
        b = reading(FeedbackOracle(ch, noise_db=-20.0, noise_seed=99), cfg)
        assert a == b

    def test_quantization(self, responder):
        ch = sample_channel(12, 8, element_power=1.0, responder=responder)
        cfg = uniform(5.0, 8)
        s = reading(FeedbackOracle(ch, quantization_db=0.1), cfg)
        assert round(s * 10) == pytest.approx(s * 10, abs=1e-9)


class TestBackscatterGain:
    def test_reciprocal_doubles_exactly(self, responder):
        ch = sample_channel(21, 32, env_power=0.25, element_power=1.0 / 32,
                            responder=responder)
        cfg = uniform(10.0, 32)
        one = gains_db([ch], [cfg])[0, 0]
        two = gains_db([ch], [cfg], [ch])[2, 0]
        assert two == pytest.approx(2 * one, abs=1e-9)

    def test_independent_channels_gains_add(self, responder):
        down = sample_channel(22, 16, element_power=1.0 / 16, responder=responder)
        up = sample_channel(23, 16, element_power=1.0 / 16, responder=responder)
        cfg = uniform(10.0, 16)
        gains = gains_db([down], [cfg], [up])[:, 0]
        parts = gains_db([down], [cfg])[0, 0], gains_db([up], [cfg])[0, 0]
        assert gains[:2].tolist() == list(parts)  # each direction's one-way gain
        assert gains[2] == pytest.approx(sum(parts), abs=1e-9)  # log of a product

    def test_gain_is_relative_to_bare_baseline(self, responder):
        """The no-surface reference is the composite channel evaluated with
        the bare response on every element."""
        down = sample_channel(26, 16, element_power=1.0 / 16, responder=responder)
        up = sample_channel(27, 16, element_power=1.0 / 16, responder=responder)
        cfg = uniform(5.0, 16)
        want = 20 * np.log10(
            abs(composite(down, cfg)) * abs(composite(up, cfg))
            / (abs(baseline_channel(down)) * abs(baseline_channel(up))))
        assert gains_db([down], [cfg], [up])[2, 0] == pytest.approx(want, abs=1e-12)

    def test_element_count_mismatch(self, responder):
        down = sample_channel(24, 8, element_power=1.0, responder=responder)
        up = sample_channel(25, 16, element_power=1.0, responder=responder)
        with pytest.raises(ValueError):
            gains_db([down], [uniform(5.0, 8)], [up])


class TestGainsDb:
    def test_silent_link_is_minus_inf(self, responder):
        """A link with no path at all has no magnitude to gain on, one-way or
        two-way, and does not spoil the links stacked with it."""
        silent = MultipathChannel(h_env=0j, h_elements=np.zeros(4, complex),
                                  responder=responder)
        live = sample_channel(28, 4, env_power=0.2, element_power=1.0, responder=responder)
        cfgs = [uniform(10.0, 4)] * 2
        one = gains_db([silent, live], cfgs)
        assert one[0, 0] == float("-inf") and np.isfinite(one[0, 1])
        assert one[1, 0] == float("-inf") and np.isfinite(one[1, 1])  # the baselines
        two = gains_db([silent, live], cfgs, [live, silent])
        assert two[2].tolist() == [float("-inf")] * 2

    @pytest.mark.parametrize("reciprocal", [True, False])
    def test_k_configs_per_link_equal_one_variant_calls(self, scenario, responder, reciprocal):
        """k configurations per link, variant-major, give what k calls of one
        per link give, bit for bit; the baseline row repeats each link's
        20 log10 |baseline| k times."""
        rng = np.random.default_rng(31)
        downs = [sample_channel(50 + k, 6, env_power=0.1, element_power=1.0 / 6,
                                responder=responder) for k in range(4)]
        ups = downs if reciprocal else [
            sample_channel(60 + k, 6, element_power=1.0 / 6, responder=responder)
            for k in range(4)]
        alphabets = [(30.0, 0.0), scenario.voltage_set, (20.0, 2.5)]
        variants = [[(lv, rng.integers(0, len(lv), 2), np.packbits(rng.integers(0, 2, 6),
                                                                    bitorder="little"))
                     for _ in downs] for lv in alphabets]
        cfgs = [c for variant in variants for c in variant]
        for uplinks in (None, ups):
            want = np.concatenate([gains_db(downs, v, uplinks) for v in variants], axis=1)
            assert gains_db(downs, cfgs, uplinks).tobytes() == want.tobytes()
        base = [20.0 * math.log10(abs(baseline_channel(d))) for d in downs]
        assert gains_db(downs, cfgs)[1].tolist() == base * 3

    @pytest.mark.parametrize("n_configs", [0, 3, 5])
    def test_config_count_not_a_multiple_of_links(self, responder, n_configs):
        downs = [sample_channel(70 + k, 4, element_power=1.0, responder=responder)
                 for k in range(2)]
        with pytest.raises(ValueError, match="configurations for 2 links"):
            gains_db(downs, [uniform(5.0, 4)] * n_configs)

    @pytest.mark.parametrize("reciprocal", [True, False])
    def test_stack_equals_one_link_calls(self, scenario, responder, reciprocal):
        """A stacked call mixing on/off pairs, the whole voltage set and a
        wide alphabet gives every link what its one-link call gives, bit for
        bit, one-way and two-way."""
        rng = np.random.default_rng(29)
        downs = [sample_channel(30 + k, 9, env_power=0.1, element_power=1.0 / 9,
                                responder=responder, phase_jitter_std=0.2) for k in range(5)]
        ups = downs if reciprocal else [
            sample_channel(40 + k, 9, element_power=1.0 / 9, responder=responder,
                           phase_jitter_std=0.2) for k in range(5)]
        vs = scenario.voltage_set
        alphabets = [(30.0, 0.0), vs, (20.0, 2.5), vs, tuple(np.linspace(0.0, 30.0, 300))]
        cfgs = [(lv, rng.integers(0, len(lv), 2), np.packbits(rng.integers(0, 2, 9),
                                                               bitorder="little"))
                for lv in alphabets]
        one = [gains_db([d], [c])[:, 0] for d, c in zip(downs, cfgs)]
        two = [gains_db([d], [c], [u])[:, 0] for d, u, c in zip(downs, ups, cfgs)]
        assert gains_db(downs, cfgs).tobytes() == np.stack(one, axis=1).tobytes()
        assert gains_db(downs, cfgs, ups).tobytes() == np.stack(two, axis=1).tobytes()
