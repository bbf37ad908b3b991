"""Media properties and the bare-interface solution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mediamatch import media
from mediamatch.media import (AIR, BUILTIN_MEDIA, FAT, MUSCLE, SKIN, WATER,
                              Medium, complex_permittivity, fresnel_interface,
                              intrinsic_impedance, phase_constant)

F0 = 2.4e9


class TestMediumValidation:
    def test_permittivity_below_one_rejected(self):
        with pytest.raises(ValueError):
            Medium("bogus", 0.5)

    @pytest.mark.parametrize("mu_r", [-1.0, 0.0])
    def test_non_positive_permeability_rejected(self, mu_r):
        with pytest.raises(ValueError, match="relative_permeability"):
            Medium("bogus", 1.0, mu_r)

    def test_negative_conductivity_rejected(self):
        with pytest.raises(ValueError):
            Medium("bogus", 2.0, conductivity=-1.0)

    def test_lossy_variant(self):
        m = MUSCLE.with_conductivity(1.7)
        assert m.conductivity == 1.7
        assert m.relative_permittivity == MUSCLE.relative_permittivity

    def test_registry_lookup(self):
        assert BUILTIN_MEDIA["water"] is WATER
        assert sorted(BUILTIN_MEDIA) == ["air", "fat", "muscle", "skin", "water"]
        assert all(name == medium.name for name, medium in BUILTIN_MEDIA.items())
        with pytest.raises(KeyError):
            BUILTIN_MEDIA["adamantium"]


class TestComplexPermittivity:
    def test_air_is_real_unity(self):
        assert complex_permittivity(AIR, F0) == 1.0 + 0j

    def test_water_is_real(self):
        assert complex_permittivity(WATER, F0) == 81.0 + 0j

    def test_conductive_imaginary_part(self):
        # sigma/(omega eps0) = 2.0 / (2 pi 2.4e9 * 8.8541878128e-12)
        # hand evaluation: 14.979252987101955
        m = Medium("muscle-lossy", 55.03, conductivity=2.0)
        eps = complex_permittivity(m, F0)
        assert eps.real == pytest.approx(55.03)
        assert eps.imag == pytest.approx(-14.979252987101955, abs=1e-9)

    def test_bad_frequency(self):
        with pytest.raises(ValueError):
            complex_permittivity(AIR, 0.0)
        with pytest.raises(ValueError):
            complex_permittivity(AIR, -1e9)


class TestIntrinsicImpedance:
    # bench-table fixtures, +-0.2 ohm (published values are rounded)
    @pytest.mark.parametrize("medium,expected", [
        (AIR, 376.7), (WATER, 41.86), (SKIN, 57.0), (FAT, 161.2), (MUSCLE, 50.8),
    ])
    def test_table_values(self, medium, expected):
        z = intrinsic_impedance(medium, F0)
        assert z.real == pytest.approx(expected, abs=0.2)
        assert z.imag == pytest.approx(0.0, abs=1e-12)

    def test_positive_real_part_for_lossy(self):
        m = WATER.with_conductivity(3.0)
        assert intrinsic_impedance(m, F0).real > 0


class TestPhaseConstant:
    def test_air(self):
        k = phase_constant(AIR, F0)
        assert k.real == pytest.approx(50.31, abs=0.01)
        assert k.imag == 0.0

    def test_water_scales_by_root_permittivity(self):
        k_air = phase_constant(AIR, F0)
        k_water = phase_constant(WATER, F0)
        assert k_water.real == pytest.approx(9.0 * k_air.real, rel=1e-12)

    def test_lossless_is_purely_real(self):
        for m in BUILTIN_MEDIA.values():
            assert phase_constant(m, F0).imag == 0.0

    def test_frequency_continuity(self):
        """No branch jumps for any bench medium over 1-4 GHz."""
        freqs = np.linspace(1e9, 4e9, 601)
        for m in list(BUILTIN_MEDIA.values()) + [MUSCLE.with_conductivity(1.7)]:
            ks = np.array([phase_constant(m, f) for f in freqs])
            zs = np.array([intrinsic_impedance(m, f) for f in freqs])
            assert np.all(np.abs(np.diff(ks)) < 1.0)
            assert np.all(np.abs(np.diff(zs)) < 1.0)


class TestFresnelInterface:
    def test_identical_media(self):
        r = fresnel_interface(AIR, AIR, F0)
        assert r.gamma == 0
        assert r.t == 1
        assert r.through_power == pytest.approx(1.0, abs=1e-12)

    def test_air_to_water(self):
        # (1 - 9)/(1 + 9) = -0.8 from the sqrt-permittivity ratio
        r = fresnel_interface(AIR, WATER, F0)
        assert r.gamma == pytest.approx(-0.8, abs=1e-12)
        assert r.t == pytest.approx(0.2, abs=1e-12)
        assert r.reflected_power == pytest.approx(0.64, abs=1e-12)
        assert r.through_power == pytest.approx(0.36, abs=1e-12)

    def test_air_to_muscle(self):
        # (1 - sqrt(55.03))/(1 + sqrt(55.03)) = -0.7624201069424685
        r = fresnel_interface(AIR, MUSCLE, F0)
        assert r.gamma.real == pytest.approx(-0.7624201069424685, abs=1e-12)
        assert r.reflected_power == pytest.approx(0.581284, abs=1e-6)

    def test_energy_conservation_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = Medium("a", float(rng.uniform(1, 100)))
            b = Medium("b", float(rng.uniform(1, 100)))
            r = fresnel_interface(a, b, F0)
            assert r.reflected_power + r.through_power == pytest.approx(1.0, abs=1e-9)

    def test_symmetry_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = Medium("a", float(rng.uniform(1, 100)))
            b = Medium("b", float(rng.uniform(1, 100)))
            fwd = fresnel_interface(a, b, F0).gamma
            rev = fresnel_interface(b, a, F0).gamma
            assert fwd == pytest.approx(-rev, abs=1e-12)

    def test_zero_contrast_any_medium(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = Medium("m", float(rng.uniform(1, 100)), conductivity=float(rng.uniform(0, 3)))
            assert fresnel_interface(m, m, F0).gamma == 0


_frequencies = st.floats(1e6, 1e11)


class TestQuantitiesMemo:
    @settings(max_examples=60, deadline=None)
    @given(st.builds(Medium, st.just("m"), st.floats(1.0, 90.0), st.floats(0.5, 2.0),
                     st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
           st.one_of(_frequencies, st.lists(_frequencies, min_size=1, max_size=8)))
    def test_bits_equal_uncached_points(self, medium, frequency):
        """Lossless or lossy, one frequency or several, missed or hit: the
        memoized quantities are the public functions' at each point."""
        f = np.asarray(frequency, dtype=float)
        points = f.ravel().tolist()
        want = [np.array([fn(medium, x) for x in points])
                for fn in (intrinsic_impedance, phase_constant)]
        for _ in range(2):
            got = media._quantities(medium, f.shape, f.tobytes())
            for q, w in zip(got, want):
                assert np.shape(q) == f.shape
                assert np.asarray(q).tobytes() == w.tobytes()

    def test_arrays_are_read_only(self):
        f = np.linspace(1e9, 3e9, 5)
        for q in media._quantities(WATER.with_conductivity(1.0), f.shape, f.tobytes()):
            with pytest.raises(ValueError):
                q[0] = 0.0

    @pytest.mark.parametrize("bad", [0.0, -1e9, math.nan])
    def test_invalid_frequency_raises_every_call(self, bad):
        f = np.array([1e9, bad])
        for _ in range(2):
            with pytest.raises(ValueError, match="frequency must be positive"):
                media._quantities(AIR, f.shape, f.tobytes())
