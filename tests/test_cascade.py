"""ABCD cascade: construction, reduction to the bare interface, conservation laws.

The shunt, line and product classes check the ABCD algebra through what
solve_stack returns: a zero shunt is the identity, the shunt and line
matrices are unimodular (so transmission is reciprocal), and line matrices
compose.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mediamatch import cascade, matching
from mediamatch.cascade import (DB_FLOOR, DegenerateStackError, StackSpec, db, solve_stack,
                                stack_coefficients, through_power_db)
from mediamatch.channel import MultipathChannel, gains_db, rss_db
from mediamatch.matching import SweepGrid, reflection_spectrum, sweep_through_power
from mediamatch.media import (AIR, Layer, Medium, WATER, fresnel_interface,
                              intrinsic_impedance, phase_constant)
from mediamatch.scenario import default_water_scenario

import oracles

F0 = 2.4e9
Z0 = 376.730313668


def random_lossless_medium(rng):
    return Medium("m", float(rng.uniform(1, 100)))


def assert_reciprocal(stack, ys, abs_tol):
    """Through power is the same solved from either side (det = 1)."""
    fwd = solve_stack(stack, ys, F0).through_power
    rev = solve_stack(stack.reversed(), ys, F0).through_power
    assert fwd == pytest.approx(rev, abs=abs_tol)


class TestShuntAbcd:
    def test_zero_admittance_is_identity(self):
        """At Y = 0 the surface position does not change the solution at all."""
        layers = (Layer(AIR, 6e-3), Layer(Medium("m", 30.0), 4e-3))
        sols = [solve_stack(StackSpec(AIR, WATER, layers, surface_index=k), 0j, F0)
                for k in range(3)]
        for sol in sols[1:]:
            assert (sol.t, sol.gamma) == (sols[0].t, sols[0].gamma)

    def test_definitional(self):
        # a lone shunt [[1, 0], [Y, 1]] between air half-spaces: den = 2 + Y Z0
        sol = solve_stack(StackSpec(AIR, AIR), 0.05j, F0)
        assert sol.t == pytest.approx(2.0 / (2.0 + 0.05j * Z0), abs=1e-12)
        assert sol.gamma == pytest.approx(-0.05j * Z0 / (2.0 + 0.05j * Z0), abs=1e-12)

    def test_unimodular(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = complex(rng.normal(), rng.normal())
            assert_reciprocal(StackSpec(AIR, WATER), y, 1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            solve_stack(StackSpec(AIR, WATER), complex(np.inf, 0), F0)


class TestLineAbcd:
    def test_tiny_length_is_identity(self):
        bare = solve_stack(StackSpec(AIR, WATER), 0.01j, F0)
        sol = solve_stack(StackSpec(AIR, WATER, (Layer(AIR, 1e-12),)), 0.01j, F0)
        assert abs(sol.t - bare.t) < 1e-9 and abs(sol.gamma - bare.gamma) < 1e-9

    def test_quarter_wave_air(self):
        # beta l = pi/2 at l = (pi/2) / (omega/c) = 31.2284 mm: the line turns
        # the water load into Z0^2/Z_water, which reflects with the opposite sign
        stack = StackSpec(AIR, WATER, (Layer(AIR, 0.031228381041666666),))
        sol = solve_stack(stack, 0j, F0)
        ref = fresnel_interface(AIR, WATER, F0)
        assert sol.gamma == pytest.approx(-ref.gamma, abs=1e-6)
        assert sol.through_power == pytest.approx(ref.through_power, abs=1e-6)

    def test_unimodular_random_lossless(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            layer = Layer(random_lossless_medium(rng), float(rng.uniform(1e-4, 5e-2)))
            assert_reciprocal(StackSpec(AIR, random_lossless_medium(rng), (layer,)), 0j, 1e-9)


class TestCascade:
    def test_identity(self):
        sol = solve_stack(StackSpec(AIR, AIR), 0j, F0)
        assert (sol.t, sol.gamma) == (1.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            solve_stack(StackSpec(AIR, WATER), np.array([], dtype=complex), F0)

    def test_inverse_product(self):
        """Two lines of one medium whose lengths add to half a wavelength
        multiply to -I: T flips sign and Gamma is unchanged."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            medium = random_lossless_medium(rng)
            half = np.pi / phase_constant(medium, F0).real
            first = float(rng.uniform(0.05, 0.95)) * half
            bare = StackSpec(AIR, WATER)
            lines = StackSpec(AIR, WATER, (Layer(medium, first), Layer(medium, half - first)))
            ys = 1j * float(rng.uniform(0, 0.1))
            want, got = solve_stack(bare, ys, F0), solve_stack(lines, ys, F0)
            assert got.t == pytest.approx(-want.t, abs=1e-9)
            assert got.gamma == pytest.approx(want.gamma, abs=1e-9)

    def test_surface_first_ordering(self):
        """Shunt-then-line equals the explicit product in that order."""
        stack = StackSpec(AIR, WATER, (Layer(AIR, 6e-3),), surface_index=0)
        ys = 0.007j
        via_solve = solve_stack(stack, ys, F0)
        z, bl = intrinsic_impedance(AIR, F0), phase_constant(AIR, F0) * 6e-3
        line = np.array([[np.cos(bl), 1j * z * np.sin(bl)],
                         [1j * np.sin(bl) / z, np.cos(bl)]])
        m = np.array([[1, 0], [ys, 1]]) @ line
        zw = Z0 / 9.0
        den = m[0, 0] + m[0, 1] / zw + m[1, 0] * Z0 + m[1, 1] * Z0 / zw
        assert via_solve.t == pytest.approx(2.0 / den, abs=1e-12)


class TestSolveStack:
    def test_trivial_same_media(self):
        stack = StackSpec(AIR, AIR)
        sol = solve_stack(stack, 0j, F0)
        assert sol.t == pytest.approx(1.0, abs=1e-12)
        assert sol.gamma == pytest.approx(0.0, abs=1e-12)

    def test_reduces_to_fresnel(self):
        stack = StackSpec(AIR, WATER)
        sol = solve_stack(stack, 0j, F0)
        ref = fresnel_interface(AIR, WATER, F0)
        assert sol.gamma == pytest.approx(ref.gamma, abs=1e-12)
        assert sol.through_power == pytest.approx(ref.through_power, abs=1e-12)
        assert through_power_db(stack, 0j, F0) == pytest.approx(-4.436974992327127, abs=1e-9)

    def test_reduction_randomized_media_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            src, dst = random_lossless_medium(rng), random_lossless_medium(rng)
            sol = solve_stack(StackSpec(src, dst), 0j, F0)
            ref = fresnel_interface(src, dst, F0)
            assert abs(sol.gamma - ref.gamma) < 1e-12
            assert abs(sol.through_power - ref.through_power) < 1e-12

    def test_energy_conservation_random_stacks(self):
        """Lossless layers + imaginary shunt: |G|^2 + through == 1."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            n_layers = int(rng.integers(0, 4))
            layers = tuple(Layer(random_lossless_medium(rng), float(rng.uniform(1e-4, 3e-2)))
                           for _ in range(n_layers))
            stack = StackSpec(random_lossless_medium(rng), random_lossless_medium(rng),
                              layers, surface_index=int(rng.integers(0, n_layers + 1)))
            ys = 1j * float(rng.uniform(-0.2, 0.2))
            sol = solve_stack(stack, ys, F0)
            assert sol.reflected_power + sol.through_power == pytest.approx(1.0, abs=1e-9)
            assert sol.reflected_power <= 1.0 + 1e-9

    def test_matches_impedance_recursion_oracle(self):
        """Cross-check T against the independent recursion, random stacks."""
        rng = np.random.default_rng(6)
        for _ in range(100):
            n_layers = int(rng.integers(1, 4))
            eps = [float(rng.uniform(1, 80)) for _ in range(n_layers)]
            ths = [float(rng.uniform(1e-3, 2e-2)) for _ in range(n_layers)]
            b = float(rng.uniform(0, 0.1))
            layers = tuple(Layer(Medium("m", e), t) for e, t in zip(eps, ths))
            stack = StackSpec(AIR, WATER, layers, surface_index=0)
            got = solve_stack(stack, 1j * b, F0).through_power
            want = oracles.through_power_lossless(
                [(e, 0.0, t) for e, t in zip(eps, ths)], (1.0, 0.0), (81.0, 0.0), b, F0)
            assert got == pytest.approx(want, abs=1e-9)

    def test_gain_reciprocity(self):
        """Matched-vs-bare gain is direction independent for lossless stacks."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            layers = tuple(Layer(random_lossless_medium(rng), float(rng.uniform(1e-3, 2e-2)))
                           for _ in range(int(rng.integers(1, 4))))
            stack = StackSpec(AIR, random_lossless_medium(rng), layers, surface_index=0)
            ys = 1j * float(rng.uniform(0, 0.1))
            fwd = solve_stack(stack, ys, F0).through_power / solve_stack(stack, 0j, F0).through_power
            rev_stack = stack.reversed()
            rev = solve_stack(rev_stack, ys, F0).through_power / solve_stack(rev_stack, 0j, F0).through_power
            assert 10 * np.log10(fwd) == pytest.approx(10 * np.log10(rev), abs=1e-9)

    def test_depth_only_adds_phase_when_lossless(self):
        base = StackSpec(AIR, WATER, (Layer(AIR, 6e-3),))
        deeper = StackSpec(AIR, WATER, (Layer(AIR, 6e-3), Layer(WATER, 0.05)))
        t0 = solve_stack(base, 0.007j, F0).t
        t1 = solve_stack(deeper, 0.007j, F0).t
        assert abs(t1) == pytest.approx(abs(t0), abs=1e-12)
        assert t1 != pytest.approx(t0)  # phase moved

    def test_surface_index_bounds(self):
        with pytest.raises(ValueError):
            StackSpec(AIR, WATER, (Layer(AIR, 6e-3),), surface_index=2)

    def test_through_power_db_floor(self):
        stack = StackSpec(AIR, AIR)
        assert through_power_db(stack, 0j, F0) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_stack_raises(self):
        # passive stacks keep the denominator away from zero (|T| is bounded);
        # an active shunt can null it: with no layers den = 2 + Y Z0, so
        # Y = -2/Z0 is exactly singular
        stack = StackSpec(AIR, AIR)
        with pytest.raises(DegenerateStackError):
            solve_stack(stack, complex(-2.0 / 376.730313668, 0.0), F0)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=complex).tobytes()


_eps = st.floats(1.0, 90.0)


class TestBroadcast:
    """An array call agrees with the impedance-recursion oracle at every point."""

    @settings(max_examples=60, deadline=None)
    @given(src=_eps, load=_eps,
           layers=st.lists(st.tuples(_eps, st.floats(1e-4, 5e-2)), max_size=3),
           bs=st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=4),
           freqs=st.lists(st.floats(1e8, 1e10), min_size=1, max_size=3))
    def test_array_call_matches_impedance_recursion(self, src, load, layers, bs, freqs):
        stack = StackSpec(Medium("src", src), Medium("load", load),
                          tuple(Layer(Medium("m", e), th) for e, th in layers), surface_index=0)
        got = solve_stack(stack, 1j * np.array(bs)[:, None], np.array(freqs)[None, :])
        for i, b in enumerate(bs):
            for j, f in enumerate(freqs):
                want = oracles.through_power_lossless(
                    [(e, 0.0, th) for e, th in layers], (src, 0.0), (load, 0.0), b, f)
                assert got.through_power[i, j] == pytest.approx(want, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(media=st.lists(st.tuples(_eps, st.floats(0.0, 40.0)), min_size=3, max_size=5),
           thicknesses=st.lists(st.floats(1e-4, 5e-2), min_size=6, max_size=6),
           where=st.integers(0, 3), frequency=st.sampled_from([F0, (1.8e9, 2.4e9, 3.0e9)]))
    def test_rows_equal_single_stacks(self, media, thicknesses, where, frequency):
        """Thicknesses with rows axes give each row's single-stack coefficients
        bit for bit, lossy layers included, at one frequency or several."""
        (src, load, *layers) = [Medium(f"m{k}", e, 1.0, s) for k, (e, s) in enumerate(media)]
        rows = np.reshape(thicknesses[:2 * len(layers)], (2, 1, len(layers)))
        stacks = [StackSpec(src, load, tuple(map(Layer, layers, row[0])),
                            min(where, len(layers))) for row in rows.tolist()]
        got = stack_coefficients(stacks[0], frequency, rows)
        for r, stack in enumerate(stacks):
            for g, want in zip(got[:4], stack_coefficients(stack, frequency)):
                assert _bits(g[r, 0]) == _bits(want)

    def test_singular_point_is_nan(self):
        stack = StackSpec(AIR, AIR)
        ys = np.array([0.01j, complex(-2.0 / Z0, 0.0), 0.02j])
        sol = solve_stack(stack, ys, F0)
        assert all(np.isnan(getattr(sol, name)[1])
                   for name in ("t", "gamma", "through_power", "reflected_power"))
        for i in (0, 2):
            assert _bits(sol.t[i]) == _bits(solve_stack(stack, ys[i], F0).t)
        with pytest.raises(DegenerateStackError):
            solve_stack(stack, ys[1], F0)


def _want_db(x: float, factor: float = 10.0) -> float:
    """The dB rule written out on libm: -inf where not positive, NaN where NaN."""
    if math.isnan(x):
        return x
    return factor * math.log10(x) if x > 0 else -math.inf


def _reprs(values) -> list[str]:
    """repr tells every float apart, -0.0 from 0.0, and shows every NaN alike."""
    return [repr(float(v)) for v in values]


class TestDb:
    """Every dB value is libm's factor * log10, each caller's rule for values
    that are not positive or NaN on top of it, bit for bit."""

    XS = (1e-300, 0.5, 1.0, 2.0, 0.0, -1.0, float("nan"), float("inf"))

    def test_rss_db(self):
        rss = [-math.inf if math.isnan(x) else _want_db(x, 20.0) for x in self.XS]
        assert _reprs(rss_db(self.XS, None)) == _reprs(rss)
        assert _reprs([rss_db(x, None) for x in self.XS]) == _reprs(rss)  # 0-d arrays too
        # the 0.1 dB grid, half to even; a reading that rounds to zero is +0.0
        grid = [round(v / 0.1) * 0.1 + 0.0 if math.isfinite(v) else v for v in rss]
        assert _reprs(rss_db(self.XS)) == _reprs(grid)

    def test_gains_db(self):
        """Channels with no element paths: every configuration's magnitude
        and its baseline are |h_env|."""
        responder = default_water_scenario().responder()
        links = [MultipathChannel(complex(x), np.zeros(1, dtype=complex), responder)
                 for x in self.XS]
        config = (np.zeros(2, dtype=np.uint8), np.zeros(1, dtype=np.uint8))
        mags = [abs(complex(x)) for x in self.XS]
        gains = [-math.inf if m <= 0 else _want_db(m, 20.0) - _want_db(m, 20.0) for m in mags]
        got = gains_db(links, (5.0,), [config] * len(links))
        assert _reprs(got[0]) == _reprs(gains)
        assert _reprs(got[1]) == _reprs([_want_db(m, 20.0) for m in mags])

    def test_through_power_db(self, monkeypatch):
        for x in self.XS:
            monkeypatch.setattr(cascade, "solve_stack",
                                lambda *args, x=x: SimpleNamespace(through_power=x))
            assert _reprs([through_power_db(StackSpec(AIR, AIR), 0j, F0)]) == _reprs([_want_db(x)])

    def test_sweep_clamps_at_the_floor(self, monkeypatch):
        """NaN (a singular point) and powers that are not positive read DB_FLOOR."""
        monkeypatch.setattr(matching, "solve_stack",
                            lambda *args: SimpleNamespace(through_power=np.array(self.XS)))
        grid = SweepGrid("gap_mm", (1.0,), "susceptance_s",
                         tuple(0.01 * k for k in range(len(self.XS))), F0)
        want = [max(_want_db(x), DB_FLOOR) if x > 0 else DB_FLOOR for x in self.XS]
        assert _reprs(sweep_through_power(lambda gap: StackSpec(AIR, AIR), grid)) == _reprs(want)

    def test_spectrum_floors_only_what_is_not_positive(self, monkeypatch):
        """A tiny positive reflection stays below DB_FLOOR; the bare stack
        reflects 1 (0 dB), so the reduction is minus the reflection."""
        xs = [x for x in self.XS if not math.isnan(x)]
        monkeypatch.setattr(matching, "solve_stack", lambda stack, ys, f: SimpleNamespace(
            reflected_power=np.ones(len(f)) if ys == 0 else np.array(xs)))
        freqs = [2.0e9 + 1e8 * k for k in range(len(xs))]
        got = reflection_spectrum(StackSpec(AIR, AIR), freqs, ys=0.01j)
        refl = [_want_db(x) if x > 0 else DB_FLOOR for x in xs]
        assert [f for f, _, _ in got] == freqs
        assert _reprs(r for _, r, _ in got) == _reprs(refl)
        assert _reprs(d for _, _, d in got) == _reprs(0.0 - r for r in refl)
        xs[0] = math.nan  # the patched solve reads xs: a singular reflection
        with pytest.raises(DegenerateStackError):
            reflection_spectrum(StackSpec(AIR, AIR), freqs, ys=0.01j)

    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(st.floats(0.0, exclude_min=True), max_size=8),
           factor=st.sampled_from([10.0, 20.0]))
    def test_positive_values_are_libm_log10(self, xs, factor):
        assert db(xs, factor).tolist() == [factor * math.log10(x) for x in xs]
