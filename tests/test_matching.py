"""Admittance/voltage search, heatmap sweeps, reflection spectra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mediamatch import cascade, matching
from mediamatch.cascade import (DB_FLOOR, DegenerateStackError, StackSpec, db, solve_stack,
                                through_power_db)
from mediamatch.matching import (SweepGrid, best_admittance, best_voltage,
                                 reflection_spectrum, sweep_through_power)
from mediamatch.media import AIR, FAT, Layer, MUSCLE, Medium, SKIN, WATER
from mediamatch.scenario import default_tissue_scenario, default_water_scenario
from mediamatch.surface import admittance_at_voltage, admittance_exact, admittances, varactor_at

import oracles

F0 = 2.4e9


_media = st.builds(Medium, st.just("m"), st.floats(1.0, 90.0), st.just(1.0),
                   st.one_of(st.just(0.0), st.floats(0.0, 5.0)))


def water_stack(gap_mm=6.0):
    return StackSpec(AIR, WATER, (Layer(AIR, gap_mm * 1e-3),))


def tissue_stack(gap_mm=6.0, fat_mm=15.0):
    return StackSpec(AIR, MUSCLE, (Layer(AIR, gap_mm * 1e-3), Layer(SKIN, 2.5e-3),
                                   Layer(FAT, fat_mm * 1e-3)))


class TestBestAdmittance:
    def test_water_default_gap(self):
        """The continuous optimum cancels the input susceptance; the oracle
        computes that susceptance by impedance recursion."""
        m = best_admittance(water_stack(), F0)
        b_want = oracles.optimal_susceptance([(1.0, 0.0, 6e-3)], (81.0, 0.0), F0)
        assert m.best_admittance.imag == pytest.approx(b_want, abs=2e-4)
        assert m.through_power_db >= -0.5
        assert m.gain_db == pytest.approx(4.0, abs=1.0)

    def test_tissue_default(self):
        m = best_admittance(tissue_stack(), F0)
        assert m.through_power_db >= -0.5
        assert m.gain_db == pytest.approx(9.0, abs=2.0)

    def test_already_matched_media(self):
        m = best_admittance(StackSpec(AIR, AIR), F0)
        assert m.best_admittance == 0j
        assert m.gain_db == pytest.approx(0.0, abs=1e-12)
        assert m.through_power_db == pytest.approx(0.0, abs=1e-12)

    def test_no_worse_than_any_grid_point(self):
        m = best_admittance(water_stack(3.0), F0)
        for b in np.linspace(0.0, 0.12, 25):
            assert m.through_power_db >= through_power_db(water_stack(3.0), 1j * b, F0) - 1e-12

    def test_never_exceeds_unity_for_lossless(self):
        for gap in (2.0, 5.0, 8.0, 12.0):
            m = best_admittance(water_stack(gap), F0)
            assert m.through_power_db <= 1e-12

    def test_matches_physical_bound_per_gap(self):
        """Best through power equals 1 - ((y0-g)/(y0+g))^2 where g is the
        input conductance: the energy bound for a lossless shunt match."""
        for gap in range(2, 13):
            z_in = oracles.input_impedance([(1.0, 0.0, gap * 1e-3)], (81.0, 0.0), F0)
            g = (1.0 / z_in).real
            y0 = 1.0 / 376.730313668
            bound = 1.0 - ((y0 - g) / (y0 + g)) ** 2
            m = best_admittance(water_stack(float(gap)), F0)
            assert m.through_power_db == pytest.approx(10 * np.log10(bound), abs=5e-3)

    def test_closed_form_equals_oracle_susceptance(self):
        """The clamped minimiser is the oracle's exact optimum, not a bracket."""
        for gap in range(1, 31):
            m = best_admittance(water_stack(float(gap)), F0)
            b_want = oracles.optimal_susceptance([(1.0, 0.0, gap * 1e-3)], (81.0, 0.0), F0)
            assert m.best_admittance.imag == pytest.approx(np.clip(b_want, 0.0, 0.12),
                                                          abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(src=_media, load=_media,
           layers=st.lists(st.builds(Layer, _media, st.floats(1e-4, 3e-2)), max_size=3))
    def test_no_worse_than_a_dense_grid(self, src, load, layers):
        """Lossless and lossy stacks, the surface at every index."""
        bgrid = np.linspace(0.0, 0.12, 1201)
        for index in range(len(layers) + 1):
            stack = StackSpec(src, load, tuple(layers), surface_index=index)
            m = best_admittance(stack, F0)
            grid_db = 10.0 * np.log10(solve_stack(stack, 1j * bgrid, F0).through_power)
            assert m.gain_db >= 0.0
            assert m.through_power_db >= grid_db.max() - 1e-12


@pytest.fixture(scope="module")
def scenario():
    return default_water_scenario()


class TestBestVoltage:
    def test_within_1db_of_continuous_across_gaps(self, scenario):
        for gap in range(2, 13):
            stack = water_stack(float(gap))
            cont = best_admittance(stack, F0)
            disc = best_voltage(stack, scenario.circuit, F0, scenario.voltage_set)
            assert disc.through_power_db >= cont.through_power_db - 1.0

    def test_singleton_set(self, scenario):
        m = best_voltage(water_stack(), scenario.circuit, F0, [15.0])
        assert m.best_voltage == 15.0

    def test_fat_thickness_changes_choice(self, scenario):
        tissue = default_tissue_scenario()
        picks = {fat: best_voltage(tissue_stack(fat_mm=float(fat)), tissue.circuit, F0,
                                   tissue.voltage_set).best_voltage
                 for fat in (5, 15, 30, 50)}
        assert len(set(picks.values())) > 1

    def test_water_vs_tissue_at_small_gap(self, scenario):
        """At a 2 mm gap tissue wants a smaller susceptance than water."""
        tissue = default_tissue_scenario()
        vw = best_voltage(water_stack(2.0), scenario.circuit, F0, scenario.voltage_set)
        vt = best_voltage(tissue_stack(gap_mm=2.0), tissue.circuit, F0, tissue.voltage_set)
        assert vw.best_voltage != vt.best_voltage

    def test_out_of_range_voltage(self, scenario):
        with pytest.raises(ValueError):
            best_voltage(water_stack(), scenario.circuit, F0, [40.0])
        with pytest.raises(ValueError):
            best_voltage(water_stack(), scenario.circuit, F0, [])


class TestSweep:
    def grid(self, axis1, axis2):
        return SweepGrid("gap_mm", tuple(axis1), "susceptance_s", tuple(axis2), F0)

    def test_baseline_column_is_bare_stack(self):
        grid = self.grid((2.0, 6.0, 12.0), (0.0, 0.01, 0.02))
        m = sweep_through_power(lambda g: water_stack(g), grid)
        for i, gap in enumerate(grid.axis1_values):
            assert m[i, 0] == pytest.approx(through_power_db(water_stack(gap), 0j, F0), abs=1e-12)

    def test_optimal_susceptance_nonincreasing_in_gap(self):
        bgrid = np.arange(0.0, 0.02, 0.0001)
        grid = self.grid(tuple(range(2, 13)), tuple(bgrid))
        m = sweep_through_power(lambda g: water_stack(float(g)), grid)
        argmaxes = [bgrid[int(np.argmax(m[i]))] for i in range(m.shape[0])]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(argmaxes, argmaxes[1:]))
        assert argmaxes[0] > argmaxes[-1]

    @staticmethod
    def per_row(stack_family, grid, circuit=None):
        """The reference sweep: one solve_stack per axis-1 value, floor included."""
        ys = matching._axis_admittances(grid.axis2_name, grid.axis2_values, circuit, F0)
        return np.array([
            np.fmax(db(solve_stack(stack_family(a1), ys, F0).through_power), DB_FLOOR)
            for a1 in grid.axis1_values])

    _LOSSY_FAT = FAT.with_conductivity(40.0)

    @pytest.mark.parametrize("axis1,family", [
        ("gap_mm", lambda g: StackSpec(AIR, WATER.with_conductivity(2.5), (
            Layer(AIR, g * 1e-3), Layer(SKIN.with_conductivity(1.4), 2e-3)))),
        ("gap_mm", lambda g: StackSpec(AIR, WATER, (Layer(AIR, g * 1e-3),), surface_index=1)),
        ("fat_mm", lambda f: StackSpec(AIR, MUSCLE, (
            Layer(AIR, 6e-3), Layer(SKIN, 2.5e-3),
            Layer(TestSweep._LOSSY_FAT, f * 1e-3)), surface_index=2)),
    ], ids=["lossy-water", "surface-at-load", "surface-inside-tissue"])
    @pytest.mark.parametrize("axis2", ["susceptance_s", "capacitance_pf"])
    def test_broadcast_equals_per_row_solves(self, axis1, family, axis2):
        """One chain build and one solve per grid give every bit of the per-row
        solves, the -200 dB floor of the thick lossy fat rows included.  Lossy
        layers make every line entry complex, where a product that fused its
        real products would move last bits."""
        values1 = np.arange(2.0, 12.0, 0.25) if axis1 == "gap_mm" else np.arange(5.0, 80.0, 2.5)
        values2 = (np.arange(0.0, 0.12, 0.002) if axis2 == "susceptance_s"
                   else np.arange(0.71, 3.72, 0.05))
        grid = SweepGrid(axis1, tuple(values1), axis2, tuple(values2), F0)
        circuit = default_water_scenario().circuit
        m = sweep_through_power(family, grid, circuit)
        assert np.array_equal(m, self.per_row(family, grid, circuit))
        assert axis1 == "gap_mm" or (m == DB_FLOOR).any()

    def test_one_chain_build_per_grid(self):
        grid = self.grid(np.arange(2.0, 12.0, 0.5), (0.0, 0.01, 0.02))
        cascade._coefficients.cache_clear()
        sweep_through_power(water_stack, grid)
        assert cascade._coefficients.cache_info().misses == 1
        sweep_through_power(water_stack, grid)
        assert cascade._coefficients.cache_info().misses == 1

    @pytest.mark.parametrize("family", [
        lambda g: water_stack(g) if g < 4.0 else StackSpec(AIR, MUSCLE, (Layer(AIR, g * 1e-3),)),
        lambda g: water_stack(g) if g < 4.0 else StackSpec(AIR, WATER, (Layer(SKIN, g * 1e-3),)),
        lambda g: StackSpec(AIR, WATER, (Layer(AIR, g * 1e-3),), surface_index=int(g >= 4.0)),
        lambda g: water_stack(g) if g < 4.0 else tissue_stack(g),
    ], ids=["load", "layer-medium", "surface-index", "layer-count"])
    def test_family_must_share_its_structure(self, family):
        with pytest.raises(ValueError, match="gap_mm"):
            sweep_through_power(family, self.grid((2.0, 3.0, 4.0, 5.0), (0.0, 0.01)))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid("gap_mm", (), "susceptance_s", (0.0,), F0)

    def test_non_monotone_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid("gap_mm", (2.0, 1.0, 3.0), "susceptance_s", (0.0,), F0)


class TestReflectionSpectrum:
    def test_matched_reduction_at_center(self, scenario):
        stack = water_stack()
        ys = best_admittance(stack, F0).best_admittance
        rows = reflection_spectrum(stack, [2.1e9, 2.4e9, 2.7e9], ys=ys)
        center = rows[1]
        assert center[2] >= 10.0
        # trough shape: center reduction beats +-300 MHz offsets
        assert center[2] >= rows[0][2]
        assert center[2] >= rows[2][2]

    def test_matched_tissue_reduction(self):
        stack = tissue_stack()
        ys = best_admittance(stack, F0).best_admittance
        rows = reflection_spectrum(stack, [2.4e9], ys=ys)
        assert rows[0][2] >= 10.0

    def test_trough_shifts_with_lower_capacitance(self, scenario):
        """A lower capacitance (higher bias) moves the reduction trough to a
        different frequency."""
        stack = water_stack()
        freqs = list(np.linspace(1.8e9, 3.0e9, 121))
        matched = best_voltage(stack, scenario.circuit, F0, scenario.voltage_set).best_voltage
        circuit = scenario.circuit
        rows_m, rows_hi = (reflection_spectrum(stack, freqs, admittances(
            circuit, *varactor_at(circuit.varactors, v), freqs))
            for v in (matched, 30.0))  # 30 V: the smallest capacitance
        trough_m = freqs[int(np.argmin([r[1] for r in rows_m]))]
        trough_hi = freqs[int(np.argmin([r[1] for r in rows_hi]))]
        assert trough_hi != trough_m
        assert trough_hi > trough_m  # less capacitance matches higher up

    def test_argument_validation(self):
        stack = water_stack()
        with pytest.raises(ValueError):
            reflection_spectrum(stack, [2.7e9, 2.4e9], ys=0.01j)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


class TestHoistedLookups:
    """The varactor table is read once per axis or spectrum; every admittance
    keeps the bits of the per-point lookup it replaces."""

    @staticmethod
    def per_point_capacitance(circuit, value, frequency):
        """One capacitance-axis point as the sweep used to evaluate it."""
        c = np.asarray(circuit.varactors.capacitances, dtype=float)
        r = np.asarray(circuit.varactors.resistances, dtype=float)
        order = np.argsort(c)
        cap = min(max(value * 1e-12, c.min()), c.max())
        return admittance_exact(circuit, value * 1e-12,
                                float(np.interp(cap, c[order], r[order])), frequency)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.05, 6.0), st.integers(1, 5),
                              st.sampled_from([0.71, 0.81, 0.9, 1.0, 1.32, 3.72])),
                    min_size=1, max_size=40),
           st.sampled_from([default_water_scenario, default_tissue_scenario]),
           st.floats(2.2e9, 2.6e9))
    def test_capacitance_axis(self, values, make, frequency):
        circuit = make().circuit
        got = matching._axis_admittances("capacitance_pf", tuple(values), circuit, frequency)
        want = [self.per_point_capacitance(circuit, v, frequency) for v in values]
        assert _bits(got) == _bits(want)

    def test_capacitance_axis_errors(self, scenario):
        with pytest.raises(ValueError, match="needs an ElementCircuit"):
            matching._axis_admittances("capacitance_pf", (1.0,), None, F0)
        with pytest.raises(ValueError, match="unknown"):
            matching._axis_admittances("inductance_nh", (1.0,), scenario.circuit, F0)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0.0, 2.5, 5.0, 10.0, 30.0]) | st.floats(0.0, 30.0),
           st.lists(st.floats(1.5e9, 3.2e9), min_size=1, max_size=60).map(sorted))
    def test_voltage_spectrum(self, voltage, freqs):
        circuit = default_water_scenario().circuit
        seen = []
        real = matching.solve_stack

        def spy(stack, admittance, frequency):
            seen.append(admittance)
            return real(stack, admittance, frequency)

        matching.solve_stack = spy
        try:
            reflection_spectrum(water_stack(), freqs, admittances(
                circuit, *varactor_at(circuit.varactors, voltage), freqs))
        finally:
            matching.solve_stack = real
        want = [admittance_at_voltage(circuit, voltage, f)
                for f in np.array(freqs, dtype=float)]
        assert _bits(seen[0]) == _bits(want)

    def test_voltage_outside_table_raises(self, scenario):
        circuit = scenario.circuit
        with pytest.raises(ValueError, match="outside table range"):
            reflection_spectrum(water_stack(), [2.4e9], admittances(
                circuit, *varactor_at(circuit.varactors, 31.0), [2.4e9]))


class TestSingularPoint:
    """The active Y = -2/Z0 nulls the denominator of a bare air|air stack.

    Passive surfaces cannot reach it, so the sweep and the voltage search get
    it through a patched admittance; the grid is still solved in one call.
    """

    SINGULAR = complex(-2.0 / 376.730313668, 0.0)

    def test_sweep_records_the_floor(self, monkeypatch):
        real = matching._axis_admittances
        monkeypatch.setattr(matching, "_axis_admittances", lambda name, values, *rest:
                            np.where(np.equal(values, 0.02), self.SINGULAR,
                                     real(name, values, *rest)))
        grid = SweepGrid("gap_mm", (1.0, 2.0), "susceptance_s", (0.0, 0.01, 0.02, 0.03), F0)
        m = sweep_through_power(lambda g: StackSpec(AIR, AIR), grid)
        assert np.all(m[:, 2] == DB_FLOOR)
        assert np.all(m[:, [0, 1, 3]] > DB_FLOOR)

    def test_voltage_search_skips_it(self, monkeypatch, scenario):
        real, c30 = matching.admittances, varactor_at(scenario.circuit.varactors, 30.0)[0]
        monkeypatch.setattr(matching, "admittances", lambda circuit, c, r, f:
                            np.where(np.equal(c, c30), self.SINGULAR, real(circuit, c, r, f)))
        m = best_voltage(StackSpec(AIR, AIR), scenario.circuit, F0, [30.0, 5.0])
        assert m.best_voltage == 5.0
        assert np.isfinite(m.through_power_db)

    def test_spectrum_raises(self):
        with pytest.raises(DegenerateStackError):
            reflection_spectrum(StackSpec(AIR, AIR), [2.0e9, 2.4e9], ys=self.SINGULAR)
