"""Varactor table, element circuit admittance, inductance calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mediamatch import channel, matching
from mediamatch.cascade import StackSpec
from mediamatch.media import AIR, WATER, Layer
from mediamatch.scenario import default_water_scenario
from mediamatch.surface import (CalibrationError, ElementCircuit, ResonanceError,
                                SMV1405_TABLE, VaractorTable, admittance_approx,
                                admittance_at_voltage, admittance_exact, admittances,
                                calibrate_inductances, varactor_at)

F0 = 2.4e9
CONTROL_VOLTAGES = (30.0, 20.0, 15.0, 10.0, 5.0, 2.5, 0.0)


@pytest.fixture(scope="module")
def circuit():
    return calibrate_inductances(SMV1405_TABLE, F0, control_voltages=CONTROL_VOLTAGES)


class TestVaractorTable:
    def test_knot_values(self):
        assert varactor_at(SMV1405_TABLE, 30.0) == (0.71e-12, 0.26)
        assert varactor_at(SMV1405_TABLE, 0.0) == (3.72e-12, 0.63)

    def test_midpoint_interpolation(self):
        # halfway between the 20 V (0.81 pF) and 30 V (0.71 pF) knots
        c, r = varactor_at(SMV1405_TABLE, 25.0)
        assert c == pytest.approx(0.76e-12, rel=1e-12)
        assert 0.71e-12 < c < 0.81e-12

    def test_no_extrapolation(self):
        with pytest.raises(ValueError):
            varactor_at(SMV1405_TABLE, 31.0)
        with pytest.raises(ValueError):
            varactor_at(SMV1405_TABLE, -0.5)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            VaractorTable((0.0, 10.0), (1e-12, 2e-12), (0.5, 0.4))  # C rising with V
        with pytest.raises(ValueError):
            VaractorTable((0.0, 0.0), (2e-12, 1e-12), (0.5, 0.4))   # duplicate V

    def test_interpolation_preserves_monotonicity(self):
        vs = np.linspace(0.0, 30.0, 301)
        cs = [varactor_at(SMV1405_TABLE, v)[0] for v in vs]
        rs = [varactor_at(SMV1405_TABLE, v)[1] for v in vs]
        assert all(np.diff(cs) <= 0)
        assert all(np.diff(rs) <= 0)


class TestAdmittanceExact:
    def test_branch_cancellation_gives_zero(self, circuit):
        """With R ~ 0 and 1/(w L2) equal to the patch-branch susceptance the
        two branches cancel."""
        w = 2 * np.pi * F0
        c = 1.0e-12
        factor = 1.0 - w * w * c * circuit.patch_inductance
        l2 = factor / (w * w * c)
        tuned = ElementCircuit(circuit.patch_inductance, l2, SMV1405_TABLE, F0)
        y = admittance_exact(tuned, c, 1e-9, F0)
        assert abs(y) < 1e-6

    def test_against_direct_complex_arithmetic(self, circuit):
        """Brute-force evaluation of the two parallel branches as the oracle."""
        w = 2 * np.pi * F0
        for c, r in [(0.71e-12, 0.26), (1.0e-12, 0.38), (3.72e-12, 0.63)]:
            series = 1.0 / (1j * w * c) + r + 1j * w * circuit.patch_inductance
            want = 1.0 / series + 1.0 / (1j * w * circuit.bias_wire_inductance)
            got = admittance_exact(circuit, c, r, F0)
            assert got == pytest.approx(want, abs=1e-15)

    def test_conductance_linear_in_small_r(self, circuit):
        y1 = admittance_exact(circuit, 1.0e-12, 0.2, F0)
        y2 = admittance_exact(circuit, 1.0e-12, 0.4, F0)
        assert y2.real == pytest.approx(2 * y1.real, rel=0.05)

    def test_resonance_guard(self, circuit):
        with pytest.raises(ResonanceError):
            admittance_exact(circuit, 1e-9, 0.3, F0)  # far past series resonance


class TestAdmittanceApprox:
    def test_tracks_exact_on_table_rows(self, circuit):
        for v in SMV1405_TABLE.voltages:
            c, r = varactor_at(SMV1405_TABLE, v)
            ye = admittance_exact(circuit, c, r, F0)
            ya = admittance_approx(circuit, c, r, F0)
            assert abs(ya - ye) / abs(ye) <= 0.02

    def test_zero_resistance_zero_conductance(self, circuit):
        y = admittance_approx(circuit, 1.0e-12, 1e-30, F0)
        assert y.real == pytest.approx(0.0, abs=1e-12)

    def test_small_capacitance_limit(self, circuit):
        w = 2 * np.pi * F0
        y = admittance_approx(circuit, 1e-18, 0.3, F0)
        assert y.imag == pytest.approx(-1.0 / (w * circuit.bias_wire_inductance), rel=1e-3)


class TestCalibration:
    def test_default_target_feasible(self, circuit):
        # frozen result of the deterministic grid search at 2.4 GHz
        assert circuit.patch_inductance == pytest.approx(0.59e-9, rel=1e-9)
        assert circuit.bias_wire_inductance == pytest.approx(5.818720599663381e-9, rel=1e-9)

    def test_span_covers_target(self, circuit):
        bs = [admittance_at_voltage(circuit, v, F0).imag for v in CONTROL_VOLTAGES]
        assert min(bs) == pytest.approx(0.0, abs=1e-3)
        assert max(bs) >= 0.1

    def test_resonance_margin(self, circuit):
        w = 2 * np.pi * F0
        for c in SMV1405_TABLE.capacitances:
            assert 1.0 - w * w * c * circuit.patch_inductance > 0.05

    def test_infeasible_target(self):
        with pytest.raises(CalibrationError) as err:
            calibrate_inductances(SMV1405_TABLE, F0, target_span=(0.0, 10.0))
        assert "best achievable" in str(err.value)

    def test_swapped_endpoints_rejected(self):
        with pytest.raises(ValueError):
            calibrate_inductances(SMV1405_TABLE, F0, target_span=(0.1, 0.0))


class TestVoltageControl:
    def test_extreme_voltages(self, circuit):
        bs = {v: admittance_at_voltage(circuit, v, F0).imag for v in CONTROL_VOLTAGES}
        assert min(bs, key=bs.get) == 30.0   # highest voltage -> smallest susceptance
        assert max(bs, key=bs.get) == 0.0    # 0 V -> largest susceptance

    def test_loss_an_order_below_susceptance(self, circuit):
        for v in CONTROL_VOLTAGES:
            y = admittance_at_voltage(circuit, v, F0)
            assert y.real >= 0
            assert y.real <= y.imag / 10.0

    def test_susceptance_monotone_in_capacitance(self, circuit):
        caps = np.linspace(0.5e-12, 4.0e-12, 200)
        bs = [admittance_exact(circuit, c, 0.4, F0).imag for c in caps]
        assert all(np.diff(bs) > 0)

    def test_deterministic(self, circuit):
        a = admittance_at_voltage(circuit, 12.3, F0)
        b = admittance_at_voltage(circuit, 12.3, F0)
        assert a == b


def _outcome(call):
    """A call's result, or its ValueError's message."""
    try:
        return call()
    except ValueError as err:
        return str(err)


class TestVoltageLists:
    """Lists of voltages take (C, R) from one varactor_at call and their
    admittances from one admittances call; admittance_at_voltage per point
    stays the referee."""

    stack = StackSpec(AIR, WATER, (Layer(AIR, 6e-3),))

    @staticmethod
    def spied(module, call):
        """call() and the admittance of each solve_stack it made in `module`."""
        seen, real = [], module.solve_stack

        def spy(stack, admittance, frequency, *rest):
            seen.append(np.asarray(admittance, dtype=complex))
            return real(stack, admittance, frequency, *rest)

        module.solve_stack = spy
        try:
            return _outcome(call), seen
        finally:
            module.solve_stack = real

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from(SMV1405_TABLE.voltages + (2.5, 31.0, -0.5, math.nan))
                    | st.floats(-1.0, 31.0) | st.integers(-1, 31), min_size=1, max_size=8))
    def test_equal_to_per_voltage_calls(self, circuit, voltages):
        per_voltage = [_outcome(lambda v=v: varactor_at(SMV1405_TABLE, v)) for v in voltages]
        errors = [p for p in per_voltage if isinstance(p, str)]
        got = _outcome(lambda: varactor_at(SMV1405_TABLE, voltages))
        if errors:
            assert got == errors[0]
        else:
            assert np.array(got).tobytes() == np.array(per_voltage).T.tobytes()

        found, seen = self.spied(matching, lambda: matching.best_voltage(
            self.stack, circuit, F0, voltages))
        levels = tuple(map(float, voltages))
        responder = channel.ElementResponder(self.stack, circuit, F0, coupling_offset=1e-3j)
        table, seen_t = self.spied(channel, lambda: responder.table(levels))
        if errors:
            assert "outside table range" in found and "outside table range" in table
            return
        want = [admittance_at_voltage(circuit, v, F0) for v in sorted(voltages, reverse=True)]
        assert seen[0].tobytes() == np.array([0j] + want).tobytes()
        want = [admittance_at_voltage(circuit, v, F0) + 1e-3j for v in dict.fromkeys(levels)]
        assert seen_t[0].tobytes() == np.array(want).tobytes()


class TestAdmittanceMemo:
    circuit = default_water_scenario().circuit

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.5e-12, 3.72e-12), min_size=1, max_size=6),
           st.floats(0.1, 1.0),
           st.one_of(st.floats(1e8, F0), st.lists(st.floats(1e8, F0), min_size=1, max_size=4)))
    def test_bits_equal_uncached_points(self, caps, resistance, frequency):
        """Frequencies down one axis and capacitances along the other, missed
        or hit: each point is admittance_exact's on Python floats."""
        f = np.reshape(frequency, (-1, 1) if isinstance(frequency, list) else ())
        want = np.array([[admittance_exact(self.circuit, c, resistance, x) for c in caps]
                         for x in np.ravel(f).tolist()])
        for _ in range(2):
            got = admittances(self.circuit, caps, resistance, f)
            assert got.shape == np.broadcast_shapes(np.shape(caps), f.shape)
            assert got.tobytes() == want.tobytes()

    def test_array_is_read_only(self):
        ys = admittances(self.circuit, [1e-12, 2e-12], 0.5, F0)
        with pytest.raises(ValueError):
            ys[0] = 0j

    def test_errors_raise_every_call(self):
        w = 2.0 * np.pi * F0
        resonant = 2.0 / (w * w * self.circuit.patch_inductance)
        for _ in range(2):
            with pytest.raises(ResonanceError):
                admittances(self.circuit, [1e-12, resonant], 0.5, F0)
            with pytest.raises(ValueError, match="must be positive"):
                admittances(self.circuit, 1e-12, 0.5, [F0, -F0])
