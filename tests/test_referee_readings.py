"""Unrounded readings of a 16 x 16 link against oracles.reference_link, bit for bit.

test_referee_link compares rendered outputs, whose 0.1 dB grid and %.10g
trace values hide a reading's last bits.  Here the grid is off and the
library's trace readings are compared as floats with the referee's probe
readings, so a probe summed by another rule than the referee's (the direct
sum for an on/off probe from ONOFF_MIN_ELEMENTS elements on, or the reverse)
shows.
"""

import numpy as np
import pytest

from mediamatch import harness
from mediamatch.control import DEFAULT_VOLTAGE_SET

import oracles
from per_probe import link_blocks
from test_referee_link import _expected, _scenario


def _recording(monkeypatch, module, name) -> list:
    """Every value module.name returns from now on, in call order."""
    real, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(real(*a, **kw)) or calls[-1])
    return calls


@pytest.mark.parametrize("voltage_set", [(30.0, 0.0), (30.0, 10.0, 0.0), DEFAULT_VOLTAGE_SET])
def test_16x16_readings_equal_the_referee(tmp_path, monkeypatch, voltage_set):
    """With two levels every probe reads the subset-sum tables; with three
    or seven, stages 1 and 3 read direct sums and stage 2 the tables."""
    scenario = _scenario(16, 16, 4, voltage_set, noise_db=-20.0, phase_jitter_std=0.3,
                         element_power=1 / 256, rss_quantization_db=None)
    runs = _recording(monkeypatch, harness, "run_controllers")
    referee = _recording(monkeypatch, oracles, "reference_link")
    harness.cmd_links(scenario, tmp_path, 1)
    _expected(scenario, "links", 1)
    (run,), ((want,),) = runs, referee
    got = np.concatenate([rss for *_, rss in link_blocks(run)])
    assert len(got) > 2 * scenario.n_elements
    assert got.tobytes() == np.array([reading for *_, reading in want["probes"]]).tobytes()
