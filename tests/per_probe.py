"""A stacked test oracle built from a per-probe reading.

The controller probes through ``oracle.batch(levels, index, rows)`` only: L
alphabets, an (L, n, N) index stack and the number of real rows of each link.
``PerProbeOracle`` turns a plain function of one probe's voltages into such
an oracle, so a test can state its feedback one configuration at a time.
"""

import numpy as np


def voltages(levels, row) -> tuple:
    """The per-element voltages of a (levels, index row) configuration."""
    return tuple(np.asarray(levels, dtype=float)[row].tolist())


class PerProbeOracle:
    """Reads every real probe row as ``read(voltages)`` does, link by link and
    row by row in order; padding rows read NaN and are never passed to read."""

    def __init__(self, read):
        self.read = read

    def batch(self, levels, index, rows):
        rss = np.full(index.shape[:2], np.nan)
        for link, (link_levels, n) in enumerate(zip(levels, rows)):
            rss[link, :n] = [self.read(voltages(link_levels, row)) for row in index[link, :n]]
        return rss
