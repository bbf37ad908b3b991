"""A stacked test oracle built from a per-probe reading.

The controller probes through ``oracle.batch(levels, codes, bits, rows)``
only: L alphabets, an (L, n, 2) stack of (on, off) code pairs, an
(L, n, ceil(N/8)) stack of packed on bits (little bit order) and the number
of real rows of each link.  ``PerProbeOracle`` turns a plain function of one
probe's voltages into such an oracle, so a test can state its feedback one
configuration at a time.
"""

import numpy as np


def voltages(levels, codes, bits, n) -> tuple:
    """The n per-element voltages of a (levels, codes, bits) configuration."""
    on = np.unpackbits(np.asarray(bits, dtype=np.uint8), count=n, bitorder="little")
    return tuple(np.asarray(levels, dtype=float)[np.where(on, *codes)].tolist())


def config(levels, on, codes=(0, 1)) -> tuple:
    """The (levels, codes, bits) configuration of an on/off row over levels."""
    bits = np.packbits(np.asarray(on, dtype=bool), bitorder="little")
    return tuple(levels), np.array(codes), bits


class PerProbeOracle:
    """Reads every real probe row of N-element links as ``read(voltages)``
    does, link by link and row by row in order; padding rows read NaN and
    are never passed to read."""

    def __init__(self, read, n):
        self.read, self.n = read, n

    def batch(self, levels, codes, bits, rows):
        rss = np.full(np.shape(codes)[:2], np.nan)
        for link, (link_levels, n) in enumerate(zip(levels, rows)):
            rss[link, :n] = [self.read(voltages(link_levels, c, b, self.n))
                             for c, b in zip(codes[link, :n], bits[link, :n])]
        return rss
