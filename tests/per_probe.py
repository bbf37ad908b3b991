"""A stacked test oracle built from a per-probe reading.

The controller probes through ``oracle.batch(levels, codes, bits, rows)``
only: one voltage alphabet, an (L, n, 2) stack of (on, off) code pairs in
it, an (L, n, ceil(N/8)) stack of packed on bits (little bit order) and the
number of real rows of each link.  ``PerProbeOracle`` turns a plain function of one
probe's voltages into such an oracle, so a test can state its feedback one
configuration at a time.  ``Readings`` reads any batch as given readings,
``append`` records one link's block of them in a one-link trace through
``control._probe_many``, and ``link_blocks`` reads one link's blocks back.
"""

import numpy as np

from mediamatch.control import _probe_many


def voltages(levels, codes, bits, n) -> tuple:
    """The n per-element voltages of a (codes, bits) configuration over levels."""
    on = np.unpackbits(np.asarray(bits, dtype=np.uint8), count=n, bitorder="little")
    return tuple(np.asarray(levels, dtype=float)[np.where(on, *codes)].tolist())


def config(on, codes=(0, 1)) -> tuple:
    """The (codes, bits) configuration of an on/off row: on at codes[0],
    off at codes[1]."""
    return np.array(codes), np.packbits(np.asarray(on, dtype=bool), bitorder="little")


class PerProbeOracle:
    """Reads every real probe row of N-element links as ``read(voltages)``
    does, link by link and row by row in order; padding rows read NaN and
    are never passed to read."""

    def __init__(self, read, n):
        self.read, self.n = read, n

    def batch(self, levels, codes, bits, rows):
        rss = np.full(np.shape(codes)[:2], np.nan)
        for link, n in enumerate(rows):
            rss[link, :n] = [self.read(voltages(levels, c, b, self.n))
                             for c, b in zip(codes[link, :n], bits[link, :n])]
        return rss


class Readings:
    """A stacked oracle that reads any batch as the readings it was given."""

    def __init__(self, rss):
        self.rss = rss

    def batch(self, levels, codes, bits, rows):
        return self.rss


def append(trace, stage, codes, bits, rss) -> None:
    """Record one block of a one-link trace: rows of (n, 2) codes and
    (n, ceil(N/8)) bits over the trace's alphabet that read ``rss``."""
    _probe_many(Readings([rss]), trace, stage, np.asarray(codes)[None], np.asarray(bits)[None])


def link_blocks(trace, link=0) -> list[tuple]:
    """Link ``link``'s (stage, codes, bits, rss) blocks of a trace, padding
    left out."""
    return [(stage, codes[link, :rows[link]], bits[link, :rows[link]], rss[link, :rows[link]])
            for stage, codes, bits, rss, rows in trace.blocks]
