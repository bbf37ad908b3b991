"""Links run as batches: stacked channels and oracles, batch-invariant link
outputs, the bounded worker pool, the shared stage 1 of bench-controller and
``python -m mediamatch``.

A batch of L links goes through every controller stage at once: one (L, n, 2)
code stack over the run's voltage set and one (L, n, ceil(N/8)) bit stack per
stage, read by an oracle that holds L channels.  A link's CSV row, trace and channel dump must not
depend on which links share its batch, how the command cuts its links into
batches, or how many worker processes run them.
"""

import copy
import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mediamatch import harness
from mediamatch.channel import (ONOFF_MIN_ELEMENTS, ONOFF_ROWS, PROBE_BLOCK, ChannelStack,
                                FeedbackOracle, composite_channels, gains_db, onoff_channels,
                                rss_db, sample_channel)
from mediamatch.control import (DEFAULT_VOLTAGE_SET, brute_force_baseline, column_groups,
                                run_controllers)
from mediamatch.harness import cmd_backscatter, cmd_bench_controller, cmd_links, run_links
from mediamatch.scenario import (CHANNEL_STREAM, NOISE_STREAM, UPLINK_STREAM, VOTING_STREAM,
                                 default_water_scenario, link_stream, scenario_from_dict)

import oracles
import per_probe

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
VS = DEFAULT_VOLTAGE_SET
MODES = ("links", "backscatter", "bench-controller")


@functools.lru_cache(maxsize=None)
def responder():
    return default_water_scenario().responder()


def _bits(values) -> bytes:
    return np.ascontiguousarray(values).tobytes()


def _channels(n_links, n, jitter=0.0, seed=0):
    return [sample_channel(seed + k, n, env_power=0.25, element_power=1.0 / n,
                           responder=responder(), phase_jitter_std=jitter)
            for k in range(n_links)]


def _positions(n_links, shared):
    """The positions in VS each link's codes take: the whole voltage set for
    every link, a different on/off pair per link, or ("mixed") on/off pairs
    and the whole voltage set in turn."""
    pairs = [(k % 3, 3 + k % 4) for k in range(n_links)]
    if shared == "mixed":
        return [range(len(VS)) if k % 2 else pairs[k] for k in range(n_links)]
    return [range(len(VS))] * n_links if shared else pairs


def _probes(rng, positions, n_links, n_rows, n):
    """Random (codes, bits) stacks of n_links links' n_rows rows of n
    elements, link l's codes drawn from positions[l] (from range(positions)
    for an int)."""
    if isinstance(positions, int):
        positions = [range(positions)] * n_links
    codes = np.stack([rng.choice(list(p), (n_rows, 2)) for p in positions]).astype(np.uint8)
    on = rng.integers(0, 2, (n_links, n_rows, n)).astype(bool)
    return codes, np.packbits(on, axis=2, bitorder="little")


class TestStackedComposite:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65])
    @pytest.mark.parametrize("n_links,n_rows", [(1, 1), (1, 2), (2, 1), (3, 7), (5, 129)])
    @pytest.mark.parametrize("jitter", [0.0, 0.4])
    @pytest.mark.parametrize("shared", [True, False, "mixed"])
    def test_rows_equal_one_link_calls(self, n, n_links, n_rows, jitter, shared):
        """Every (link, probe) entry of a stacked call equals the link's own
        one-link call bit for bit, lone rows, odd element counts and links
        whose codes take two positions or the whole set included."""
        channels = _channels(n_links, n, jitter)
        codes, bits = _probes(np.random.default_rng(n * n_rows), _positions(n_links, shared),
                              n_links, n_rows, n)
        got = composite_channels(ChannelStack(channels), VS, codes, bits)
        want = [composite_channels(ChannelStack(c), VS, cs[None], bs[None])[0]
                for c, cs, bs in zip(channels, codes, bits)]
        assert _bits(got) == _bits(np.array(want))

    @pytest.mark.parametrize("n_links,n_rows", [(1, PROBE_BLOCK + 1), (PROBE_BLOCK + 1, 1),
                                                (2, PROBE_BLOCK + 1)])
    def test_blocks_ending_on_a_single_row(self, n_links, n_rows):
        """At N = 1024 a block holds PROBE_BLOCK rows of one link, or
        PROBE_BLOCK one-row links: the row past them is a block of its own."""
        channels = _channels(n_links, 1024)
        codes, bits = _probes(np.random.default_rng(n_links), len(VS), n_links, n_rows, 1024)
        got = composite_channels(ChannelStack(channels), VS, codes, bits)
        table = responder().table(VS)
        index = np.where(np.unpackbits(bits, axis=2, bitorder="little"), codes[..., :1],
                         codes[..., 1:])  # the level of every element
        want = [[c.h_env + np.sum(table[row] * c.h_elements) for row in rows]
                for c, rows in zip(channels, index)]
        assert _bits(got) == _bits(np.array(want))

    def test_out_of_range_index_rejected(self):
        """A code past the alphabet raises in any link, and so does a
        negative one."""
        stack, bits = ChannelStack(_channels(2, 3)), np.zeros((2, 2, 1), np.uint8)
        for link in (0, 1):
            codes = np.zeros((2, 2, 2), np.uint8)
            codes[link, 1, 1] = 2
            with pytest.raises(IndexError):
                composite_channels(stack, (30.0, 0.0), codes, bits)
        with pytest.raises(IndexError):  # a lone row must not wrap a negative code
            composite_channels(ChannelStack(_channels(1, 3)), VS, np.array([[[-1, 0]]]),
                               bits[:1, :1])

    def test_mixed_stacks_rejected(self):
        with pytest.raises(ValueError):
            ChannelStack(_channels(1, 3) + _channels(1, 4))
        with pytest.raises(ValueError):
            ChannelStack(_channels(1, 3) + _channels(1, 3, jitter=0.3))


class TestOnoffTables:
    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.sampled_from([256, 257, 263, 1024]), st.integers(256, 1100)),
           n_links=st.integers(1, 3), n_positions=st.sampled_from([1, 2]),
           jitter=st.sampled_from([0.0, 0.3]), env_power=st.sampled_from([0.0, 0.25]),
           n_rows=st.sampled_from([1, 2, 5, ONOFF_ROWS + 1, 2 * ONOFF_ROWS + 3]),
           seed=st.integers(0, 2 ** 31))
    def test_values_follow_the_table_rule(self, n, n_links, n_positions, jitter, env_power,
                                          n_rows, seed):
        """Every value equals the referee's bit for bit, in every block: rows
        are drawn from three per link, so rows past ONOFF_ROWS repeat earlier
        ones and are checked too.  Each link's codes take one or two
        positions of the voltage set, the referee's s1 being the response at
        the second one drawn, whichever the kernel labels 1."""
        rng = np.random.default_rng(seed)
        channels = [sample_channel(seed + k, n, env_power=env_power, element_power=1.0 / n,
                                   responder=responder(), phase_jitter_std=jitter)
                    for k in range(n_links)]
        positions = [rng.choice(len(VS), n_positions, replace=False) for _ in channels]
        codes, bits = _probes(rng, positions, n_links, 3, n)
        pick = rng.integers(0, 3, n_rows)
        got = onoff_channels(ChannelStack(channels), VS, codes[:, pick], bits[:, pick])
        s = responder().table(VS)
        for c, p, link_codes, link_bits, values in zip(channels, positions, codes, bits, got):
            want = [oracles.reference_onoff_channel(
                c.h_env, c.h_elements, c.phase_jitter, s[p[0]], s[p[-1]],
                np.where(np.unpackbits(b, count=n, bitorder="little"), *cs) == p[-1])
                for cs, b in zip(link_codes, link_bits)]
            assert _bits(values) == _bits(np.array(want)[pick])

    @pytest.mark.parametrize("n", [ONOFF_MIN_ELEMENTS - 1, ONOFF_MIN_ELEMENTS])
    def test_oracle_routes_each_link(self, n):
        """In one call over the seven-level set, from ONOFF_MIN_ELEMENTS on,
        the oracle reads a link whose code pairs take two positions (link 0)
        or one (link 2) from the tables and one whose pairs take three (link
        1) by composite_channels, which onoff_channels refuses; below it
        every link takes composite_channels.  Each link reads bit for bit
        what it reads alone."""
        channels = _channels(3, n)
        codes, bits = _probes(np.random.default_rng(n), [(6, 0), (1, 3, 5), (4,)], 3, 8, n)
        codes[1, :2] = [(1, 5), (3, 3)]  # link 1 takes all three positions

        def read(kernel, k):
            h = kernel(ChannelStack(channels[k]), VS, codes[k, None], bits[k, None])[0]
            return rss_db(np.hypot(h.real, h.imag), None)

        got = FeedbackOracle(channels, quantization_db=None).batch(VS, codes, bits)
        alone = [FeedbackOracle(c, quantization_db=None).batch(VS, codes[k, None], bits[k, None])
                 for k, c in enumerate(channels)]
        assert _bits(got) == _bits(np.concatenate(alone))
        tables = n >= ONOFF_MIN_ELEMENTS
        want = [read(onoff_channels if tables and k != 1 else composite_channels, k)
                for k in range(3)]
        assert _bits(got) == _bits(np.array(want))
        if tables:  # the kernels differ in last bits here, so the route shows
            assert _bits(want[0]) != _bits(read(composite_channels, 0))
        with pytest.raises(ValueError, match="at most two positions"):
            onoff_channels(ChannelStack(channels), VS, codes, bits)

    def test_out_of_range_index_rejected(self):
        """onoff_channels checks codes as composite_channels does; a code of 2
        under two levels raises, though it takes only two positions."""
        stack, bits = ChannelStack(_channels(2, 3)), np.zeros((2, 2, 1), np.uint8)
        for link in (0, 1):
            codes = np.zeros((2, 2, 2), np.uint8)
            codes[link, 1, 1] = 2
            with pytest.raises(IndexError):
                onoff_channels(stack, (30.0, 0.0), codes, bits)
        with pytest.raises(IndexError):
            onoff_channels(ChannelStack(_channels(1, 3)), VS, np.array([[[-1, 0]]]), bits[:1, :1])
        oracle, codes = FeedbackOracle(_channels(1, ONOFF_MIN_ELEMENTS)), np.zeros(
            (1, 1, 2), np.uint8)
        codes[0, 0, 1] = 2
        with pytest.raises(IndexError, match="codes must lie"):
            oracle.batch((30.0, 0.0), codes, np.zeros((1, 1, ONOFF_MIN_ELEMENTS // 8), np.uint8))


class TestStackedOracles:
    @pytest.mark.parametrize("noise_db", [None, -10.0])
    def test_feedback_equals_one_oracle_per_link(self, noise_db):
        """A stacked oracle reads each link as that link's own oracle does,
        noise drawn from its seed in probe order; padding rows are not
        counted and draw no noise, so a later batch still reads alike."""
        channels, seeds = _channels(4, 6), [11, 12, 13, 14]
        stacked = FeedbackOracle(channels, noise_db=noise_db, noise_seed=seeds)
        alone = [FeedbackOracle(c, noise_db=noise_db, noise_seed=s)
                 for c, s in zip(channels, seeds)]
        rng = np.random.default_rng(0)
        for rows in ([5, 5, 5, 5], [5, 2, 4, 1], [3, 3, 3, 3]):
            codes, bits = _probes(rng, len(VS), 4, 5, 6)
            got = stacked.batch(VS, codes, bits, rows)
            for k, (oracle, n) in enumerate(zip(alone, rows)):
                assert _bits(got[k, :n]) == _bits(
                    oracle.batch(VS, codes[None, k, :n], bits[None, k, :n])[0])

    def test_noise_seeds_of_another_length_rejected(self):
        """A sequence of noise seeds gives one per link: one of another
        length is refused, where a zip would leave links without noise; a
        bare seed serves every link."""
        for seeds in ([1], [1, 2], [1, 2, 3, 4]):
            with pytest.raises(ValueError, match=f"{len(seeds)} noise seeds for 3 links"):
                FeedbackOracle(_channels(3, 4), noise_db=-20.0, noise_seed=seeds)
        codes, bits = _probes(np.random.default_rng(2), len(VS), 3, 5, 4)
        got = FeedbackOracle(_channels(3, 4), noise_db=-20.0, noise_seed=1).batch(VS, codes, bits)
        for k, channel in enumerate(_channels(3, 4)):
            want = FeedbackOracle(channel, noise_db=-20.0, noise_seed=1).batch(
                VS, codes[None, k], bits[None, k])
            assert _bits(got[k]) == _bits(want[0])

    def test_copy_counts_on_its_own(self):
        """After copy.copy, the original and the copy each read what a fresh
        oracle reads after the same batches: the copy goes on from the
        original's noise state, and neither advances the other's."""
        def fresh():
            return FeedbackOracle(_channels(2, 3), noise_db=0.0, noise_seed=[1, 2])

        rng = np.random.default_rng(3)
        probes = [_probes(rng, len(VS), 2, 4, 3) for _ in range(3)]
        oracle = fresh()
        oracle.batch(VS, *probes[0])
        fork = copy.copy(oracle)
        for reader, k in ((fork, 1), (oracle, 2)):
            replay = fresh()
            replay.batch(VS, *probes[0])
            got, want = (o.batch(VS, *probes[k]) for o in (reader, replay))
            assert _bits(got) == _bits(want)

    def test_product_equals_one_oracle_per_link(self):
        """Two-way, a stacked oracle reads each link as its own does, and a
        reciprocal one (the downlinks again as the uplinks) reads what the
        same channels passed as a separate uplink give."""
        down, up = _channels(3, 5), _channels(3, 5, seed=7)
        codes, bits = _probes(np.random.default_rng(1), _positions(3, False), 3, 9, 5)
        got = FeedbackOracle(down, up).batch(VS, codes, bits)
        for k in range(3):
            want = FeedbackOracle(down[k], up[k]).batch(VS, codes[None, k], bits[None, k])[0]
            assert _bits(got[k]) == _bits(want)
        reciprocal = FeedbackOracle(down, down).batch(VS, codes, bits)
        assert _bits(reciprocal) == _bits(np.stack([
            FeedbackOracle(d, d).batch(VS, cs[None], bs[None])[0]
            for d, cs, bs in zip(down, codes, bits)]))
        assert _bits(reciprocal) == _bits(
            FeedbackOracle(down, list(down)).batch(VS, codes, bits))

    @pytest.mark.parametrize("voltages", [VS, (30.0, 15.0, 0.0)])
    def test_controller_runs_equal_one_link_runs(self, voltages):
        """run_controllers over a stack gives each link the trace, best
        readings and configuration a one-link run gives it alone, noise
        included, though stage 3 pads the links with fewer moves (and the
        oracle reads that padding as +inf)."""
        channels, seeds = _channels(12, 9, jitter=0.2), list(range(30, 42))
        links = run_controllers(
            _HighPadding(FeedbackOracle(channels, noise_db=-15.0, noise_seed=seeds)),
            9, voltages, rng_seeds=seeds)
        assert len(set(links.probes(3))) > 1
        texts, bests = links.serialize(), links.best()
        for k, (channel, seed) in enumerate(zip(channels, seeds)):
            alone = run_controllers(FeedbackOracle(channel, noise_db=-15.0, noise_seed=seed),
                                    9, voltages, rng_seeds=[seed])
            assert per_probe.voltages(voltages, *links.configs()[k], 9) == \
                per_probe.voltages(voltages, *alone.configs()[0], 9)
            assert [texts[k]] == alone.serialize()
            assert _bits(bests[k][1]) == _bits(alone.best()[0][1])


class _HighPadding:
    """A stacked oracle that reads every padding row as +inf."""

    def __init__(self, oracle):
        self.oracle = oracle

    def batch(self, levels, codes, bits, rows=None):
        rss = self.oracle.batch(levels, codes, bits, rows)
        if rows is not None:
            rss[np.arange(rss.shape[-1]) >= np.asarray(rows)[:, None]] = np.inf
        return rss


def _scenario(variant: str):
    raw = json.loads((SCENARIOS / "water_links.json").read_text())
    raw["name"] = variant
    channel = raw["channel"]
    if variant == "1x1":
        raw.update(array_rows=1, array_cols=1)
    elif variant == "3x5-noise":
        raw.update(array_rows=3, array_cols=5)
        channel.update(noise_db=-10.0, rss_quantization_db=None, element_power=1.0 / 15)
    elif variant == "4x4-uplink":
        raw.update(array_rows=4, array_cols=4)
        channel.update(reciprocal_uplink=False, phase_jitter_std=0.4, element_power=1.0 / 16)
    elif variant == "silent":
        raw.update(array_rows=2, array_cols=3)
        channel.update(env_power=0.0, element_power=0.0)
    return scenario_from_dict(raw)


VARIANTS = ("8x8", "1x1", "3x5-noise", "4x4-uplink", "silent")


@functools.lru_cache(maxsize=None)
def _setup(variant: str):
    scenario = _scenario(variant)
    return scenario, scenario.responder()


def _run(variant: str, mode: str, links: range) -> tuple:
    """run_links over `links` in a fresh directory: its rows as CSV text (a
    NaN equals a NaN there) and every file it wrote, by path."""
    scenario, resp = _setup(variant)
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_links(scenario, resp, links, mode, Path(tmp))
        files = {p.relative_to(tmp).as_posix(): p.read_bytes()
                 for p in Path(tmp).rglob("*") if p.is_file()}
    return oracles.row_csv_text("row", rows), files


@functools.lru_cache(maxsize=None)
def _alone(variant: str, mode: str, link: int) -> tuple:
    return _run(variant, mode, range(link, link + 1))


class TestBatchInvariance:
    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(VARIANTS), mode=st.sampled_from(MODES),
           n_links=st.integers(1, 7), cuts=st.sets(st.integers(1, 6), max_size=3))
    def test_link_outputs_ignore_the_batch(self, variant, mode, n_links, cuts):
        """Link i's row and the files it writes are byte-identical alone and
        in any contiguous split of links 0..n_links-1 into batches, and a
        batch writes no file but its links' own."""
        bounds = [0] + sorted(c for c in cuts if c < n_links) + [n_links]
        for lo, hi in zip(bounds, bounds[1:]):
            rows, written = _run(variant, mode, range(lo, hi))
            links = [_alone(variant, mode, link) for link in range(lo, hi)]
            for k, (row, _) in enumerate(links):
                assert rows.split("\n")[1 + k] == row.split("\n")[1]
            assert written == {name: data for _, files in links for name, data in files.items()}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_parallel_matches_serial(self, tmp_path, variant):
        """Every file of every link command is the same with one process and
        with two workers, whatever the array, noise or uplink."""
        scenario = _scenario(variant)
        for command in (cmd_links, cmd_backscatter, cmd_bench_controller):
            trees = []
            for parallel in (1, 2):
                out = tmp_path / f"{command.__name__}-{parallel}"
                command(scenario, out, 5, parallel=parallel)
                trees.append({p.relative_to(out).as_posix(): p.read_text().replace(str(out), "")
                              for p in sorted(out.rglob("*")) if p.is_file()})
            assert trees[0] == trees[1], command.__name__

    def test_200_links_parallel_matches_serial(self, tmp_path):
        scenario = _scenario("8x8")
        trees = []
        for parallel in (1, 2):
            out = tmp_path / str(parallel)
            cmd_links(scenario, out, 200, parallel=parallel)
            trees.append({p.relative_to(out).as_posix(): p.read_bytes()
                          for p in sorted(out.rglob("*.csv"))})
        assert len(trees[0]) == 401 and trees[0] == trees[1]


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and the arguments
    of every task, and runs them inline."""

    made = []

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers, self.tasks = max_workers, []
        _InlinePool.made.append(self)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        tasks = list(zip(*iterables))
        self.tasks += tasks
        return iter([fn(*task) for task in tasks])


class TestWorkerPool:
    @pytest.mark.parametrize("n_links,parallel,workers,tasks", [
        (2, 100000, 2, 2), (3, 2, 2, 2), (9, 4, 4, 4), (40, 2, 2, 3), (1, 8, None, 0)])
    def test_at_most_one_worker_per_batch(self, tmp_path, monkeypatch,
                                          n_links, parallel, workers, tasks):
        """The pool starts min(parallel, batches) workers and gets one task
        per batch, _worker_links(batch, mode, out_dir), batches in order; a
        single batch runs without a pool."""
        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        monkeypatch.setattr(harness, "_worker_state", None)
        monkeypatch.setattr(_InlinePool, "made", [])
        scenario = _scenario("8x8")
        cmd_links(scenario, tmp_path, n_links, parallel=parallel)
        assert [(p.max_workers, len(p.tasks)) for p in _InlinePool.made] == (
            [(workers, tasks)] if workers else [])
        for pool in _InlinePool.made:
            assert [i for batch, _, _ in pool.tasks for i in batch] == list(range(n_links))
            assert {(mode, out) for _, mode, out in pool.tasks} == {("links", tmp_path)}
        rows = (tmp_path / "links.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(n_links))

    def test_batches_cover_the_links_in_order(self):
        scenario = _scenario("8x8")
        for n_links in range(0, 40):
            for parallel in (1, 2, 3, 100000):
                batches = harness._batches(scenario, n_links, parallel)
                assert [i for b in batches for i in b] == list(range(n_links))
                assert all(len(b) <= harness.LINK_BATCH // (2 * 64 * 64) for b in batches)
                assert len(batches) == max(-(-n_links // 16), min(parallel, n_links))


class TestSharedStage1:
    def test_variants_share_stage1_and_match_fresh_runs(self, tmp_path, monkeypatch):
        """With noise on, the three bench-controller variants hold equal
        stage-1 blocks, and every row equals what three fresh one-link
        oracles (each from probe 0) give."""
        raw = json.loads((SCENARIOS / "controller_bench.json").read_text())
        raw["channel"]["noise_db"] = -12.0
        scenario = scenario_from_dict(raw)
        runs = []
        real = harness.run_controllers
        monkeypatch.setattr(harness, "run_controllers",
                            lambda *a, **kw: runs.append(real(*a, **kw)) or runs[-1])
        cmd_bench_controller(scenario, tmp_path, 3)
        assert len(runs) == 3
        first = [run.blocks[0] for run in runs]
        assert all(b[0] == 1 and b[4] == first[0][4] for b in first)
        assert all(_bits(b[k]) == _bits(first[0][k]) for b in first for k in (1, 2, 3))

        resp, n, vs = scenario.responder(), scenario.n_elements, scenario.voltage_set
        cols = column_groups(scenario.rows, scenario.cols)
        rows = []
        for i in range(3):
            channel = scenario.sample_link_channel(
                link_stream(scenario.seed, i, CHANNEL_STREAM), resp)
            voting = [link_stream(scenario.seed, i, VOTING_STREAM)]

            def fresh():
                return FeedbackOracle(channel, noise_db=-12.0,
                                      quantization_db=scenario.channel.rss_quantization_db,
                                      noise_seed=link_stream(scenario.seed, i, NOISE_STREAM))

            runs = [run_controllers(fresh(), n, vs, rng_seeds=voting),
                    run_controllers(fresh(), n, vs, harness.COLUMN_VOTING_CONFIGS, voting, cols),
                    run_controllers(fresh(), n, vs, groups=cols, stage2=brute_force_baseline)]
            configs = [run.configs()[0] for run in runs]
            rows.append((i, scenario.seed, *gains_db([channel], vs, configs)[0].tolist(),
                         *(run.probes()[0] for run in runs)))
        header = harness._LINK_COMMANDS["bench-controller"].header
        assert (tmp_path / "bench_controller.csv").read_text() == oracles.row_csv_text(header, rows)


class TestLinkStreams:
    def test_former_offset_collisions_draw_apart(self):
        """Streams were once integer offsets, seed * 10^6 + link for the
        channel, + 500000 for voting and + 10000019 for the uplink, so link
        i + 500000's channel was link i's voting stream, seed s + 1's link i
        was seed s's link i + 10^6 and an uplink was seed s + 10's link
        i + 19.  Over those (seed, link) pairs, every stream's first words
        differ pairwise."""
        pairs = [(seed, link) for seed in (3, 4, 13)
                 for link in (7, 26, 500007, 1000007)]
        first = [tuple(np.random.PCG64(link_stream(seed, link, stream)).random_raw(2))
                 for seed, link in pairs
                 for stream in (CHANNEL_STREAM, UPLINK_STREAM, VOTING_STREAM, NOISE_STREAM)]
        assert len(first) == 4 * len(pairs) == len(set(first))

    def test_streams_are_numbered_seed_sequences(self):
        """The README's stream numbers: channel 0, uplink 1, voting 2, noise 3."""
        assert [link_stream(5, 9, k).entropy for k in (
            CHANNEL_STREAM, UPLINK_STREAM, VOTING_STREAM, NOISE_STREAM)] == [
            [5, 9, 0], [5, 9, 1], [5, 9, 2], [5, 9, 3]]


class TestModuleEntryPoint:
    def _run(self, *args):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        return subprocess.run([sys.executable, "-m", "mediamatch", *args], cwd=REPO, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_help(self):
        done = self._run("--help")
        assert done.returncode == 0
        assert "bench-controller" in done.stdout

    def test_missing_scenario_file(self, tmp_path):
        done = self._run("links", "--scenario", str(tmp_path / "absent.json"),
                         "--out", str(tmp_path / "out"))
        assert done.returncode == 2
        assert done.stderr.startswith("config error:")
