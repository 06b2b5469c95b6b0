"""Seeded samplers: determinism, golden values, law checks."""

import itertools
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exporder.sampling as sampling
from exporder.distributions import GammaParams
from exporder.laplace import OrderStatParams
from exporder.sampling import (
    SampleBatch,
    SeededStream,
    estimate_race,
    race_chunk_summary,
    sample_normalized_spacings,
    sample_orderstat_direct,
    sample_orderstat_representation,
    sample_race_indicators,
)

GOLDEN_STREAM = SeededStream(20170807)

# first values produced by PCG64(SeedSequence(20170807, spawn_key=(0,)));
# frozen at build time, regenerate if the generator ever changes
GOLDEN_EXPONENTIAL = [1.709460078528015, 0.9249271358328834, 0.3398710763060321]
GOLDEN_DIRECT_32 = [0.9249271358328834, 0.7275452336692221, 0.5981369693923443]
GOLDEN_REPR_32 = [1.1630390845416354, 0.41245061604275673, 0.7923747415188678]
GOLDEN_SPACING_32 = [1.1701121190537027, 0.33854647115688885, 0.9486320363027761]
GOLDEN_ZN_3 = [0.6108477898599052, 0.44110393875232723, 1.0275536430910164]


def _exponentials(stream, count):
    """count unit exponentials by the samplers' inverse transform of the stream's uniforms."""
    return -np.log1p(-stream.generator().random(count))


def _zn(stream, n, count):
    """The shifted maximum Z_n = X_(n:n) - ln n, from the direct sampler at k = n."""
    batch = sample_orderstat_direct(stream, OrderStatParams(n, n), count)
    return replace(batch, values=batch.values - np.log(n))


class TestSeededStream:
    def test_determinism_across_instances(self):
        a = _exponentials(SeededStream(123, 45), 1000)
        b = _exponentials(SeededStream(123, 45), 1000)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = _exponentials(SeededStream(123, 0), 100)
        b = _exponentials(SeededStream(123, 1), 100)
        assert not np.array_equal(a, b)

    def test_substream_offsets(self):
        s = SeededStream(9, 4)
        assert s.substream(3) == SeededStream(9, 7)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SeededStream(-1)
        with pytest.raises(ValueError):
            SeededStream(0, 2**64)
        with pytest.raises(ValueError):
            SeededStream(True)
        with pytest.raises(ValueError):
            SeededStream(1, True)


class TestGoldenValues:
    def test_exponential(self):
        batch = sample_orderstat_direct(GOLDEN_STREAM, OrderStatParams(1, 1), 3)
        assert batch.values.tolist() == GOLDEN_EXPONENTIAL

    def test_direct(self):
        batch = sample_orderstat_direct(GOLDEN_STREAM, OrderStatParams(3, 2), 3)
        assert batch.values.tolist() == GOLDEN_DIRECT_32

    def test_representation(self):
        batch = sample_orderstat_representation(GOLDEN_STREAM, OrderStatParams(3, 2), 3)
        assert batch.values.tolist() == GOLDEN_REPR_32

    def test_spacing(self):
        batch = sample_normalized_spacings(GOLDEN_STREAM, 3, 2, 3)
        assert batch.values.tolist() == GOLDEN_SPACING_32

    def test_zn(self):
        assert _zn(GOLDEN_STREAM, 3, 3).values.tolist() == GOLDEN_ZN_3


class TestExponentialSampler:
    """The unit exponential: the direct sampler at n = k = 1."""

    UNIT = OrderStatParams(1, 1)

    def test_nonnegative(self):
        batch = sample_orderstat_direct(SeededStream(5), self.UNIT, 10_000)
        assert np.all(batch.values >= 0)

    def test_mean_within_band(self):
        batch = sample_orderstat_direct(SeededStream(31), self.UNIT, 10**6)
        assert abs(batch.mean() - 1.0) < 0.004  # 4 sigma / sqrt(N)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_orderstat_direct(SeededStream(1), self.UNIT, 0)
        with pytest.raises(ValueError):
            sample_orderstat_direct(SeededStream(1), self.UNIT, True)


class TestOrderStatSamplers:
    def test_degenerate_case_equals_exponential(self):
        """n=k=1 consumes the stream identically to the plain inverse transform."""
        e = _exponentials(SeededStream(99), 1000)
        d = sample_orderstat_direct(SeededStream(99), OrderStatParams(1, 1), 1000)
        assert np.array_equal(e, d.values)

    def test_direct_mean_max_of_three(self):
        batch = sample_orderstat_direct(SeededStream(1, 7), OrderStatParams(3, 3), 10**6)
        sigma = math.sqrt(49 / 36)
        assert abs(batch.mean() - 11 / 6) < 4 * sigma / 1000

    def test_direct_mean_min_of_five(self):
        batch = sample_orderstat_direct(SeededStream(1, 8), OrderStatParams(5, 1), 10**6)
        assert abs(batch.mean() - 0.2) < 4 * 0.2 / 1000

    def test_representation_single_summand(self):
        e = _exponentials(SeededStream(77), 500)
        r = sample_orderstat_representation(SeededStream(77), OrderStatParams(1, 1), 500)
        assert np.array_equal(e, r.values)

    def test_representation_variance(self):
        batch = sample_orderstat_representation(
            SeededStream(2, 9), OrderStatParams(4, 4), 10**6
        )
        target = float(sum(Fraction(1, j * j) for j in range(1, 5)))
        assert abs(batch.variance() - target) / target < 0.05

    def test_direct_keeps_one_block_alive(self, monkeypatch):
        """Over 100 tiles only the kept column of each tile stays in memory."""
        monkeypatch.setattr(sampling, "_TILE_ROWS", 1000)
        tracemalloc.start()
        try:
            sample_orderstat_direct(SeededStream(7), OrderStatParams(6, 3), 10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 0.76 MiB output and one 47 KiB tile with its network buffer;
        # pinning every tile would hold 4.6 MiB
        assert peak < 2 * 2**20

    def test_metadata(self):
        batch = sample_orderstat_direct(SeededStream(3), OrderStatParams(4, 2), 10)
        assert (batch.n, batch.k, batch.sampler_id) == (4, 2, "direct_sort")
        assert len(batch) == 10


CEILING = sampling._NETWORK_MAX_N


def _sampler_cols(n):
    """Every cols argument the samplers pass for rows of length n."""
    return [(k - 1,) for k in range(1, n + 1)] + [(k - 2, k - 1) for k in range(2, n + 1)]


def _old_sorted_blocks(stream, n, count, extra=0):
    """The sort-then-column path the selection network replaced, block by block."""
    gen = stream.generator()
    rows_per = max(1, sampling._CHUNK_CELLS // (n + extra))
    for start in range(0, count, rows_per):
        rows = min(rows_per, count - start)
        block = -np.log1p(-gen.random((rows, n)))
        block.sort(axis=1)
        yield gen, rows, block


def _select(block, cols, spare=0):
    """_select_columns on one tile, into a new out, with a network buffer spare rows too long."""
    rows, n = block.shape
    out = np.empty((len(cols), rows))
    got = sampling._select_columns(block, cols, out, sampling._network_buffer(n, rows + spare))
    assert got is out
    return got


class TestSelectColumns:
    @pytest.mark.parametrize("n", range(1, CEILING + 1))
    def test_zero_one_principle(self, n):
        """The pruned network selects right on all 2^n 0-1 rows, so on every input."""
        block = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
        expected = np.sort(block, axis=1)
        for cols in _sampler_cols(n):
            assert np.array_equal(_select(block, cols), expected[:, cols].T), cols

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, CEILING + 2), rows=st.integers(1, 40),
           spare=st.integers(0, 16), ties=st.booleans())
    def test_equals_sorted_columns(self, data, n, rows, spare, ties):
        values = st.sampled_from([0.0, 0.5, 1.0]) if ties else st.floats(0.0, 1e300)
        flat = data.draw(st.lists(values, min_size=rows * n, max_size=rows * n))
        k = data.draw(st.integers(1, n))
        cols = (k - 1,) if k == 1 or data.draw(st.booleans()) else (k - 2, k - 1)
        block = np.array(flat).reshape(rows, n)
        original = block.copy()
        got = _select(block, cols, spare)
        expected = np.sort(original, axis=1)
        assert got.shape == (len(cols), rows)
        assert got.tobytes() == np.ascontiguousarray(expected[:, cols].T).tobytes()
        # the network only reads the block; the row sort above the ceiling sorts it in place
        assert block.tobytes() == (original if n <= CEILING else expected).tobytes()

    @pytest.mark.parametrize("n", [1, 6, CEILING])
    def test_block_longer_than_buffer_raises(self, n):
        """A tile with more rows than the network buffer raises; no row is dropped."""
        block = SeededStream(4).generator().random((9, n))
        out = np.zeros((1, 9))
        with pytest.raises(ValueError):
            sampling._select_columns(block, (n - 1,), out, sampling._network_buffer(n, 8))
        assert not out.any()

    @pytest.mark.parametrize("n", [CEILING, CEILING + 1])
    def test_samplers_match_sort_then_column(self, n, monkeypatch):
        """Over several chunks and tiles, every selected draw is the sorted one, bit for bit."""
        monkeypatch.setattr(sampling, "_CHUNK_CELLS", 50 * n)
        monkeypatch.setattr(sampling, "_TILE_ROWS", 16)
        stream, count = SeededStream(13, 5), 170
        g = GammaParams(Fraction(3, 2), 2)
        for k in range(1, n + 1):
            p = OrderStatParams(n, k)
            blocks = [b for _, _, b in _old_sorted_blocks(stream, n, count)]
            direct = np.concatenate([b[:, k - 1] for b in blocks])
            below = np.concatenate([b[:, k - 2] if k > 1 else np.zeros(len(b)) for b in blocks])
            race = []
            for gen, rows, b in _old_sorted_blocks(stream, n, count, extra=g.r):
                x = -np.log1p(-gen.random((rows, g.r)))
                race.append((x.sum(axis=1) / 1.5 > b[:, k - 1]).astype(np.float64))
            assert sample_orderstat_direct(stream, p, count).values.tobytes() == direct.tobytes()
            spacing = sample_normalized_spacings(stream, n, k, count).values
            assert spacing.tobytes() == ((n - k + 1) * (direct - below)).tobytes()
            race_values = sample_race_indicators(stream, p, g, count).values
            assert race_values.tobytes() == np.concatenate(race).tobytes()


TILE = sampling._TILE_ROWS


def _float_run(start: float, length: int) -> np.ndarray:
    """length consecutive doubles from start upwards."""
    bits = np.array([start]).view(np.int64)[0]
    return (bits + np.arange(length, dtype=np.int64)).view(np.float64)


class TestTiledDraws:
    def test_transform_is_monotone(self):
        """-log1p(-u) never decreases, so selecting on uniforms selects the same draws."""
        runs = [np.sort(SeededStream(3).generator().random(10**6)), _float_run(0.0, 1 << 16)]
        runs += [_float_run(1.0 - (1 << 16) * 2.0**-53, 1 << 16)]  # up to the last float below 1
        runs += [_float_run(2.0**-e - (1 << 15) * 2.0**(-e - 53), 1 << 16) for e in range(1, 61)]
        for u in runs:
            assert np.all(np.diff(sampling._to_exponential(u.copy())) >= 0)

    @pytest.mark.parametrize("count", [1, TILE - 1, TILE, TILE + 1])
    def test_tiles_are_one_draw(self, count):
        stream, n = SeededStream(9, 4), 3
        tiled = [(s, u.copy()) for s, u in sampling._uniform_tiles(stream.generator(), n, count)]
        assert [start for start, _ in tiled] == list(range(0, count, TILE))
        tiles = [u for _, u in tiled]
        assert max(len(u) for u in tiles) <= TILE
        expected = stream.generator().random((count, n))
        assert np.concatenate(tiles).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "sample",
        [lambda: sample_orderstat_direct(SeededStream(5, 4), OrderStatParams(1000, 500), 10**5)],
        ids=["direct"],
    )
    def test_wide_rows_keep_tiles_small(self, sample):
        """At n = 1000 a tile holds no more values than one at the network ceiling."""
        tracemalloc.start()
        try:
            sample()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 0.76 MiB output and one 1.5 MiB tile, plus ~0.8 MiB on a first
        # call in a fresh process; _TILE_ROWS rows of 1000 values would hold 125 MiB
        assert peak < 4 * 2**20

    def test_representation_equals_block_sum(self, monkeypatch):
        """For k = 1..12 and over many tiles, bit for bit the whole-block sum."""
        monkeypatch.setattr(sampling, "_TILE_ROWS", 64)
        stream, n, count = SeededStream(23, 1), 12, 1000
        for k in range(1, n + 1):
            e = -np.log1p(-stream.generator().random((count, k)))
            e /= np.arange(n - k + 1, n + 1, dtype=np.float64)
            got = sample_orderstat_representation(stream, OrderStatParams(n, k), count).values
            assert got.tobytes() == e.sum(axis=1).tobytes(), k

    def test_race_gamma_sums_equal_block_sum(self, monkeypatch):
        """For r = 1..12 and over many tiles, the race's gamma sums are bit for bit the block sums."""
        monkeypatch.setattr(sampling, "_TILE_ROWS", 64)
        stream, count, rate = SeededStream(23, 2), 1000, 1.5
        for r in range(1, 13):
            x = sampling._to_exponential(stream.generator().random((count, r))).sum(axis=1) / rate
            below = np.nextafter(x, -np.inf)
            beats_x, beats_below = [], []
            for start, e in sampling._uniform_tiles(stream.generator(), r, count):
                stop = start + len(e)
                beats_below.append(sampling._gamma_beats(e.copy(), below[start:stop], rate))
                beats_x.append(sampling._gamma_beats(e, x[start:stop], rate))
            # x' > x' - ulp everywhere and x' > x nowhere only if x' == x
            assert np.concatenate(beats_below).all(), r
            assert not np.concatenate(beats_x).any(), r

    @pytest.mark.parametrize("width", [7, 8])
    def test_numpy_row_sum_order(self, width):
        """numpy adds a row of 7 left to right and a row of 8 otherwise; _row_sums relies on both."""
        row = [2.0**53] + [1.0] * (width - 1)
        left_to_right = row[0]
        for v in row[1:]:
            left_to_right += v  # each 1 rounds away; summed before 2^53 they would not
        block = np.tile(row, (5, 1))
        sums = block.sum(axis=1)
        assert (sums == left_to_right).all() == (width < 8)
        assert sampling._row_sums(block.copy(), np.empty(5)).tobytes() == sums.tobytes()

    @pytest.mark.parametrize("n", range(1, CEILING + 3))
    def test_zn_equals_block_max(self, n, monkeypatch):
        monkeypatch.setattr(sampling, "_TILE_ROWS", 64)
        stream, count = SeededStream(29, n), 1000
        block = -np.log1p(-stream.generator().random((count, n)))
        expected = block.max(axis=1) - np.log(n)
        assert _zn(stream, n, count).values.tobytes() == expected.tobytes()


class TestSpacings:
    def test_k1_n1_is_raw_exponential(self):
        e = _exponentials(SeededStream(55), 400)
        sp = sample_normalized_spacings(SeededStream(55), 1, 1, 400)
        assert np.array_equal(e, sp.values)

    def test_nonnegative(self):
        batch = sample_normalized_spacings(SeededStream(8, 2), 6, 4, 5000)
        assert np.all(batch.values >= 0)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            sample_normalized_spacings(SeededStream(1), 3, 4, 10)


class TestZnSampler:
    """Z_n drawn by the direct sampler at k = n; at n = 1000 rows are sorted, not networked."""

    @pytest.fixture(scope="class")
    def z1000(self):
        return _zn(SeededStream(5, 3), 1000, 10**5)

    def test_n1_is_shifted_by_zero(self):
        e = _exponentials(SeededStream(21), 300)
        z = _zn(SeededStream(21), 1, 300)
        assert np.array_equal(e, z.values)

    def test_mean_near_harmonic_difference(self, z1000):
        n, count = 1000, 10**5
        target = float(sum(Fraction(1, j) for j in range(1, n + 1))) - math.log(n)
        band = 4 * (math.pi / math.sqrt(6)) / math.sqrt(count) + 0.001
        assert abs(z1000.mean() - target) < band

    def test_chunked_draws_match_single_pass(self, monkeypatch):
        """Tiling is an implementation detail: the stream order is fixed."""
        z1 = _zn(SeededStream(6, 6), 40, 500)
        monkeypatch.setattr(sampling, "_TILE_ROWS", 12)  # force many tiles
        z2 = _zn(SeededStream(6, 6), 40, 500)
        assert np.array_equal(z1.values, z2.values)

    def test_ks_against_exact_finite_n_cdf(self, z1000):
        """The shifted-maximum law matches its closed-form cdf at n = 1000."""
        from exporder.convergence import _zn_cdf_array, ks_one_sample

        result = ks_one_sample(z1000, lambda x: _zn_cdf_array(1000, np.asarray(x)))
        assert result.passed


class TestRace:
    def test_estimate_near_exact_half(self):
        est = estimate_race(SeededStream(42), OrderStatParams(3, 2), GammaParams(1, 1), 10**6)
        assert abs(est - 0.5) < 0.002

    def test_estimate_near_exact_three_quarters(self):
        est = estimate_race(SeededStream(42), OrderStatParams(1, 1), GammaParams(1, 2), 10**6)
        assert abs(est - 0.75) < 0.002

    def test_monotone_in_shape_at_fixed_seeds(self):
        p = OrderStatParams(3, 2)
        estimates = [
            estimate_race(SeededStream(7), p, GammaParams(1, r), 10**5)
            for r in (1, 2, 4, 8)
        ]
        assert all(b > a for a, b in zip(estimates, estimates[1:]))

    def test_chunked_equals_concatenated(self):
        p, g = OrderStatParams(3, 2), GammaParams(1, 1)
        base = SeededStream(42)
        chunked = estimate_race(base, p, g, 10_000, chunks=4)
        values = np.concatenate(
            [
                sample_race_indicators(base.substream(c), p, g, size).values
                for c, size in enumerate([2500, 2500, 2500, 2500])
            ]
        )
        assert chunked == values.mean()

    def test_reduction_is_order_independent(self):
        p, g = OrderStatParams(2, 1), GammaParams(1, 2)
        base = SeededStream(17)
        summaries = [race_chunk_summary(base.substream(c), p, g, 700) for c in range(5)]
        rng = random.Random(0)
        reference = sum(h for h, _ in summaries) / sum(m for _, m in summaries)
        for _ in range(5):
            rng.shuffle(summaries)
            assert sum(h for h, _ in summaries) / sum(m for _, m in summaries) == reference

    def test_indicator_batch_is_binary(self):
        batch = sample_race_indicators(SeededStream(3), OrderStatParams(2, 2), GammaParams(2, 1), 100)
        assert set(np.unique(batch.values)) <= {0.0, 1.0}
        assert batch.sampler_id == "race_indicator"

    def test_memory_without_a_draw_block(self):
        """Only the 8 MiB order statistic and the 8 MiB indicators are whole arrays."""
        tracemalloc.start()
        try:
            sample_race_indicators(SeededStream(7), OrderStatParams(3, 2), GammaParams(1, 1), 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_chunks_validated(self):
        with pytest.raises(ValueError):
            estimate_race(SeededStream(1), OrderStatParams(1, 1), GammaParams(1, 1), 10, chunks=11)
        with pytest.raises(ValueError):
            estimate_race(SeededStream(1), OrderStatParams(1, 1), GammaParams(1, 1), 10, chunks=True)

    def test_chunk_stream_ids_checked_before_drawing(self, monkeypatch):
        """Stream ids stream_id .. stream_id + chunks - 1 must fit in 64 bits, checked up front."""
        p, g = OrderStatParams(3, 2), GammaParams(1, 1)
        last = SeededStream(1, 2**64 - 1)

        def no_draws(self):
            raise AssertionError(f"drew stream {self.stream_id} before the chunk check")

        with monkeypatch.context() as mp:
            mp.setattr(SeededStream, "generator", no_draws)
            with pytest.raises(ValueError, match="chunks"):
                estimate_race(last, p, g, 10, chunks=2)
        assert estimate_race(last, p, g, 10) == race_chunk_summary(last, p, g, 10)[0] / 10
        two = estimate_race(SeededStream(1, 2**64 - 2), p, g, 10, chunks=2)
        assert two == (race_chunk_summary(SeededStream(1, 2**64 - 2), p, g, 5)[0]
                       + race_chunk_summary(last, p, g, 5)[0]) / 10


def _reference_race(stream, p, g, count):
    """The per-stream race drawn segment by segment from whole blocks, sorted."""
    rate = float(g.s)
    out = []
    for gen, rows, block in _old_sorted_blocks(stream, p.n, count, extra=g.r):
        x = -np.log1p(-gen.random((rows, g.r)))
        x = x.sum(axis=1) / rate if rate else np.full(rows, np.inf)
        out.append((x > block[:, p.k - 1]).astype(np.float64))
    return np.concatenate(out)


RACE_T = 8  # _TILE_ROWS for the kernel tests, so that chunks straddle tiles


class TestRaceKernel:
    """Every race entry point runs one tiled kernel; it must draw each stream as a lone stream would."""

    @pytest.fixture(autouse=True)
    def small_tiles(self, monkeypatch):
        monkeypatch.setattr(sampling, "_TILE_ROWS", RACE_T)

    def _check(self, p, g, chunks, size, seed=11):
        base = SeededStream(seed, 3)
        count = chunks * size
        streams = [base.substream(c) for c in range(chunks)]
        reference = [_reference_race(s, p, g, size) for s in streams]
        indicators = [sample_race_indicators(s, p, g, size).values for s in streams]
        summaries = [race_chunk_summary(s, p, g, size) for s in streams]
        for got, want in zip(indicators, reference):
            assert got.tobytes() == want.tobytes()
        hits = int(np.concatenate(reference).sum())
        assert [h for h, _ in summaries] == [int(r.sum()) for r in reference]
        estimate = estimate_race(base, p, g, count, chunks)
        assert estimate == hits / count
        assert estimate == sum(h for h, _ in summaries) / count
        assert estimate == np.concatenate(indicators).mean()

    @pytest.mark.parametrize("chunks", [1, 2, 17, 999, 1000])
    @pytest.mark.parametrize("size", [RACE_T - 1, RACE_T, RACE_T + 1])
    def test_chunks_straddling_tiles(self, chunks, size):
        self._check(OrderStatParams(3, 2), GammaParams(1, 1), chunks, size)

    @pytest.mark.parametrize("size", [3, RACE_T - 1, RACE_T + 1, 5 * RACE_T])
    def test_shape_above_one(self, size):
        """Chunks of 3 rows leave a tile one row short of room for a third."""
        self._check(OrderStatParams(4, 3), GammaParams(Fraction(3, 2), 3), 17, size)

    @pytest.mark.parametrize("k", [1, 7, CEILING + 2])
    @pytest.mark.parametrize("size", [RACE_T // 2, RACE_T + 1])
    def test_sorted_rows_above_the_network_ceiling(self, k, size):
        """Rows longer than _NETWORK_MAX_N are sorted, and come fewer to a tile."""
        self._check(OrderStatParams(CEILING + 2, k), GammaParams(2, 2), 17, size)

    def test_rate_rounding_to_zero(self):
        g = GammaParams(Fraction(1, 10**400), 1)
        assert float(g.s) == 0.0
        self._check(OrderStatParams(3, 2), g, 17, RACE_T)
        assert estimate_race(SeededStream(11, 3), OrderStatParams(3, 2), g, 17 * RACE_T, 17) == 1.0

    @pytest.mark.parametrize("size", [2, 23, 50])
    def test_streams_of_several_segments(self, size, monkeypatch):
        """Segments of 2T + 1 rows: a chunk's long segments alternate with its short tail."""
        p, g = OrderStatParams(3, 2), GammaParams(1, 2)
        monkeypatch.setattr(sampling, "_CHUNK_CELLS", (2 * RACE_T + 1) * (p.n + g.r))
        self._check(p, g, 17, size)

    def test_thousand_chunks_hold_only_tiles(self, monkeypatch):
        """The 1,000-chunk race holds its shared tiles, not an array of all 10^6 replicates (7.6 MiB)."""
        monkeypatch.setattr(sampling, "_TILE_ROWS", TILE)
        p, g = OrderStatParams(3, 2), GammaParams(1, 1)
        tracemalloc.start()
        try:
            estimate_race(SeededStream(7), p, g, 10**6, chunks=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestBatchValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SampleBatch(np.array([]), 1, None, "direct_sort", SeededStream(1))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SampleBatch(np.array([1.0, np.inf]), 1, None, "direct_sort", SeededStream(1))

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError):
            SampleBatch(np.array([1.0]), 1, None, "mystery", SeededStream(1))

    @pytest.mark.parametrize("sampler_id", sorted(sampling.SAMPLER_IDS))
    def test_every_sampler_id_accepted(self, sampler_id):
        batch = SampleBatch(np.array([1.0]), 1, None, sampler_id, SeededStream(1))
        assert batch.sampler_id == sampler_id

    def test_variance_needs_two_values(self):
        def batch(*values):
            return SampleBatch(np.array(values), 1, None, "direct_sort", SeededStream(1))

        with pytest.raises(ValueError, match="at least 2 values"):
            batch(1.0).variance()
        assert batch(1.0, 3.0).variance() == 2.0
