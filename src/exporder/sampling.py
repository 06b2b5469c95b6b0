"""Seeded, reproducible samplers for exponential order statistics.

All randomness comes from one place: a numpy PCG64 bit generator keyed by
``SeedSequence(seed, spawn_key=(stream_id,))``, and every variate is derived
from ``Generator.random()`` uniforms by the inverse transform -log1p(-U).
PCG64 and the uniform conversion are frozen, widely specified algorithms, so
identical (seed, stream_id) reproduces the same sequence across runs and
platforms; golden values in the test suite pin this down.  If the generator
is ever swapped, regenerate the goldens.

A sampler draws its (count, n) uniforms in tiles of at most _TILE_ROWS rows
(fewer for rows longer than the network ceiling), each into one reused
buffer (``_uniform_tiles``); the tiles are consecutive slices of the one
draw, so tiling never moves a value in the stream.  Only the uniforms a
sampler uses are transformed.  Order statistics are selected on the uniforms
and only the kept columns are transformed: -log1p(-U) is non-decreasing, so
it commutes with min and max and tied uniforms give equal values.  Selection
runs on one tile at a time (``_select_columns``), as a min/max network
pruned to the wanted sorted-order columns, so the selected values are those
a sort of the exponentials would give.  Each sample allocates one network
buffer for all its tiles (``_network_buffer``; rows longer than the network
ceiling get none and are sorted), and the selected rows go straight into
the sample's result.  Sums of exponentials are row sums of each
tile (``_row_sums``), in numpy's order for the whole draw: a row of fewer
than 8 values is added left to right, column by column in place in the
spent tile, and a longer row goes to numpy's pairwise sum.  No sampler holds
a block of all its draws.

The race lays out each stream in segments of _CHUNK_CELLS // (n + r) rows:
a segment's n order-statistic columns are drawn first, then its r gamma
columns.  Every race entry point runs one kernel (``_race_tiles``) over a
list of (stream, replicates) chunks.  Segments that fit are drawn, stream
after stream, into one shared pair of tiles, and selection, the transform,
the rate division and the comparison run once per full tile, however many
chunks filled it; a segment longer than a tile keeps its selected column
while its gamma columns are drawn.  So the chunk count changes only which
stream ids feed the draws, never the per-stream order, and a chunk costs one
generator, not a pass of the kernel.

Two independent constructions of the k-th order statistic are provided
(select the k-th of n draws; sum k exponentials with rates n-k+1..n), plus
normalized spacings and Monte Carlo gamma-vs-order-statistic races with
chunkable, order-independent reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Optional

import numpy as np

from .distributions import GammaParams
from .laplace import OrderStatParams

__all__ = [
    "SeededStream",
    "SampleBatch",
    "sample_orderstat_direct",
    "sample_orderstat_representation",
    "sample_normalized_spacings",
    "sample_race_indicators",
    "estimate_race",
    "race_chunk_summary",
]

# the race's stream layout: each segment of _CHUNK_CELLS // (n + r) rows draws
# its n order-statistic columns, then its r gamma columns
_CHUNK_CELLS = 1 << 22
# longest row _network_buffer gives a network buffer for; longer rows are sorted
_NETWORK_MAX_N = 12
# rows per draw and selection tile, so a draw tile holds at most 12 * 128 KiB
# and the (n + 1, tile) network buffer (n + 1) * 128 KiB
_TILE_ROWS = 1 << 14
# numpy sums a row of this many values or more pairwise, a shorter row left to right
_PAIRWISE_MIN = 8

SAMPLER_IDS = frozenset({"direct_sort", "sum_representation", "spacing", "race_indicator"})


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class SeededStream:
    """Reproducible random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not (_is_int(v) and 0 <= v < 2**64):
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))

    def substream(self, offset: int) -> "SeededStream":
        return replace(self, stream_id=self.stream_id + offset)


@dataclass(frozen=True)
class SampleBatch:
    """One seeded draw set plus the parameters that produced it."""

    values: np.ndarray
    n: int
    k: Optional[int]
    sampler_id: str
    seed_info: SeededStream

    def __post_init__(self):
        if self.sampler_id not in SAMPLER_IDS:
            raise ValueError(f"unknown sampler_id {self.sampler_id!r}")
        if self.values.size == 0:
            raise ValueError("empty sample batch")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sample batch contains non-finite values")

    def __len__(self) -> int:
        return self.values.size

    def mean(self) -> float:
        return float(np.mean(self.values))

    def variance(self) -> float:
        """Unbiased sample variance; a single value has none."""
        if self.values.size < 2:
            raise ValueError(f"sample variance needs at least 2 values, got {self.values.size}")
        return float(np.var(self.values, ddof=1))


def _check_count(count: int) -> int:
    if not (_is_int(count) and count >= 1):
        raise ValueError(f"replicate count must be an integer >= 1, got {count}")
    return count


def _to_exponential(u: np.ndarray) -> np.ndarray:
    # inverse transform of uniforms on [0, 1), in place; log1p keeps small draws exact
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    return u


def _tile_rows(width: int) -> int:
    """Rows per tile for rows of width values: a tile holds at most _TILE_ROWS
    rows of the network ceiling's width."""
    return max(1, min(_TILE_ROWS, _TILE_ROWS * _NETWORK_MAX_N // width))


def _uniform_tiles(gen: np.random.Generator, n: int, count: int):
    """(start, tile) for consecutive row slices of one (count, n) uniform draw.

    Each tile is drawn into one reused buffer, so the caller must be done
    with a tile before the next one.  Rows up to the network ceiling come
    _TILE_ROWS to a tile; longer rows come fewer to a tile, so that a tile
    never holds more values than one at the ceiling, whatever n is.
    """
    rows = _tile_rows(n)
    buffer = np.empty((min(count, rows), n))
    for start in range(0, count, rows):
        tile = buffer[: min(rows, count - start)]
        gen.random(out=tile)
        yield start, tile


def _batcher_pairs(n: int) -> list[tuple[int, int]]:
    """Comparators (i, j), i < j, of Batcher's odd-even merge sort of n inputs.

    The network for n rounded up to a power of two, without the comparators
    that touch a padded index: padding holds +inf, so those never swap.
    """
    size = 1 << (n - 1).bit_length()
    pairs = []
    p = 1
    while p < size:
        k = p
        while k >= 1:
            for j in range(k % p, size - k, 2 * k):
                for i in range(j, j + min(k, size - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p) and i + k < n:
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    return pairs


@cache
def _network(n: int, cols: tuple[int, ...]):
    """Steps (ufunc, x, y, out) over tile rows, and the rows that end up holding cols.

    Batcher's network is pruned backwards to the comparators that reach
    cols, and each kept comparator computes only the outputs a later step
    or cols reads: the min, the max, or both.  Row n of the tile is spare;
    a full comparator writes its min there and hands the min's old row on
    as the next spare, so no step copies a row.
    """
    needed = set(cols)
    kept = []
    for i, j in reversed(_batcher_pairs(n)):
        if i in needed or j in needed:
            kept.append((i, j, i in needed, j in needed))
            needed.update((i, j))
    row = list(range(n))  # tile row holding sorted-order position i
    spare = n
    steps = []
    for i, j, want_min, want_max in reversed(kept):
        a, b = row[i], row[j]
        if want_min and want_max:
            steps += [(np.minimum, a, b, spare), (np.maximum, a, b, b)]
            row[i], spare = spare, a
        elif want_min:
            steps.append((np.minimum, a, b, a))
        else:
            steps.append((np.maximum, a, b, b))
    return tuple(steps), tuple(row[c] for c in cols)


def _select_columns(
    block: np.ndarray, cols: tuple[int, ...], out: np.ndarray, buffer: Optional[np.ndarray]
) -> np.ndarray:
    """Columns cols of the (rows, n) tile block with its rows sorted, into out, (len(cols), rows).

    buffer is ``_network_buffer(n, m)`` for some m >= rows; a block with
    more rows does not fit its copy into the buffer and raises ValueError.
    With a buffer the block is only read: Batcher's odd-even merge network
    for n (Batcher, AFIPS 1968), pruned backwards to the comparators that
    can reach cols (see ``_network``), runs on the block copied, transposed,
    into the buffer, so every comparator is an elementwise np.minimum or
    np.maximum on contiguous rows that stay in cache.  Min and max are
    exact, so the result equals ``np.sort(block, axis=1)[:, cols].T`` bit
    for bit on draws, which hold no nan and no -0.0.  With buffer None the
    block is sorted in place and the columns copied out.
    """
    if buffer is None:
        block.sort(axis=1)
        for row, c in zip(out, cols):
            row[:] = block[:, c]
        return out
    rows, n = block.shape
    steps, out_rows = _network(n, cols)
    tile = buffer[:, :rows]
    tile[:n] = block.T
    for ufunc, x, y, z in steps:
        ufunc(tile[x], tile[y], out=tile[z])
    for row, r in zip(out, out_rows):
        row[:] = tile[r]
    return out


def _network_buffer(n: int, rows: int) -> Optional[np.ndarray]:
    """The (n + 1, rows) network buffer of _select_columns; None, to sort, above the ceiling.

    The ceiling _NETWORK_MAX_N is measured: at 10^5 rows of exponential
    draws on a 2-core Xeon with 2 MiB of L2 per core (numpy 2.4, best of
    7-15), the network for the costliest cols of each n took 1.8 ms at n = 6
    and 5.2 ms at n = 12, against 4.2 and 6.6 ms for the row sort.  At
    n = 13-14 the margin was under 10% and flipped between runs (6.2-6.3 ms
    against 5.7-6.8 ms), and from n = 15 the network lost (12-17 ms against
    6-10 ms).
    """
    return np.empty((n + 1, rows)) if n <= _NETWORK_MAX_N else None


def _selected_exponentials(gen: np.random.Generator, n: int, cols: tuple[int, ...], count: int):
    """Columns cols of the row-sorted (count, n) exponential draw, as a (len(cols), count) array."""
    out = np.empty((len(cols), count))
    buffer = _network_buffer(n, min(count, _tile_rows(n)))
    for start, u in _uniform_tiles(gen, n, count):
        _select_columns(u, cols, out[:, start : start + len(u)], buffer)
    return _to_exponential(out)


def _row_sums(tile: np.ndarray, out: np.ndarray, rates: Optional[np.ndarray] = None) -> np.ndarray:
    """Row sums of tile, each column first divided by its rate if rates is given, into out.

    Bit for bit ``(tile / rates).sum(axis=1)``, at every width.  numpy adds
    a row of fewer than _PAIRWISE_MIN values left to right, but it runs one
    short inner loop per row, which costs several times the adds.  Such rows
    are summed here column by column, left to right, each column divided in
    place in the spent tile (so tile is overwritten); the first column goes
    straight into out.  A row of _PAIRWISE_MIN or more values is summed
    pairwise by numpy itself.
    """
    width = tile.shape[1]
    if width >= _PAIRWISE_MIN:
        if rates is not None:
            tile /= rates
        return tile.sum(axis=1, out=out)
    if rates is None:
        out[:] = tile[:, 0]
    else:
        np.divide(tile[:, 0], rates[0], out=out)
    for j in range(1, width):
        column = tile[:, j]
        if rates is not None:
            column /= rates[j]
        out += column
    return out


def sample_orderstat_direct(stream: SeededStream, p: OrderStatParams, count: int) -> SampleBatch:
    """k-th smallest of n unit exponentials, selected from one sample of n per replicate."""
    _check_count(count)
    (values,) = _selected_exponentials(stream.generator(), p.n, (p.k - 1,), count)
    return SampleBatch(values, p.n, p.k, "direct_sort", stream)


def sample_orderstat_representation(
    stream: SeededStream, p: OrderStatParams, count: int
) -> SampleBatch:
    """Same law built the other way: sum of k exponentials with rates n-k+1..n.

    Each tile of k uniforms per row is transformed in place, and its rows
    are divided by the rates and summed by ``_row_sums`` straight into the
    result: left to right for k < 8, pairwise by numpy from k = 8.  Tiles
    split no row, so the values are bit for bit the row sums of the whole
    (count, k) block of exponentials over rates.
    """
    _check_count(count)
    rates = np.array(p.rates, dtype=np.float64)
    values = np.empty(count)
    for start, u in _uniform_tiles(stream.generator(), p.k, count):
        _row_sums(_to_exponential(u), values[start : start + len(u)], rates)
    return SampleBatch(values, p.n, p.k, "sum_representation", stream)


def sample_normalized_spacings(
    stream: SeededStream, n: int, k: int, count: int
) -> SampleBatch:
    """(n-k+1) * (k-th minus (k-1)-th order statistic), with the 0-th being 0."""
    p = OrderStatParams(n, k)
    _check_count(count)
    gen = stream.generator()
    if p.k == 1:
        (spacing,) = _selected_exponentials(gen, p.n, (0,), count)
    else:
        below, spacing = _selected_exponentials(gen, p.n, (p.k - 2, p.k - 1), count)
        spacing -= below
    spacing *= p.n - p.k + 1
    return SampleBatch(spacing, p.n, p.k, "spacing", stream)


def _float_rate(s) -> float:
    """A GammaParams rate as a float: inf where the exact rate is beyond the float range."""
    try:
        return float(s)
    except OverflowError:
        return np.inf


def _gamma_beats(e: np.ndarray, t: np.ndarray, rate: float) -> np.ndarray:
    """x > t per row, for x the row sum of the exponentials of uniforms e over rate.

    e is transformed and summed in place by ``_row_sums`` (left to right for
    fewer than 8 columns, pairwise by numpy from 8), so x is bit for bit
    ``_to_exponential(e).sum(axis=1) / rate``; e is spent afterwards.
    """
    x = _row_sums(_to_exponential(e), np.empty(len(e)))
    # a rate that rounds to 0.0 would make x / rate warn, and nan at x = 0
    if rate:
        x /= rate
    else:
        x.fill(np.inf)
    return np.greater(x, t)


def _race_tiles(chunks, p: OrderStatParams, g: GammaParams):
    """The race indicators (bool) of (stream, count) chunks, in tiles, in chunk order.

    Each stream is drawn segment by segment (see the module docstring).  A
    segment that fits is drawn whole into the shared tiles, its n columns
    and then its r columns; the tiles are finished once the next segment
    does not fit.  A longer segment is drawn by itself: its selected column
    is kept whole, and its gamma columns follow in tiles.
    """
    rate = _float_rate(g.s)
    cols = (p.k - 1,)
    segment = max(1, _CHUNK_CELLS // (p.n + g.r))
    rows = _tile_rows(p.n + g.r)
    u, e, kept = np.empty((rows, p.n)), np.empty((rows, g.r)), np.empty((1, rows))
    network = _network_buffer(p.n, rows)

    def finish(fill):
        (t,) = _select_columns(u[:fill], cols, kept[:, :fill], network)
        return _gamma_beats(e[:fill], _to_exponential(t), rate)

    fill = 0
    for stream, count in chunks:
        gen = stream.generator()
        for start in range(0, count, segment):
            m = min(segment, count - start)
            if fill and fill + m > rows:
                yield finish(fill)
                fill = 0
            if m > rows:
                (t,) = _selected_exponentials(gen, p.n, cols, m)
                for lo, tile in _uniform_tiles(gen, g.r, m):
                    yield _gamma_beats(tile, t[lo : lo + len(tile)], rate)
            else:
                gen.random(out=u[fill : fill + m])
                gen.random(out=e[fill : fill + m])
                fill += m
    if fill:
        yield finish(fill)


def _race_hits(chunks, p: OrderStatParams, g: GammaParams) -> int:
    return sum(int(np.count_nonzero(hits)) for hits in _race_tiles(chunks, p, g))


def sample_race_indicators(
    stream: SeededStream, p: OrderStatParams, g: GammaParams, count: int
) -> SampleBatch:
    """Per replicate: 1.0 if an independent gamma draw beats the order statistic.

    The gamma variable with integer shape r is the sum of r unit
    exponentials divided by the rate.  Per segment of the stream (see
    _CHUNK_CELLS), the order-statistic sample is drawn first, then the gamma
    draws.
    """
    _check_count(count)
    values = np.concatenate(list(_race_tiles([(stream, count)], p, g)), dtype=np.float64)
    return SampleBatch(values, p.n, p.k, "race_indicator", stream)


def race_chunk_summary(
    stream: SeededStream, p: OrderStatParams, g: GammaParams, count: int
) -> tuple[int, int]:
    """(hits, replicates) for one chunk; summaries add up order-independently."""
    _check_count(count)
    return _race_hits([(stream, count)], p, g), count


def estimate_race(
    stream: SeededStream,
    p: OrderStatParams,
    g: GammaParams,
    count: int,
    chunks: int = 1,
) -> float:
    """Monte Carlo estimate of P(gamma variable > k-th order statistic).

    With chunks > 1 the work is split over consecutive stream ids
    (stream_id, stream_id + 1, ...); hit counts are integers, so the
    reduction is exact and independent of chunk evaluation order.  All
    chunks share the kernel's tiles, so the chunk count changes the stream
    ids, not the number of kernel passes.
    """
    _check_count(count)
    if not (_is_int(chunks) and 1 <= chunks <= count):
        raise ValueError(f"chunks must be an integer in [1, count], got {chunks}")
    if stream.stream_id + chunks > 2**64:
        raise ValueError(
            f"{chunks} chunks need stream ids {stream.stream_id}..{stream.stream_id + chunks - 1},"
            " beyond 64 bits"
        )
    base, extra = divmod(count, chunks)
    sizes = ((stream.substream(c), base + (c < extra)) for c in range(chunks))
    return _race_hits(sizes, p, g) / count
