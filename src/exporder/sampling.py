"""Seeded, reproducible samplers for exponential order statistics.

All randomness comes from one place: a numpy PCG64 bit generator keyed by
``SeedSequence(seed, spawn_key=(stream_id,))``, and every variate is derived
from ``Generator.random()`` uniforms by explicit inverse transforms
(exponentials as -log1p(-U), each step applied in place on the uniform
block, so a block of draws takes one buffer).  Order statistics are selected,
not sorted: a min/max network pruned to the wanted sorted-order columns runs
on small transposed row tiles, and only those columns are kept, as copies, so
blocks are freed as soon as they are used (see ``_select_columns``; rows
longer than the network ceiling are still sorted in place).  Min and max are
exact, so the selected values are those a sort would give.  PCG64 and the
uniform conversion are frozen, widely specified algorithms, so identical
(seed, stream_id) reproduces the same sequence across runs and platforms;
golden values in the test suite pin this down.  If the generator is ever
swapped, regenerate the goldens.

Two independent constructions of the k-th order statistic are provided
(select the k-th of n draws; sum k exponentials with rates n-k+1..n), plus
normalized spacings, the shifted maximum, and Monte Carlo
gamma-vs-order-statistic races with chunkable, order-independent reductions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import Optional

import numpy as np

from .distributions import GammaParams, _float_rate
from .laplace import OrderStatParams

__all__ = [
    "SeededStream",
    "SampleBatch",
    "sample_exponential",
    "sample_orderstat_direct",
    "sample_orderstat_representation",
    "sample_normalized_spacings",
    "sample_zn",
    "sample_race_indicators",
    "estimate_race",
    "race_chunk_summary",
]

# rows-per-chunk ceiling keeps matrices of n columns near ~32 MiB
_CHUNK_CELLS = 1 << 22
# longest row _select_columns runs its network on; longer rows are sorted
_NETWORK_MAX_N = 12
# rows per network tile, so the (n + 1, tile) buffer is (n + 1) * 128 KiB
_TILE_ROWS = 1 << 14

SAMPLER_IDS = frozenset(
    {"exponential", "direct_sort", "sum_representation", "spacing", "zn", "race_indicator"}
)


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
        return float(np.var(self.values, ddof=1))


def _check_count(count: int) -> int:
    if not (_is_int(count) and count >= 1):
        raise ValueError(f"replicate count must be an integer >= 1, got {count}")
    return count


def _exponentials(gen: np.random.Generator, shape) -> np.ndarray:
    # inverse transform of uniforms on [0, 1); log1p keeps small draws exact
    u = gen.random(shape)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    np.negative(u, out=u)
    return u


def _row_chunks(count: int, n: int):
    rows = max(1, _CHUNK_CELLS // max(1, n))
    start = 0
    while start < count:
        yield min(rows, count - start)
        start += rows


def _exponential_blocks(gen: np.random.Generator, n: int, count: int):
    for rows in _row_chunks(count, n):
        yield _exponentials(gen, (rows, n))


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


def _select_columns(block: np.ndarray, cols: tuple[int, ...]) -> np.ndarray:
    """Columns cols of the row-sorted (rows, n) block, as a new (len(cols), rows) array.

    For n <= _NETWORK_MAX_N the rows are not sorted, and the block is only
    read.  Batcher's odd-even merge network for n (Batcher, AFIPS 1968) is
    pruned backwards to the comparators that can reach cols (see
    ``_network``) and run on tiles of at most _TILE_ROWS rows: each tile is
    copied, transposed, into one reused (n + 1, tile) buffer, so every
    comparator is an elementwise np.minimum or np.maximum on contiguous rows
    that stay in cache.  Min and max are exact, so the result equals
    ``np.sort(block, axis=1)[:, cols].T`` bit for bit on draws, which hold no
    nan and no -0.0.  Above _NETWORK_MAX_N the block is sorted in place and
    the columns copied out.

    The ceiling is measured: at 10^5 rows of exponential draws on a 2-core
    Xeon with 2 MiB of L2 per core (numpy 2.4, best of 7-15), the network for
    the costliest cols of each n took 1.8 ms at n = 6 and 5.2 ms at n = 12,
    against 4.2 and 6.6 ms for the row sort.  At n = 13-14 the margin was
    under 10% and flipped between runs (6.2-6.3 ms against 5.7-6.8 ms), and
    from n = 15 the network lost (12-17 ms against 6-10 ms).
    """
    rows, n = block.shape
    if n > _NETWORK_MAX_N:
        block.sort(axis=1)
        return np.stack([block[:, c] for c in cols])
    steps, out_rows = _network(n, cols)
    out = np.empty((len(cols), rows))
    buffer = np.empty((n + 1, min(rows, _TILE_ROWS)))
    for start in range(0, rows, _TILE_ROWS):
        stop = min(start + _TILE_ROWS, rows)
        tile = buffer[:, : stop - start]
        tile[:n] = block[start:stop].T
        for ufunc, x, y, z in steps:
            ufunc(tile[x], tile[y], out=tile[z])
        for c, r in enumerate(out_rows):
            out[c, start:stop] = tile[r]
    return out


def sample_exponential(stream: SeededStream, count: int) -> SampleBatch:
    """Unit-exponential draws via -log1p(-U)."""
    _check_count(count)
    values = _exponentials(stream.generator(), count)
    return SampleBatch(values, 1, None, "exponential", stream)


def sample_orderstat_direct(stream: SeededStream, p: OrderStatParams, count: int) -> SampleBatch:
    """k-th smallest of n unit exponentials, selected from one sample of n per replicate."""
    _check_count(count)
    gen = stream.generator()
    # copies, so each block is freed as the next one is drawn
    parts = [
        _select_columns(block, (p.k - 1,))[0] for block in _exponential_blocks(gen, p.n, count)
    ]
    return SampleBatch(np.concatenate(parts), p.n, p.k, "direct_sort", stream)


def sample_orderstat_representation(
    stream: SeededStream, p: OrderStatParams, count: int
) -> SampleBatch:
    """Same law built the other way: sum of k exponentials with rates n-k+1..n."""
    _check_count(count)
    gen = stream.generator()
    rates = np.arange(p.n - p.k + 1, p.n + 1, dtype=np.float64)
    parts = []
    for e in _exponential_blocks(gen, p.k, count):
        e /= rates
        parts.append(e.sum(axis=1))
    return SampleBatch(np.concatenate(parts), p.n, p.k, "sum_representation", stream)


def sample_normalized_spacings(
    stream: SeededStream, n: int, k: int, count: int
) -> SampleBatch:
    """(n-k+1) * (k-th minus (k-1)-th order statistic), with the 0-th being 0."""
    p = OrderStatParams(n, k)
    _check_count(count)
    gen = stream.generator()
    parts = []
    for block in _exponential_blocks(gen, p.n, count):
        if p.k == 1:
            spacing = _select_columns(block, (0,))[0]
        else:
            below, spacing = _select_columns(block, (p.k - 2, p.k - 1))
            spacing -= below
        spacing *= p.n - p.k + 1
        parts.append(spacing)
    return SampleBatch(np.concatenate(parts), p.n, p.k, "spacing", stream)


def sample_zn(stream: SeededStream, n: int, count: int) -> SampleBatch:
    """Max of n unit exponentials, shifted by ln n."""
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"sample size must be an integer >= 1, got {n}")
    _check_count(count)
    gen = stream.generator()
    parts = [block.max(axis=1) - np.log(n) for block in _exponential_blocks(gen, n, count)]
    return SampleBatch(np.concatenate(parts), n, None, "zn", stream)


def sample_race_indicators(
    stream: SeededStream, p: OrderStatParams, g: GammaParams, count: int
) -> SampleBatch:
    """Per replicate: 1.0 if an independent gamma draw beats the order statistic.

    The gamma variable with integer shape r is the sum of r unit
    exponentials divided by the rate, drawn after the order-statistic
    sample from the same stream.
    """
    _check_count(count)
    gen = stream.generator()
    rate = _float_rate(g.s)
    parts = []
    for rows in _row_chunks(count, p.n + g.r):
        # a copy, so the block is freed before the gamma draws
        t = _select_columns(_exponentials(gen, (rows, p.n)), (p.k - 1,))[0]
        x = _exponentials(gen, (rows, g.r)).sum(axis=1)
        # a rate that rounds to 0.0 would make x / rate warn, and nan at x = 0
        if rate:
            x /= rate
        else:
            x.fill(np.inf)
        parts.append((x > t).astype(np.float64))
    return SampleBatch(np.concatenate(parts), p.n, p.k, "race_indicator", stream)


def race_chunk_summary(
    stream: SeededStream, p: OrderStatParams, g: GammaParams, count: int
) -> tuple[int, int]:
    """(hits, replicates) for one chunk; summaries add up order-independently."""
    batch = sample_race_indicators(stream, p, g, count)
    return int(batch.values.sum()), count


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
    reduction is exact and independent of chunk evaluation order.
    """
    _check_count(count)
    if not (_is_int(chunks) and 1 <= chunks <= count):
        raise ValueError(f"chunks must be an integer in [1, count], got {chunks}")
    base = count // chunks
    sizes = [base + (1 if c < count % chunks else 0) for c in range(chunks)]
    hits = 0
    for c, size in enumerate(sizes):
        h, _ = race_chunk_summary(stream.substream(c), p, g, size)
        hits += h
    return hits / count
