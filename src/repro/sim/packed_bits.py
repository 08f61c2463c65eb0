"""Bit-packing and sparse-sampling primitives for the packed engine.

The packed Monte-Carlo engine (:mod:`repro.sim.packed_frame_simulator`)
stores each frame plane as ``(ceil(shots / 64), num_qubits)`` uint64 words —
shot ``s`` lives in word ``s >> 6`` at bit ``s & 63`` — so every gate is a
handful of word-wide XOR/AND operations over 64 shots at once.  This module
holds the supporting primitives:

* :func:`pack_bool` / :func:`unpack_words` — the boundary converters between
  boolean ``(shots, n)`` matrices and word planes (little-endian bit and
  byte order, matching the host byte order on the supported platforms);
* :func:`full_words` / :func:`popcount` / :func:`update_columns` — the
  all-shots mask, set-bit counts, and column updates tolerating repeated
  columns, with which per-shot LRC pair masks are checked and applied;
* :func:`fair_words` — uniformly random uint64 words, i.e. 64 independent
  fair bits per word, for the probability-1/2 draws (random Pauli frames,
  leaked-measurement outcomes);
* :func:`sample_cells` — the sparse Bernoulli sampler: instead of drawing a
  float per (shot, qubit) cell, draw the *count* of hits from the exact
  binomial and place them on a uniformly random distinct cell subset.  Per-qubit rate arrays are honoured by sampling at
  the maximum rate and thinning, which keeps the per-cell distribution
  exact.  At the circuit-level rates the paper sweeps (``p ~ 1e-3``) this
  touches thousands of cells instead of millions.

Every sampler here is distribution-exact: cells are hit independently with
their stated probabilities, which is what the statistical-equivalence
contract between the three engines rests on.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

#: uint64 word width and the shift/mask splitting a shot index into
#: (word row, bit position).
WORD_BITS = 64
WORD_SHIFT = 6
WORD_MASK = 63

_UINT64_MAX = np.uint64(np.iinfo(np.uint64).max)

#: Single-bit masks indexed by bit position — a 64-entry gather is cheaper
#: than shifting per element for the large instance batches.
_BIT_MASKS = np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64)


def num_words(shots: int) -> int:
    """Word rows needed to carry ``shots`` bits per column."""
    return (int(shots) + WORD_MASK) >> WORD_SHIFT


def pack_bool(matrix: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(shots, n)`` matrix into ``(num_words(shots), n)`` uint64.

    Bit ``s & 63`` of word row ``s >> 6`` carries shot ``s``; tail bits of
    the final word row (shot indices ``>= shots``) are zero.  Each column is
    packed as one contiguous bit string, then the words are transposed.
    """
    matrix = np.asarray(matrix, dtype=bool)
    shots, n = matrix.shape
    padded = np.zeros((n, num_words(shots) * WORD_BITS), dtype=bool)
    padded[:, :shots] = matrix.T
    as_bytes = np.packbits(padded, axis=1, bitorder="little")  # (n, rows * 8)
    return np.ascontiguousarray(as_bytes.view(np.uint64).T)


def unpack_words(words: np.ndarray, shots: int) -> np.ndarray:
    """Inverse of :func:`pack_bool`: word plane back to a bool ``(shots, n)``.

    The result is a transposed (column-major) view of the unpacked bit
    strings; copying it to row-major would cost more than the unpack.
    """
    as_bytes = np.ascontiguousarray(np.asarray(words, dtype=np.uint64).T).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, count=shots, bitorder="little")
    return bits.view(bool).T


def set_cells(words: np.ndarray, shots: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.nonzero(unpack_words(words, shots))``: every set bit's (shot, column), shot-major.

    Scans the unpacked columns as the contiguous bit strings they are and
    sorts the hits, which beats a 2-D ``np.nonzero`` several times over.
    """
    n = words.shape[1]
    col, shot = np.divmod(np.flatnonzero(unpack_words(words, shots).T), shots)
    return np.divmod(np.sort(shot * n + col), n)


def full_words(shots: int) -> np.ndarray:
    """``(num_words(shots),)`` words with every shot's bit set and a zero tail."""
    return pack_bool(np.ones((shots, 1), dtype=bool))[:, 0]


def popcount(words: np.ndarray) -> int:
    """Total number of set bits in a word array."""
    return int(np.bitwise_count(words).sum())


def update_columns(
    ufunc: np.ufunc,
    out: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    unique: bool,
) -> np.ndarray:
    """``out[:, cols[j]] = ufunc(out[:, cols[j]], values[:, j])`` for every ``j``; returns ``out``.

    ``unique`` says ``cols`` holds no index twice, which allows one buffered
    update instead of an unbuffered scatter.
    """
    if unique:
        out[:, cols] = ufunc(out[:, cols], values)
    else:
        ufunc.at(out, (slice(None), cols), values)
    return out


def fair_words(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniformly random uint64 words: 64 independent fair bits per word."""
    return rng.integers(_UINT64_MAX, size=shape, dtype=np.uint64, endpoint=True)


def bit_positions(shots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split shot indices into (word row, single-bit uint64 mask) pairs."""
    shots = np.asarray(shots, dtype=np.int64)
    return shots >> WORD_SHIFT, _BIT_MASKS[shots & WORD_MASK]


def sample_distinct(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """A uniformly random ``k``-subset of ``range(n)`` (unsorted).

    For the sparse regime (``k << n``) this draws with replacement and keeps
    the first ``k`` distinct values — the sequence of *distinct* values from
    an iid uniform stream is exactly sampling without replacement — so the
    cost is ``O(k)``, independent of ``n``.  Dense requests fall back to a
    permutation.
    """
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k >= n:
        return np.arange(n, dtype=np.int64)
    if k * 8 >= n:
        return rng.permutation(n)[:k].astype(np.int64)
    chosen = np.empty(0, dtype=np.int64)
    need = k
    while need > 0:
        draw = rng.integers(0, n, size=need + (need >> 3) + 16, dtype=np.int64)
        if k == 1:
            # The commonest request at circuit-level rates: one value is
            # always distinct, so skip the dedup.
            return draw[:1]
        pool = np.concatenate([chosen, draw])
        _, first = np.unique(pool, return_index=True)
        # Keep first-appearance order so the prefix is exactly the first k
        # distinct values of the stream.
        chosen = pool[np.sort(first)][:k]
        need = k - chosen.size
    return chosen


def sample_cells(
    rng: np.random.Generator,
    shots: int,
    ncols: int,
    p: Union[float, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Cells of a ``(shots, ncols)`` grid hit by independent Bernoulli draws.

    Returns parallel ``(row, col)`` int64 arrays, one entry per hit cell, in
    no particular order.  ``p`` is a scalar rate or a per-column ``(ncols,)``
    array.  The sampler is exact: the hit count follows the binomial over
    all cells and the hit set is uniform given the count (per-column arrays
    sample at the maximum rate and thin, preserving per-cell independence).
    """
    if shots <= 0 or ncols <= 0:
        return _NO_CELLS
    if isinstance(p, np.ndarray):
        p_max = float(p.max())
        if p_max <= 0.0:
            return _NO_CELLS
        rows, cols = _sample_uniform_cells(rng, shots, ncols, p_max)
        if float(p.min()) != p_max:
            keep = rng.random(rows.size) < (p[cols] / p_max)
            rows, cols = rows[keep], cols[keep]
        return rows, cols
    if p <= 0.0:
        return _NO_CELLS
    return _sample_uniform_cells(rng, shots, ncols, float(p))


def _sample_uniform_cells(
    rng: np.random.Generator, shots: int, ncols: int, p: float
) -> Tuple[np.ndarray, np.ndarray]:
    n = shots * ncols
    if p >= 1.0:
        cells = np.arange(n, dtype=np.int64)
    else:
        k = int(rng.binomial(n, p))
        if k == 0:
            return _NO_CELLS
        cells = sample_distinct(rng, n, k)
    # Cell id = col * shots + row keeps each column a contiguous id block.
    return cells % shots, cells // shots


_NO_CELLS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
