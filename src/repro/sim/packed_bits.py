"""Bit-packing and sparse-sampling primitives for the packed engine.

The packed Monte-Carlo engine (:mod:`repro.sim.packed_frame_simulator`)
stores each frame plane as ``(ceil(shots / 64), num_qubits)`` uint64 words —
shot ``s`` lives in word ``s >> 6`` at bit ``s & 63`` — so every gate is a
handful of word-wide XOR/AND operations over 64 shots at once.  This module
holds the supporting primitives:

* :func:`pack_bool` / :func:`unpack_words` — the boundary converters between
  boolean ``(shots, n)`` matrices and word planes (little-endian bit and
  byte order, matching the host byte order on the supported platforms);
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
    the final word row (shot indices ``>= shots``) are zero.
    """
    matrix = np.ascontiguousarray(matrix, dtype=bool)
    shots, n = matrix.shape
    rows = num_words(shots)
    pad = rows * WORD_BITS - shots
    if pad:
        matrix = np.concatenate(
            [matrix, np.zeros((pad, n), dtype=bool)], axis=0
        )
    as_bytes = np.packbits(matrix, axis=0, bitorder="little")  # (rows * 8, n)
    as_bytes = np.ascontiguousarray(
        as_bytes.reshape(rows, 8, n).transpose(0, 2, 1)
    )
    return as_bytes.view(np.uint64).reshape(rows, n)


def unpack_words(words: np.ndarray, shots: int) -> np.ndarray:
    """Inverse of :func:`pack_bool`: word plane back to a bool ``(shots, n)``."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    rows, n = words.shape
    as_bytes = words.view(np.uint8).reshape(rows, n, 8)
    as_bytes = np.ascontiguousarray(as_bytes.transpose(0, 2, 1)).reshape(
        rows * 8, n
    )
    bits = np.unpackbits(as_bytes, axis=0, bitorder="little")
    return bits[:shots].astype(bool)


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
