"""Unit tests for the packed engine's bit-packing and sparse samplers."""

import numpy as np
import pytest

from repro.sim.packed_bits import (
    WORD_BITS,
    bit_positions,
    fair_words,
    full_words,
    num_words,
    pack_bool,
    popcount,
    sample_cells,
    sample_distinct,
    set_cells,
    unpack_words,
    update_columns,
)


class TestNumWords:
    @pytest.mark.parametrize(
        "shots,expected",
        [(1, 1), (63, 1), (64, 1), (65, 2), (128, 2), (129, 3), (1000, 16)],
    )
    def test_word_count(self, shots, expected):
        assert num_words(shots) == expected


class TestPackRoundtrip:
    @pytest.mark.parametrize("shots", [1, 7, 63, 64, 65, 130, 257])
    @pytest.mark.parametrize("ncols", [1, 3, 17])
    def test_roundtrip_recovers_matrix(self, shots, ncols):
        rng = np.random.default_rng(shots * 1000 + ncols)
        matrix = rng.random((shots, ncols)) < 0.4
        words = pack_bool(matrix)
        assert words.shape == (num_words(shots), ncols)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(unpack_words(words, shots), matrix)

    def test_bit_layout_is_little_endian_within_column(self):
        # Shot s must land in word s >> 6 at bit s & 63.
        shots = 130
        matrix = np.zeros((shots, 1), dtype=bool)
        for s in (0, 5, 63, 64, 129):
            matrix[s, 0] = True
        words = pack_bool(matrix)
        assert words[0, 0] == (1 << 0) | (1 << 5) | (1 << 63)
        assert words[1, 0] == 1 << 0
        assert words[2, 0] == 1 << 1

    def test_tail_bits_are_zero(self):
        shots = 70  # word row 1 has 58 dead tail bits
        words = pack_bool(np.ones((shots, 4), dtype=bool))
        tail_mask = np.uint64(2**64 - 1) ^ np.uint64((1 << (shots - 64)) - 1)
        assert not (words[-1] & tail_mask).any()

    def test_zero_columns(self):
        words = pack_bool(np.zeros((10, 0), dtype=bool))
        assert words.shape == (1, 0)
        assert unpack_words(words, 10).shape == (10, 0)


class TestMaskHelpers:
    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 130])
    def test_full_words_sets_every_shot_and_no_tail(self, shots):
        words = full_words(shots)
        assert unpack_words(words[:, np.newaxis], shots).all()
        assert popcount(words) == shots

    @pytest.mark.parametrize("shots,ncols", [(1, 1), (70, 4), (130, 0), (257, 9)])
    def test_popcount_and_set_cells_match_unpacked(self, shots, ncols):
        matrix = np.random.default_rng(shots + ncols).random((shots, ncols)) < 0.2
        words = pack_bool(matrix)
        assert popcount(words) == np.count_nonzero(matrix)
        rows, cols = set_cells(words, shots)
        want_rows, want_cols = np.nonzero(matrix)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(cols, want_cols)

    @pytest.mark.parametrize("unique", [True, False])
    def test_update_columns_applies_every_column(self, unique):
        rng = np.random.default_rng(5)
        out = rng.integers(0, 1 << 62, size=(3, 6)).astype(np.uint64)
        values = rng.integers(0, 1 << 62, size=(3, 4)).astype(np.uint64)
        cols = np.array([4, 1, 0, 3]) if unique else np.array([4, 1, 4, 1])
        want = out.copy()
        for j, col in enumerate(cols):
            want[:, col] ^= values[:, j]
        got = update_columns(np.bitwise_xor, out, cols, values, unique)
        assert got is out
        np.testing.assert_array_equal(got, want)


class TestBitPositions:
    def test_matches_layout(self):
        shots = np.array([0, 1, 63, 64, 70, 200])
        wrows, masks = bit_positions(shots)
        np.testing.assert_array_equal(wrows, shots >> 6)
        np.testing.assert_array_equal(
            masks, [1 << int(s % 64) for s in shots]
        )
        assert masks.dtype == np.uint64

    def test_agrees_with_pack_bool(self):
        shots = 100
        for s in (0, 42, 64, 99):
            matrix = np.zeros((shots, 1), dtype=bool)
            matrix[s, 0] = True
            words = pack_bool(matrix)
            wrow, mask = bit_positions(np.array([s]))
            assert words[wrow[0], 0] == mask[0]


class TestFairWords:
    def test_shape_and_dtype(self):
        words = fair_words(np.random.default_rng(1), (3, 5))
        assert words.shape == (3, 5)
        assert words.dtype == np.uint64

    def test_bits_are_fair(self):
        # Pooled bit frequency over many words: binomial(n, 1/2).
        words = fair_words(np.random.default_rng(2), 2000)
        ones = sum(int(w).bit_count() for w in words)
        n = 2000 * WORD_BITS
        assert abs(ones - n / 2) < 5 * np.sqrt(n / 4)

    def test_top_bit_is_reachable(self):
        # endpoint=True: without it the top value (and with other schemes the
        # top bit pattern) would be unreachable.
        words = fair_words(np.random.default_rng(3), 1000)
        assert (words >> np.uint64(63)).any()


class TestSampleDistinct:
    def test_empty_and_full(self):
        rng = np.random.default_rng(0)
        assert sample_distinct(rng, 10, 0).size == 0
        np.testing.assert_array_equal(
            np.sort(sample_distinct(rng, 10, 10)), np.arange(10)
        )
        np.testing.assert_array_equal(
            np.sort(sample_distinct(rng, 10, 15)), np.arange(10)
        )

    @pytest.mark.parametrize("n,k", [(1000, 5), (1000, 500), (64, 60)])
    def test_distinct_subset_of_range(self, n, k):
        chosen = sample_distinct(np.random.default_rng(n + k), n, k)
        assert chosen.size == k
        assert np.unique(chosen).size == k
        assert chosen.min() >= 0 and chosen.max() < n

    def test_marginal_is_uniform(self):
        # Each element of range(n) must be included with probability k/n.
        n, k, trials = 20, 5, 4000
        rng = np.random.default_rng(7)
        counts = np.zeros(n)
        for _ in range(trials):
            counts[sample_distinct(rng, n, k)] += 1
        expected = trials * k / n
        sigma = np.sqrt(trials * (k / n) * (1 - k / n))
        assert np.all(np.abs(counts - expected) < 5 * sigma)


class TestSampleCells:
    def test_degenerate_inputs(self):
        rng = np.random.default_rng(0)
        for shots, ncols, p in [(0, 4, 0.5), (4, 0, 0.5), (4, 4, 0.0)]:
            rows, cols = sample_cells(rng, shots, ncols, p)
            assert rows.size == 0 and cols.size == 0

    def test_certain_rate_hits_every_cell(self):
        rows, cols = sample_cells(np.random.default_rng(1), 5, 3, 1.0)
        assert rows.size == 15
        assert np.unique(cols * 5 + rows).size == 15

    def test_scalar_rate_is_exact_per_cell(self):
        shots, ncols, p, trials = 64, 4, 0.05, 300
        rng = np.random.default_rng(5)
        total = sum(
            sample_cells(rng, shots, ncols, p)[0].size for _ in range(trials)
        )
        n = shots * ncols * trials
        assert abs(total - n * p) < 5 * np.sqrt(n * p * (1 - p))

    def test_per_column_rates_thin_exactly(self):
        shots, trials = 256, 400
        p = np.array([0.0, 0.01, 0.05, 0.1])
        rng = np.random.default_rng(9)
        counts = np.zeros(p.size)
        for _ in range(trials):
            _, cols = sample_cells(rng, shots, p.size, p)
            np.add.at(counts, cols, 1)
        expected = shots * trials * p
        sigma = np.sqrt(np.maximum(shots * trials * p * (1 - p), 1.0))
        assert counts[0] == 0
        assert np.all(np.abs(counts - expected) < 5 * sigma)

    def test_cells_are_distinct_within_one_draw(self):
        rows, cols = sample_cells(np.random.default_rng(11), 1000, 8, 0.1)
        assert np.unique(cols * 1000 + rows).size == rows.size
