"""Tests for the multi-ququart density-matrix simulator."""

import numpy as np
import pytest

from repro.densitymatrix.dm import DensityMatrix
from repro.densitymatrix.ququart import (
    LEVELS,
    cnot_with_leakage,
    leakage_injection_unitary,
    rx_computational,
    x_computational,
)


class TestConstruction:
    def test_default_all_zero(self):
        state = DensityMatrix(2)
        assert state.trace() == pytest.approx(1.0)
        assert state.measure_probability(0, 0) == pytest.approx(1.0)
        assert state.measure_probability(1, 0) == pytest.approx(1.0)

    def test_custom_initial_levels(self):
        state = DensityMatrix(3, initial_levels=[0, 2, 1])
        assert state.leak_probability(1) == pytest.approx(1.0)
        assert state.measure_probability(2, 1) == pytest.approx(1.0)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, initial_levels=[4])

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, initial_levels=[0])

    def test_zero_qudits_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(0)


class TestUnitaries:
    def test_single_qudit_x(self):
        state = DensityMatrix(2)
        state.apply_unitary(x_computational(), [1])
        assert state.measure_probability(1, 1) == pytest.approx(1.0)
        assert state.measure_probability(0, 0) == pytest.approx(1.0)

    def test_two_qudit_cnot(self):
        state = DensityMatrix(2, initial_levels=[1, 0])
        state.apply_unitary(cnot_with_leakage(), [0, 1])
        assert state.measure_probability(1, 1) == pytest.approx(1.0)

    def test_qudit_order_matters(self):
        state = DensityMatrix(2, initial_levels=[1, 0])
        # Control is qudit 1 (which is |0>), so nothing happens.
        state.apply_unitary(cnot_with_leakage(), [1, 0])
        assert state.measure_probability(0, 1) == pytest.approx(1.0)
        assert state.measure_probability(1, 0) == pytest.approx(1.0)

    def test_matches_explicit_kron_for_two_qudits(self):
        """Tensor-contraction application must equal the dense kron formula."""
        rng = np.random.default_rng(0)
        state = DensityMatrix(2, initial_levels=[1, 0])
        op = rx_computational(0.7)
        state.apply_unitary(op, [1])
        full = np.kron(np.eye(LEVELS), op)
        reference = DensityMatrix(2, initial_levels=[1, 0]).rho
        expected = full @ reference @ full.conj().T
        assert np.allclose(state.rho, expected)

    def test_trace_preserved_by_unitaries(self):
        state = DensityMatrix(3)
        state.apply_unitary(rx_computational(1.1), [0])
        state.apply_unitary(cnot_with_leakage(), [0, 2])
        assert state.trace() == pytest.approx(1.0)

    def test_purity_preserved_by_unitaries(self):
        state = DensityMatrix(2)
        state.apply_unitary(rx_computational(0.4), [0])
        assert state.purity() == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "apply",
        [
            lambda state, op: state.apply_unitary(op, [0, 1]),
            lambda state, op: state.apply_kraus([np.eye(16), op], [0, 1]),
            lambda state, op: state.apply_probabilistic_unitary(op, [0, 1], 0.5),
        ],
        ids=["apply_unitary", "apply_kraus", "apply_probabilistic_unitary"],
    )
    def test_wrong_operator_shape_rejected(self, apply):
        state = DensityMatrix(2)
        with pytest.raises(ValueError):
            apply(state, np.eye(4))


class TestChannels:
    def test_probabilistic_unitary_mixes(self):
        state = DensityMatrix(1)
        state.apply_probabilistic_unitary(x_computational(), [0], 0.3)
        assert state.measure_probability(0, 1) == pytest.approx(0.3)
        assert state.trace() == pytest.approx(1.0)
        assert state.purity() < 1.0

    def test_probability_zero_is_noop(self):
        state = DensityMatrix(1)
        state.apply_probabilistic_unitary(x_computational(), [0], 0.0)
        assert state.measure_probability(0, 0) == pytest.approx(1.0)

    def test_probability_one_is_unitary(self):
        state = DensityMatrix(1)
        state.apply_probabilistic_unitary(x_computational(), [0], 1.0)
        assert state.measure_probability(0, 1) == pytest.approx(1.0)
        assert state.purity() == pytest.approx(1.0)

    def test_kraus_channel_preserves_trace(self):
        state = DensityMatrix(1, initial_levels=[1])
        kraus = [
            np.sqrt(0.6) * np.eye(LEVELS, dtype=complex),
            np.sqrt(0.4) * leakage_injection_unitary(),
        ]
        state.apply_kraus(kraus, [0])
        assert state.trace() == pytest.approx(1.0)
        assert state.leak_probability(0) == pytest.approx(0.4)

    def test_empty_kraus_list_rejected(self):
        state = DensityMatrix(1)
        with pytest.raises(ValueError):
            state.apply_kraus([], [0])
        assert state.trace() == pytest.approx(1.0)

    def test_reset_returns_to_ground(self):
        state = DensityMatrix(2, initial_levels=[2, 1])
        state.reset(0)
        assert state.leak_probability(0) == pytest.approx(0.0)
        assert state.measure_probability(0, 0) == pytest.approx(1.0)
        # Other qudit untouched.
        assert state.measure_probability(1, 1) == pytest.approx(1.0)

    def test_reset_preserves_trace(self):
        state = DensityMatrix(1, initial_levels=[3])
        state.reset(0)
        assert state.trace() == pytest.approx(1.0)


class TestObservables:
    def test_populations_sum_to_one(self):
        state = DensityMatrix(2, initial_levels=[1, 2])
        for q in range(2):
            assert state.populations(q).sum() == pytest.approx(1.0)

    def test_leak_probability_counts_levels_two_and_three(self):
        assert DensityMatrix(1, initial_levels=[2]).leak_probability(0) == pytest.approx(1.0)
        assert DensityMatrix(1, initial_levels=[3]).leak_probability(0) == pytest.approx(1.0)
        assert DensityMatrix(1, initial_levels=[1]).leak_probability(0) == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Layout equivalence against a dense reference
# ----------------------------------------------------------------------
def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_permutation(rng, dim):
    return np.eye(dim, dtype=complex)[rng.permutation(dim)]


def _dense(op, qudits, n):
    """``op`` on ``qudits`` as a full operator: kron with the identity, then
    permute the tensor axes from ``qudits + others`` into canonical order."""
    k = len(qudits)
    full = np.kron(op, np.eye(LEVELS ** (n - k)))
    order = list(qudits) + [q for q in range(n) if q not in qudits]
    axes = [order.index(q) for q in range(n)]
    tensor = full.reshape((LEVELS,) * (2 * n)).transpose(axes + [n + a for a in axes])
    return tensor.reshape(LEVELS ** n, LEVELS ** n)


def _channel(rho, kraus, qudits, n):
    out = np.zeros_like(rho)
    for op in kraus:
        full = _dense(op, qudits, n)
        out += full @ rho @ full.conj().T
    return out


def _random_step(rng, n):
    """One random operation: (description, apply-to-state, apply-to-dense)."""
    k = int(rng.integers(1, 4))
    qudits = [int(q) for q in rng.permutation(n)[:k]]
    dim = LEVELS ** k
    kind = rng.choice(["unitary", "permutation", "kraus", "probabilistic", "reset"])
    if kind == "reset":
        qudit = qudits[0]
        resets = []
        for level in range(LEVELS):
            op = np.zeros((LEVELS, LEVELS), dtype=complex)
            op[0, level] = 1.0
            resets.append(op)
        return (
            f"reset({qudit})",
            lambda state: state.reset(qudit),
            lambda rho: _channel(rho, resets, [qudit], n),
        )
    if kind == "kraus":
        angle = rng.uniform(0.0, np.pi / 2)
        kraus = [np.cos(angle) * _random_unitary(rng, dim), np.sin(angle) * _random_unitary(rng, dim)]
        return (
            f"kraus{qudits}",
            lambda state: state.apply_kraus(kraus, qudits),
            lambda rho: _channel(rho, kraus, qudits, n),
        )
    op = _random_permutation(rng, dim) if kind == "permutation" else _random_unitary(rng, dim)
    if kind == "probabilistic":
        p = float(rng.choice([0.0, 0.3, 1.0]))
        if rng.random() < 0.5:
            op = _random_permutation(rng, dim)
        return (
            f"probabilistic{qudits} p={p}",
            lambda state: state.apply_probabilistic_unitary(op, qudits, p),
            lambda rho: (1 - p) * rho + p * _channel(rho, [op], qudits, n),
        )
    return (
        f"{kind}{qudits}",
        lambda state: state.apply_unitary(op, qudits),
        lambda rho: _channel(rho, [op], qudits, n),
    )


def _assert_matches(state, rho, n, context):
    assert np.allclose(state.rho, rho, rtol=0, atol=1e-12), context
    diag = np.real(np.diag(rho)).reshape((LEVELS,) * n)
    for q in range(n):
        expected = diag.sum(axis=tuple(i for i in range(n) if i != q))
        assert np.allclose(state.populations(q), expected, rtol=0, atol=1e-12), context
    assert state.trace() == pytest.approx(np.real(np.trace(rho)), abs=1e-12), context
    assert state.purity() == pytest.approx(np.real(np.trace(rho @ rho)), abs=1e-12), context


class TestLayoutEquivalence:
    """Random operation sequences agree with an explicit kron reference."""

    @pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (4, 2), (4, 3)])
    def test_random_sequence_matches_dense_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        initial = [int(level) for level in rng.integers(0, LEVELS, size=n)]
        state = DensityMatrix(n, initial_levels=initial)
        rho = DensityMatrix(n, initial_levels=initial).rho
        # Non-adjacent and reversed pairs first, then a random mix.
        steps = [
            ("unitary[2, 0]", _random_unitary(rng, LEVELS ** 2), [2, 0]),
            ("unitary[0, 2]", _random_unitary(rng, LEVELS ** 2), [0, 2]),
            ("permutation[n-1, 0]", _random_permutation(rng, LEVELS ** 2), [n - 1, 0]),
        ]
        history = []
        for label, op, qudits in steps:
            state.apply_probabilistic_unitary(op, qudits, 0.3)
            rho = 0.7 * rho + 0.3 * _channel(rho, [op], qudits, n)
            history.append(label)
            _assert_matches(state, rho, n, history)
        min_purity = 1.0
        for _ in range(30):
            label, on_state, on_dense = _random_step(rng, n)
            on_state(state)
            rho = on_dense(rho)
            history.append(label)
            _assert_matches(state, rho, n, history)
            min_purity = min(min_purity, state.purity())
        # The sequence reached a genuinely mixed state.
        assert min_purity < 0.9

    def test_reordered_pair_reuses_layout(self):
        """An operator on the leading pair in the other order matches the reference."""
        rng = np.random.default_rng(7)
        state = DensityMatrix(3, initial_levels=[1, 2, 0])
        rho = state.rho
        for qudits in ([0, 2], [2, 0], [0, 2], [1], [2, 1]):
            op = _random_unitary(rng, LEVELS ** len(qudits))
            state.apply_unitary(op, qudits)
            rho = _channel(rho, [op], qudits, 3)
            _assert_matches(state, rho, 3, qudits)

    def test_rho_is_a_snapshot(self):
        state = DensityMatrix(2, initial_levels=[1, 0])
        before = state.rho
        state.apply_unitary(x_computational(), [0])
        assert before[LEVELS, LEVELS] == 1.0
        assert state.rho[0, 0] == pytest.approx(1.0)
