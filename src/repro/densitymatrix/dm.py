"""A small multi-qudit density-matrix simulator (Section 3.3 methodology).

The state of ``n`` ququarts is a ``4**n x 4**n`` complex density matrix.  It
is stored as one contiguous *block*: the ket and bra axes of the ``k`` qudits
touched last lead, then the ket and then the bra axes of the other qudits,
so the block reads as a ``(4**k, 4**k, rest)`` array.

* An operator on the leading qudits (in any order) reuses the layout; an
  operator on another qudit set first costs one axis permutation of the
  block.  ``rho`` assembles the canonical ``(dim, dim)`` matrix from
  whatever layout the block is in; ``populations`` and ``trace`` read the
  diagonal in place.
* A conjugation ``U rho U^dagger`` is one matrix product ``U @ block`` on the
  ket side, then ``conj(U) @ block[a]`` for each leading ket index ``a`` on
  the bra side.
* An operator with exactly one entry 1 per row and zeros elsewhere (the
  leakage transport and injection permutations) is detected from the matrix
  and applied as a gather over the two leading axes instead: row ``(a, b)``
  of the ``(4**k * 4**k, rest)`` view becomes row ``(cols[a], cols[b])``.
* A probabilistic unitary is the mixture ``rho <- (1 - p) rho + p U rho
  U^dagger``, without an identity Kraus branch.  The gather and the mixing
  run a few rows at a time so each chunk stays in cache.

The state and one spare buffer of the same size are the only full-size
arrays an operator touches (``apply_kraus`` adds an accumulator).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.densitymatrix.ququart import LEVELS

#: Complex entries per chunk of the gather-and-mix loop (512 KiB).
_CHUNK_ELEMENTS = 1 << 15


def _row_permutation(op: np.ndarray) -> Optional[np.ndarray]:
    """``cols`` with ``op @ v == v[cols]`` if ``op`` is a 0/1 row selection."""
    rows, cols = np.nonzero(op)
    if np.array_equal(rows, np.arange(op.shape[0])) and np.all(op[rows, cols] == 1):
        return cols
    return None


def _checked_operator(matrix: np.ndarray, qudits: Sequence[int]) -> Tuple[np.ndarray, List[int]]:
    """``matrix`` as an array and ``qudits`` as a list, after a shape check."""
    matrix = np.asarray(matrix)
    qudits = [int(q) for q in qudits]
    expected = LEVELS ** len(qudits)
    if matrix.shape != (expected, expected):
        raise ValueError(f"operator shape {matrix.shape} does not match {len(qudits)} qudits")
    return matrix, qudits


class DensityMatrix:
    """Density matrix of ``num_qudits`` ququarts.

    Args:
        num_qudits: Number of four-level systems.
        initial_levels: Optional classical basis state to initialise in (one
            level per qudit); defaults to all-|0>.
    """

    def __init__(self, num_qudits: int, initial_levels: Sequence[int] = None):
        if num_qudits < 1:
            raise ValueError("num_qudits must be >= 1")
        self.num_qudits = num_qudits
        self.dim = LEVELS ** num_qudits
        if initial_levels is None:
            initial_levels = [0] * num_qudits
        if len(initial_levels) != num_qudits:
            raise ValueError("initial_levels must have one entry per qudit")
        index = 0
        for level in initial_levels:
            if not 0 <= level < LEVELS:
                raise ValueError(f"invalid level {level}")
            index = index * LEVELS + level
        # The flat state buffer and a spare of the same size; the layout is
        # ``self._order`` with its first ``self._lead`` qudits leading.
        self._data = np.zeros(self.dim * self.dim, dtype=complex)
        self._data[index * (self.dim + 1)] = 1.0
        self._spare = np.empty_like(self._data)
        self._order = list(range(num_qudits))
        self._lead = num_qudits

    # ------------------------------------------------------------------
    # Block layout
    # ------------------------------------------------------------------
    @property
    def rho(self) -> np.ndarray:
        """The canonical ``(dim, dim)`` density matrix (a copy)."""
        out = np.empty_like(self._data)
        self._relayout(list(range(self.num_qudits)), out)
        return out.reshape(self.dim, self.dim)

    def _axis(self, position: int, bra: bool) -> int:
        """Axis of the block tensor holding the ket/bra of ``self._order[position]``."""
        k, n = self._lead, self.num_qudits
        if position < k:
            return position + k * bra
        return k + position + (n - k) * bra

    def _swap_buffers(self) -> None:
        self._data, self._spare = self._spare, self._data

    def _relayout(self, lead: List[int], out: np.ndarray) -> List[int]:
        """Copy the state into ``out`` with ``lead`` leading; return its qudit order.

        The other qudits keep their relative order.
        """
        position = {q: i for i, q in enumerate(self._order)}
        order = lead + [q for q in self._order if q not in lead]
        kets = [self._axis(position[q], bra=False) for q in order]
        bras = [self._axis(position[q], bra=True) for q in order]
        k = len(lead)
        shape = (LEVELS,) * (2 * self.num_qudits)
        tensor = self._data.reshape(shape).transpose(kets[:k] + bras[:k] + kets[k:] + bras[k:])
        np.copyto(out.reshape(shape), tensor)
        return order

    def _bring_to_front(self, qudits: Sequence[int]) -> List[int]:
        """Make the set ``qudits`` lead the block; return the leading order.

        The state is permuted only when the leading qudits are a different
        set.
        """
        qudits = [int(q) for q in qudits]
        n = self.num_qudits
        if len(set(qudits)) != len(qudits) or not all(0 <= q < n for q in qudits):
            raise ValueError(f"invalid qudit list {qudits} for {n} qudits")
        if sorted(qudits) != sorted(self._order[: self._lead]):
            order = self._relayout(qudits, self._spare)
            self._swap_buffers()
            self._order, self._lead = order, len(qudits)
        return self._order[: self._lead]

    def _front_operator(self, matrix: np.ndarray, qudits: Sequence[int]) -> np.ndarray:
        """Bring ``qudits`` to the front and return ``matrix`` in the leading order.

        An operator on the leading set in another order has its tensor
        factors permuted instead of the state.
        """
        matrix, qudits = _checked_operator(matrix, qudits)
        k = len(qudits)
        front = self._bring_to_front(qudits)
        if front == qudits:
            return matrix
        order = [qudits.index(q) for q in front]
        tensor = matrix.reshape((LEVELS,) * (2 * k))
        return tensor.transpose(order + [k + i for i in order]).reshape(matrix.shape)

    # ------------------------------------------------------------------
    # Operator application
    # ------------------------------------------------------------------
    def _conjugate_to_spare(self, op: np.ndarray, probability: float = 1.0) -> None:
        """Write ``(1 - p) rho + p op rho op^dagger`` into the spare buffer.

        ``op`` acts on the leading qudits; the state itself is left as is.
        """
        dq = op.shape[0]
        cols = _row_permutation(op)
        if cols is None:
            np.matmul(op, self._data.reshape(dq, -1), out=self._spare.reshape(dq, -1))
            bra_op = op.conj()
            for ket_row in self._spare.reshape(dq, dq, -1):
                np.matmul(bra_op, ket_row, out=ket_row)
            if probability >= 1.0:
                return
        else:
            index = (cols[:, None] * dq + cols[None, :]).ravel()
        src = self._data.reshape(dq * dq, -1)
        dst = self._spare.reshape(dq * dq, -1)
        step = max(1, _CHUNK_ELEMENTS // src.shape[1])
        for start in range(0, dq * dq, step):
            rows = slice(start, start + step)
            mixed = dst[rows]
            if cols is not None:
                np.take(src, index[rows], axis=0, out=mixed)
            if probability < 1.0:
                mixed -= src[rows]
                mixed *= probability
                mixed += src[rows]

    def apply_unitary(self, matrix: np.ndarray, qudits: Sequence[int]) -> None:
        """Apply a unitary acting on the given qudits: rho -> U rho U^dagger."""
        self._conjugate_to_spare(self._front_operator(matrix, qudits))
        self._swap_buffers()

    def apply_kraus(self, kraus_operators: Iterable[np.ndarray], qudits: Sequence[int]) -> None:
        """Apply a channel given by Kraus operators on the given qudits."""
        operators = list(kraus_operators)
        if not operators:
            raise ValueError("apply_kraus needs at least one Kraus operator")
        operators = [self._front_operator(kraus, qudits) for kraus in operators]
        total = np.zeros_like(self._data)
        for kraus in operators:
            self._conjugate_to_spare(kraus)
            total += self._spare
        self._data = total

    def apply_probabilistic_unitary(
        self, matrix: np.ndarray, qudits: Sequence[int], probability: float
    ) -> None:
        """With the given probability apply the unitary, otherwise do nothing.

        The channel is the mixture ``(1 - p) rho + p U rho U^dagger``.
        """
        if probability <= 0.0:
            _checked_operator(matrix, qudits)
            return
        op = self._front_operator(matrix, qudits)
        self._conjugate_to_spare(op, min(probability, 1.0))
        self._swap_buffers()

    def reset(self, qudit: int) -> None:
        """Non-unitary reset of one qudit to |0> (removes leakage)."""
        self._bring_to_front([qudit])
        block = self._data.reshape(LEVELS, LEVELS, -1)
        traced = np.trace(block)
        block.fill(0.0)
        block[0, 0] = traced

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    def _diagonal(self) -> np.ndarray:
        """Real diagonal of rho with one axis per qudit, in ``self._order``."""
        dq = LEVELS ** self._lead
        dr = self.dim // dq
        square = self._data.reshape(dq, dq, dr, dr)
        diag = np.einsum("aabb->ab", square).real
        return diag.reshape((LEVELS,) * self.num_qudits)

    def populations(self, qudit: int) -> np.ndarray:
        """Level populations (length-4 probability vector) of one qudit."""
        axis = self._order.index(qudit)
        axes = tuple(i for i in range(self.num_qudits) if i != axis)
        pops = self._diagonal().sum(axis=axes)
        return np.clip(pops, 0.0, 1.0)

    def leak_probability(self, qudit: int) -> float:
        """Probability of finding a qudit in a leaked level (|2> or |3>)."""
        pops = self.populations(qudit)
        return float(pops[2] + pops[3])

    def measure_probability(self, qudit: int, level: int) -> float:
        """Probability of measuring a qudit in a specific level."""
        return float(self.populations(qudit)[level])

    def trace(self) -> float:
        """Trace of the density matrix (should remain 1)."""
        return float(self._diagonal().sum())

    def purity(self) -> float:
        """Tr(rho^2); equals 1 for pure states."""
        rho = self.rho
        return float(np.einsum("ij,ji->", rho, rho).real)
