"""Bit-packed (64 shots per word) Pauli-frame simulator with leakage tracking.

The vectorised Monte-Carlo engine behind the paper's Section 5 evaluation
sweeps.  A naive multi-shot engine would carry frames as ``(shots,
num_qubits)`` boolean arrays and draw one float per (shot, qubit) cell for
every noise channel, so its cost would scale with ``shots`` even though
almost every draw is a miss at circuit-level rates.  This engine packs the
three planes — X frame, Z frame, leakage flag — into
``(ceil(shots / 64), num_qubits)`` uint64 words (stim-style: shot ``s`` is
bit ``s & 63`` of word row ``s >> 6``) and implements every circuit
operation as word-wide XOR/AND kernels:

* deterministic gate action (CNOT propagation, Hadamard frame swap, resets,
  measurement reads) is a handful of uint64 ops per qubit column, covering
  64 shots per instruction;
* noise channels are sampled *sparsely*: the hit count comes from the exact
  binomial over all (shot, qubit) cells and the hits land on a uniformly
  random distinct cell subset (:func:`repro.sim.packed_bits.sample_cells`),
  so the work per channel is proportional to the expected number of errors,
  not to ``shots``;
* probability-1/2 draws (random Pauli frames for leaked-qubit interactions,
  two-level readout of a leaked qubit) use uniformly random uint64 words —
  64 fair bits per draw.

Frames stay packed across the whole round; the engine unpacks only at the
syndrome-extraction boundary, where measurement records, leakage-population
fractions, and ground-truth leakage cross into the (unpacked) decoder and
policy layers as :class:`BatchedMeasurementRecord` rows.  Adaptive LRC
policies give different shots different schedules within one round; the
``*_instances`` methods take those per-shot LRC tails as *pair instances* —
parallel 1-D arrays ``(shot, data qubit, ancilla)``, one entry per scheduled
LRC in the whole batch — and run them as masked word-parallel column
kernels.

Statistical contract
--------------------
The packed engine draws its random numbers in a different order (and
through different samplers) than the scalar reference
:class:`~repro.sim.frame_simulator.LeakageFrameSimulator`, so per-shot
outcomes differ bit-for-bit under a shared seed.  Every error mechanism
still fires independently per cell with the same probability, conditioned
on the same per-qubit state, in the same operation order, so all observable
distributions are identical; noise-free circuits produce exactly equal
output on both engines.  ``tests/test_engine_equivalence.py`` and
``tests/test_packed_simulator.py`` enforce the contract.

Per-qubit :class:`~repro.noise.profiles.QubitNoise` arrays broadcast into
the packed kernels by thinning: sparse sampling runs at the per-channel
maximum rate and keeps each hit with probability ``rate[qubit] / max_rate``,
which is exact per cell.  Degenerate arrays (all qubits equal) collapse to
the scalar path at construction time, so they consume the identical random
stream as a plain ``NoiseParams`` — the same bit-identity guarantee the
scalar engine makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.noise.leakage import LeakageModel, LeakageTransportModel
from repro.noise.model import NoiseParams
from repro.noise.profiles import QubitNoise, channel_active, draw_pauli_codes
from repro.sim.circuit import (
    Cnot,
    Hadamard,
    LeakISwap,
    LrcFinalize,
    Measure,
    MeasureReset,
    Operation,
    Reset,
    RoundNoise,
)
from repro.sim.frame_simulator import LABEL_LEAKED
from repro.sim.packed_bits import (
    bit_positions,
    fair_words,
    num_words,
    pack_bool,
    sample_cells,
    unpack_words,
)
from repro.sim.rng import RngLike, make_rng

_ZERO = np.uint64(0)


@dataclass
class BatchedMeasurementRecord:
    """Result of one measurement operation across every shot in the batch.

    Attributes:
        qubits: Physical qubit indices that were measured, in order.
        bits: ``(shots, len(qubits))`` measured bits (flips relative to the
            noiseless reference).
        labels: ``(shots, len(qubits))`` multi-level discriminator labels
            (0, 1, or 2 == |L>), including classification error.
        true_leaked: ``(shots, len(qubits))`` ground-truth leakage status at
            measurement time.
        meta: Arbitrary metadata attached by the schedule generator (typically
            the stabilizer indices measured by these qubits).
    """

    qubits: np.ndarray
    bits: np.ndarray
    labels: np.ndarray
    true_leaked: np.ndarray
    meta: tuple


def _flag_masks(masks: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Single-bit masks where ``flags`` is set, zero words elsewhere."""
    return np.where(flags, masks, _ZERO)


def _pauli_flips(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """X/Z flip flags for Pauli codes 0=I, 1=X, 2=Y, 3=Z."""
    return (codes == 1) | (codes == 2), (codes == 3) | (codes == 2)


class PackedLeakageFrameSimulator:
    """Pauli-frame + leakage simulator over bit-packed multi-shot planes.

    Semantically equivalent to ``shots`` independent scalar simulators; see
    the module docstring for the packing layout and the statistical
    contract.

    Args:
        num_qubits: Total number of physical qubits per shot.
        noise: Circuit-level noise parameters shared by all shots — a scalar
            :class:`~repro.noise.model.NoiseParams` or a per-qubit
            :class:`~repro.noise.profiles.QubitNoise` (consumed by thinning,
            see module docstring).
        leakage: Leakage model parameters (shared by all shots).
        shots: Number of Monte-Carlo shots carried by the packed planes.
        rng: Seed or numpy generator; a single stream serves the whole batch.
    """

    def __init__(
        self,
        num_qubits: int,
        noise: Union[NoiseParams, QubitNoise],
        leakage: LeakageModel,
        shots: int,
        rng: RngLike = None,
    ):
        if num_qubits <= 0:
            raise ValueError("num_qubits must be positive")
        if shots <= 0:
            raise ValueError("shots must be positive")
        noise.validate()
        if isinstance(noise, QubitNoise) and noise.num_qubits != num_qubits:
            raise ValueError(
                f"per-qubit noise covers {noise.num_qubits} qubits, "
                f"but the simulator has {num_qubits}"
            )
        leakage.validate()
        self.num_qubits = num_qubits
        self.shots = shots
        self.noise = noise
        self.leakage = leakage
        self.rng = make_rng(rng)
        self.words = num_words(shots)
        # Invariant: bits for shot indices >= shots (the tail of the last
        # word row) are zero in all three planes at operation boundaries.
        self.x = np.zeros((self.words, num_qubits), dtype=np.uint64)
        self.z = np.zeros((self.words, num_qubits), dtype=np.uint64)
        self.leaked = np.zeros((self.words, num_qubits), dtype=np.uint64)
        self._w_index = np.arange(self.words, dtype=np.int64)[:, np.newaxis]
        self._p_round = self._as_channel(noise.p_round_depolarize)
        self._p_gate1 = self._as_channel(noise.p_gate1)
        self._p_gate2 = self._as_channel(noise.p_gate2)
        self._p_measure = self._as_channel(noise.p_measure)
        self._p_reset = self._as_channel(noise.p_reset)
        self._p_multilevel = self._as_channel(noise.p_multilevel_readout_error)
        self._pauli1_cdf = getattr(noise, "pauli1_cdf", None)
        self._pauli2_cdf = getattr(noise, "pauli2_cdf", None)

    @staticmethod
    def _as_channel(value):
        """Collapse degenerate per-qubit arrays to the scalar fast path.

        A profile whose per-qubit rates are all equal must consume the same
        random stream as the plain scalar model (no thinning draws), so
        seeded degenerate-profile runs stay bit-identical to uniform ones.
        """
        if isinstance(value, np.ndarray):
            if value.size and float(value.min()) == float(value.max()):
                return float(value.flat[0])
            return value
        return float(value)

    @staticmethod
    def _rate(p, cols: np.ndarray):
        """Channel rate(s) at the given qubit columns (scalars pass through)."""
        if isinstance(p, np.ndarray):
            return p[cols]
        return p

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self, operations: Sequence[Operation]
    ) -> Dict[str, BatchedMeasurementRecord]:
        """Execute operations on all shots and return measurement records.

        Every operation acts on every shot; per-shot divergence (adaptive
        LRC tails) goes through the ``*_instances`` methods instead.
        """
        records: Dict[str, BatchedMeasurementRecord] = {}
        for op in operations:
            if isinstance(op, RoundNoise):
                self._round_noise(op.qubits)
            elif isinstance(op, Hadamard):
                self._hadamard(op.qubits)
            elif isinstance(op, Cnot):
                self._cnot_cols(op.controls, op.targets)
            elif isinstance(op, Measure):
                records[op.key] = self._measure_record(op.qubits, op.meta)
            elif isinstance(op, MeasureReset):
                records[op.key] = self._measure_record(op.qubits, op.meta)
                self._reset_cols(op.qubits)
            elif isinstance(op, Reset):
                self._reset_cols(op.qubits)
            elif isinstance(op, LrcFinalize):
                records[op.key] = self._lrc_finalize(op)
            elif isinstance(op, LeakISwap):
                self._leak_iswap_all(op.data_qubits, op.ancillas)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unsupported operation {type(op).__name__}")
        return records

    def leaked_at(self, qubits: Sequence[int]) -> np.ndarray:
        """Ground-truth leakage for the given qubits as bool ``(shots, k)``."""
        idx = np.asarray(qubits, dtype=np.int64)
        if idx.size == 0:
            return np.zeros((self.shots, 0), dtype=bool)
        return unpack_words(self.leaked[:, idx], self.shots)

    def leaked_fraction(self, qubits: Optional[Sequence[int]] = None) -> np.ndarray:
        """Per-shot fraction of the given qubits (default: all) currently leaked."""
        if qubits is None:
            qubits = np.arange(self.num_qubits, dtype=np.int64)
        idx = np.asarray(qubits, dtype=np.int64)
        if idx.size == 0:
            return np.zeros(self.shots)
        return self.leaked_at(idx).mean(axis=1)

    def snapshot_leaked(self) -> np.ndarray:
        """Unpacked copy of the current ``(shots, num_qubits)`` leakage flags."""
        return self.leaked_at(np.arange(self.num_qubits, dtype=np.int64))

    # ------------------------------------------------------------------
    # Instance API (one entry per scheduled LRC pair across the batch)
    # ------------------------------------------------------------------
    def _group_pairs(
        self,
        shot_idx: np.ndarray,
        first: np.ndarray,
        second: np.ndarray,
        positions: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool, bool, np.ndarray]:
        """Group pair instances by their (first, second) qubit columns.

        Returns ``(first_cols, second_cols, mask_words, first_unique,
        second_unique, pair_of)``: one column pair per distinct qubit pair
        in the instance set, a ``(words, n_pairs)`` activity plane whose
        column ``j`` has the shot bits scheduling pair ``j``, and the local
        pair index of each instance.  This turns a batch of scattered
        per-shot instances into masked word-parallel column kernels.  The
        ``*_unique`` flags report whether a qubit appears in more than one
        distinct pair (shots partition between them), which forces
        unbuffered scatter in the column kernels.
        """
        nq = self.num_qubits
        key = first.astype(np.int64) * nq + second
        present = np.zeros(nq * nq, dtype=bool)
        present[key] = True
        uniq = np.nonzero(present)[0]
        lookup = np.empty(nq * nq, dtype=np.int64)
        lookup[uniq] = np.arange(uniq.size)
        pair_of = lookup[key]
        wrows, masks = positions if positions is not None else bit_positions(shot_idx)
        mask_words = np.zeros((self.words, uniq.size), dtype=np.uint64)
        np.bitwise_or.at(mask_words, (wrows, pair_of), masks)
        first_cols = uniq // nq
        second_cols = uniq % nq
        first_unique = np.unique(first_cols).size == first_cols.size
        second_unique = np.unique(second_cols).size == second_cols.size
        return first_cols, second_cols, mask_words, first_unique, second_unique, pair_of

    def _xor_cols(
        self, plane: np.ndarray, cols: np.ndarray, vals: np.ndarray, unique: bool
    ) -> None:
        """XOR word columns into ``plane``, tolerating duplicated columns."""
        if unique:
            plane[:, cols] ^= vals
        else:
            np.bitwise_xor.at(plane, (self._w_index, cols), vals)

    def swap_instances(
        self, shot_idx: np.ndarray, data_qubits: np.ndarray, ancillas: np.ndarray
    ) -> None:
        """Three-CNOT SWAP on per-shot (data, ancilla) pair instances."""
        if shot_idx.size == 0:
            return
        d_cols, a_cols, act, d_u, a_u, _ = self._group_pairs(
            np.asarray(shot_idx, dtype=np.int64), data_qubits, ancillas
        )
        self._cnot_cols(d_cols, a_cols, act=act, c_unique=d_u, t_unique=a_u)
        self._cnot_cols(a_cols, d_cols, act=act, c_unique=a_u, t_unique=d_u)
        self._cnot_cols(d_cols, a_cols, act=act, c_unique=d_u, t_unique=a_u)

    def lrc_finalize_instances(
        self,
        shot_idx: np.ndarray,
        data_qubits: np.ndarray,
        ancillas: np.ndarray,
        adaptive_multilevel: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """SWAP-LRC tail on pair instances; returns 1-D (bits, labels, leaked).

        Semantics mirror :class:`~repro.sim.circuit.LrcFinalize`: measure
        the data-side qubit (holding the parity outcome), reset it, swap the
        parked data state back — unless ``adaptive_multilevel`` is set and the measurement
        reported |L>, in which case the swap-back is squashed and the parity
        qubit is reset instead (ERASER+M, Section 4.6.2).
        """
        shot_idx = np.asarray(shot_idx, dtype=np.int64)
        wrows, masks = bit_positions(shot_idx)
        d_cols, a_cols, act, d_u, a_u, pair_of = self._group_pairs(
            shot_idx, data_qubits, ancillas, positions=(wrows, masks)
        )
        bits_m, labels_m, leaked_m = self._measure_pair_cols(d_cols, act, d_u)
        self._reset_pair_cols(d_cols, act, d_u)
        bits = bits_m[shot_idx, pair_of]
        labels = labels_m[shot_idx, pair_of]
        true_leaked = leaked_m[shot_idx, pair_of]
        if adaptive_multilevel:
            leaked_label = labels == LABEL_LEAKED
        else:
            leaked_label = None
        act_back = act
        if leaked_label is not None and leaked_label.any():
            # Squashed instances drop out of the swap-back activity plane.
            act_back = act.copy()
            np.bitwise_and.at(
                act_back,
                (wrows[leaked_label], pair_of[leaked_label]),
                ~masks[leaked_label],
            )
        # Two-CNOT swap-back (valid because the data-side qubit is |0>).
        self._cnot_cols(a_cols, d_cols, act=act_back, c_unique=a_u, t_unique=d_u)
        self._cnot_cols(d_cols, a_cols, act=act_back, c_unique=d_u, t_unique=a_u)
        # The parity qubit physically ends in |0>; clear the unphysical
        # residual phase frame, as the other engines do.
        if a_u:
            self.z[:, a_cols] &= ~act_back
        else:
            np.bitwise_and.at(self.z, (self._w_index, a_cols), ~act_back)
        if leaked_label is not None and leaked_label.any():
            w_q, m_q = wrows[leaked_label], masks[leaked_label]
            d_q, a_q = data_qubits[leaked_label], ancillas[leaked_label]
            self._reset_instances_ix(w_q, m_q, a_q)
            # The parked data state is lost; the freshly reset data qubit is
            # a random Pauli relative to the reference.
            codes = self.rng.integers(0, 4, size=w_q.size)
            xf, zf = _pauli_flips(codes)
            np.bitwise_xor.at(self.x, (w_q, d_q), _flag_masks(m_q, xf))
            np.bitwise_xor.at(self.z, (w_q, d_q), _flag_masks(m_q, zf))
        return bits, labels, true_leaked

    def leak_iswap_instances(
        self, shot_idx: np.ndarray, data_qubits: np.ndarray, ancillas: np.ndarray
    ) -> None:
        """DQLR LeakageISWAP on per-shot (data, ancilla) pair instances."""
        if shot_idx.size == 0:
            return
        wrows, masks = bit_positions(np.asarray(shot_idx, dtype=np.int64))
        self._leak_iswap_instances_ix(wrows, masks, data_qubits, ancillas)

    def reset_instances(self, shot_idx: np.ndarray, qubits: np.ndarray) -> None:
        """Reset per-shot qubit instances to |0>."""
        if shot_idx.size == 0:
            return
        wrows, masks = bit_positions(np.asarray(shot_idx, dtype=np.int64))
        self._reset_instances_ix(wrows, masks, qubits)

    def measure_reset_masked(
        self,
        qubits: np.ndarray,
        meta: tuple,
        active: np.ndarray,
    ) -> BatchedMeasurementRecord:
        """Measure-and-reset the given qubits only where ``active`` is set.

        Used by the harness to measure each shot's *main* parity qubits
        while leaving the per-shot LRC'd ancillas (which hold parked data
        states) untouched; record cells where ``active`` is False carry
        draws but no state was touched there, and the harness overwrites
        them with the per-shot LRC measurement results.
        """
        qubits = np.asarray(qubits, dtype=np.int64)
        active_words = pack_bool(np.ascontiguousarray(active, dtype=bool))
        bits, labels, true_leaked = self._measure_cols(
            qubits, collapse=active_words
        )
        self._reset_cols(qubits, active=active_words)
        return BatchedMeasurementRecord(
            qubits=qubits.copy(),
            bits=bits,
            labels=labels,
            true_leaked=true_leaked,
            meta=meta,
        )

    # ------------------------------------------------------------------
    # Random draws
    # ------------------------------------------------------------------
    def _pauli1_codes(self, size) -> np.ndarray:
        """Single-qubit error codes 1..3, biased when the profile says so."""
        return draw_pauli_codes(self.rng, self._pauli1_cdf, size, 3)

    def _pauli2_codes(self, size) -> np.ndarray:
        """Two-qubit error codes 1..15, biased when the profile says so."""
        return draw_pauli_codes(self.rng, self._pauli2_cdf, size, 15)

    def _bernoulli_at(self, p, cols: np.ndarray) -> np.ndarray:
        """Per-instance Bernoulli hits at the rate of each instance's qubit."""
        rate = self._rate(p, cols)
        if isinstance(rate, np.ndarray):
            if not rate.any():
                return np.zeros(cols.shape, dtype=bool)
            return self.rng.random(cols.shape) < rate
        if rate <= 0.0:
            return np.zeros(cols.shape, dtype=bool)
        return self.rng.random(cols.shape) < rate

    # ------------------------------------------------------------------
    # Dense (all-shots) kernels over qubit column sets
    # ------------------------------------------------------------------
    def _depolarize1_cols(self, cols: np.ndarray, p) -> None:
        """Sparse single-qubit depolarising noise on unleaked cells."""
        if not channel_active(p):
            return
        rows, col_local = sample_cells(
            self.rng, self.shots, cols.size, self._rate(p, cols)
        )
        if rows.size == 0:
            return
        wrows, masks = bit_positions(rows)
        gcols = cols[col_local]
        unleaked = (self.leaked[wrows, gcols] & masks) == 0
        if not unleaked.any():
            return
        wrows, masks, gcols = wrows[unleaked], masks[unleaked], gcols[unleaked]
        codes = self._pauli1_codes(wrows.size)
        xf, zf = _pauli_flips(codes)
        np.bitwise_xor.at(self.x, (wrows, gcols), _flag_masks(masks, xf))
        np.bitwise_xor.at(self.z, (wrows, gcols), _flag_masks(masks, zf))

    def _inject_leakage_cols(
        self, cols: np.ndarray, p: float, act: Optional[np.ndarray] = None
    ) -> None:
        """Leak currently-unleaked (active) cells with probability ``p``."""
        if p <= 0.0:
            return
        rows, col_local = sample_cells(self.rng, self.shots, cols.size, p)
        if rows.size == 0:
            return
        wrows, masks = bit_positions(rows)
        gcols = cols[col_local]
        unleaked = (self.leaked[wrows, gcols] & masks) == 0
        if act is not None:
            unleaked &= (act[wrows, col_local] & masks) != 0
        np.bitwise_or.at(
            self.leaked, (wrows[unleaked], gcols[unleaked]), masks[unleaked]
        )

    def _round_noise(self, qubits: np.ndarray) -> None:
        cols = qubits
        snapshot = self.leaked[:, cols].copy()
        self._depolarize1_cols(cols, self._p_round)
        self._inject_leakage_cols(cols, self.leakage.p_leak_round)
        # Seepage returns qubits that were leaked at the *start* of the round
        # (a just-injected qubit cannot seep within the same round).
        if self.leakage.p_seepage > 0.0 and snapshot.any():
            rows, col_local = sample_cells(
                self.rng, self.shots, cols.size, self.leakage.p_seepage
            )
            if rows.size:
                wrows, masks = bit_positions(rows)
                seep = (snapshot[wrows, col_local] & masks) != 0
                if seep.any():
                    wrows, masks = wrows[seep], masks[seep]
                    gcols = cols[col_local[seep]]
                    self._return_to_computational_at(wrows, masks, gcols)

    def _return_to_computational_at(
        self, wrows: np.ndarray, masks: np.ndarray, gcols: np.ndarray
    ) -> None:
        """Per-instance: clear leakage, leave a random computational state."""
        np.bitwise_and.at(self.leaked, (wrows, gcols), ~masks)
        rand_x = self.rng.random(wrows.shape) < 0.5
        rand_z = self.rng.random(wrows.shape) < 0.5
        np.bitwise_and.at(self.x, (wrows, gcols), ~masks)
        np.bitwise_or.at(self.x, (wrows, gcols), _flag_masks(masks, rand_x))
        np.bitwise_and.at(self.z, (wrows, gcols), ~masks)
        np.bitwise_or.at(self.z, (wrows, gcols), _flag_masks(masks, rand_z))

    def _hadamard(self, qubits: np.ndarray) -> None:
        cols = qubits
        ok = ~self.leaked[:, cols]  # tail bits irrelevant: ANDed below
        swap = (self.x[:, cols] ^ self.z[:, cols]) & ok
        self.x[:, cols] ^= swap
        self.z[:, cols] ^= swap
        self._depolarize1_cols(cols, self._p_gate1)

    def _pair_rate(self, c_cols: np.ndarray, t_cols: np.ndarray):
        """Two-qubit gate error rate per pair (mean of the operands' rates)."""
        p = self._p_gate2
        if isinstance(p, np.ndarray):
            return 0.5 * (p[c_cols] + p[t_cols])
        return p

    def _depolarize2_cells(
        self,
        c_cols: np.ndarray,
        t_cols: np.ndarray,
        act: Optional[np.ndarray] = None,
    ) -> None:
        """Sparse correlated two-qubit noise on fully-unleaked (active) pairs."""
        if not channel_active(self._p_gate2):
            return
        rows, pair = sample_cells(
            self.rng, self.shots, c_cols.size, self._pair_rate(c_cols, t_cols)
        )
        if rows.size == 0:
            return
        wrows, masks = bit_positions(rows)
        gc, gt = c_cols[pair], t_cols[pair]
        both_ok = (
            (self.leaked[wrows, gc] | self.leaked[wrows, gt]) & masks
        ) == 0
        if act is not None:
            both_ok &= (act[wrows, pair] & masks) != 0
        if not both_ok.any():
            return
        wrows, masks = wrows[both_ok], masks[both_ok]
        gc, gt = gc[both_ok], gt[both_ok]
        codes = self._pauli2_codes(wrows.size)
        cxf, czf = _pauli_flips(codes // 4)
        txf, tzf = _pauli_flips(codes % 4)
        np.bitwise_xor.at(self.x, (wrows, gc), _flag_masks(masks, cxf))
        np.bitwise_xor.at(self.z, (wrows, gc), _flag_masks(masks, czf))
        np.bitwise_xor.at(self.x, (wrows, gt), _flag_masks(masks, txf))
        np.bitwise_xor.at(self.z, (wrows, gt), _flag_masks(masks, tzf))

    def _cnot_cols(
        self,
        controls: np.ndarray,
        targets: np.ndarray,
        act: Optional[np.ndarray] = None,
        c_unique: bool = True,
        t_unique: bool = True,
    ) -> None:
        """CNOT layer over qubit columns, optionally masked per (shot, pair).

        ``act`` is a ``(words, n_pairs)`` activity plane (from
        :meth:`_group_pairs`) restricting the gate to the shots scheduling
        each pair; ``None`` means all shots.  ``c_unique``/``t_unique``
        report column uniqueness — duplicated columns (one qubit in several
        masked pairs) require unbuffered scatter.
        """
        c_cols = controls
        t_cols = targets
        leaked_c = self.leaked[:, c_cols]
        leaked_t = self.leaked[:, t_cols]
        both_ok = ~(leaked_c | leaked_t)
        if act is not None:
            both_ok &= act
        # Frame propagation on fully unleaked pairs (unmasked tail bits of
        # both_ok are set, but the x/z planes are tail-clean, so the AND
        # keeps them so).
        self._xor_cols(self.x, t_cols, self.x[:, c_cols] & both_ok, t_unique)
        self._xor_cols(self.z, c_cols, self.z[:, t_cols] & both_ok, c_unique)
        self._depolarize2_cells(c_cols, t_cols, act=act)

        # Interaction between a leaked and an unleaked operand: the unleaked
        # side suffers a random Pauli and may acquire leakage via transport.
        one_leaked = leaked_c ^ leaked_t
        if act is not None:
            one_leaked &= act
        if one_leaked.any():
            pairs_hit = unpack_words(one_leaked, self.shots)
            shot, pair = np.nonzero(pairs_hit)
            wrows, masks = bit_positions(shot)
            recv_is_target = (self.leaked[wrows, c_cols[pair]] & masks) != 0
            recv = np.where(recv_is_target, t_cols[pair], c_cols[pair])
            codes = self.rng.integers(0, 4, size=shot.size)
            xf, zf = _pauli_flips(codes)
            np.bitwise_xor.at(self.x, (wrows, recv), _flag_masks(masks, xf))
            np.bitwise_xor.at(self.z, (wrows, recv), _flag_masks(masks, zf))
            if self.leakage.p_transport > 0.0:
                transported = self.rng.random(shot.size) < self.leakage.p_transport
                if transported.any():
                    w_t, m_t = wrows[transported], masks[transported]
                    np.bitwise_or.at(self.leaked, (w_t, recv[transported]), m_t)
                    if self.leakage.transport_model is LeakageTransportModel.EXCHANGE:
                        source = np.where(
                            recv_is_target, c_cols[pair], t_cols[pair]
                        )[transported]
                        self._return_to_computational_at(w_t, m_t, source)

        # Operation-induced leakage injection on currently unleaked operands.
        self._inject_leakage_cols(c_cols, self.leakage.p_leak_gate, act=act)
        self._inject_leakage_cols(t_cols, self.leakage.p_leak_gate, act=act)

    def _measure_cols(
        self, cols: np.ndarray, collapse: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Measure the given qubit columns; returns unpacked (bits, labels, leaked).

        Same pinned error-application order as the other engines: classical
        p_measure flip first, then the leaked-qubit bit is *overwritten* by a
        fair random outcome, labels are derived afterwards, and the
        multi-level classification error shifts labels last.  ``collapse``
        (packed words) restricts the phase-frame collapse to active cells.
        """
        true_leaked = self.leaked[:, cols].copy()
        bits = self.x[:, cols].copy()
        rows, col_local = sample_cells(
            self.rng, self.shots, cols.size, self._rate(self._p_measure, cols)
        )
        if rows.size:
            wrows, masks = bit_positions(rows)
            np.bitwise_xor.at(bits, (wrows, col_local), masks)
        if true_leaked.any():
            random_bits = fair_words(self.rng, true_leaked.shape)
            bits = (bits & ~true_leaked) | (random_bits & true_leaked)
        bits_b = unpack_words(bits, self.shots)
        leaked_b = unpack_words(true_leaked, self.shots)
        labels = bits_b.astype(np.int8)
        labels[leaked_b] = LABEL_LEAKED
        if channel_active(self._p_multilevel):
            rows, col_local = sample_cells(
                self.rng, self.shots, cols.size,
                self._rate(self._p_multilevel, cols),
            )
            if rows.size:
                shift = self.rng.integers(1, 3, size=rows.size).astype(np.int8)
                labels[rows, col_local] = (labels[rows, col_local] + shift) % 3
        if collapse is None:
            self.z[:, cols] = _ZERO
        else:
            self.z[:, cols] &= ~collapse
        return bits_b.astype(np.uint8), labels.astype(np.uint8), leaked_b

    def _measure_record(
        self, qubits: np.ndarray, meta: tuple
    ) -> BatchedMeasurementRecord:
        bits, labels, true_leaked = self._measure_cols(qubits)
        return BatchedMeasurementRecord(
            qubits=qubits.copy(),
            bits=bits,
            labels=labels,
            true_leaked=true_leaked,
            meta=meta,
        )

    def _reset_cols(
        self, cols: np.ndarray, active: Optional[np.ndarray] = None
    ) -> None:
        rows, col_local = sample_cells(
            self.rng, self.shots, cols.size, self._rate(self._p_reset, cols)
        )
        wrows, masks = bit_positions(rows)
        if active is None:
            self.x[:, cols] = _ZERO
            self.z[:, cols] = _ZERO
            self.leaked[:, cols] = _ZERO
            if rows.size:
                np.bitwise_or.at(self.x, (wrows, cols[col_local]), masks)
        else:
            self.x[:, cols] &= ~active
            self.z[:, cols] &= ~active
            self.leaked[:, cols] &= ~active
            if rows.size:
                keep = (active[wrows, col_local] & masks) != 0
                np.bitwise_or.at(
                    self.x,
                    (wrows[keep], cols[col_local[keep]]),
                    masks[keep],
                )

    def _measure_pair_cols(
        self, cols: np.ndarray, act: np.ndarray, unique: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Measure grouped pair columns where ``act`` is set; (shots, n) matrices.

        ``cols`` are the data-side qubit columns of :meth:`_group_pairs`
        output — possibly duplicated (one qubit in several pairs), which is
        why results are pair-local matrices rather than state columns.
        Cells outside ``act`` carry draws but no meaning; callers only read
        back active cells, and only those cells' phase frames collapse.
        """
        true_leaked = self.leaked[:, cols] & act
        bits = self.x[:, cols] & act
        rows, col_local = sample_cells(
            self.rng, self.shots, cols.size, self._rate(self._p_measure, cols)
        )
        if rows.size:
            w_f, m_f = bit_positions(rows)
            np.bitwise_xor.at(bits, (w_f, col_local), m_f)
        if true_leaked.any():
            random_bits = fair_words(self.rng, true_leaked.shape)
            bits = (bits & ~true_leaked) | (random_bits & true_leaked)
        bits_b = unpack_words(bits, self.shots)
        leaked_b = unpack_words(true_leaked, self.shots)
        labels = bits_b.astype(np.int8)
        labels[leaked_b] = LABEL_LEAKED
        if channel_active(self._p_multilevel):
            rows, col_local = sample_cells(
                self.rng, self.shots, cols.size,
                self._rate(self._p_multilevel, cols),
            )
            if rows.size:
                shift = self.rng.integers(1, 3, size=rows.size).astype(np.int8)
                labels[rows, col_local] = (labels[rows, col_local] + shift) % 3
        if unique:
            self.z[:, cols] &= ~act
        else:
            np.bitwise_and.at(self.z, (self._w_index, cols), ~act)
        return bits_b.astype(np.uint8), labels.astype(np.uint8), leaked_b

    def _reset_pair_cols(
        self, cols: np.ndarray, act: np.ndarray, unique: bool
    ) -> None:
        """Reset grouped pair columns to |0> where ``act`` is set."""
        rows, col_local = sample_cells(
            self.rng, self.shots, cols.size, self._rate(self._p_reset, cols)
        )
        not_act = ~act
        if unique:
            self.x[:, cols] &= not_act
            self.z[:, cols] &= not_act
            self.leaked[:, cols] &= not_act
        else:
            np.bitwise_and.at(self.x, (self._w_index, cols), not_act)
            np.bitwise_and.at(self.z, (self._w_index, cols), not_act)
            np.bitwise_and.at(self.leaked, (self._w_index, cols), not_act)
        if rows.size:
            w_f, m_f = bit_positions(rows)
            keep = (act[w_f, col_local] & m_f) != 0
            np.bitwise_or.at(
                self.x, (w_f[keep], cols[col_local[keep]]), m_f[keep]
            )

    def _lrc_finalize(self, op: LrcFinalize) -> BatchedMeasurementRecord:
        # Expand the (shots x pairs) block into pair instances so the IR path
        # and the instance path share one implementation.
        n_pairs = op.data_qubits.size
        shot_idx = np.repeat(np.arange(self.shots, dtype=np.int64), n_pairs)
        data_qubits = np.tile(op.data_qubits, self.shots)
        ancillas = np.tile(op.ancillas, self.shots)
        bits, labels, true_leaked = self.lrc_finalize_instances(
            shot_idx, data_qubits, ancillas,
            adaptive_multilevel=op.adaptive_multilevel,
        )
        shape = (self.shots, n_pairs)
        return BatchedMeasurementRecord(
            qubits=op.data_qubits.copy(),
            bits=bits.reshape(shape),
            labels=labels.reshape(shape),
            true_leaked=true_leaked.reshape(shape),
            meta=op.meta,
        )

    def _leak_iswap_all(self, data_qubits: np.ndarray, ancillas: np.ndarray) -> None:
        n_pairs = data_qubits.size
        shot_idx = np.repeat(np.arange(self.shots, dtype=np.int64), n_pairs)
        self.leak_iswap_instances(
            shot_idx, np.tile(data_qubits, self.shots), np.tile(ancillas, self.shots)
        )

    # ------------------------------------------------------------------
    # Instance kernels (per-shot scattered cells; word/bit scatter-gather)
    # ------------------------------------------------------------------
    def _get_bits(
        self, plane: np.ndarray, wrows: np.ndarray, masks: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        return (plane[wrows, cols] & masks) != 0

    def _inject_leakage_instances(
        self, wrows: np.ndarray, masks: np.ndarray, cols: np.ndarray
    ) -> None:
        p = self.leakage.p_leak_gate
        if p <= 0.0:
            return
        hit = self.rng.random(wrows.shape) < p
        hit &= (self.leaked[wrows, cols] & masks) == 0
        if hit.any():
            np.bitwise_or.at(
                self.leaked, (wrows[hit], cols[hit]), masks[hit]
            )

    def _reset_instances_ix(
        self, wrows: np.ndarray, masks: np.ndarray, cols: np.ndarray
    ) -> None:
        flips = self._bernoulli_at(self._p_reset, cols)
        np.bitwise_and.at(self.x, (wrows, cols), ~masks)
        np.bitwise_or.at(self.x, (wrows, cols), _flag_masks(masks, flips))
        np.bitwise_and.at(self.z, (wrows, cols), ~masks)
        np.bitwise_and.at(self.leaked, (wrows, cols), ~masks)

    def _leak_iswap_instances_ix(
        self, wrows: np.ndarray, masks: np.ndarray,
        data_qubits: np.ndarray, ancillas: np.ndarray,
    ) -> None:
        """DQLR LeakageISWAP: move data-qubit leakage onto reset parity qubits."""
        leaked_d = self._get_bits(self.leaked, wrows, masks, data_qubits)
        leaked_a = self._get_bits(self.leaked, wrows, masks, ancillas)
        both_ok = ~(leaked_d | leaked_a)
        # Gate infidelity comparable to a CX on computational-basis pairs.
        if channel_active(self._p_gate2):
            p = self._p_gate2
            if isinstance(p, np.ndarray):
                pair_p = 0.5 * (p[data_qubits] + p[ancillas])
                hit = self.rng.random(wrows.shape) < pair_p
            else:
                hit = self.rng.random(wrows.shape) < p
            hit &= both_ok
            if hit.any():
                w_h, m_h = wrows[hit], masks[hit]
                d_h, a_h = data_qubits[hit], ancillas[hit]
                codes = self._pauli2_codes(w_h.size)
                dxf, dzf = _pauli_flips(codes // 4)
                axf, azf = _pauli_flips(codes % 4)
                np.bitwise_xor.at(self.x, (w_h, d_h), _flag_masks(m_h, dxf))
                np.bitwise_xor.at(self.z, (w_h, d_h), _flag_masks(m_h, dzf))
                np.bitwise_xor.at(self.x, (w_h, a_h), _flag_masks(m_h, axf))
                np.bitwise_xor.at(self.z, (w_h, a_h), _flag_masks(m_h, azf))
        # Leakage moves from the data qubit to the parity qubit.
        move = leaked_d & ~leaked_a
        if move.any():
            w_m, m_m = wrows[move], masks[move]
            np.bitwise_or.at(self.leaked, (w_m, ancillas[move]), m_m)
            self._return_to_computational_at(w_m, m_m, data_qubits[move])
        # Failure mode: a failed preceding parity reset (parity in |1>) can
        # excite the data qubit to |L> (|11> <-> |20>).  Read the *current*
        # planes: the gate noise and move above already applied.
        x_a = self._get_bits(self.x, wrows, masks, ancillas)
        leaked_a_now = self._get_bits(self.leaked, wrows, masks, ancillas)
        leaked_d_now = self._get_bits(self.leaked, wrows, masks, data_qubits)
        reset_failed = x_a & ~leaked_a_now & ~leaked_d_now
        if reset_failed.any() and self.leakage.dqlr_reset_excitation > 0.0:
            excite = (
                self.rng.random(wrows.shape) < self.leakage.dqlr_reset_excitation
            )
            excite &= reset_failed
            if excite.any():
                np.bitwise_or.at(
                    self.leaked,
                    (wrows[excite], data_qubits[excite]),
                    masks[excite],
                )
        self._inject_leakage_instances(wrows, masks, data_qubits)
        self._inject_leakage_instances(wrows, masks, ancillas)
