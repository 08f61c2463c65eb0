"""ERASER and ERASER+M: adaptive, speculation-driven LRC scheduling.

This is the paper's main contribution (Section 4).  The policy wraps the
Leakage Speculation Block (LSB) and Dynamic LRC Insertion (DLI) blocks:

1. After each round, the LSB inspects the parity-check flips (and, for
   ERASER+M, the multi-level readout labels) and updates the Leakage Tracking
   Table.
2. The DLI pairs every marked data qubit with an available parity qubit using
   the SWAP Lookup Table, skipping parity qubits the PUTT marks as used.
3. The resulting assignment is handed to the QEC Schedule Generator for the
   next round; marked qubits that could not be paired stay in the LTT and are
   retried.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.dli import DynamicLrcInsertion, SwapLookupTable
from repro.core.lsb import LeakageSpeculationBlock
from repro.core.policies.base import LrcPolicy, PairMasks


class EraserPolicy(LrcPolicy):
    """ERASER: speculate leakage from parity-check flips, insert LRCs on demand.

    Args:
        num_backups: Number of backup parity-qubit candidates per data qubit in
            the SWAP Lookup Table (the paper's hardware keeps one).
        use_multilevel_readout: Enable the ERASER+M LSB enhancement.  Prefer
            the :class:`EraserMPolicy` subclass, which also enables the QSG
            modification, over setting this flag directly.
        speculation_threshold_override: Fixed flip-count trigger for the LSB
            instead of the default majority rule (ablation knob; Insight #2 of
            the paper discusses this conservative/aggressive trade-off).
    """

    name = "eraser"
    uses_multilevel_readout = False

    def __init__(
        self,
        num_backups: int = 1,
        use_multilevel_readout: bool = False,
        speculation_threshold_override: int = None,
    ):
        super().__init__()
        self._num_backups = num_backups
        self._use_multilevel = use_multilevel_readout or self.uses_multilevel_readout
        self._threshold_override = speculation_threshold_override
        self._lsb: LeakageSpeculationBlock = None
        self._dli: DynamicLrcInsertion = None
        self._last_assignment: Dict[int, int] = {}
        # Batched LSB state: one LTT / PUTT / had-an-LRC row per shot.
        self._batch_ltt: np.ndarray = None
        self._batch_putt: np.ndarray = None
        self._batch_had_lrc: np.ndarray = None

    def _on_bind(self) -> None:
        self._lsb = LeakageSpeculationBlock(
            self.code,
            use_multilevel_readout=self._use_multilevel,
            threshold_override=self._threshold_override,
        )
        table = SwapLookupTable(self.code, num_backups=self._num_backups)
        self._dli = DynamicLrcInsertion(table)
        self._last_assignment = {}
        # Data-qubit x stabilizer adjacency, used to evaluate the LSB rule for
        # a whole batch with one matmul; the neighbour lists and per-qubit
        # flip thresholds are the LSB's own (it is the canonical definition of
        # the speculation rule), so both engines share one source of truth.
        # float32 counts small integers exactly and, unlike integer types,
        # runs the product through BLAS.
        n_data = self.code.num_data_qubits
        n_stabs = self.code.num_stabilizers
        adjacency = np.zeros((n_data, n_stabs), dtype=np.float32)
        for data_qubit in self.code.data_indices:
            adjacency[data_qubit, self._lsb._neighbors[data_qubit]] = 1
        self._adjacency_t = adjacency.T.copy()
        self._thresholds = self._lsb._thresholds
        # Candidate lists in the DLI's visitation order (primary before
        # backups), each candidate with its mask column, so the batched path
        # can replay the greedy pairing for all shots at once.
        self._dli_candidates = {
            data_qubit: [(stab, self.pairs.column[(data_qubit, stab)]) for stab in stabs]
            for data_qubit, stabs in self._dli.lookup_table.candidates.items()
        }
        self._batch_ltt = None
        self._batch_putt = None
        self._batch_had_lrc = None

    def start_shot(self) -> None:
        if self._lsb is not None:
            self._lsb.reset()
        self._last_assignment = {}

    def start_batch(self, shots: int) -> None:
        self._batch_ltt = np.zeros((shots, self.code.num_data_qubits), dtype=bool)
        self._batch_putt = np.zeros((shots, self.code.num_stabilizers), dtype=bool)
        self._batch_had_lrc = np.zeros((shots, self.code.num_data_qubits), dtype=bool)

    @property
    def speculation_block(self) -> LeakageSpeculationBlock:
        """The LSB instance (exposed for microarchitecture-level tests)."""
        return self._lsb

    def decide(
        self,
        round_index: int,
        detection_events: np.ndarray,
        syndrome: np.ndarray,
        readout_labels: np.ndarray,
        true_leaked_data: np.ndarray,
    ) -> Dict[int, int]:
        labels = readout_labels if self._use_multilevel else None
        candidates = self._lsb.observe_round(
            detection_events,
            previous_lrc_data_qubits=self._last_assignment.keys(),
            readout_labels=labels,
        )
        assignment = self._dli.assign(
            candidates, blocked_stabilizers=self._lsb.blocked_stabilizers()
        )
        self._lsb.commit_assignment(assignment)
        self._last_assignment = assignment
        return assignment

    def decide_batch(
        self,
        round_index: int,
        detection_events: np.ndarray,
        syndrome: np.ndarray,
        readout_labels: np.ndarray,
        true_leaked_data: np.ndarray,
    ) -> PairMasks:
        events = np.asarray(detection_events, dtype=bool)
        shots = events.shape[0]
        had_lrc = self._batch_had_lrc
        # LSB observe step, all shots at once: qubits whose LRC just executed
        # are cleared from the LTT and excluded from this round's speculation;
        # everything else is marked when enough neighbouring checks flipped.
        self._batch_ltt &= ~had_lrc
        flip_counts = events.astype(np.float32) @ self._adjacency_t
        mark = flip_counts >= self._thresholds[np.newaxis, :]
        if self._use_multilevel and readout_labels is not None:
            leaked_checks = np.asarray(readout_labels) == self._lsb.leaked_label
            mark |= (leaked_checks.astype(np.float32) @ self._adjacency_t) > 0
        self._batch_ltt |= mark & ~had_lrc

        # DLI step: the greedy lookup-table pairing is sequential over data
        # qubits, but every shot walks the same ascending-qubit, primary-first
        # candidate order, so the whole batch replays it in lockstep — one
        # boolean column op per (data qubit, candidate) instead of a Python
        # loop per shot.  Each candidate's takers fill its pair column of
        # ``chosen``, which is packed once.  Decisions are identical to
        # DynamicLrcInsertion.assign run shot by shot.
        chosen = np.zeros((shots, len(self.pairs.column)), dtype=bool)
        assigned = np.zeros_like(self._batch_ltt)
        taken = self._batch_putt.copy()
        for data_qubit in np.flatnonzero(self._batch_ltt.any(axis=0)):
            pending = self._batch_ltt[:, data_qubit].copy()
            for stab, column in self._dli_candidates[data_qubit]:
                take = pending & ~taken[:, stab]
                if take.any():
                    chosen[:, column] = take
                    assigned[:, data_qubit] |= take
                    taken[:, stab] |= take
                    pending &= ~take
                    if not pending.any():
                        break

        # Commit step: assigned qubits leave the LTT, the parity qubits taken
        # this round (those not blocked before it) are blocked for one round,
        # and assigned qubits count as "had an LRC" next round.
        self._batch_ltt &= ~assigned
        self._batch_putt = taken ^ self._batch_putt
        self._batch_had_lrc = assigned
        return self.pairs.pack(chosen)


class EraserMPolicy(EraserPolicy):
    """ERASER+M: ERASER augmented with multi-level (|0>/|1>/|L>) readout."""

    name = "eraser+m"
    uses_multilevel_readout = True

    def __init__(self, num_backups: int = 1):
        super().__init__(num_backups=num_backups, use_multilevel_readout=True)
