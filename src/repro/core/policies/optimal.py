"""Idealized (oracle) LRC scheduling.

The "Optimal" policy of the paper schedules an LRC for a data qubit as soon as
that qubit is actually leaked.  It is physically unrealisable — leakage cannot
be observed directly — but bounds how much of the Always-LRCs gap an adaptive
policy could ever close (Section 3.2 and Figures 6, 14–16).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.dli import DynamicLrcInsertion, SwapLookupTable
from repro.core.lsb import ParityUsageTrackingTable
from repro.core.policies.base import LrcPolicy, PairMasks


class OptimalLrcPolicy(LrcPolicy):
    """Schedule an LRC for every data qubit that is currently leaked (oracle)."""

    name = "optimal"
    uses_ground_truth = True

    def __init__(self, num_backups: int = None):
        super().__init__()
        self._num_backups = num_backups
        self._dli: DynamicLrcInsertion = None
        self._putt: ParityUsageTrackingTable = None
        self._putt_batch: np.ndarray = None

    def _on_bind(self) -> None:
        table = SwapLookupTable(self.code, num_backups=self._num_backups)
        self._dli = DynamicLrcInsertion(table)
        self._putt = ParityUsageTrackingTable(self.code.num_stabilizers)
        self._putt_batch = None

    def start_shot(self) -> None:
        if self._putt is not None:
            self._putt.clear()

    def start_batch(self, shots: int) -> None:
        self._putt_batch = np.zeros((shots, self.code.num_stabilizers), dtype=bool)

    def decide(
        self,
        round_index: int,
        detection_events: np.ndarray,
        syndrome: np.ndarray,
        readout_labels: np.ndarray,
        true_leaked_data: np.ndarray,
    ) -> Dict[int, int]:
        leaked = np.flatnonzero(np.asarray(true_leaked_data, dtype=bool))
        assignment = self._dli.assign(
            (int(q) for q in leaked),
            blocked_stabilizers=self._putt.used_stabilizers(),
        )
        self._putt.record_round(assignment.values())
        return assignment

    def decide_batch(
        self,
        round_index: int,
        detection_events: np.ndarray,
        syndrome: np.ndarray,
        readout_labels: np.ndarray,
        true_leaked_data: np.ndarray,
    ) -> PairMasks:
        leaked = np.asarray(true_leaked_data, dtype=bool)
        chosen = np.zeros((leaked.shape[0], len(self.pairs.column)), dtype=bool)
        blocked = self._putt_batch
        self._putt_batch = np.zeros_like(blocked)
        # Leakage is rare at realistic rates; only shots with at least one
        # leaked data qubit need the greedy lookup-table pairing.
        for shot in np.flatnonzero(leaked.any(axis=1)):
            assignment = self._dli.assign(
                (int(q) for q in np.flatnonzero(leaked[shot])),
                blocked_stabilizers=np.flatnonzero(blocked[shot]),
            )
            for data_qubit, stab in assignment.items():
                chosen[shot, self.pairs.column[(data_qubit, stab)]] = True
                self._putt_batch[shot, stab] = True
        return self.pairs.pack(chosen)
