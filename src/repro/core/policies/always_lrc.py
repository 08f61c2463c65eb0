"""The state-of-the-art static Always-LRCs scheduling policy.

Section 2.4 / Figure 3 of the paper: LRCs are compiled offline and executed
every other round.  In the "on" rounds every data qubit that has a unique
primary parity-qubit partner (there are ``d*d - 1`` of them) is swapped; the
single leftover data qubit is swapped in the following round, which is
otherwise a plain syndrome-extraction round.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.dli import SwapLookupTable
from repro.core.policies.base import LrcPolicy, PairMasks


class AlwaysLrcPolicy(LrcPolicy):
    """Schedule LRCs for (almost) all data qubits every alternate round."""

    name = "always-lrc"

    def __init__(self, start_with_lrc_round: bool = False):
        super().__init__()
        self._start_with_lrc_round = start_with_lrc_round
        self._full_assignment: Dict[int, int] = {}
        self._leftover_assignment: Dict[int, int] = {}

    def _on_bind(self) -> None:
        table = SwapLookupTable(self.code, num_backups=None)
        self._full_assignment = table.primary_assignment(exclude_unmatched=True)
        leftover = table.unmatched_data_qubit
        self._leftover_assignment = {}
        if leftover >= 0:
            self._leftover_assignment = {leftover: table.primary(leftover)}

    def _assignment_for_round(self, round_index: int) -> Dict[int, int]:
        """Assignment used during round ``round_index`` (0-based)."""
        phase = round_index % 2
        lrc_phase = 0 if self._start_with_lrc_round else 1
        if phase == lrc_phase:
            return dict(self._full_assignment)
        if round_index == 0 and not self._start_with_lrc_round:
            # Round R1 in Figure 3: no LRCs at all.
            return {}
        return dict(self._leftover_assignment)

    def initial_assignment(self) -> Dict[int, int]:
        return self._assignment_for_round(0)

    def decide(
        self,
        round_index: int,
        detection_events: np.ndarray,
        syndrome: np.ndarray,
        readout_labels: np.ndarray,
        true_leaked_data: np.ndarray,
    ) -> Dict[int, int]:
        return self._assignment_for_round(round_index + 1)

    def decide_batch(
        self,
        round_index: int,
        detection_events: np.ndarray,
        syndrome: np.ndarray,
        readout_labels: np.ndarray,
        true_leaked_data: np.ndarray,
    ) -> PairMasks:
        # The static schedule is identical across shots.
        return self.pairs.broadcast(
            self._assignment_for_round(round_index + 1), detection_events.shape[0]
        )
