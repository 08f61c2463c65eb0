"""Baseline policy that never schedules leakage removal (Figure 2 baseline).

The paper's motivation data (Section 2.3) measures how leakage accumulates
when no LRCs are inserted; this policy reproduces that configuration.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.policies.base import LrcPolicy, PairMasks


class NoLrcPolicy(LrcPolicy):
    """Never insert LRCs; parity qubits are still reset by normal readout."""

    name = "no-lrc"

    def decide(
        self,
        round_index: int,
        detection_events: np.ndarray,
        syndrome: np.ndarray,
        readout_labels: np.ndarray,
        true_leaked_data: np.ndarray,
    ) -> Dict[int, int]:
        return {}

    def decide_batch(
        self,
        round_index: int,
        detection_events: np.ndarray,
        syndrome: np.ndarray,
        readout_labels: np.ndarray,
        true_leaked_data: np.ndarray,
    ) -> PairMasks:
        return self.pairs.broadcast({}, detection_events.shape[0])
