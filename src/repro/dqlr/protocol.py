"""Google's DQLR protocol and its combination with ERASER (Appendix A.2).

The DQLR protocol removes leakage every round using a LeakageISWAP between
each data qubit and its (freshly reset) parity qubit, followed by another
parity reset.  The gate-level behaviour of the LeakageISWAP — including the
failure mode in which a failed parity reset re-excites the data qubit — is
implemented in the frame simulator (:class:`~repro.sim.circuit.LeakISwap`);
the QEC Schedule Generator inserts it when built with ``protocol="dqlr"``.

This module provides:

* :class:`DqlrBaselinePolicy` — the baseline that applies DQLR to (almost)
  every data qubit every round,
* :func:`run_dqlr_comparison` — the sweep behind Figures 20 and 21, comparing
  baseline DQLR against ERASER, ERASER+M, and Optimal scheduling of the same
  protocol under the alternative (exchange) leakage-transport model.  It and
  its plan twin :func:`dqlr_comparison_plan` are
  :func:`~repro.experiments.sweep.compare_policies` /
  :func:`~repro.experiments.sweep.compare_policies_plan` with those two job
  fields fixed, and follow the keyword contract of
  :mod:`repro.experiments.sweep`.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.dli import SwapLookupTable
from repro.core.policies.base import LrcPolicy, PairMasks
from repro.core.qsg import PROTOCOL_DQLR
from repro.experiments.jobs import SweepPlan
from repro.experiments.results import PolicySweepResult
from repro.experiments.sweep import compare_policies, compare_policies_plan
from repro.noise.leakage import LeakageTransportModel


class DqlrBaselinePolicy(LrcPolicy):
    """Apply the DQLR protocol to every data qubit every round.

    There are ``d*d`` data qubits but only ``d*d - 1`` parity partners, so the
    single unmatched data qubit is treated in alternating rounds, exactly as
    the leftover qubit is handled by Always-LRCs scheduling.
    """

    name = "dqlr"

    def __init__(self) -> None:
        super().__init__()
        self._full_assignment: Dict[int, int] = {}
        self._leftover_assignment: Dict[int, int] = {}

    def _on_bind(self) -> None:
        table = SwapLookupTable(self.code, num_backups=None)
        self._full_assignment = table.primary_assignment(exclude_unmatched=True)
        leftover = table.unmatched_data_qubit
        self._leftover_assignment = dict(self._full_assignment)
        if leftover >= 0:
            # Swap the leftover in, dropping the qubit whose partner it borrows.
            partner = table.primary(leftover)
            self._leftover_assignment = {
                q: s for q, s in self._full_assignment.items() if s != partner
            }
            self._leftover_assignment[leftover] = partner

    def _assignment_for_round(self, round_index: int) -> Dict[int, int]:
        if round_index % 2 == 0:
            return dict(self._full_assignment)
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


#: The four policies compared in Figures 20 and 21.
DQLR_POLICIES = ("dqlr", "eraser", "eraser+m", "optimal")

#: The job fields every Appendix A.2 configuration shares.
_DQLR_FIELDS = dict(
    transport_model=LeakageTransportModel.EXCHANGE, protocol=PROTOCOL_DQLR
)


def dqlr_policy_names() -> Sequence[str]:
    """The four policies compared in Figures 20 and 21."""
    return DQLR_POLICIES


def dqlr_comparison_plan(
    distances: Sequence[int],
    policies: Sequence[str] = DQLR_POLICIES,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    **fields,
) -> SweepPlan:
    """The Appendix A.2 sweep (Figures 20/21) as an executable plan.

    :func:`~repro.experiments.sweep.compare_policies_plan` with the DQLR
    protocol and the exchange transport model; every other keyword is
    forwarded to it.
    """
    return compare_policies_plan(
        distances, policies, p, cycles, shots, **_DQLR_FIELDS, **fields
    )


def run_dqlr_comparison(
    distances: Sequence[int],
    policies: Sequence[str] = DQLR_POLICIES,
    p: float = 1e-3,
    cycles: int = 10,
    shots: int = 100,
    **options,
) -> PolicySweepResult:
    """Sweep DQLR-based leakage removal across distances and policies.

    Matches the evaluation setup of Appendix A.2: the LeakageISWAP has CX-like
    fidelity and the alternative (exchange) leakage-transport model is used so
    the results reflect Sycamore-like transport behaviour.  This is
    :func:`~repro.experiments.sweep.compare_policies` with those two fields
    fixed, so it takes the same job fields and executor options (``jobs``,
    ``cache_dir``, ``resume``, ``executor``, ...).
    """
    return compare_policies(
        distances, policies, p, cycles, shots, **_DQLR_FIELDS, **options
    )
