"""The single-stabilizer leakage-spread study (Figures 7 and 8).

A Z stabilizer of the surface code is simulated as five ququarts: data qubits
``q0..q3`` and the parity qubit ``P``.  Data qubit ``q0`` starts in the leaked
state |2>.  The study runs one syndrome-extraction round with an LRC on ``q0``
followed by one round without an LRC, recording after every CNOT:

* the leakage probability of every qubit (Figure 8, top), and
* the probability that the parity qubit would be measured in the correct
  outcome |0> (Figure 8, bottom).

The error model follows Figure 7(b): every CNOT is followed by a leakage
transport channel with probability 0.1, the faulty CNOT itself applies
RX(0.65*pi) to the unleaked operand when the other is leaked, and a leakage
injection channel with probability ``0.1 p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.densitymatrix.dm import DensityMatrix
from repro.densitymatrix.ququart import (
    cnot_with_leakage,
    identity,
    leakage_injection_unitary,
    leakage_transport_unitary,
)

#: Qudit indices used by the study.
DATA_QUDITS = (0, 1, 2, 3)
PARITY_QUDIT = 4


@dataclass
class StabilizerStudyResult:
    """Time series recorded by the study.

    Attributes:
        labels: Human-readable description of each recorded step.
        leak_probabilities: Array of shape ``(steps, 5)`` with the per-qudit
            leakage probability after each step.
        correct_measurement_probability: Probability of measuring the parity
            qubit in the correct outcome (|0>) after each step.
    """

    labels: List[str] = field(default_factory=list)
    leak_probabilities: List[np.ndarray] = field(default_factory=list)
    correct_measurement_probability: List[float] = field(default_factory=list)

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self.leak_probabilities),
            np.asarray(self.correct_measurement_probability),
        )

    def to_state(self) -> Dict[str, list]:
        """Plain-list form for a JSON record (float64 round-trips exactly)."""
        return {
            "labels": list(self.labels),
            "leak_probabilities": [[float(v) for v in leaks] for leaks in self.leak_probabilities],
            "correct_measurement_probability": [
                float(v) for v in self.correct_measurement_probability
            ],
        }

    @classmethod
    def from_state(cls, state: Dict[str, list]) -> "StabilizerStudyResult":
        """Inverse of :meth:`to_state`."""
        return cls(
            labels=list(state["labels"]),
            leak_probabilities=[
                np.asarray(leaks, dtype=float) for leaks in state["leak_probabilities"]
            ],
            correct_measurement_probability=list(state["correct_measurement_probability"]),
        )

    @property
    def parity_leak_series(self) -> np.ndarray:
        return np.asarray(self.leak_probabilities)[:, PARITY_QUDIT]

    @property
    def num_steps(self) -> int:
        return len(self.labels)


class SingleStabilizerLeakageStudy:
    """Density-matrix simulation of leakage spreading across one Z stabilizer.

    Args:
        rx_angle: Rotation angle of the error applied to the unleaked operand
            of a CNOT involving a leaked qubit (0.65*pi, the Sycamore value).
        p_transport: Leakage transport probability per CNOT.
        p_injection: Leakage injection probability per CNOT operand.
        initially_leaked: Which data qubit starts in |2> (the paper uses q0).
    """

    def __init__(
        self,
        rx_angle: float = 0.65 * np.pi,
        p_transport: float = 0.1,
        p_injection: float = 1e-4,
        initially_leaked: int = 0,
    ):
        if initially_leaked not in DATA_QUDITS:
            raise ValueError("initially_leaked must be one of the data qudits 0..3")
        self.rx_angle = rx_angle
        self.p_transport = p_transport
        self.p_injection = p_injection
        self.initially_leaked = initially_leaked
        self._cnot = cnot_with_leakage(rx_angle)
        self._transport = leakage_transport_unitary()
        # Injection on the first / second operand of a pair.
        inject = leakage_injection_unitary()
        self._inject_pair = (np.kron(inject, identity()), np.kron(identity(), inject))

    def config_dict(self) -> Dict[str, object]:
        """Everything that determines :meth:`run`'s output: its cache identity.

        Salted with :data:`~repro.experiments.jobs.RESULT_SEMANTICS_VERSION`
        like every Monte-Carlo job, so a semantics bump retires stored
        studies too.
        """
        # Imported here, not at module level: the density-matrix package
        # does not otherwise depend on the sweep machinery.
        from repro.experiments import jobs

        return {
            "study": "single-stabilizer-leakage",
            "rx_angle": float(self.rx_angle),
            "p_transport": float(self.p_transport),
            "p_injection": float(self.p_injection),
            "initially_leaked": int(self.initially_leaked),
            "semantics": jobs.RESULT_SEMANTICS_VERSION,
        }

    # ------------------------------------------------------------------
    def _apply_noisy_cnot(self, state: DensityMatrix, control: int, target: int) -> None:
        # Every step acts on the same pair, so the state is re-laid-out at
        # most once per noisy CNOT.
        pair = [control, target]
        state.apply_unitary(self._cnot, pair)
        state.apply_probabilistic_unitary(self._transport, pair, self.p_transport)
        for inject in self._inject_pair:
            state.apply_probabilistic_unitary(inject, pair, self.p_injection)

    def _record(self, state: DensityMatrix, result: StabilizerStudyResult, label: str) -> None:
        leaks = np.array([state.leak_probability(q) for q in range(5)])
        result.labels.append(label)
        result.leak_probabilities.append(leaks)
        result.correct_measurement_probability.append(
            state.measure_probability(PARITY_QUDIT, 0)
        )

    # ------------------------------------------------------------------
    def run(self) -> StabilizerStudyResult:
        """Run the LRC round followed by a no-LRC round and return the traces."""
        initial_levels = [0] * 5
        initial_levels[self.initially_leaked] = 2
        state = DensityMatrix(5, initial_levels=initial_levels)
        result = StabilizerStudyResult()
        self._record(state, result, "initial")

        # --- Round 1: syndrome extraction with an LRC on the leaked data qubit.
        for step, data in enumerate(DATA_QUDITS, start=1):
            self._apply_noisy_cnot(state, data, PARITY_QUDIT)
            self._record(state, result, f"round1 CNOT#{step} (q{data}->P)")
        # SWAP(q_leaked, P) decomposed into three CNOTs.
        lrc_data = self.initially_leaked
        swap_steps = [(lrc_data, PARITY_QUDIT), (PARITY_QUDIT, lrc_data), (lrc_data, PARITY_QUDIT)]
        for step, (control, target) in enumerate(swap_steps, start=1):
            self._apply_noisy_cnot(state, control, target)
            self._record(state, result, f"round1 LRC SWAP CNOT#{step}")
        # Measure-and-reset of the data-side physical qubit removes its leakage.
        state.reset(lrc_data)
        self._record(state, result, "round1 LRC measure+reset (q0 side)")
        # Two-CNOT swap-back returns the parked data state.
        for step, (control, target) in enumerate(
            [(PARITY_QUDIT, lrc_data), (lrc_data, PARITY_QUDIT)], start=1
        ):
            self._apply_noisy_cnot(state, control, target)
            self._record(state, result, f"round1 LRC swap-back CNOT#{step}")
        # The parity qubit is not reset in the LRC round (it was not measured).

        # --- Round 2: plain syndrome extraction (parity qubit measured at the end).
        for step, data in enumerate(DATA_QUDITS, start=1):
            self._apply_noisy_cnot(state, data, PARITY_QUDIT)
            self._record(state, result, f"round2 CNOT#{step} (q{data}->P)")
        return result

    def summary(self, result: StabilizerStudyResult = None) -> str:
        """Human-readable summary table of the recorded traces."""
        if result is None:
            result = self.run()
        lines = [
            f"{'step':<36s} {'P(leak q0..q3)':<34s} {'P(leak P)':>10s} {'P(correct)':>11s}"
        ]
        for label, leaks, correct in zip(
            result.labels, result.leak_probabilities, result.correct_measurement_probability
        ):
            data_text = " ".join(f"{leaks[q]:.3f}" for q in DATA_QUDITS)
            lines.append(
                f"{label:<36s} {data_text:<34s} {leaks[PARITY_QUDIT]:>10.3f} {correct:>11.3f}"
            )
        return "\n".join(lines)
