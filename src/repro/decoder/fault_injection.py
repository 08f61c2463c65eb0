"""Deterministic single-fault injection (decoding-graph validation).

Supports the Section 2.2 decoding machinery: it verifies the graph every
Monte-Carlo figure depends on, independent of random sampling.

Used to validate the decoding graph: every single circuit-level fault should
flip at most two detectors, those detectors should be connected by a short
path in the decoding graph, and the parity of observable-crossing edges along
that path should equal the fault's actual effect on the logical observable.

The injector runs the noiseless syndrome-extraction circuit through the frame
simulator and flips frame bits (or measured syndrome bits) at a chosen
location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.codes.layout import StabilizerType
from repro.codes.base import StabilizerCode
from repro.core.qsg import KEY_FINAL_DATA, QecScheduleGenerator
from repro.decoder.decoder import SurfaceCodeDecoder
from repro.noise.leakage import LeakageModel
from repro.noise.model import NoiseParams
from repro.sim.frame_simulator import LeakageFrameSimulator


@dataclass
class FaultSignature:
    """Detector and observable footprint of a single injected fault."""

    flipped_detectors: Tuple[Tuple[int, int], ...]
    observable_flip: bool

    @property
    def num_flipped(self) -> int:
        return len(self.flipped_detectors)


class FaultInjector:
    """Runs noiseless circuits with one injected fault and reports its signature."""

    def __init__(
        self,
        code: StabilizerCode,
        num_rounds: int,
        stabilizer_type: StabilizerType = StabilizerType.Z,
    ):
        self.code = code
        self.num_rounds = num_rounds
        self.stabilizer_type = stabilizer_type
        self.qsg = QecScheduleGenerator(code)
        self.decoder = SurfaceCodeDecoder(
            code=code,
            num_rounds=num_rounds,
            stabilizer_type=stabilizer_type,
            method="greedy",
        )

    # ------------------------------------------------------------------
    def _run(
        self,
        inject_round: int = -1,
        data_qubit: int = -1,
        pauli: str = "",
    ) -> Tuple[np.ndarray, np.ndarray]:
        noise = NoiseParams.noiseless()
        leakage = LeakageModel.disabled()
        sim = LeakageFrameSimulator(self.code.num_qubits, noise, leakage, rng=0)
        history = np.zeros((self.num_rounds, self.code.num_stabilizers), dtype=np.uint8)
        for round_index in range(self.num_rounds):
            if round_index == inject_round and data_qubit >= 0:
                if pauli in ("X", "Y"):
                    sim.x[data_qubit] ^= True
                if pauli in ("Z", "Y"):
                    sim.z[data_qubit] ^= True
            ops, layout = self.qsg.build_round({})
            records = sim.run(ops)
            bits, _, _ = self.qsg.assemble_syndrome(records, layout)
            history[round_index] = bits
        records = sim.run(self.qsg.build_final_data_measurement())
        final_bits = records[KEY_FINAL_DATA].bits
        return history, final_bits

    def _signature(self, history: np.ndarray, final_bits: np.ndarray) -> FaultSignature:
        detectors = self.decoder.build_detectors(history, final_bits)
        checks = list(self.decoder.graph.checks)
        flipped: List[Tuple[int, int]] = []
        for layer, local in zip(*np.nonzero(detectors)):
            flipped.append((int(layer), checks[int(local)]))
        observable = bool(self.decoder.observed_logical_flip(final_bits))
        return FaultSignature(tuple(flipped), observable)

    # ------------------------------------------------------------------
    def data_pauli(self, round_index: int, data_qubit: int, pauli: str = "X") -> FaultSignature:
        """Inject a Pauli error on a data qubit just before the given round."""
        if pauli not in ("X", "Y", "Z"):
            raise ValueError("pauli must be X, Y, or Z")
        history, final_bits = self._run(round_index, data_qubit, pauli)
        return self._signature(history, final_bits)

    def measurement_flip(self, round_index: int, stabilizer_index: int) -> FaultSignature:
        """Flip a single parity-check measurement outcome."""
        history, final_bits = self._run()
        history = history.copy()
        history[round_index, stabilizer_index] ^= 1
        return self._signature(history, final_bits)

    def final_data_flip(self, data_qubit: int) -> FaultSignature:
        """Flip a single bit of the terminal transversal data measurement."""
        history, final_bits = self._run()
        final_bits = final_bits.copy()
        final_bits[data_qubit] ^= 1
        return self._signature(history, final_bits)
