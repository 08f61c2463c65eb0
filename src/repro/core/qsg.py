"""QEC Schedule Generator (QSG).

Section 4.5 of the paper: the control processor repeatedly issues a compiled
syndrome-extraction round; when the DLI block decides that some data qubits
need LRCs, the QSG appends the extra SWAP CNOTs and redirects the measurement
of the affected parity checks onto the swapped data-side qubits.

This module builds concrete rounds as lists of vectorised circuit operations
(:mod:`repro.sim.circuit`) for three protocols:

* a plain syndrome extraction round,
* SWAP-based LRCs (the main text), and
* the DQLR LeakageISWAP protocol (Appendix A.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.codes.base import StabilizerCode
from repro.codes.layout import StabilizerType
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

#: Measurement-record keys used by every round built by the QSG.
KEY_MAIN_SYNDROME = "syndrome_main"
KEY_LRC_SYNDROME = "syndrome_lrc"
KEY_FINAL_DATA = "final_data"

#: LRC protocols supported by the schedule generator.
PROTOCOL_SWAP = "swap"
PROTOCOL_DQLR = "dqlr"


@dataclass
class RoundLayout:
    """Bookkeeping describing how one round's measurements map to stabilizers.

    Attributes:
        main_stabilizers: Stabilizer indices measured through the ordinary
            measure-and-reset of their own parity qubit.
        lrc_stabilizers: Stabilizer indices whose check was measured on the
            swapped data-side qubit (SWAP-LRC protocol only).
        lrc_data_qubits: Data qubits that received an LRC this round, aligned
            with ``lrc_stabilizers``.
        dqlr_data_qubits: Data qubits that received a DQLR LeakageISWAP this
            round (DQLR protocol only).
        assignment: The LRC assignment (data qubit -> stabilizer index) this
            round was built from.
    """

    main_stabilizers: Tuple[int, ...]
    lrc_stabilizers: Tuple[int, ...] = ()
    lrc_data_qubits: Tuple[int, ...] = ()
    dqlr_data_qubits: Tuple[int, ...] = ()
    assignment: Dict[int, int] = field(default_factory=dict)

    @property
    def num_lrcs(self) -> int:
        """Number of leakage-removal operations scheduled in this round."""
        return len(self.lrc_data_qubits) + len(self.dqlr_data_qubits)


class QecScheduleGenerator:
    """Builds syndrome-extraction rounds, optionally with leakage removal.

    Args:
        code: The stabilizer code to extract syndromes for (any
            :class:`~repro.codes.base.StabilizerCode` family).
        protocol: ``"swap"`` for SWAP LRCs (main text) or ``"dqlr"`` for the
            LeakageISWAP protocol of Appendix A.2.
        adaptive_multilevel: Apply the ERASER+M QSG modification (squash the
            swap-back and reset the parity qubit when the LRC measurement
            reports |L>); only meaningful for the SWAP protocol.
    """

    def __init__(
        self,
        code: StabilizerCode,
        protocol: str = PROTOCOL_SWAP,
        adaptive_multilevel: bool = False,
    ):
        if protocol not in (PROTOCOL_SWAP, PROTOCOL_DQLR):
            raise ValueError(f"unknown protocol {protocol!r}")
        self.code = code
        self.protocol = protocol
        self.adaptive_multilevel = adaptive_multilevel
        self._data = np.asarray(code.data_indices, dtype=np.int64)
        self._x_ancillas = np.asarray(
            [s.ancilla for s in code.stabilizers if s.stype is StabilizerType.X],
            dtype=np.int64,
        )
        self._cnot_layers = self._build_cnot_layers()
        self._prefix_ops: List[Operation] = None

    # ------------------------------------------------------------------
    # Static structure
    # ------------------------------------------------------------------
    def _build_cnot_layers(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The conflict-free CNOT layers of standard syndrome extraction.

        Up to four layers (the surface-code schedule slots); layers no
        stabilizer uses are dropped, so weight-two code families (e.g. the
        repetition code, which fills only the first two slots) do not emit
        empty operations.
        """
        layers: List[Tuple[np.ndarray, np.ndarray]] = []
        for layer in range(4):
            controls: List[int] = []
            targets: List[int] = []
            for stab in self.code.stabilizers:
                data_qubit = stab.schedule[layer]
                if data_qubit is None:
                    continue
                if stab.stype is StabilizerType.Z:
                    controls.append(data_qubit)
                    targets.append(stab.ancilla)
                else:
                    controls.append(stab.ancilla)
                    targets.append(data_qubit)
            if not controls:
                continue
            layers.append(
                (np.asarray(controls, dtype=np.int64), np.asarray(targets, dtype=np.int64))
            )
        return layers

    # ------------------------------------------------------------------
    # Round construction
    # ------------------------------------------------------------------
    def round_prefix(self) -> List[Operation]:
        """The assignment-independent head of every round.

        Start-of-round noise, the X-ancilla Hadamard sandwich, and the four
        CNOT extraction layers are identical for every round and every shot,
        so they are built once and shared; operations are immutable index
        arrays, which makes the sharing safe.  The packed experiment harness
        exploits this by executing the prefix over a whole batch at once even
        when the rounds' LRC tails differ per shot.
        """
        if self._prefix_ops is None:
            ops: List[Operation] = [RoundNoise(self._data)]
            if self._x_ancillas.size:
                ops.append(Hadamard(self._x_ancillas))
            for controls, targets in self._cnot_layers:
                ops.append(Cnot(controls, targets))
            if self._x_ancillas.size:
                ops.append(Hadamard(self._x_ancillas))
            self._prefix_ops = ops
        return self._prefix_ops

    def build_round(
        self, assignment: Dict[int, int] = None
    ) -> Tuple[List[Operation], RoundLayout]:
        """Build one syndrome-extraction round.

        Args:
            assignment: Mapping from data qubit to stabilizer index for the
                leakage-removal operations to insert this round.  ``None`` or
                an empty mapping yields a plain round.

        Returns:
            Tuple of the operation list and the :class:`RoundLayout` describing
            how measurement records map back to stabilizer indices.
        """
        assignment = dict(assignment or {})
        self._validate_assignment(assignment)
        ops: List[Operation] = list(self.round_prefix())
        if self.protocol == PROTOCOL_SWAP:
            layout = self._finish_swap_round(ops, assignment)
        else:
            layout = self._finish_dqlr_round(ops, assignment)
        return ops, layout

    def _validate_assignment(self, assignment: Dict[int, int]) -> None:
        stabs = list(assignment.values())
        if len(set(stabs)) != len(stabs):
            raise ValueError("LRC assignment reuses a parity qubit within one round")
        for data_qubit, stab in assignment.items():
            if stab not in self.code.stabilizer_neighbors(data_qubit):
                raise ValueError(
                    f"data qubit {data_qubit} is not adjacent to stabilizer {stab}"
                )

    def _finish_swap_round(
        self, ops: List[Operation], assignment: Dict[int, int]
    ) -> RoundLayout:
        lrc_data = np.asarray(sorted(assignment), dtype=np.int64)
        lrc_stabs = np.asarray([assignment[q] for q in lrc_data], dtype=np.int64)
        lrc_ancillas = np.asarray(
            [self.code.ancilla_of(int(s)) for s in lrc_stabs], dtype=np.int64
        )
        main_stabs = np.asarray(
            [s.index for s in self.code.stabilizers if s.index not in set(assignment.values())],
            dtype=np.int64,
        )
        main_ancillas = np.asarray(
            [self.code.ancilla_of(int(s)) for s in main_stabs], dtype=np.int64
        )

        if lrc_data.size:
            # SWAP(D, A) decomposed as three CNOT layers over disjoint pairs.
            ops.append(Cnot(lrc_data, lrc_ancillas))
            ops.append(Cnot(lrc_ancillas, lrc_data))
            ops.append(Cnot(lrc_data, lrc_ancillas))
        ops.append(
            MeasureReset(main_ancillas, KEY_MAIN_SYNDROME, meta=tuple(int(s) for s in main_stabs))
        )
        if lrc_data.size:
            ops.append(
                LrcFinalize(
                    lrc_data,
                    lrc_ancillas,
                    KEY_LRC_SYNDROME,
                    meta=tuple(int(s) for s in lrc_stabs),
                    adaptive_multilevel=self.adaptive_multilevel,
                )
            )
        return RoundLayout(
            main_stabilizers=tuple(int(s) for s in main_stabs),
            lrc_stabilizers=tuple(int(s) for s in lrc_stabs),
            lrc_data_qubits=tuple(int(q) for q in lrc_data),
            assignment=assignment,
        )

    def _finish_dqlr_round(
        self, ops: List[Operation], assignment: Dict[int, int]
    ) -> RoundLayout:
        all_stabs = tuple(range(self.code.num_stabilizers))
        all_ancillas = np.asarray(
            [self.code.ancilla_of(s) for s in all_stabs], dtype=np.int64
        )
        ops.append(MeasureReset(all_ancillas, KEY_MAIN_SYNDROME, meta=all_stabs))
        dqlr_data = np.asarray(sorted(assignment), dtype=np.int64)
        if dqlr_data.size:
            dqlr_ancillas = np.asarray(
                [self.code.ancilla_of(assignment[int(q)]) for q in dqlr_data],
                dtype=np.int64,
            )
            ops.append(LeakISwap(dqlr_data, dqlr_ancillas))
            ops.append(Reset(dqlr_ancillas))
        return RoundLayout(
            main_stabilizers=all_stabs,
            dqlr_data_qubits=tuple(int(q) for q in dqlr_data),
            assignment=assignment,
        )

    def build_final_data_measurement(self) -> List[Operation]:
        """Terminal transversal measurement of every data qubit."""
        return [Measure(self._data, KEY_FINAL_DATA, meta=tuple(self.code.data_indices))]

    # ------------------------------------------------------------------
    # Result assembly helpers
    # ------------------------------------------------------------------
    def assemble_syndrome(
        self, records: Dict[str, "MeasurementRecord"], layout: RoundLayout
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Combine per-key measurement records into per-stabilizer arrays.

        Returns:
            Tuple ``(bits, labels, ancilla_leaked)`` indexed by stabilizer.
            ``ancilla_leaked`` reports the ground-truth leakage of the physical
            qubit that produced each check (used only for metrics).
        """
        n = self.code.num_stabilizers
        bits = np.zeros(n, dtype=np.uint8)
        labels = np.zeros(n, dtype=np.uint8)
        leaked = np.zeros(n, dtype=bool)
        for key in (KEY_MAIN_SYNDROME, KEY_LRC_SYNDROME):
            record = records.get(key)
            if record is None:
                continue
            stab_indices = np.asarray(record.meta, dtype=np.int64)
            bits[stab_indices] = record.bits
            labels[stab_indices] = record.labels
            leaked[stab_indices] = record.true_leaked
        return bits, labels, leaked
