"""Abstract interface shared by all LRC scheduling policies (Section 4).

Every policy the paper evaluates — Always-LRCs, ERASER, ERASER+M, Optimal,
and the no-LRC baseline — implements this per-round decision interface.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.codes.base import StabilizerCode
from repro.sim.packed_bits import full_words, pack_bool
from repro.sim.rng import RngLike, make_rng


@dataclass(frozen=True)
class PairMasks:
    """One round's per-shot LRC decisions in the packed simulator's word layout.

    Column ``j`` schedules an LRC between data qubit ``data[j]`` and the
    parity qubit of stabilizer ``stabs[j]`` in every shot whose bit is set in
    ``act[:, j]`` (shot ``s`` is bit ``s & 63`` of word row ``s >> 6``; bits
    past the last shot are zero).  Columns come in ascending (physical data
    qubit, physical parity qubit) order and none is all-zero, so the masks
    run unchanged through the simulator's masked column kernels.
    """

    data: np.ndarray
    stabs: np.ndarray
    act: np.ndarray

    @cached_property
    def data_unique(self) -> bool:
        """Whether no data qubit appears in two columns (shots then partition)."""
        return len(set(self.data.tolist())) == self.data.size

    @cached_property
    def stabs_unique(self) -> bool:
        """Whether no stabilizer appears in two columns."""
        return len(set(self.stabs.tolist())) == self.stabs.size


class LrcPairs:
    """Every adjacent (data qubit, stabilizer) pair of a code, as mask columns.

    Policies mark decisions in a ``(shots, len(column))`` matrix over these
    columns (or look one up with :attr:`column`) and turn it into
    :class:`PairMasks`; the column order is the one :class:`PairMasks`
    requires.
    """

    def __init__(self, code: StabilizerCode):
        pairs = sorted(
            (data_qubit, code.ancilla_of(stab), stab)
            for data_qubit in code.data_indices
            for stab in code.stabilizer_neighbors(data_qubit)
        )
        self.data = np.asarray([q for q, _, _ in pairs], dtype=np.int64)
        self.stabs = np.asarray([s for _, _, s in pairs], dtype=np.int64)
        #: ``(data qubit, stabilizer) -> column``.
        self.column: Dict[Tuple[int, int], int] = {
            (q, s): j for j, (q, _, s) in enumerate(pairs)
        }
        self._broadcasts: Dict[tuple, PairMasks] = {}

    def pack(self, chosen: np.ndarray) -> PairMasks:
        """Masks of a bool ``(shots, len(column))`` decision matrix."""
        act = pack_bool(chosen)
        keep = np.flatnonzero(act.any(axis=0))
        return PairMasks(self.data[keep], self.stabs[keep], act[:, keep])

    def broadcast(self, assignment: Dict[int, int], shots: int) -> PairMasks:
        """Masks applying one ``{data qubit: stabilizer}`` assignment to every shot.

        Cached per (assignment, shots): static schedules repeat a few masks.
        """
        key = (frozenset(assignment.items()), shots)
        if key not in self._broadcasts:
            cols = np.asarray(
                sorted(self.column[(q, s)] for q, s in assignment.items()), dtype=np.int64
            )
            act = np.repeat(full_words(shots)[:, np.newaxis], cols.size, axis=1)
            self._broadcasts[key] = PairMasks(self.data[cols], self.stabs[cols], act)
        return self._broadcasts[key]


class LrcPolicy(abc.ABC):
    """Decides which data qubits receive leakage-removal operations each round.

    The experiment runner drives a policy through the following protocol:

    1. :meth:`bind` is called once per Monte-Carlo shot with the code instance.
    2. :meth:`initial_assignment` provides the LRC assignment for round 0.
    3. After every syndrome-extraction round, :meth:`decide` is called with the
       round's detection events (parity-check flips), the raw syndrome bits,
       the multi-level readout labels, and — for the oracle policy only — the
       ground-truth data-qubit leakage.  It returns the assignment for the
       *next* round as a mapping from data qubit to stabilizer index.

    Every policy also implements the batched protocol used by the packed
    Monte-Carlo engine: :meth:`start_batch` replaces :meth:`start_shot`, and
    :meth:`decide_batch` consumes
    ``(shots, num_stabilizers)`` syndrome/label arrays and returns every
    shot's assignment at once as :class:`PairMasks` — packed shot masks per
    (data qubit, stabilizer) pair, built over :attr:`pairs`, which the
    simulator's LRC kernels consume as they are.
    """

    #: Human-readable policy name used in result tables.
    name: str = "abstract"

    #: Whether this policy consumes ground-truth leakage (oracle policies).
    uses_ground_truth: bool = False

    #: Whether this policy consumes multi-level readout labels.
    uses_multilevel_readout: bool = False

    def __init__(self) -> None:
        self.code: Optional[StabilizerCode] = None
        self.pairs: Optional[LrcPairs] = None
        self.rng = make_rng(None)

    def bind(self, code: StabilizerCode, rng: RngLike = None) -> None:
        """Attach the policy to a code instance (called once per experiment)."""
        self.code = code
        self.pairs = LrcPairs(code)
        self.rng = make_rng(rng)
        self._on_bind()
        self.start_shot()

    def _on_bind(self) -> None:
        """Hook for subclasses to build per-code state."""

    def start_shot(self) -> None:
        """Reset per-shot state (called before every Monte-Carlo shot)."""

    def initial_assignment(self) -> Dict[int, int]:
        """LRC assignment for the very first round (default: none)."""
        return {}

    # ------------------------------------------------------------------
    # Batched protocol (the packed engine)
    # ------------------------------------------------------------------
    def start_batch(self, shots: int) -> None:
        """Reset per-shot state for a batch of ``shots`` Monte-Carlo shots."""

    def initial_assignment_batch(self, shots: int) -> PairMasks:
        """Round-0 masks (default: the scalar assignment in every shot)."""
        return self.pairs.broadcast(self.initial_assignment(), shots)

    @abc.abstractmethod
    def decide_batch(
        self,
        round_index: int,
        detection_events: np.ndarray,
        syndrome: np.ndarray,
        readout_labels: np.ndarray,
        true_leaked_data: Optional[np.ndarray],
    ) -> PairMasks:
        """Return every shot's assignment for the next round.

        Args:
            round_index: Index of the round that just completed (0-based).
            detection_events: ``(shots, num_stabilizers)`` boolean array; True
                where the parity check flipped relative to the previous round.
            syndrome: ``(shots, num_stabilizers)`` raw measured parity bits.
            readout_labels: ``(shots, num_stabilizers)`` multi-level labels.
            true_leaked_data: ``(shots, num_data_qubits)`` ground-truth leakage
                flags, or ``None`` unless :attr:`uses_ground_truth` is set.

        Returns:
            :class:`PairMasks` over the batch's shots: shot ``s`` swaps data
            qubit ``data[j]`` with the parity qubit of ``stabs[j]`` for every
            column ``j`` whose ``act`` bit is set for ``s``.
        """

    @abc.abstractmethod
    def decide(
        self,
        round_index: int,
        detection_events: np.ndarray,
        syndrome: np.ndarray,
        readout_labels: np.ndarray,
        true_leaked_data: np.ndarray,
    ) -> Dict[int, int]:
        """Return the LRC assignment for the next round.

        Args:
            round_index: Index of the round that just completed (0-based).
            detection_events: Boolean array over stabilizers; True where the
                parity check flipped relative to the previous round.
            syndrome: Raw measured parity-check bits for this round.
            readout_labels: Multi-level discriminator labels per stabilizer
                measurement (0, 1, or 2 = |L>).
            true_leaked_data: Ground-truth leakage flags over data qubits; only
                oracle policies may consult this.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
