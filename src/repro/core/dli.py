"""Dynamic LRC Insertion (DLI) and the SWAP Lookup Table.

Section 4.4 of the paper: once the Leakage Speculation Block has marked a set
of data qubits as (potentially) leaked, the DLI block must pair each of them
with a *unique*, *unused* parity qubit so that the corresponding LRC SWAPs can
all be executed in the next syndrome-extraction round.  The paper solves this
maximum-matching problem with a small lookup table that stores a primary and a
backup parity-qubit candidate per data qubit; this module reproduces that
design (with a configurable number of backups for ablation studies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from repro.codes.base import StabilizerCode


def _max_matching(
    code: StabilizerCode, data_qubits: Sequence[int]
) -> Dict[int, int]:
    """Maximum matching of ``data_qubits`` onto adjacent stabilizer indices.

    scipy's Hopcroft-Karp over a CSR biadjacency matrix (rows = data qubits
    in the given order, columns = stabilizer indices).  It is deterministic
    and independent of ``PYTHONHASHSEED``, so every seeded experiment
    downstream sees the same primaries in every process.
    """
    rows: List[int] = []
    cols: List[int] = []
    for row, data_qubit in enumerate(data_qubits):
        for stab in code.stabilizer_neighbors(data_qubit):
            rows.append(row)
            cols.append(stab)
    if not rows:
        return {}
    biadjacency = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(len(data_qubits), len(code.stabilizers)),
    )
    partners = maximum_bipartite_matching(biadjacency, perm_type="column")
    return {
        data_qubit: int(stab)
        for data_qubit, stab in zip(data_qubits, partners)
        if stab >= 0
    }


@dataclass
class SwapLookupTable:
    """Pre-computed primary/backup SWAP partners for every data qubit.

    The primary assignment is a maximum bipartite matching between data qubits
    and adjacent parity qubits, which is how Always-LRCs scheduling pairs each
    data qubit with a unique partner (Section 2.4).  The backup entries are the
    remaining adjacent parity qubits in a fixed order; by default only one
    backup is retained, matching the hardware design in the paper.

    Attributes:
        code: The surface code this table was built for.
        num_backups: Number of backup entries kept per data qubit (``None``
            keeps every adjacent parity qubit as a fallback).
        candidates: ``candidates[d]`` is the ordered tuple of stabilizer
            indices that data qubit ``d`` may swap with (primary first).
        unmatched_data_qubit: The single data qubit left without a unique
            primary partner (there are ``d*d`` data qubits but only
            ``d*d - 1`` parity qubits).
    """

    code: StabilizerCode
    num_backups: int = 1
    candidates: Dict[int, Tuple[int, ...]] = field(init=False)
    unmatched_data_qubit: int = field(init=False)

    def __post_init__(self) -> None:
        matching = _max_matching(self.code, list(self.code.data_indices))
        unmatched = [q for q in self.code.data_indices if q not in matching]
        # Exactly one data qubit cannot receive a unique primary partner.
        self.unmatched_data_qubit = unmatched[0] if unmatched else -1
        candidates: Dict[int, Tuple[int, ...]] = {}
        for data_qubit in self.code.data_indices:
            neighbors = list(self.code.stabilizer_neighbors(data_qubit))
            primary = matching.get(data_qubit, neighbors[0])
            ordered = [primary] + [s for s in neighbors if s != primary]
            if self.num_backups is not None:
                ordered = ordered[: 1 + self.num_backups]
            candidates[data_qubit] = tuple(ordered)
        self.candidates = candidates

    def primary(self, data_qubit: int) -> int:
        """Primary SWAP partner (stabilizer index) of a data qubit."""
        return self.candidates[data_qubit][0]

    def backups(self, data_qubit: int) -> Tuple[int, ...]:
        """Backup SWAP partners of a data qubit, in lookup order."""
        return self.candidates[data_qubit][1:]

    def primary_assignment(self, exclude_unmatched: bool = True) -> Dict[int, int]:
        """The Always-LRCs assignment: every matched data qubit to its primary."""
        assignment = {q: self.primary(q) for q in self.code.data_indices}
        if exclude_unmatched and self.unmatched_data_qubit >= 0:
            assignment.pop(self.unmatched_data_qubit, None)
        return assignment


@dataclass
class DynamicLrcInsertion:
    """Resolves LRC requests into a conflict-free assignment for the next round.

    Args:
        lookup_table: The SWAP Lookup Table to consult.
    """

    lookup_table: SwapLookupTable

    def assign(
        self,
        requests: Iterable[int],
        blocked_stabilizers: Iterable[int] = (),
    ) -> Dict[int, int]:
        """Pair requested data qubits with available parity qubits.

        Args:
            requests: Data qubits the LSB marked as (potentially) leaked.
            blocked_stabilizers: Stabilizers whose parity qubits are marked as
                used in the PUTT (they participated in an LRC last round and
                must be measured and reset before being reused).

        Returns:
            Mapping from data qubit to the stabilizer index whose parity qubit
            it will swap with.  Requests that cannot be satisfied (primary and
            all backups taken or blocked) are left out and should be retried by
            the caller in a later round.
        """
        taken: Set[int] = set(blocked_stabilizers)
        assignment: Dict[int, int] = {}
        for data_qubit in sorted(set(requests)):
            for stab in self.lookup_table.candidates[data_qubit]:
                if stab not in taken:
                    assignment[data_qubit] = stab
                    taken.add(stab)
                    break
        return assignment

    def max_schedulable(self, requests: Sequence[int]) -> int:
        """Upper bound on how many of the requests could ever be co-scheduled.

        Used by tests to check the greedy lookup-table heuristic against the
        true maximum matching.
        """
        return len(_max_matching(self.lookup_table.code, sorted(set(requests))))
