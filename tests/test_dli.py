"""Tests for the SWAP Lookup Table and Dynamic LRC Insertion."""

import hashlib
import json

import pytest

from repro.codes import make_code
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.core.dli import DynamicLrcInsertion, SwapLookupTable


@pytest.fixture(scope="module")
def code():
    return RotatedSurfaceCode(3)


@pytest.fixture(scope="module")
def code5():
    return RotatedSurfaceCode(5)


class TestSwapLookupTable:
    def test_primary_partners_are_adjacent(self, code):
        table = SwapLookupTable(code)
        for q in code.data_indices:
            assert table.primary(q) in code.stabilizer_neighbors(q)

    def test_backups_are_adjacent(self, code):
        table = SwapLookupTable(code)
        for q in code.data_indices:
            for backup in table.backups(q):
                assert backup in code.stabilizer_neighbors(q)

    def test_default_keeps_one_backup(self, code):
        table = SwapLookupTable(code, num_backups=1)
        for q in code.data_indices:
            assert len(table.candidates[q]) <= 2

    def test_all_neighbors_kept_when_unbounded(self, code):
        table = SwapLookupTable(code, num_backups=None)
        for q in code.data_indices:
            assert len(table.candidates[q]) == len(code.stabilizer_neighbors(q))

    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_primary_matching_is_maximum(self, distance):
        code = RotatedSurfaceCode(distance)
        table = SwapLookupTable(code)
        assignment = table.primary_assignment(exclude_unmatched=True)
        # d*d - 1 data qubits get unique partners.
        assert len(assignment) == code.num_data_qubits - 1
        assert len(set(assignment.values())) == len(assignment)

    def test_exactly_one_unmatched_data_qubit(self, code5):
        table = SwapLookupTable(code5)
        assert 0 <= table.unmatched_data_qubit < code5.num_data_qubits

    def test_primary_assignment_can_include_unmatched(self, code):
        table = SwapLookupTable(code)
        full = table.primary_assignment(exclude_unmatched=False)
        assert len(full) == code.num_data_qubits

    def test_candidates_have_no_duplicates(self, code5):
        table = SwapLookupTable(code5, num_backups=None)
        for q in code5.data_indices:
            candidates = table.candidates[q]
            assert len(candidates) == len(set(candidates))


class TestDynamicLrcInsertion:
    def test_empty_requests(self, code):
        dli = DynamicLrcInsertion(SwapLookupTable(code))
        assert dli.assign([]) == {}

    def test_single_request_gets_primary(self, code):
        table = SwapLookupTable(code)
        dli = DynamicLrcInsertion(table)
        assignment = dli.assign([4])
        assert assignment == {4: table.primary(4)}

    def test_assignment_is_conflict_free(self, code5):
        dli = DynamicLrcInsertion(SwapLookupTable(code5, num_backups=None))
        requests = list(code5.data_indices)[:10]
        assignment = dli.assign(requests)
        values = list(assignment.values())
        assert len(values) == len(set(values))
        for data_qubit, stab in assignment.items():
            assert stab in code5.stabilizer_neighbors(data_qubit)

    def test_blocked_stabilizers_are_avoided(self, code):
        table = SwapLookupTable(code)
        dli = DynamicLrcInsertion(table)
        primary = table.primary(4)
        assignment = dli.assign([4], blocked_stabilizers=[primary])
        if 4 in assignment:
            assert assignment[4] != primary

    def test_fully_blocked_request_is_dropped(self, code):
        table = SwapLookupTable(code, num_backups=None)
        dli = DynamicLrcInsertion(table)
        blocked = list(code.stabilizer_neighbors(4))
        assignment = dli.assign([4], blocked_stabilizers=blocked)
        assert 4 not in assignment

    def test_conflicting_requests_use_backup(self, code):
        """Two data qubits sharing the same primary should still both be served
        when a backup is available (Figure 11)."""
        table = SwapLookupTable(code, num_backups=None)
        dli = DynamicLrcInsertion(table)
        # Find two data qubits sharing a stabilizer neighbour.
        shared_stab = code.stabilizers[0]
        pair = list(shared_stab.data_qubits)[:2]
        assignment = dli.assign(pair)
        assert set(assignment.keys()) == set(pair)
        assert assignment[pair[0]] != assignment[pair[1]]

    def test_duplicate_requests_collapse(self, code):
        dli = DynamicLrcInsertion(SwapLookupTable(code))
        assignment = dli.assign([4, 4, 4])
        assert list(assignment.keys()) == [4]

    def test_greedy_close_to_maximum_matching(self, code5):
        table = SwapLookupTable(code5, num_backups=None)
        dli = DynamicLrcInsertion(table)
        requests = list(code5.data_indices)[:8]
        assignment = dli.assign(requests)
        assert len(assignment) >= dli.max_schedulable(requests) - 1

    def test_max_schedulable_empty(self, code):
        dli = DynamicLrcInsertion(SwapLookupTable(code))
        assert dli.max_schedulable([]) == 0


def _table_digest(table):
    """Short sha256 of a lookup table's unmatched qubit and full candidate lists."""
    document = json.dumps(
        [table.unmatched_data_qubit, sorted(table.candidates.items())],
        separators=(",", ":"),
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()[:16]


# (unmatched data qubit, digest) of ``SwapLookupTable(code, num_backups=None)``.
# Every seeded experiment depends on these primaries, so a change of matching
# backend must reproduce them exactly.
LOOKUP_TABLE_GOLDENS = {
    ("rotated-surface", 3): (6, "0d5f285647e2a385"),
    ("rotated-surface", 5): (20, "e96b38f7f5102d45"),
    ("rotated-surface", 7): (42, "8355cb1918558745"),
    ("rotated-surface", 9): (72, "363b901258f30a8b"),
    ("rotated-surface", 11): (110, "8b003b77dc0f01fa"),
    ("rotated-surface", 13): (156, "1d765c58317d2af0"),
    ("repetition", 3): (2, "9217dabc00278936"),
    ("repetition", 5): (4, "8be5c85f6375830d"),
    ("repetition", 7): (6, "8b616180dffaab52"),
    ("repetition", 9): (8, "98cd5eb439f32a2a"),
    ("repetition", 11): (10, "6b365157c60a5b83"),
    ("repetition", 13): (12, "46689e87b35f17c8"),
}


class TestLookupTableGoldens:
    @pytest.mark.parametrize("family,distance", sorted(LOOKUP_TABLE_GOLDENS))
    def test_candidates_match_golden(self, family, distance):
        table = SwapLookupTable(make_code(family, distance), num_backups=None)
        assert (table.unmatched_data_qubit, _table_digest(table)) == (
            LOOKUP_TABLE_GOLDENS[family, distance]
        )

    def test_distance_3_surface_table_in_full(self, code):
        table = SwapLookupTable(code, num_backups=None)
        assert table.candidates == {
            0: (0, 1), 1: (1, 0, 2), 2: (2, 3), 3: (4, 1, 5), 4: (5, 1, 2, 6),
            5: (3, 2, 6), 6: (4, 5), 7: (6, 5, 7), 8: (7, 6),
        }

    @pytest.mark.parametrize("family,distance", [("rotated-surface", 5), ("repetition", 7)])
    def test_max_schedulable_of_every_data_qubit(self, family, distance):
        code = make_code(family, distance)
        dli = DynamicLrcInsertion(SwapLookupTable(code))
        assert dli.max_schedulable(code.data_indices) == code.num_data_qubits - 1
