"""Batched LRC decisions must equal the per-shot decisions, shot for shot.

The packed engine asks a policy for every shot's next-round schedule in one
``decide_batch`` call; the scalar engine asks one policy copy per shot through
``decide``.  Both are driven here with the same seeded detection-event,
readout-label and ground-truth streams, and each shot's batched decision is
decoded back to a ``{data qubit: stabilizer}`` dict and compared with its
scalar copy's.
"""

import numpy as np
import pytest

from repro.codes import make_code
from repro.experiments.jobs import resolve_policy
from repro.sim.packed_bits import full_words, num_words, unpack_words

BATCH_POLICIES = ("always-lrc", "eraser", "eraser+m", "optimal", "no-lrc", "dqlr")

#: 130 shots leave a partial final word (130 = 2 * 64 + 2).
SHOTS = 130
ROUNDS = 12


def batch_assignments(masks, shots, code):
    """Per-shot ``{data qubit: stabilizer}`` dicts of batched pair masks."""
    assert masks.data.shape == masks.stabs.shape
    assert masks.act.shape == (num_words(shots), masks.data.size)
    # Columns ascend by (data qubit, parity qubit), none is empty, and no
    # bit past the last shot is set.
    order = [(q, code.ancilla_of(s)) for q, s in zip(masks.data, masks.stabs)]
    assert order == sorted(set(order))
    assert masks.act.any(axis=0).all()
    np.testing.assert_array_equal(masks.act & ~full_words(shots)[:, None], 0)
    active = unpack_words(masks.act, shots)
    assignments = []
    for row in active:
        pairs = np.flatnonzero(row)
        assignment = {int(masks.data[j]): int(masks.stabs[j]) for j in pairs}
        assert len(assignment) == pairs.size, "a data qubit has two LRCs in one shot"
        assignments.append(assignment)
    return assignments


def drive(policy_name, code, seed, event_rate, label_rate, leak_rate):
    """Yield (round, batched dicts, scalar dicts) for every decision made."""
    rng = np.random.default_rng(seed)
    batch = resolve_policy(policy_name)
    batch.bind(code, rng=1)
    batch.start_batch(SHOTS)
    copies = []
    for _ in range(SHOTS):
        copy = resolve_policy(policy_name)
        copy.bind(code, rng=1)
        copy.start_shot()
        copies.append(copy)
    yield (
        -1,
        batch_assignments(batch.initial_assignment_batch(SHOTS), SHOTS, code),
        [copy.initial_assignment() for copy in copies],
    )
    n_stabs, n_data = code.num_stabilizers, code.num_data_qubits
    for round_index in range(ROUNDS):
        events = rng.random((SHOTS, n_stabs)) < event_rate
        syndrome = (rng.random((SHOTS, n_stabs)) < 0.5).astype(np.uint8)
        labels = syndrome.copy()
        labels[rng.random((SHOTS, n_stabs)) < label_rate] = 2
        truth = rng.random((SHOTS, n_data)) < leak_rate
        decision = batch.decide_batch(
            round_index, events, syndrome, labels,
            truth if batch.uses_ground_truth else None,
        )
        scalar = [
            copy.decide(round_index, events[s], syndrome[s], labels[s], truth[s])
            for s, copy in enumerate(copies)
        ]
        yield round_index, batch_assignments(decision, SHOTS, code), scalar


@pytest.mark.parametrize("distance", [3, 5])
@pytest.mark.parametrize("policy_name", BATCH_POLICIES)
@pytest.mark.parametrize(
    "rates",
    [(0.05, 0.02, 0.03), (0.4, 0.2, 0.3)],
    ids=["sparse", "dense"],
)
def test_batched_decisions_equal_per_shot_decisions(policy_name, distance, rates):
    code = make_code("rotated-surface", distance)
    decided = 0
    for round_index, batched, scalar in drive(policy_name, code, 7 + distance, *rates):
        for shot, (got, want) in enumerate(zip(batched, scalar)):
            assert got == want, f"round {round_index}, shot {shot}"
        decided += sum(map(len, scalar))
    if policy_name != "no-lrc":
        assert decided > 0, "the streams never triggered a decision"
