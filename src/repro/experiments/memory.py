"""The memory (state-preservation) experiment harness.

A memory-Z experiment prepares the logical |0>, runs ``rounds`` rounds of
syndrome extraction under a chosen LRC scheduling policy, measures every data
qubit transversally, decodes the accumulated detection events with MWPM, and
records whether the corrected logical observable flipped.  This is the
workload behind every evaluation figure of the paper.

The harness additionally records, per round, the leakage population ratio
(total / data / parity), the number of leakage-removal operations scheduled,
and the confusion matrix of the policy's per-qubit LRC decisions against the
simulator's ground-truth leakage.

Two execution engines are provided.  The scalar engine runs one shot at a
time through a fresh :class:`~repro.sim.frame_simulator.LeakageFrameSimulator`
(the reference implementation).  The packed engine drives all shots of a
batch through one
:class:`~repro.sim.packed_frame_simulator.PackedLeakageFrameSimulator`,
which carries the frames as bit-packed uint64 words — 64 shots per word —
with sparsely sampled noise: each round, the policy produces every shot's
LRC assignment in one ``decide_batch`` call as
:class:`~repro.core.policies.base.PairMasks` (a packed shot mask per
(data qubit, stabilizer) pair), the per-shot LRC tails run as masked word
kernels over those pairs, and the frames are unpacked only at the
syndrome-extraction boundary where the decoder and the policy take over.
The engines are statistically equivalent
(``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.codes.base import StabilizerCode
from repro.codes.layout import StabilizerType
from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.core.policies.base import LrcPolicy, PairMasks
from repro.core.qsg import (
    KEY_FINAL_DATA,
    KEY_MAIN_SYNDROME,
    PROTOCOL_SWAP,
    QecScheduleGenerator,
)
from repro.decoder.decoder import SurfaceCodeDecoder
from repro.experiments.metrics import SpeculationCounts
from repro.experiments.results import MemoryExperimentResult
from repro.noise.leakage import LeakageModel
from repro.noise.model import NoiseParams
from repro.noise.profiles import NoiseProfile
from repro.sim.circuit import MeasureReset
from repro.sim.frame_simulator import LeakageFrameSimulator
from repro.sim.packed_bits import full_words, popcount, update_columns
from repro.sim.packed_frame_simulator import PackedLeakageFrameSimulator
from repro.sim.rng import RngLike, make_rng

#: Shots simulated together per packed batch unless the caller overrides
#: it.  Packed per-batch costs are dominated by fixed per-operation overhead
#: (a few numpy calls each), so larger batches amortise better; 16384 shots
#: is 256 words per qubit.
DEFAULT_BATCH_SIZE = 16384

#: Valid ``engine`` arguments of :class:`MemoryExperiment`.
ENGINES = ("auto", "scalar", "packed")


@dataclass
class _ShotOutcome:
    """Raw per-shot observations before aggregation."""

    logical_error: bool
    lpr_total: np.ndarray
    lpr_data: np.ndarray
    lpr_parity: np.ndarray
    lrcs: int
    speculation: SpeculationCounts


class MemoryExperiment:
    """Runs memory-Z experiments for one (code, policy, noise) configuration.

    Args:
        code: The code substrate — any :class:`~repro.codes.base.StabilizerCode`
            family (or pass ``distance`` to build a rotated surface code).
        policy: LRC scheduling policy instance.
        noise: Circuit-level noise parameters (the uniform base model).
        noise_profile: Optional :class:`~repro.noise.profiles.NoiseProfile`
            modulating ``noise`` into per-qubit/biased rates.  The uniform
            profile (and ``None``) keeps the scalar ``NoiseParams`` fast
            path, so seeded uniform statistics are bit-identical with or
            without a profile.
        leakage: Leakage model parameters.
        rounds: Number of syndrome-extraction rounds per shot.  The paper uses
            ``cycles * distance`` rounds for a ``cycles``-cycle experiment.
        protocol: ``"swap"`` (main text) or ``"dqlr"`` (Appendix A.2).
        decode: Whether to decode shots (disable for LPR-only studies).
        decoder_method: Matching engine passed to the decoder.
        seed: Seed or generator for reproducibility.
        engine: ``"packed"`` (bit-packed word-parallel execution, 64 shots
            per uint64 word), ``"scalar"`` (the reference one-shot-at-a-time
            loop), or ``"auto"`` (packed).  The engines are
            statistically equivalent but draw random numbers in different
            orders, so per-shot outcomes differ bit-for-bit between them.
        batch_size: Shots simulated together per packed batch (default
            :data:`DEFAULT_BATCH_SIZE`); ignored by scalar.
    """

    def __init__(
        self,
        code: Optional[StabilizerCode] = None,
        policy: LrcPolicy = None,
        noise: NoiseParams = None,
        noise_profile: Optional[NoiseProfile] = None,
        leakage: LeakageModel = None,
        rounds: int = None,
        distance: Optional[int] = None,
        cycles: Optional[int] = None,
        protocol: str = PROTOCOL_SWAP,
        decode: bool = True,
        decoder_method: str = "auto",
        seed: RngLike = None,
        engine: str = "auto",
        batch_size: Optional[int] = None,
    ):
        if code is None:
            if distance is None:
                raise ValueError("provide either a code instance or a distance")
            code = RotatedSurfaceCode(distance)
        self.code = code
        if rounds is None:
            if cycles is None:
                raise ValueError("provide either rounds or cycles")
            rounds = cycles * code.distance
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if policy is None:
            raise ValueError("a scheduling policy is required")
        if isinstance(policy, str):
            # Resolve names ("eraser", "always-lrc", ...) here rather than
            # crashing later on `policy.bind`;
            # resolve_policy raises a ValueError naming the valid policies.
            # Imported lazily: jobs imports this module at load time.
            from repro.experiments.jobs import resolve_policy

            policy = resolve_policy(policy)
        self.policy = policy
        base_noise = noise if noise is not None else NoiseParams.standard()
        self.noise_profile = noise_profile if noise_profile is not None else NoiseProfile.uniform()
        # The uniform profile resolves back to the scalar NoiseParams object,
        # so the default configuration runs the pre-profile fast path.
        self.noise = self.noise_profile.materialize(base_noise, code.num_qubits)
        self.leakage = leakage if leakage is not None else LeakageModel.standard(self.noise.p)
        self.rounds = rounds
        self.protocol = protocol
        self.decode = decode
        self.rng = make_rng(seed)
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.engine = engine
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size

        adaptive_multilevel = bool(getattr(policy, "uses_multilevel_readout", False))
        self.qsg = QecScheduleGenerator(
            code, protocol=protocol, adaptive_multilevel=adaptive_multilevel
        )
        self.decoder: Optional[SurfaceCodeDecoder] = None
        if decode:
            self.decoder = SurfaceCodeDecoder(
                code=code,
                num_rounds=rounds,
                stabilizer_type=StabilizerType.Z,
                method=decoder_method,
            )
        self.policy.bind(code, rng=self.rng)
        self._data_indices = np.asarray(code.data_indices, dtype=np.int64)
        self._parity_indices = np.asarray(code.parity_indices, dtype=np.int64)
        self._all_qubits = np.arange(code.num_qubits, dtype=np.int64)
        # Static lookups used by the packed engine's pair-mask execution.
        n_stabs = code.num_stabilizers
        self._ancilla_of_stab = np.asarray(
            [code.ancilla_of(s) for s in range(n_stabs)], dtype=np.int64
        )
        self._adjacency = np.zeros((code.num_data_qubits, n_stabs), dtype=bool)
        for data_qubit in code.data_indices:
            self._adjacency[data_qubit, list(code.stabilizer_neighbors(data_qubit))] = True
        self._main_measure_ops = [
            MeasureReset(
                self._ancilla_of_stab,
                KEY_MAIN_SYNDROME,
                meta=tuple(range(n_stabs)),
            )
        ]

    # ------------------------------------------------------------------
    # Single-shot execution
    # ------------------------------------------------------------------
    def run_shot(self) -> _ShotOutcome:
        """Run one Monte-Carlo shot and return its raw observations."""
        sim = LeakageFrameSimulator(
            self.code.num_qubits, self.noise, self.leakage, rng=self.rng
        )
        self.policy.start_shot()
        assignment = self.policy.initial_assignment()

        n_stabs = self.code.num_stabilizers
        history = np.zeros((self.rounds, n_stabs), dtype=np.uint8)
        lpr_total = np.zeros(self.rounds)
        lpr_data = np.zeros(self.rounds)
        lpr_parity = np.zeros(self.rounds)
        speculation = SpeculationCounts()
        total_lrcs = 0
        previous_syndrome = np.zeros(n_stabs, dtype=np.uint8)

        for round_index in range(self.rounds):
            self._record_speculation(sim, assignment, speculation)
            total_lrcs += len(assignment)

            ops, layout = self.qsg.build_round(assignment)
            records = sim.run(ops)
            syndrome, labels, _ = self.qsg.assemble_syndrome(records, layout)
            history[round_index] = syndrome

            lpr_total[round_index] = sim.leaked_fraction()
            lpr_data[round_index] = sim.leaked_fraction(self._data_indices)
            lpr_parity[round_index] = sim.leaked_fraction(self._parity_indices)

            detection_events = (syndrome ^ previous_syndrome).astype(bool)
            previous_syndrome = syndrome
            truth = sim.leaked[self._data_indices] if self.policy.uses_ground_truth else None
            assignment = self.policy.decide(
                round_index,
                detection_events,
                syndrome,
                labels,
                truth,
            )

        logical_error = False
        if self.decode:
            records = sim.run(self.qsg.build_final_data_measurement())
            final_bits = records[KEY_FINAL_DATA].bits
            logical_error = self.decoder.decode_shot(history, final_bits)

        return _ShotOutcome(
            logical_error=logical_error,
            lpr_total=lpr_total,
            lpr_data=lpr_data,
            lpr_parity=lpr_parity,
            lrcs=total_lrcs,
            speculation=speculation,
        )

    def _record_speculation(
        self,
        sim: LeakageFrameSimulator,
        assignment: Dict[int, int],
        counts: SpeculationCounts,
    ) -> None:
        leaked = sim.leaked[self._data_indices]
        predicted = np.zeros(self.code.num_data_qubits, dtype=bool)
        if assignment:
            predicted[np.asarray(list(assignment.keys()), dtype=np.int64)] = True
        tp = int(np.count_nonzero(predicted & leaked))
        fp = int(np.count_nonzero(predicted & ~leaked))
        fn = int(np.count_nonzero(~predicted & leaked))
        tn = int(np.count_nonzero(~predicted & ~leaked))
        counts.update(tp, fp, tn, fn)

    # ------------------------------------------------------------------
    # Packed (multi-shot) execution
    # ------------------------------------------------------------------
    def _check_masks(self, masks: PairMasks) -> Tuple[int, np.ndarray, np.ndarray]:
        """Validate one round's pair masks by popcount.

        Returns the LRC count and the pair columns ORed per data qubit and
        per stabilizer.  Pairs must be adjacent, and no shot may use a
        parity or data qubit twice: each OR must keep every set bit.
        """
        if not self._adjacency[masks.data, masks.stabs].all():
            raise ValueError("LRC assignment pairs a data qubit with a non-adjacent stabilizer")
        count = popcount(masks.act)
        words = masks.act.shape[0]
        by_data = update_columns(
            np.bitwise_or, np.zeros((words, self.code.num_data_qubits), dtype=np.uint64),
            masks.data, masks.act, masks.data_unique,
        )
        by_stab = update_columns(
            np.bitwise_or, np.zeros((words, self.code.num_stabilizers), dtype=np.uint64),
            masks.stabs, masks.act, masks.stabs_unique,
        )
        if not masks.stabs_unique and popcount(by_stab) != count:
            raise ValueError("LRC assignment reuses a parity qubit within one round")
        if not masks.data_unique and popcount(by_data) != count:
            raise ValueError("LRC assignment gives a data qubit two LRCs within one round")
        return count, by_data, by_stab

    def _run_batch(
        self,
        batch_shots: int,
        lpr_sums: np.ndarray,
        speculation: SpeculationCounts,
    ) -> Tuple[int, int]:
        """Run one packed batch; returns (logical errors, LRCs scheduled)."""
        sim = PackedLeakageFrameSimulator(
            self.code.num_qubits, self.noise, self.leakage, shots=batch_shots,
            rng=self.rng,
        )
        self.policy.start_batch(batch_shots)
        masks = self.policy.initial_assignment_batch(batch_shots)

        n_stabs = self.code.num_stabilizers
        swap_protocol = self.protocol == PROTOCOL_SWAP
        adaptive = self.qsg.adaptive_multilevel
        history = np.zeros((batch_shots, self.rounds, n_stabs), dtype=np.uint8)
        previous_syndrome = np.zeros((batch_shots, n_stabs), dtype=np.uint8)
        all_active = np.repeat(full_words(batch_shots)[:, np.newaxis], n_stabs, axis=1)
        cells = batch_shots * self.code.num_data_qubits
        total_lrcs = 0

        for round_index in range(self.rounds):
            count, predicted, by_stab = self._check_masks(masks)
            leaked = sim.leaked[:, self._data_indices]
            tp = popcount(predicted & leaked)
            fn = popcount(leaked) - tp
            speculation.update(tp=tp, fp=count - tp, tn=cells - count - fn, fn=fn)
            total_lrcs += count

            # The assignment-independent head of the round (noise + extraction
            # CNOTs) runs over the whole batch in one vectorised pass; the
            # per-shot LRC tails run as masked pair-column kernels, so the
            # cost per round does not depend on how many assignments differ.
            sim.run(self.qsg.round_prefix())
            data_cols = self._data_indices[masks.data]
            ancilla_cols = self._ancilla_of_stab[masks.stabs]
            if swap_protocol:
                sim.swap_instances(data_cols, ancilla_cols, masks.act)
                # Each shot measures its own main (non-LRC) parity qubits;
                # LRC'd ancillas hold parked data states and stay untouched.
                record = sim.measure_reset_masked(
                    self._ancilla_of_stab, tuple(range(n_stabs)),
                    all_active & ~by_stab,
                )
                syndrome = record.bits
                labels = record.labels
                if masks.data.size:
                    # Main and LRC results cover disjoint cells (each reads 0
                    # outside its own), so merging them is an OR per column.
                    bits, lrc_labels, _ = sim.lrc_finalize_instances(
                        data_cols, ancilla_cols, masks.act, adaptive_multilevel=adaptive
                    )
                    for merged, lrc in ((syndrome, bits), (labels, lrc_labels)):
                        update_columns(
                            np.bitwise_or, merged, masks.stabs, lrc, masks.stabs_unique
                        )
            else:
                record = sim.run(self._main_measure_ops)[KEY_MAIN_SYNDROME]
                syndrome = record.bits
                labels = record.labels
                sim.leak_iswap_instances(data_cols, ancilla_cols, masks.act)
                sim.reset_instances(ancilla_cols, masks.act)
            history[:, round_index] = syndrome

            # One unpack of the leakage plane serves the three population
            # sums and the oracle's ground truth.
            leaked_now = sim.leaked_at(self._all_qubits)
            lpr_sums[0, round_index] += leaked_now.mean(axis=1).sum()
            lpr_sums[1, round_index] += leaked_now[:, self._data_indices].mean(axis=1).sum()
            lpr_sums[2, round_index] += leaked_now[:, self._parity_indices].mean(axis=1).sum()

            detection_events = (syndrome ^ previous_syndrome).astype(bool)
            previous_syndrome = syndrome
            truth = leaked_now[:, self._data_indices] if self.policy.uses_ground_truth else None
            masks = self.policy.decide_batch(
                round_index, detection_events, syndrome, labels, truth
            )

        logical_errors = 0
        if self.decode:
            records = sim.run(self.qsg.build_final_data_measurement())
            final_bits = records[KEY_FINAL_DATA].bits
            errors = self.decoder.decode_batch(history, final_bits)
            logical_errors = int(np.count_nonzero(errors))
        return logical_errors, total_lrcs

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def run(self, shots: int) -> MemoryExperimentResult:
        """Run ``shots`` Monte-Carlo shots and aggregate the observations."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        engine = "scalar" if self.engine == "scalar" else "packed"
        lpr_total = np.zeros(self.rounds)
        lpr_data = np.zeros(self.rounds)
        lpr_parity = np.zeros(self.rounds)
        speculation = SpeculationCounts()
        logical_errors = 0
        total_lrcs = 0
        if engine == "packed":
            batch_size = self.batch_size or DEFAULT_BATCH_SIZE
            lpr_sums = np.zeros((3, self.rounds))
            done = 0
            while done < shots:
                batch_shots = min(batch_size, shots - done)
                errors, lrcs = self._run_batch(batch_shots, lpr_sums, speculation)
                logical_errors += errors
                total_lrcs += lrcs
                done += batch_shots
            lpr_total, lpr_data, lpr_parity = lpr_sums
        else:
            for _ in range(shots):
                outcome = self.run_shot()
                lpr_total += outcome.lpr_total
                lpr_data += outcome.lpr_data
                lpr_parity += outcome.lpr_parity
                speculation = speculation.merge(outcome.speculation)
                logical_errors += int(outcome.logical_error)
                total_lrcs += outcome.lrcs
        lpr_total /= shots
        lpr_data /= shots
        lpr_parity /= shots
        return MemoryExperimentResult(
            policy=self.policy.name,
            distance=self.code.distance,
            rounds=self.rounds,
            physical_error_rate=self.noise.p,
            shots=shots,
            logical_errors=logical_errors if self.decode else -1,
            lpr_total=lpr_total,
            lpr_data=lpr_data,
            lpr_parity=lpr_parity,
            lrcs_per_round=total_lrcs / (shots * self.rounds),
            speculation=speculation,
            metadata={
                "protocol": self.protocol,
                "transport_model": self.leakage.transport_model.value,
                "leakage_enabled": self.leakage.enabled,
                "engine": engine,
                "code_family": self.code.family,
                "noise_profile": self.noise_profile.to_config(),
            },
        )
