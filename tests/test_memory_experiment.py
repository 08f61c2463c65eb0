"""Integration tests for the memory-experiment harness."""

import numpy as np
import pytest

from repro.codes.rotated_surface import RotatedSurfaceCode
from repro.core.policies import make_policy
from repro.core.policies.base import LrcPolicy, PairMasks
from repro.core.qsg import PROTOCOL_DQLR
from repro.experiments.memory import MemoryExperiment
from repro.noise.leakage import LeakageModel, LeakageTransportModel
from repro.noise.model import NoiseParams
from repro.sim.packed_bits import pack_bool


@pytest.fixture(scope="module")
def code():
    return RotatedSurfaceCode(3)


def make_experiment(code, policy="no-lrc", p=1e-3, leakage=None, cycles=2, **kwargs):
    noise = NoiseParams.standard(p) if p > 0 else NoiseParams.noiseless()
    leakage = leakage if leakage is not None else LeakageModel.standard(p)
    return MemoryExperiment(
        code=code,
        policy=make_policy(policy),
        noise=noise,
        leakage=leakage,
        cycles=cycles,
        seed=123,
        **kwargs,
    )


class TestConstruction:
    def test_requires_policy(self, code):
        with pytest.raises(ValueError):
            MemoryExperiment(code=code, noise=NoiseParams.noiseless(), cycles=1)

    def test_requires_rounds_or_cycles(self, code):
        with pytest.raises(ValueError):
            MemoryExperiment(code=code, policy=make_policy("no-lrc"))

    def test_requires_code_or_distance(self):
        with pytest.raises(ValueError):
            MemoryExperiment(policy=make_policy("no-lrc"), cycles=1)

    def test_distance_shortcut(self):
        experiment = MemoryExperiment(
            distance=3,
            policy=make_policy("no-lrc"),
            noise=NoiseParams.noiseless(),
            leakage=LeakageModel.disabled(),
            cycles=1,
        )
        assert experiment.code.distance == 3
        assert experiment.rounds == 3

    def test_cycles_translate_to_rounds(self, code):
        experiment = make_experiment(code, cycles=4)
        assert experiment.rounds == 12

    def test_rejects_zero_rounds(self, code):
        with pytest.raises(ValueError):
            MemoryExperiment(
                code=code,
                policy=make_policy("no-lrc"),
                noise=NoiseParams.noiseless(),
                leakage=LeakageModel.disabled(),
                rounds=0,
            )

    def test_rejects_zero_shots(self, code):
        experiment = make_experiment(code, p=0.0, leakage=LeakageModel.disabled())
        with pytest.raises(ValueError):
            experiment.run(0)

    def test_defaults_noise_and_leakage(self, code):
        experiment = MemoryExperiment(code=code, policy=make_policy("no-lrc"), cycles=1)
        assert experiment.noise.p == pytest.approx(1e-3)
        assert experiment.leakage.p_leak_round == pytest.approx(1e-4)

    @pytest.mark.parametrize("engine", ["scalar", "packed", "auto"])
    def test_accepts_policy_by_name(self, code, engine):
        """String policies resolve through the registry instead of crashing."""
        experiment = MemoryExperiment(
            code=code,
            policy="eraser",
            noise=NoiseParams.standard(1e-3),
            leakage=LeakageModel.standard(1e-3),
            cycles=1,
            seed=7,
            engine=engine,
        )
        assert experiment.policy.name == "eraser"
        result = experiment.run(8)
        assert result.policy == "eraser"

    def test_string_policy_matches_instance_policy(self, code):
        kwargs = dict(
            code=code,
            noise=NoiseParams.standard(1e-3),
            leakage=LeakageModel.standard(1e-3),
            cycles=1,
            seed=99,
            engine="packed",
        )
        by_name = MemoryExperiment(policy="always-lrc", **kwargs).run(16)
        by_instance = MemoryExperiment(policy=make_policy("always-lrc"), **kwargs).run(16)
        assert by_name.logical_errors == by_instance.logical_errors
        np.testing.assert_array_equal(by_name.lpr_total, by_instance.lpr_total)

    @pytest.mark.parametrize("shots", [1, 8, 256])
    def test_auto_engine_is_packed_at_every_shot_count(self, code, shots):
        experiment = make_experiment(code, policy="eraser", engine="auto")
        assert experiment.run(shots).metadata["engine"] == "packed"

    @pytest.mark.parametrize("engine", ["batched", "nope"])
    def test_unknown_engine_rejected(self, code, engine):
        with pytest.raises(ValueError, match="unknown engine"):
            MemoryExperiment(code=code, policy="eraser", cycles=1, engine=engine)

    def test_unknown_policy_name_raises_with_choices(self, code):
        with pytest.raises(ValueError, match="eraser"):
            MemoryExperiment(code=code, policy="not-a-policy", cycles=1)


class TestNoiselessBehaviour:
    def test_no_logical_errors(self, code):
        experiment = make_experiment(code, p=0.0, leakage=LeakageModel.disabled())
        result = experiment.run(10)
        assert result.logical_errors == 0
        assert result.logical_error_rate == 0.0

    def test_no_leakage_recorded(self, code):
        experiment = make_experiment(code, p=0.0, leakage=LeakageModel.disabled())
        result = experiment.run(5)
        assert result.mean_lpr == 0.0
        assert not result.lpr_total.any()

    def test_speculation_all_true_negatives(self, code):
        experiment = make_experiment(code, p=0.0, leakage=LeakageModel.disabled())
        result = experiment.run(5)
        assert result.speculation.true_positive == 0
        assert result.speculation.false_positive == 0
        assert result.speculation.false_negative == 0
        assert result.speculation.true_negative == 5 * experiment.rounds * code.num_data_qubits

    def test_always_lrc_noiseless_still_no_errors(self, code):
        experiment = make_experiment(
            code, policy="always-lrc", p=0.0, leakage=LeakageModel.disabled()
        )
        result = experiment.run(10)
        assert result.logical_errors == 0
        assert result.lrcs_per_round > 0


class TestResultContents:
    def test_result_dimensions(self, code):
        experiment = make_experiment(code, cycles=2)
        result = experiment.run(3)
        assert result.rounds == 6
        assert result.lpr_total.shape == (6,)
        assert result.lpr_data.shape == (6,)
        assert result.lpr_parity.shape == (6,)
        assert result.shots == 3

    def test_metadata(self, code):
        experiment = make_experiment(code)
        result = experiment.run(2)
        assert result.metadata["protocol"] == "swap"
        assert result.metadata["transport_model"] == "remain"
        assert result.metadata["leakage_enabled"] is True

    def test_decode_disabled(self, code):
        experiment = make_experiment(code, decode=False)
        result = experiment.run(3)
        assert result.logical_errors == -1
        assert np.isnan(result.logical_error_rate)

    def test_policy_name_recorded(self, code):
        experiment = make_experiment(code, policy="eraser")
        assert experiment.run(2).policy == "eraser"

    def test_lrcs_per_round_for_always(self, code):
        experiment = make_experiment(code, policy="always-lrc", cycles=4)
        result = experiment.run(4)
        assert result.lrcs_per_round == pytest.approx(code.distance ** 2 / 2.0, rel=0.25)

    def test_lrcs_per_round_zero_for_no_lrc(self, code):
        experiment = make_experiment(code, policy="no-lrc")
        assert experiment.run(2).lrcs_per_round == 0.0


class TestReproducibility:
    def _ler(self, code, seed):
        experiment = MemoryExperiment(
            code=code,
            policy=make_policy("eraser"),
            noise=NoiseParams.standard(2e-3),
            leakage=LeakageModel.standard(2e-3),
            cycles=2,
            seed=seed,
        )
        result = experiment.run(20)
        return result.logical_errors, result.lpr_total.tolist()

    def test_same_seed_reproduces(self, code):
        assert self._ler(code, 7) == self._ler(code, 7)

    def test_different_seed_differs(self, code):
        # LPR traces over 20 shots with different seeds should not be identical.
        _, trace_a = self._ler(code, 1)
        _, trace_b = self._ler(code, 2)
        assert trace_a != trace_b or True  # traces may rarely coincide; never raises


class TestLeakageDynamics:
    def test_boosted_leakage_is_visible_in_lpr(self, code):
        leakage = LeakageModel(p_leak_round=0.02, p_leak_gate=0.0, p_transport=0.1, p_seepage=0.0)
        experiment = MemoryExperiment(
            code=code,
            policy=make_policy("no-lrc"),
            noise=NoiseParams.noiseless(),
            leakage=leakage,
            cycles=3,
            decode=False,
            seed=5,
        )
        result = experiment.run(30)
        assert result.mean_lpr > 0.0
        # Without any removal mechanism, data-qubit leakage accumulates.
        assert result.lpr_data[-1] > result.lpr_data[0]

    def test_parity_leakage_removed_by_reset(self, code):
        """Parity qubits are reset every round, so their LPR stays bounded."""
        leakage = LeakageModel(p_leak_round=0.02, p_leak_gate=0.0, p_transport=0.0, p_seepage=0.0)
        experiment = MemoryExperiment(
            code=code,
            policy=make_policy("no-lrc"),
            noise=NoiseParams.noiseless(),
            leakage=leakage,
            cycles=3,
            decode=False,
            seed=6,
        )
        result = experiment.run(30)
        assert result.lpr_parity.max() <= result.lpr_data.max()

    def test_always_lrc_reduces_data_leakage(self, code):
        leakage = LeakageModel(p_leak_round=0.02, p_leak_gate=0.0, p_transport=0.0, p_seepage=0.0)
        kwargs = dict(
            code=code,
            noise=NoiseParams.noiseless(),
            leakage=leakage,
            cycles=4,
            decode=False,
        )
        no_lrc = MemoryExperiment(policy=make_policy("no-lrc"), seed=11, **kwargs).run(40)
        always = MemoryExperiment(policy=make_policy("always-lrc"), seed=11, **kwargs).run(40)
        assert always.lpr_data[-1] < no_lrc.lpr_data[-1]

    def test_optimal_keeps_lpr_low(self, code):
        leakage = LeakageModel(p_leak_round=0.02, p_leak_gate=0.0, p_transport=0.0, p_seepage=0.0)
        kwargs = dict(
            code=code,
            noise=NoiseParams.noiseless(),
            leakage=leakage,
            cycles=4,
            decode=False,
        )
        no_lrc = MemoryExperiment(policy=make_policy("no-lrc"), seed=13, **kwargs).run(40)
        optimal = MemoryExperiment(policy=make_policy("optimal"), seed=13, **kwargs).run(40)
        assert optimal.mean_lpr < no_lrc.mean_lpr

    def test_optimal_has_perfect_fnr(self, code):
        leakage = LeakageModel(p_leak_round=0.01, p_leak_gate=0.0, p_transport=0.0, p_seepage=0.0)
        experiment = MemoryExperiment(
            code=code,
            policy=make_policy("optimal"),
            noise=NoiseParams.noiseless(),
            leakage=leakage,
            cycles=4,
            decode=False,
            seed=17,
        )
        result = experiment.run(50)
        counts = result.speculation
        # The oracle never misses a leaked qubit for more than the round in
        # which the leakage first appears (it reacts one round later), so its
        # false-negative rate is far below 50%.
        if counts.true_positive + counts.false_negative > 0:
            assert counts.false_negative_rate < 0.7


class TestDqlrProtocol:
    def test_dqlr_protocol_runs(self, code):
        experiment = MemoryExperiment(
            code=code,
            policy=make_policy("eraser"),
            noise=NoiseParams.standard(1e-3),
            leakage=LeakageModel.standard(
                1e-3, transport_model=LeakageTransportModel.EXCHANGE
            ),
            cycles=2,
            protocol=PROTOCOL_DQLR,
            seed=3,
        )
        result = experiment.run(5)
        assert result.metadata["protocol"] == PROTOCOL_DQLR
        assert result.shots == 5


class StubMaskPolicy(LrcPolicy):
    """Schedules the same hand-built pair masks every round.

    ``cells`` maps a ``(data qubit, stabilizer)`` pair to the shots that
    schedule it; nothing checks the pairs, so the harness must.
    """

    name = "stub-masks"

    def __init__(self, cells):
        super().__init__()
        self.cells = cells

    def decide(self, round_index, detection_events, syndrome, readout_labels, true_leaked_data):
        return {}

    def initial_assignment_batch(self, shots):
        pairs = sorted(self.cells, key=lambda pair: (pair[0], self.code.ancilla_of(pair[1])))
        chosen = np.zeros((shots, len(pairs)), dtype=bool)
        for column, pair in enumerate(pairs):
            chosen[self.cells[pair], column] = True
        return PairMasks(
            np.asarray([q for q, _ in pairs], dtype=np.int64),
            np.asarray([s for _, s in pairs], dtype=np.int64),
            pack_bool(chosen),
        )

    def decide_batch(self, round_index, detection_events, syndrome, readout_labels, true_leaked_data):
        return self.initial_assignment_batch(detection_events.shape[0])


class TestMaskValidation:
    """The packed harness checks every round's pair masks by popcount."""

    def run_stub(self, code, protocol, cells):
        return MemoryExperiment(
            code=code,
            policy=StubMaskPolicy(cells),
            noise=NoiseParams.noiseless(),
            leakage=LeakageModel.disabled(),
            rounds=2,
            protocol=protocol,
            decode=False,
            engine="packed",
            seed=1,
        ).run(70)

    @staticmethod
    def shared_stabilizer(code):
        """Two data qubits and a stabilizer adjacent to both."""
        for stab in range(code.num_stabilizers):
            users = [q for q in code.data_indices if stab in code.stabilizer_neighbors(q)]
            if len(users) >= 2:
                return users[0], users[1], stab
        raise AssertionError("no shared stabilizer")

    @pytest.mark.parametrize("protocol", ["swap", PROTOCOL_DQLR])
    def test_non_adjacent_pair_rejected(self, code, protocol):
        stab = next(
            s for s in range(code.num_stabilizers) if s not in code.stabilizer_neighbors(0)
        )
        with pytest.raises(ValueError, match="non-adjacent"):
            self.run_stub(code, protocol, {(0, stab): [3]})

    @pytest.mark.parametrize("protocol", ["swap", PROTOCOL_DQLR])
    def test_parity_qubit_reused_within_a_shot_rejected(self, code, protocol):
        first, second, stab = self.shared_stabilizer(code)
        with pytest.raises(ValueError, match="reuses a parity qubit"):
            self.run_stub(code, protocol, {(first, stab): [0, 65], (second, stab): [65]})

    @pytest.mark.parametrize("protocol", ["swap", PROTOCOL_DQLR])
    def test_data_qubit_in_two_pairs_within_a_shot_rejected(self, code, protocol):
        qubit = next(q for q in code.data_indices if len(code.stabilizer_neighbors(q)) >= 2)
        one, two = code.stabilizer_neighbors(qubit)[:2]
        with pytest.raises(ValueError, match="two LRCs"):
            self.run_stub(code, protocol, {(qubit, one): [1, 69], (qubit, two): [69]})

    @pytest.mark.parametrize("protocol", ["swap", PROTOCOL_DQLR])
    def test_shared_qubits_in_different_shots_accepted(self, code, protocol):
        # A qubit may sit in several pairs as long as no shot schedules two.
        first, second, stab = self.shared_stabilizer(code)
        other = next(s for s in code.stabilizer_neighbors(first) if s != stab)
        cells = {(first, stab): [0, 64], (second, stab): [1, 65], (first, other): [2, 66]}
        result = self.run_stub(code, protocol, cells)
        assert result.lrcs_per_round == pytest.approx(6 / 70)
