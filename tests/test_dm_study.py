"""Tests for the single-stabilizer density-matrix leakage study (Figures 7-8)."""

import numpy as np
import pytest

from repro.densitymatrix.study import (
    DATA_QUDITS,
    PARITY_QUDIT,
    SingleStabilizerLeakageStudy,
    StabilizerStudyResult,
)
from repro.experiments import jobs as jobs_module
from repro.experiments.store import InMemoryResultStore, ResultStore, config_hash


# Fig. 8 golden series: the per-step leak probabilities (q0..q3, P) and the
# probability of measuring P in |0>, for the default study and for one
# stressed parameterisation.  Any rewrite of how the density matrix applies
# channels must reproduce them to floating-point rounding.
STRESSED_PARAMS = dict(initially_leaked=2, p_transport=0.3, p_injection=1e-2, rx_angle=1.0)

DEFAULT_LEAKS = [
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [0.8999172699524987, 0.0, 0.0, 0.0, 0.10005542957248827],
    [0.8999172699524983, 0.010011088986935158, 0.0, 0.0, 0.09010703305432918],
    [0.8999172699524982, 0.01001108898693516, 0.009015697899753308, 0.0, 0.08115502090287878],
    [0.8999172699524979, 0.010011088986935158, 0.009015697899753308, 0.008120000478401806, 0.07309959977169868],
    [0.8171681091962865, 0.010011088986935162, 0.009015697899753308, 0.008120000478401801, 0.15583172826415834],
    [0.7509614870398791, 0.010011088986935162, 0.009015697899753308, 0.008120000478401805, 0.22194472612459148],
    [0.6980099606421355, 0.010011088986935165, 0.009015697899753308, 0.008120000478401801, 0.2748665812725719],
    [0.0, 0.010011088986935162, 0.00901569789975331, 0.008120000478401803, 0.274866581272572],
    [0.02754955554311623, 0.010011088986935163, 0.00901569789975331, 0.0081200004784018, 0.2474048450987574],
    [0.0495956769733355, 0.010011088986935167, 0.00901569789975331, 0.008120000478401798, 0.22540070343766913],
    [0.06721724369738566, 0.010011088986935169, 0.009015697899753306, 0.008120000478401801, 0.20784711500841],
    [0.06721724369738565, 0.02980911813694351, 0.009015697899753306, 0.0081200004784018, 0.1880935695754428],
    [0.06721724369738565, 0.02980911813694351, 0.02693654059261764, 0.008120000478401801, 0.17021878972018673],
    [0.06721724369738563, 0.029809118136943525, 0.026936540592617637, 0.02434167686299208, 0.15404473577105587],
]
DEFAULT_CORRECT = [
    1.0,
    0.2457042751172039,
    0.2484358358721648,
    0.2508958006765621,
    0.25311137129690253,
    0.18482252262341858,
    0.7624715950828349,
    0.2485166310496343,
    0.2485166310496342,
    0.25602061928358116,
    0.7352884229531779,
    0.315217426676338,
    0.32330128338495046,
    0.32955531205478467,
    0.33373242793171043,
]

STRESSED_LEAKS = [
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.6936895465411979, 0.0, 0.29860894192946147],
    [0.0, 0.0, 0.693689546541198, 0.08916730020023252, 0.20876475403036196],
    [0.0, 0.0, 0.5454789425406323, 0.08916730020023252, 0.3549265676411628],
    [0.0, 0.0, 0.48770374974490593, 0.08916730020023252, 0.4131768495196996],
    [0.0, 0.0, 0.46452491335107765, 0.08916730020023252, 0.4352397732638667],
    [0.0, 0.0, 0.0, 0.08916730020023253, 0.43523977326386676],
    [0.0, 0.0, 0.13402964251565372, 0.08916730020023254, 0.30598443528781727],
    [0.0, 0.0, 0.18954949643845564, 0.08916730020023253, 0.2531903706350938],
    [0.07560490868207355, 0.0, 0.18954949643845564, 0.08916730020023253, 0.176983942816154],
    [0.07560490868207356, 0.05284898790283606, 0.18954949643845564, 0.08916730020023252, 0.12429742016952927],
    [0.07560490868207353, 0.05284898790283605, 0.17453215658288784, 0.08916730020023253, 0.14878937829806863],
    [0.07560490868207355, 0.05284898790283605, 0.17453215658288787, 0.10683794962201257, 0.13584580610420324],
]
STRESSED_CORRECT = [
    1.0,
    1.0,
    1.0,
    0.539105807053849,
    0.6080980133248682,
    0.2230780306777657,
    0.06735849890841238,
    0.15844479316495522,
    0.15844479316495524,
    0.2590049171195343,
    0.6119666871951103,
    0.6704651439520367,
    0.7113564602352401,
    0.22062038911343781,
    0.24388936671402456,
]


@pytest.fixture(scope="module")
def default_result():
    return SingleStabilizerLeakageStudy().run()


class TestSetup:
    def test_invalid_leaked_qubit_rejected(self):
        with pytest.raises(ValueError):
            SingleStabilizerLeakageStudy(initially_leaked=4)

    def test_result_dimensions(self, default_result):
        leaks, correct = default_result.as_arrays()
        assert leaks.shape[1] == 5
        assert leaks.shape[0] == correct.shape[0] == default_result.num_steps
        # initial + 4 stabilizer CNOTs + 3 SWAP CNOTs + reset + 2 swap-back + 4 CNOTs
        assert default_result.num_steps == 15

    def test_labels_describe_rounds(self, default_result):
        assert default_result.labels[0] == "initial"
        assert any("round1" in label for label in default_result.labels)
        assert any("round2" in label for label in default_result.labels)


class TestLeakageSpread:
    def test_q0_starts_fully_leaked(self, default_result):
        leaks, _ = default_result.as_arrays()
        assert leaks[0, 0] == pytest.approx(1.0)
        for q in (1, 2, 3, PARITY_QUDIT):
            assert leaks[0, q] == pytest.approx(0.0)

    def test_lrc_transports_leakage_to_parity_qubit(self, default_result):
        """Point A of Figure 8: after the LRC the parity qubit has leaked appreciably."""
        leaks, _ = default_result.as_arrays()
        reset_step = default_result.labels.index("round1 LRC measure+reset (q0 side)")
        assert leaks[reset_step, PARITY_QUDIT] > 0.1

    def test_reset_removes_q0_leakage(self, default_result):
        leaks, _ = default_result.as_arrays()
        reset_step = default_result.labels.index("round1 LRC measure+reset (q0 side)")
        assert leaks[reset_step, 0] < 0.05

    def test_other_data_qubits_gain_leakage_in_round2(self, default_result):
        """The leaked parity qubit spreads leakage to the other data qubits."""
        leaks, _ = default_result.as_arrays()
        final = leaks[-1]
        assert max(final[q] for q in (1, 2, 3)) > 0.01

    def test_measurement_probability_degrades(self, default_result):
        """Point B/C of Figure 8: the stabilizer outcome becomes unreliable."""
        _, correct = default_result.as_arrays()
        assert correct[0] == pytest.approx(1.0)
        assert correct.min() < 0.9

    def test_trace_like_quantities_bounded(self, default_result):
        leaks, correct = default_result.as_arrays()
        assert np.all(leaks >= -1e-9) and np.all(leaks <= 1.0 + 1e-9)
        assert np.all(correct >= -1e-9) and np.all(correct <= 1.0 + 1e-9)


class TestParameterisation:
    def test_without_transport_parity_stays_clean_before_injection(self):
        study = SingleStabilizerLeakageStudy(p_transport=0.0, p_injection=0.0)
        result = study.run()
        leaks, _ = result.as_arrays()
        assert leaks[:, PARITY_QUDIT].max() < 1e-9

    def test_without_any_error_measurement_is_perfect(self):
        study = SingleStabilizerLeakageStudy(
            rx_angle=0.0, p_transport=0.0, p_injection=0.0
        )
        _, correct = study.run().as_arrays()
        assert correct.min() == pytest.approx(1.0)

    def test_different_initial_qubit(self):
        study = SingleStabilizerLeakageStudy(initially_leaked=2, p_transport=0.0, p_injection=0.0)
        leaks, _ = study.run().as_arrays()
        assert leaks[0, 2] == pytest.approx(1.0)
        assert leaks[0, 0] == pytest.approx(0.0)

    def test_summary_renders(self):
        study = SingleStabilizerLeakageStudy(p_transport=0.0, p_injection=0.0)
        text = study.summary(study.run())
        assert "round1" in text
        assert len(text.splitlines()) == 16


class TestFig8Golden:
    @pytest.mark.parametrize(
        "params, leaks_expected, correct_expected",
        [
            ({}, DEFAULT_LEAKS, DEFAULT_CORRECT),
            (STRESSED_PARAMS, STRESSED_LEAKS, STRESSED_CORRECT),
        ],
        ids=["default", "stressed"],
    )
    def test_series_match_golden(self, params, leaks_expected, correct_expected):
        leaks, correct = SingleStabilizerLeakageStudy(**params).run().as_arrays()
        np.testing.assert_allclose(leaks, leaks_expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(correct, correct_expected, rtol=0, atol=1e-12)


def study_key(**params) -> str:
    return config_hash(SingleStabilizerLeakageStudy(**params).config_dict())


class TestStudyRecord:
    """The study's cache identity and its result-store record."""

    def test_default_key_is_pinned(self):
        assert study_key() == (
            "3b3689f60517aea2943debc4752eb2d282daf1c37bb20a6276e4088c2712e2b2"
        )

    @pytest.mark.parametrize(
        "params",
        [
            dict(rx_angle=1.0),
            dict(p_transport=0.2),
            dict(p_injection=1e-3),
            dict(initially_leaked=1),
        ],
        ids=["rx_angle", "p_transport", "p_injection", "initially_leaked"],
    )
    def test_each_parameter_moves_the_key(self, params):
        assert study_key(**params) != study_key()

    def test_semantics_version_moves_the_key(self, monkeypatch):
        default = study_key()
        monkeypatch.setattr(
            jobs_module, "RESULT_SEMANTICS_VERSION", jobs_module.RESULT_SEMANTICS_VERSION + 1
        )
        assert study_key() != default

    @pytest.mark.parametrize("kind", ["disk", "memory"])
    def test_record_round_trip_is_exact(self, tmp_path, kind):
        result = SingleStabilizerLeakageStudy().run()
        store = ResultStore(tmp_path) if kind == "disk" else InMemoryResultStore()
        store.save_record(study_key(), result.to_state())
        loaded = StabilizerStudyResult.from_state(store.load_record(study_key()))

        assert loaded.labels == result.labels
        leaks, correct = result.as_arrays()
        loaded_leaks, loaded_correct = loaded.as_arrays()
        np.testing.assert_allclose(loaded_leaks, leaks, rtol=0, atol=0)
        np.testing.assert_allclose(loaded_correct, correct, rtol=0, atol=0)
        np.testing.assert_allclose(loaded_leaks, DEFAULT_LEAKS, rtol=0, atol=1e-12)
        np.testing.assert_allclose(loaded_correct, DEFAULT_CORRECT, rtol=0, atol=1e-12)
