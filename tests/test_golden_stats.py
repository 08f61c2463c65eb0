"""Seeded golden-statistics regression tests.

Pins the exact aggregate numbers a fixed-seed d=3 memory experiment produces
on *each* engine.  Unlike the statistical-equivalence suite (which compares
distributions), these tests catch any change to either simulator's random
stream or physics — intentional refactors that alter the stream must update
the golden values below and re-run ``tests/test_engine_equivalence.py``
(including ``--runslow``) to re-certify distributional equivalence.

The values depend only on this repository's code and numpy's seeded
``PCG64`` generator, whose streams are stable across numpy versions by
explicit numpy policy (NEP 19).
"""

import numpy as np
import pytest

from repro.codes import make_code
from repro.core.policies import make_policy
from repro.experiments.memory import MemoryExperiment
from repro.noise.leakage import LeakageModel
from repro.noise.model import NoiseParams
from repro.noise.profiles import NoiseProfile

SEED = 20230615
SHOTS = 80

#: (engine, policy) -> (logical errors, mean LPR total/data/parity, LRCs/round).
GOLDEN = {
    ("scalar", "eraser"): (2, 0.0009803922, 0.0013888889, 0.0005208333, 0.1625),
    ("scalar", "always-lrc"): (6, 0.0007352941, 0.0004629630, 0.0010416667, 4.3333333333),
    ("packed", "eraser"): (1, 0.0006127451, 0.0011574074, 0.0000000000, 0.1479166667),
    ("packed", "always-lrc"): (7, 0.0013480392, 0.0011574074, 0.0015625000, 4.3333333333),
}


def run_golden(engine, policy_name):
    experiment = MemoryExperiment(
        distance=3,
        policy=make_policy(policy_name),
        noise=NoiseParams.standard(2e-3),
        leakage=LeakageModel.standard(2e-3),
        cycles=2,
        decode=True,
        seed=SEED,
        engine=engine,
    )
    return experiment.run(SHOTS)


@pytest.mark.parametrize(
    "engine,policy_name",
    sorted(GOLDEN),
    ids=[f"{engine}-{policy}" for engine, policy in sorted(GOLDEN)],
)
def test_golden_statistics(engine, policy_name):
    result = run_golden(engine, policy_name)
    errors, lpr_total, lpr_data, lpr_parity, lrcs = GOLDEN[(engine, policy_name)]
    assert result.logical_errors == errors
    assert float(np.mean(result.lpr_total)) == pytest.approx(lpr_total, abs=1e-9)
    assert float(np.mean(result.lpr_data)) == pytest.approx(lpr_data, abs=1e-9)
    assert float(np.mean(result.lpr_parity)) == pytest.approx(lpr_parity, abs=1e-9)
    assert result.lrcs_per_round == pytest.approx(lrcs, abs=1e-9)
    assert result.metadata["engine"] == engine


#: Scenario golden pins: one biased, one heterogeneous, and one
#: repetition-code configuration, per engine, so future refactors cannot
#: silently drift the scenario-diversity workloads either.  Scenario key ->
#: (code family, noise profile).
SCENARIOS = {
    "biased": ("rotated-surface", NoiseProfile.biased(4.0)),
    "heterogeneous": ("rotated-surface", NoiseProfile.heterogeneous(7, 0.8)),
    "repetition": ("repetition", None),
}

#: (engine, scenario) -> (logical errors, mean LPR total/data/parity, LRCs/round).
GOLDEN_SCENARIOS = {
    ("packed", "biased"): (0, 0.0004901961, 0.0009259259, 0.0000000000, 0.1458333333),
    ("packed", "heterogeneous"): (1, 0.0022058824, 0.0034722222, 0.0007812500, 0.2020833333),
    ("packed", "repetition"): (0, 0.0020833333, 0.0034722222, 0.0000000000, 0.0416666667),
    ("scalar", "biased"): (2, 0.0009803922, 0.0016203704, 0.0002604167, 0.1666666667),
    ("scalar", "heterogeneous"): (3, 0.0014705882, 0.0020833333, 0.0007812500, 0.2520833333),
    ("scalar", "repetition"): (0, 0.0016666667, 0.0027777778, 0.0000000000, 0.0187500000),
}


def run_golden_scenario(engine, scenario):
    code_family, profile = SCENARIOS[scenario]
    experiment = MemoryExperiment(
        code=make_code(code_family, 3),
        policy=make_policy("eraser"),
        noise=NoiseParams.standard(2e-3),
        noise_profile=profile,
        leakage=LeakageModel.standard(2e-3),
        cycles=2,
        decode=True,
        seed=SEED,
        engine=engine,
    )
    return experiment.run(SHOTS)


@pytest.mark.parametrize(
    "engine,scenario",
    sorted(GOLDEN_SCENARIOS),
    ids=[f"{engine}-{scenario}" for engine, scenario in sorted(GOLDEN_SCENARIOS)],
)
def test_golden_scenario_statistics(engine, scenario):
    result = run_golden_scenario(engine, scenario)
    errors, lpr_total, lpr_data, lpr_parity, lrcs = GOLDEN_SCENARIOS[(engine, scenario)]
    assert result.logical_errors == errors
    assert float(np.mean(result.lpr_total)) == pytest.approx(lpr_total, abs=1e-9)
    assert float(np.mean(result.lpr_data)) == pytest.approx(lpr_data, abs=1e-9)
    assert float(np.mean(result.lpr_parity)) == pytest.approx(lpr_parity, abs=1e-9)
    assert result.lrcs_per_round == pytest.approx(lrcs, abs=1e-9)
    assert result.metadata["engine"] == engine


def test_golden_run_is_process_independent():
    """The golden numbers must not depend on PYTHONHASHSEED.

    Guards the integer-labelled bipartite matching in
    :mod:`repro.core.dli`: with string-labelled nodes the maximum matching —
    and every seeded statistic downstream of it — varied from process to
    process.  A within-process rerun must also be exactly stable.
    """
    a = run_golden("packed", "eraser")
    b = run_golden("packed", "eraser")
    assert a.logical_errors == b.logical_errors
    np.testing.assert_array_equal(a.lpr_total, b.lpr_total)
    assert a.lrcs_per_round == b.lrcs_per_round
