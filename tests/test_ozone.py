"""Opt-in reproduction of the published atmospheric-data results.

These tests need the original 178-observation dataset as a CSV with a
response column ``y`` and main-effect columns ``x4 .. x10``; point
``MODELSPACE_OZONE_CSV`` at it (or place it at tests/data/ozone.csv) and run

    pytest -m ozone tests/test_ozone.py -s

The exact-enumeration tests walk all 2^35 models and take days on a single
desktop core; the sampler tests run in minutes.
"""

import math

import numpy as np
import pytest

from modelspace import (
    GPriorSpec,
    SamplerConfig,
    count_models_above,
    dedupe_models,
    enumerate_exact,
    expand_design,
    find_mpm,
    fit_model,
    frequency_se,
    hh_inclusion,
    load_csv,
    log_bf_value,
    rank_models,
    run_chain,
    topk_mass_log10,
)
from conftest import ozone_csv_path

MAINS = ["x4", "x5", "x6", "x7", "x8", "x9", "x10"]
G = 178.0

HPM_NAMES = {"x10", "x4x6", "x6x8", "x7x7", "x7x10"}
MPM_NAMES = {"x6x6", "x6x7", "x6x8", "x7x10"}

# published exact inclusion probabilities, rounded to 3 decimals
EXACT_INCLUSION = {
    "x4": 0.164, "x5": 0.096, "x6": 0.297, "x7": 0.195, "x8": 0.200,
    "x9": 0.291, "x10": 0.368,
    "x4x4": 0.164, "x4x5": 0.095, "x4x6": 0.325, "x4x7": 0.252,
    "x4x8": 0.208, "x4x9": 0.301, "x4x10": 0.361,
    "x5x5": 0.124, "x5x6": 0.107, "x5x7": 0.094, "x5x8": 0.098,
    "x5x9": 0.088, "x5x10": 0.124,
    "x6x6": 0.532, "x6x7": 0.636, "x6x8": 0.560, "x6x9": 0.126,
    "x6x10": 0.115,
    "x7x7": 0.450, "x7x8": 0.349, "x7x9": 0.431, "x7x10": 0.743,
    "x8x8": 0.142, "x8x9": 0.263, "x8x10": 0.236,
    "x9x9": 0.434, "x9x10": 0.103, "x10x10": 0.117,
}

pytestmark = [
    pytest.mark.ozone,
    pytest.mark.skipif(ozone_csv_path() is None, reason="ozone dataset not available"),
]


@pytest.fixture(scope="module")
def ozone35():
    data = load_csv(ozone_csv_path(), "y")
    data = expand_design(data, MAINS)
    assert data.N == 178
    assert data.p == 35
    return data


def names_to_bits(data, names):
    return sum(1 << data.names.index(n) for n in names)


@pytest.fixture(scope="module")
def exact35(ozone35):
    # the long job: full enumeration of 2^35 models
    return enumerate_exact(
        ozone35, G, GPriorSpec.fixed(G), K=1000, force=True
    )


class TestExactTargets:
    def test_total_bayes_factor_mass(self, exact35):
        # published: sum of Bayes factors 1.13e50
        assert exact35.log_total_bf / math.log(10.0) == pytest.approx(
            50.05, abs=0.01
        )

    def test_hpm_identity_and_posterior(self, ozone35, exact35):
        assert exact35.hpm == names_to_bits(ozone35, HPM_NAMES)
        assert exact35.hpm_posterior == pytest.approx(0.0009, abs=0.0001)
        # Bayes factor of the HPM against the null: 1.02e47
        assert exact35.hpm_log_bf / math.log(10.0) == pytest.approx(
            math.log10(1.02e47), abs=0.01
        )

    def test_top_1000_mass(self, exact35):
        assert topk_mass_log10(exact35.top_models, 1000) == pytest.approx(
            48.92, abs=0.01
        )

    def test_mpm_identity(self, ozone35, exact35):
        assert find_mpm(exact35.inclusion) == names_to_bits(ozone35, MPM_NAMES)

    def test_inclusion_probabilities_table(self, ozone35, exact35):
        for name, q in EXACT_INCLUSION.items():
            l = ozone35.names.index(name)
            assert exact35.inclusion[l] == pytest.approx(q, abs=1e-3), name

    def test_851_models_above_mpm(self, ozone35, exact35):
        mpm_bits = names_to_bits(ozone35, MPM_NAMES)
        state = fit_model(ozone35, mpm_bits)
        mpm_lbf = log_bf_value(state.sse, state.k, ozone35.sse0, ozone35.N, G)
        assert (
            count_models_above(ozone35, G, GPriorSpec.fixed(G), mpm_lbf, force=True)
            == 851
        )


class TestSamplerTargets:
    def test_hpm_visited_in_each_of_ten_runs(self, ozone35):
        # published: the exact HPM was among the visited models in all
        # ten runs of 10000 iterations started from the null model
        hpm_bits = names_to_bits(ozone35, HPM_NAMES)
        prior = GPriorSpec.fixed(G)
        seeds = np.random.SeedSequence(7).generate_state(10, dtype=np.uint64)
        for s in seeds:
            trace = run_chain(
                ozone35, SamplerConfig(iterations=10_000, prior=prior, seed=int(s))
            )
            assert hpm_bits in trace.bits.tolist()

    def test_inclusion_estimates_match_published_exact(self, ozone35):
        # one run of 10000 iterations reproduces the exact inclusion
        # probabilities within 3 estimated SEs (floored at the table's
        # reported SE scale)
        prior = GPriorSpec.fixed(G)
        trace = run_chain(ozone35, SamplerConfig(iterations=10_000, prior=prior, seed=1))
        incl = hh_inclusion(trace, ozone35.p)
        se = frequency_se(incl, trace.n)
        for name, q in EXACT_INCLUSION.items():
            l = ozone35.names.index(name)
            tol = 3.0 * max(se[l], 0.003) + 0.0005
            assert abs(incl[l] - q) <= tol, name

    def test_top_1000_mass_stability(self, ozone35):
        # published Freq statistic: mean 48.77, SD 0.01 over ten runs
        prior = GPriorSpec.fixed(G)
        seeds = np.random.SeedSequence(13).generate_state(10, dtype=np.uint64)
        masses = []
        for s in seeds:
            trace = run_chain(
                ozone35, SamplerConfig(iterations=10_000, prior=prior, seed=int(s))
            )
            masses.append(topk_mass_log10(dedupe_models(trace), 1000))
        masses = np.array(masses)
        assert masses.mean() == pytest.approx(48.77, abs=0.1)
        assert masses.std(ddof=1) < 0.05
