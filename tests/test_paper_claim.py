"""The paper's claim at p=24: chains that visit only part of the posterior
mass give unbiased frequency estimates of the inclusion probabilities and
biased renormalized ones, measured against one exact pass. It is checked
on the stand-in at full signal and with its coefficients scaled by 0.35.

Each run is a chain of SWEEPS sweeps from the null model, with no burn-in.
Bias is the mean over the RUNS runs minus the exact inclusion, and its SE
is the cross-run SD over sqrt(RUNS), so z = bias / SE follows a t law with
RUNS - 1 degrees of freedom when the estimator is unbiased. A variable on
which every draw of every run agrees has no SE, and no z-score.
"""

import numpy as np
import pytest
from scipy import stats

from modelspace import (
    GPriorSpec,
    SamplerConfig,
    dedupe_models,
    enumerate_exact,
    hh_inclusion,
    renormalized_inclusion,
    run_chain,
)
from conftest import standin_dataset

RUNS = 32
SWEEPS = 1000
SEEDS = range(RUNS)


def z_scores(estimates: np.ndarray, exact: np.ndarray) -> np.ndarray:
    """bias / SE per variable, NaN where the SE is zero."""
    bias = estimates.mean(axis=0) - exact
    se = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
    return np.divide(bias, se, out=np.full_like(bias, np.nan), where=se > 0)


@pytest.mark.parametrize("scale", [1.0, 0.35])
def test_frequencies_unbiased_where_renormalized_are_not(scale):
    data = standin_dataset(24, scale=scale)
    g = float(data.N)
    prior = GPriorSpec.fixed(g)
    exact = enumerate_exact(data, g, prior, K=1, workers=1)
    frequency, renormalized, visited_mass = [], [], []
    for seed in SEEDS:
        trace = run_chain(data, SamplerConfig(iterations=SWEEPS, prior=prior, seed=seed))
        distinct = dedupe_models(trace)
        frequency.append(hh_inclusion(trace, data.p))
        renormalized.append(renormalized_inclusion(distinct, data.p))
        visited_mass.append(np.exp(distinct.log_bfs - exact.log_total_bf).sum())

    # the paper's regime: no run sees most of the posterior mass
    assert max(visited_mass) < 0.7, visited_mass
    z_renormalized = z_scores(np.array(renormalized), exact.inclusion)
    assert np.nanmax(np.abs(z_renormalized)) > 10.0, z_renormalized

    frequency = np.array(frequency)
    z = z_scores(frequency, exact.inclusion)
    scored = ~np.isnan(z)
    # where all RUNS * SWEEPS draws agree, the bias lies below the pooled
    # frequency's resolution
    bias = frequency.mean(axis=0) - exact.inclusion
    assert np.all(np.abs(bias[~scored]) < 1 / (RUNS * SWEEPS)), bias
    z, n = z[scored], int(scored.sum())
    assert (z**2).sum() < stats.chi2.ppf(0.999, n), z
    # Bonferroni over the scored variables, two-sided, family-wise level 0.001
    assert np.abs(z).max() < stats.t.ppf(1 - 0.001 / (2 * n), RUNS - 1), z
