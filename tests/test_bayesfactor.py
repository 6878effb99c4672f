import math

import numpy as np
import pytest
from scipy import integrate, stats

from modelspace import (
    FitState,
    GPriorSpec,
    UsageError,
    fit_model,
    log_bf_value,
    log_prior_g_density,
    sample_prior_g,
)
from modelspace.linmodel import ModelIndex
from conftest import synth_dataset


def state_log_bf(state, g):
    data = state.data
    return log_bf_value(state.sse, state.k, data.sse0, data.N, g)


class TestLogBf:
    def test_null_model_is_exactly_zero(self, p10_data):
        state = FitState(p10_data)
        for g in (0.5, 1.0, 50.0, float(p10_data.N), 1e6):
            assert state_log_bf(state, g) == 0.0

    def test_perfect_fit_limit(self):
        # SSE = 0 -> only the (1+g)^((N-k-1)/2) factor survives
        N, g, k = 40, 40.0, 3
        assert log_bf_value(0.0, k, 10.0, N, g) == pytest.approx(
            0.5 * (N - k - 1) * math.log1p(g)
        )

    def test_g_to_zero(self, p10_data):
        state = fit_model(p10_data, ModelIndex.from_bits(0b10010))
        assert abs(state_log_bf(state, 1e-12)) < 1e-9

    def test_dimension_penalty(self):
        # equal SSE, k differing by 1 -> exactly (1/2) ln(1+g) apart
        N, g, sse, sse0 = 60, 60.0, 4.0, 9.0
        for k in range(0, 6):
            gap = log_bf_value(sse, k, sse0, N, g) - log_bf_value(sse, k + 1, sse0, N, g)
            assert gap == pytest.approx(0.5 * math.log1p(g), abs=1e-14)

    def test_log_space_safety(self):
        N, g = 178, 178.0
        v = log_bf_value(1e-6 * 100.0, 5, 100.0, N, g)
        assert math.isfinite(v)
        assert v > 250  # huge Bayes factors stay exact in log space

    def test_saturated_model_excluded(self, p10_data):
        state = FitState(p10_data)
        lbf = log_bf_value(1.0, p10_data.N - 1, p10_data.sse0, p10_data.N, 10.0)
        assert lbf == -math.inf
        assert math.isfinite(state_log_bf(state, 10.0))

    def test_matches_direct_two_factor_form(self, p8_data):
        # direct two-factor evaluation from a full refit
        from modelspace import sse_direct

        N = p8_data.N
        g = float(N)
        rng = np.random.default_rng(5)
        for _ in range(200):
            bits = int(rng.integers(1, 1 << p8_data.p))
            m = ModelIndex.from_bits(bits)
            sse = sse_direct(p8_data, m)
            direct = -0.5 * (N - 1) * math.log(1.0 + g * sse / p8_data.sse0) + 0.5 * (
                N - m.k - 1
            ) * math.log(1.0 + g)
            state = fit_model(p8_data, m)
            assert state_log_bf(state, g) == pytest.approx(direct, abs=1e-10)


    def test_array_form_matches_scalar(self):
        # the batched form agrees with the scalar one, -inf past N - 2 included
        from modelspace.bayesfactor import log_bf_values

        N, sse0 = 20, 50.0
        rng = np.random.default_rng(11)
        sse = np.concatenate(([0.0, sse0], rng.uniform(0.0, sse0, 60)))
        k = rng.integers(0, N + 2, sse.size)
        for g in (0.5, float(N), 1e6):
            got = log_bf_values(sse, k, sse0, N, g)
            want = [log_bf_value(s, int(kk), sse0, N, g) for s, kk in zip(sse, k)]
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-12)
            assert np.array_equal(np.isneginf(got), k > N - 2)


class TestModelPrior:
    def test_uniform_constant(self):
        prior = GPriorSpec.fixed(10.0)
        assert prior.log_model_prior(35) == pytest.approx(-35 * math.log(2))

    def test_log_posterior_is_shifted_log_bf(self, p10_data):
        prior = GPriorSpec.fixed(float(p10_data.N))
        state = fit_model(p10_data, ModelIndex.from_bits(0b1001))
        lbf = state_log_bf(state, float(p10_data.N))
        post = lbf + prior.log_model_prior(p10_data.p)
        assert post == pytest.approx(lbf - 10 * math.log(2))

    def test_null_model_posterior(self, p10_data):
        prior = GPriorSpec.fixed(1.0)
        lbf = state_log_bf(FitState(p10_data), 1.0)
        assert lbf + prior.log_model_prior(p10_data.p) == pytest.approx(
            -10 * math.log(2)
        )

    def test_ranking_invariance(self, p8_data):
        prior = GPriorSpec.fixed(float(p8_data.N))
        rng = np.random.default_rng(9)
        models = [ModelIndex.from_bits(int(b)) for b in rng.integers(1, 256, size=30)]
        lbfs = [state_log_bf(fit_model(p8_data, m), float(p8_data.N)) for m in models]
        by_bf = sorted(range(30), key=lambda i: lbfs[i])
        by_post = sorted(
            range(30), key=lambda i: lbfs[i] + prior.log_model_prior(p8_data.p)
        )
        assert by_bf == by_post


class TestZellnerSiowPrior:
    N = 47

    def spec(self):
        return GPriorSpec.zellner_siow(self.N)

    def test_density_integrates_to_one(self):
        pdf = lambda g: math.exp(log_prior_g_density(g, self.spec()))
        cut = 50.0 * self.N
        head, _ = integrate.quad(
            pdf, 0.0, cut, points=[self.N / 3, self.N, 10 * self.N], limit=200
        )
        tail, _ = integrate.quad(pdf, cut, np.inf, limit=200)
        assert head + tail == pytest.approx(1.0, abs=1e-6)

    def test_mode_at_n_over_3(self):
        mode = self.N / 3.0
        f = lambda g: log_prior_g_density(g, self.spec())
        assert f(mode) > f(mode * 1.01)
        assert f(mode) > f(mode * 0.99)
        # stationarity of the log density at the mode
        h = 1e-5 * mode
        deriv = (f(mode + h) - f(mode - h)) / (2 * h)
        assert abs(deriv) < 1e-8

    def test_matches_scipy_invgamma(self):
        dist = stats.invgamma(0.5, scale=self.N / 2.0)
        for g in (1.0, 10.0, self.N, 500.0):
            assert log_prior_g_density(g, self.spec()) == pytest.approx(
                dist.logpdf(g), abs=1e-12
            )

    def test_fixed_spec_has_no_density(self):
        with pytest.raises(UsageError):
            log_prior_g_density(1.0, GPriorSpec.fixed(5.0))
        with pytest.raises(UsageError):
            sample_prior_g(GPriorSpec.fixed(5.0), np.random.default_rng(0))

    def test_draws_positive(self):
        rng = np.random.default_rng(0)
        draws = np.array([sample_prior_g(self.spec(), rng) for _ in range(1000)])
        assert (draws > 0).all()

    def test_ks_against_analytic_cdf(self):
        rng = np.random.default_rng(12)
        draws = np.array([sample_prior_g(self.spec(), rng) for _ in range(100_000)])
        stat = stats.kstest(draws, stats.invgamma(0.5, scale=self.N / 2.0).cdf).statistic
        assert stat < 0.01

    def test_median_matches_quantile_oracle(self):
        rng = np.random.default_rng(13)
        draws = np.array([sample_prior_g(self.spec(), rng) for _ in range(100_000)])
        med = float(np.median(draws))
        ref = float(stats.invgamma(0.5, scale=self.N / 2.0).ppf(0.5))
        assert med == pytest.approx(ref, rel=0.02)

    def test_mean_inverse_g(self):
        # 1/g ~ Gamma(1/2, rate N/2): mean 1/N, variance 2/N^2
        rng = np.random.default_rng(14)
        M = 1_000_000
        inv = 1.0 / np.array([sample_prior_g(self.spec(), rng) for _ in range(M)])
        se = math.sqrt(2.0 / self.N**2 / M)
        assert abs(inv.mean() - 1.0 / self.N) < 3 * se


def test_gpriorspec_validation():
    with pytest.raises(UsageError):
        GPriorSpec.fixed(-1.0)
    for g in ("nan", "inf"):
        with pytest.raises(UsageError):
            GPriorSpec.fixed(float(g))
    with pytest.raises(UsageError):
        GPriorSpec(kind="fixed")
    with pytest.raises(UsageError):
        GPriorSpec(kind="hyper_g", g=1.0)
