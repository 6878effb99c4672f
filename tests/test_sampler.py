import math

import numpy as np
import pytest
from scipy import stats

from modelspace import sampler
from modelspace import (
    FitState,
    GPriorSpec,
    InverseGramState,
    SamplerConfig,
    UsageError,
    bit_indices,
    fit_model,
    gibbs_sweep,
    log_bf_value,
    log_prior_g_density,
    make_dataset,
    mh_step_g,
    run_chain,
    sse_direct,
    sweep_state,
)
from modelspace.sampler import _sigmoid
from conftest import (
    duplicated_column_dataset,
    naive_enumeration,
    standin_dataset,
    synth_dataset,
)


class _CountingZeros:
    """Stands in for the generator and its bit generator: every uniform is
    0.0, so every allowed component is included, and the net draws are
    counted: the uniforms drawn less the steps back, mod 2^128."""

    def __init__(self):
        self.draws = 0
        self.bit_generator = self

    def random(self, size):
        self.draws += size
        return np.zeros(size)

    def advance(self, delta):
        self.draws = (self.draws + delta) % (1 << 128)


def flip(state, i):
    """Flip bit i by ``delete`` or ``add``; False when the add is refused."""
    if (state.bits >> i) & 1:
        state.delete(i)
        return True
    return state.add(i)


class TestComponentProb:
    # the state under test, the matrix a flip_sse call must leave alone,
    # and the fields beside bits, k and sse that a flip updates
    State = FitState
    held = "M"
    fields = ("M", "D", "C")

    def test_brute_force_oracle(self):
        # the flipped model's SSE against an independent least-squares refit
        data = synth_dataset(N=20, p=5, active=(0, 3), betas=(0.8, -0.5), seed=3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            bits = int(rng.integers(0, 32))
            state = self.State(data, bits)
            i = int(rng.integers(5))
            flipped = bits ^ (1 << i)
            got = state.flip_sse(i)
            assert got == pytest.approx(
                sse_direct(data, flipped), rel=1e-9, abs=1e-12 * data.sse0
            )

    def test_equal_branch_factors_give_half(self, p10_data):
        # directly at ln r = 0 the formula is symmetric
        assert _sigmoid(0.0) == 0.5

    def test_singular_target_gives_zero(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 3))
        X[:, 2] = X[:, 1]
        y = X[:, 0] + rng.standard_normal(20)
        data = make_dataset(y, X, ["a", "b", "c"])
        state = self.State(data, 0b010)
        before = getattr(state, self.held).copy()
        sse = state.sse
        assert state.flip_sse(2) is None
        assert not state.add(2)
        # the refused add leaves the state untouched
        assert (state.bits, state.k, state.sse) == (0b010, 1, sse)
        np.testing.assert_array_equal(getattr(state, self.held), before)
        # p_2 = 0: even a uniform of 0.0 leaves column 2 out, and the
        # singular component draws none
        gen = _CountingZeros()
        gibbs_sweep(state, 20.0, GPriorSpec.fixed(20.0), gen)
        assert state.bits == 0b011
        assert gen.draws == 2

    def test_saturated_target_draws_nothing(self):
        data = synth_dataset(N=5, p=4, seed=4)  # at most N-2 = 3 columns
        state = self.State(data)
        gen = _CountingZeros()
        gibbs_sweep(state, 5.0, GPriorSpec.fixed(5.0), gen)
        assert state.bits == 0b0111
        assert gen.draws == 3
        assert state.flip_sse(3) is None

    def test_does_not_mutate_state(self, p10_data):
        state = self.State(p10_data, 0b101)
        before = getattr(state, self.held).copy()
        for i in range(p10_data.p):
            state.flip_sse(i)
        assert state.bits == 0b101
        np.testing.assert_array_equal(getattr(state, self.held), before)
        assert state.sse == pytest.approx(
            sse_direct(p10_data, state.bits), rel=1e-10
        )

    def test_flip_drift(self):
        # 5,000 flips on a correlated design with no rebuild
        rng = np.random.default_rng(5)
        p, N = 20, 60
        data = _ar_dataset(rng, p, N, 0.8)
        G = data.gram
        state = self.State(data)
        flips = 0
        while flips < 5000:
            i = int(rng.integers(p))
            if not flip(state, i):
                continue
            flips += 1
            if flips % 50 == 0 or state.k == 0:
                ref = sse_direct(data, state.bits)
                assert abs(state.sse - ref) <= 1e-9 * ref
                if not state.k:
                    assert state.sse == data.sse0
                    continue
                if self.State is InverseGramState:
                    inv = np.linalg.inv(G[np.ix_(state.cols, state.cols)])
                    assert np.abs(state.Ginv - inv).max() <= 1e-8 * np.abs(inv).max()
                    continue
                A = bit_indices(state.bits)
                U = [j for j in range(p) if j not in A]
                inv = np.linalg.inv(G[np.ix_(A, A)])
                M = state.M
                assert np.abs(-M[np.ix_(A, A)] - inv).max() <= 1e-8 * np.abs(inv).max()
                # the unswept block, with d_j on its diagonal and c_j in the
                # last column, is the Schur complement of G[A,A]
                GUA = G[np.ix_(U, A)]
                S = G[np.ix_(U, U)] - GUA @ inv @ GUA.T
                c = data.xty[U] - GUA @ inv @ data.xty[A]
                scale = np.abs(G).max()
                assert np.abs(M[np.ix_(U, U)] - S).max() <= 1e-8 * scale
                assert np.abs(M[U, p] - c).max() <= 1e-8 * np.abs(data.xty).max()

    def test_every_flip_sse_on_a_random_walk(self):
        # after every flip, the add and drop SSE of every column against an
        # independent refit, on a strongly correlated AR(0.95) design
        rng = np.random.default_rng(12)
        p = 12
        data = _ar_dataset(rng, p, 40, 0.95)
        state = self.State(data)
        for _ in range(300):
            i = int(rng.integers(p))
            if not flip(state, i):
                continue
            for j in range(p):
                flipped = state.bits ^ (1 << j)
                got = state.flip_sse(j)
                assert got is not None
                assert got == pytest.approx(
                    sse_direct(data, flipped), rel=1e-9, abs=1e-12 * data.sse0
                )

    def test_given_sse_changes_nothing(self):
        # the sweep's add(i, sse) and delete(i, sse), handed the flip_sse(i)
        # value, against add(i) and delete(i) on a twin, refused adds included
        data = duplicated_column_dataset()
        swept, twin = self.State(data), self.State(data)
        rng = np.random.default_rng(23)
        refused = 0
        for _ in range(400):
            i = int(rng.integers(data.p))
            sse = swept.flip_sse(i)
            if (swept.bits >> i) & 1:
                swept.delete(i, sse)
                twin.delete(i)
            else:
                ok = swept.add(i, sse)
                assert twin.add(i) == ok
                refused += not ok
            assert (swept.bits, swept.k, swept.sse.hex()) == (
                twin.bits, twin.k, twin.sse.hex()
            )
            for name in self.fields:
                got, ref = getattr(swept, name), getattr(twin, name)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), name
        assert refused > 0

    def test_reset_matches_a_fresh_state(self):
        # run_chain's rebuild: the state of the current bits, built anew
        rng = np.random.default_rng(8)
        data = _ar_dataset(rng, 12, 40, 0.8)
        state = self.State(data)
        for _ in range(200):
            flip(state, int(rng.integers(12)))
        state.reset()
        fresh = self.State(data, state.bits)
        assert (state.k, state.sse) == (fresh.k, fresh.sse)
        assert [state.flip_sse(j) for j in range(12)] == [fresh.flip_sse(j) for j in range(12)]


class TestInverseGramState(TestComponentProb):
    # every TestComponentProb check, rerun on the state used above SWEEP_MATRIX_MAX_P
    State = InverseGramState
    held = "Ginv"
    fields = ("Ginv", "beta", "cols")


def _ar_dataset(rng, p, N, rho):
    """An AR(rho)-correlated design with a signal on its first four columns."""
    corr = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    X = rng.standard_normal((N, p)) @ np.linalg.cholesky(corr).T
    y = X[:, :4] @ np.array([1.0, -0.5, 0.5, 0.3]) + rng.standard_normal(N)
    return make_dataset(y, X, [f"x{j}" for j in range(p)])


class TestSweep:
    def test_stationary_distribution(self):
        # raw sweep frequencies converge to the exact posterior (reduced-size
        # version; the full 1e6-sweep check is marked slow below)
        data = synth_dataset(N=30, p=4, active=(0, 2), betas=(0.6, -0.5), seed=8)
        self._check_tv(data, sweeps=100_000, tol=0.03)

    @pytest.mark.slow
    def test_stationary_distribution_full(self):
        data = synth_dataset(N=30, p=4, active=(0, 2), betas=(0.6, -0.5), seed=8)
        self._check_tv(data, sweeps=1_000_000, tol=0.01)

    @staticmethod
    def _check_tv(data, sweeps, tol):
        g = float(data.N)
        lbfs, log_total, _, _, _ = naive_enumeration(data, g)
        exact = np.exp(lbfs - log_total)
        prior = GPriorSpec.fixed(g)
        rng = np.random.default_rng(99)
        state = FitState(data)
        counts = np.zeros(1 << data.p)
        for _ in range(sweeps):
            gibbs_sweep(state, g, prior, rng)
            counts[state.bits] += 1
        tv = 0.5 * np.abs(counts / sweeps - exact).sum()
        assert tv < tol


def _scalar_sweep(state, g, prior, rng):
    """The reference sweep: a scalar ``rng.random()``, a ``log_bf_value``
    call and a ``_sigmoid`` per component that draws. ``gibbs_sweep``
    must match it bit for bit, generator stream included."""
    data = state.data
    sse0, N = data.sse0, data.N
    lbf = log_bf_value(state.sse, state.k, sse0, N, g)
    for i in range(data.p):
        sse = state.flip_sse(i)
        if sse is None:
            continue
        if (state.bits >> i) & 1:
            lbf_flip = log_bf_value(sse, state.k - 1, sse0, N, g)
            if rng.random() >= _sigmoid(lbf - lbf_flip):
                state.delete(i)
                lbf = lbf_flip
        else:
            lbf_flip = log_bf_value(sse, state.k + 1, sse0, N, g)
            if rng.random() < _sigmoid(lbf_flip - lbf):
                state.add(i)
                lbf = lbf_flip
    return state


# (design, the state the sweep runs on); the last two saturate at N - 2
BLOCK_CASES = {
    "standin": (lambda: standin_dataset(20), FitState),
    "duplicated-column": (duplicated_column_dataset, FitState),
    "saturating": (
        lambda: synth_dataset(N=8, p=10, active=(0, 3), betas=(1.0, -0.8), seed=6),
        FitState,
    ),
    "inverse-gram": (
        lambda: synth_dataset(
            N=30, p=120, active=(0, 5, 17), betas=(0.8, -0.6, 0.5), seed=3
        ),
        InverseGramState,
    ),
}


def _prior(data, hierarchical):
    return GPriorSpec.zellner_siow(data.N) if hierarchical else GPriorSpec.fixed(float(data.N))


class TestUniformBlock:
    """The sweep draws its uniforms in one block and steps the generator
    back by the unused ones; chains must stay those of the scalar sweep."""

    @pytest.mark.parametrize("hierarchical", [False, True], ids=["fixed", "zs"])
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_matches_scalar_sweep(self, case, hierarchical):
        build, State = BLOCK_CASES[case]
        data = build()
        prior = _prior(data, hierarchical)
        ref, new = sweep_state(data), sweep_state(data)
        assert type(new) is State
        rng_ref, rng_new = np.random.default_rng(17), np.random.default_rng(17)
        g_ref = g_new = float(data.N)
        skipped = 0
        for _ in range(300):
            _scalar_sweep(ref, g_ref, prior, rng_ref)
            gibbs_sweep(new, g_new, prior, rng_new)
            assert (new.bits, new.k, new.sse) == (ref.bits, ref.k, ref.sse)
            assert rng_new.random() == rng_ref.random()
            if hierarchical:
                g_ref, _ = mh_step_g(ref, g_ref, prior, rng_ref)
                g_new, _ = mh_step_g(new, g_new, prior, rng_new)
                assert g_new == g_ref
            skipped += sum(new.flip_sse(i) is None for i in range(data.p))
        # in every case but the stand-in some components draw no uniform
        assert (skipped == 0) == (case == "standin")

    @pytest.mark.parametrize("hierarchical", [False, True], ids=["fixed", "zs"])
    def test_random_start_chain_matches(self, monkeypatch, hierarchical):
        # the random start's permutation leaves a buffered half-word, which
        # the step back clears and no later draw reads
        data = BLOCK_CASES["saturating"][0]()
        prior = _prior(data, hierarchical)
        cfg = SamplerConfig(iterations=400, prior=prior, seed=8, start="random")
        new = run_chain(data, cfg)
        monkeypatch.setattr(sampler, "gibbs_sweep", _scalar_sweep)
        ref = run_chain(data, cfg)
        for name in ("bits", "g_draws", "log_bfs"):
            np.testing.assert_array_equal(getattr(new, name), getattr(ref, name))


class TestMhStepG:
    def test_null_model_always_accepts(self, p10_data):
        prior = GPriorSpec.zellner_siow(p10_data.N)
        state = FitState(p10_data)
        rng = np.random.default_rng(0)
        g = 10.0
        for _ in range(200):
            g, accepted = mh_step_g(state, g, prior, rng)
            assert accepted  # B_00(g) = 1 for every g

    def test_fixed_prior_rejected(self, p10_data):
        state = FitState(p10_data)
        with pytest.raises(UsageError):
            mh_step_g(state, 1.0, GPriorSpec.fixed(1.0), np.random.default_rng(0))

    def test_conditional_density_of_g(self):
        # long-run draws for fixed gamma match the quadrature-normalized
        # density proportional to B(g) * InvGamma(g; 1/2, N/2)
        data = synth_dataset(N=15, p=3, active=(0,), betas=(1.0,), seed=5)
        prior = GPriorSpec.zellner_siow(data.N)
        state = fit_model(data, 0b001)
        rng = np.random.default_rng(7)
        draws = np.empty(20_000)
        g = float(data.N)
        for i in range(draws.size):
            g, _ = mh_step_g(state, g, prior, rng)
            draws[i] = g
        stat = _ks_against_conditional(draws, state, data, prior)
        assert stat < 0.05


def _ks_against_conditional(draws, state, data, prior):
    t = np.linspace(-8.0, 30.0, 40_001)  # integrate in log g
    g = np.exp(t)
    log_dens = np.array(
        [
            log_bf_value(state.sse, state.k, data.sse0, data.N, gi)
            + log_prior_g_density(gi, prior)
            for gi in g
        ]
    )
    dens = np.exp(log_dens - log_dens.max()) * g  # Jacobian for dt
    cdf = np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(t))
    cdf = np.concatenate([[0.0], cdf])
    cdf /= cdf[-1]
    sorted_draws = np.sort(draws)
    F = np.interp(np.log(sorted_draws), t, cdf)
    n = draws.size
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    return float(max(np.abs(F - emp_hi).max(), np.abs(F - emp_lo).max()))


class TestRunChain:
    def test_determinism(self, p10_data):
        cfg = SamplerConfig(iterations=200, prior=GPriorSpec.fixed(50.0), seed=123)
        t1 = run_chain(p10_data, cfg)
        t2 = run_chain(p10_data, cfg)
        np.testing.assert_array_equal(t1.bits, t2.bits)
        np.testing.assert_array_equal(t1.g_draws, t2.g_draws)
        np.testing.assert_array_equal(t1.log_bfs, t2.log_bfs)

    def test_single_draw(self, p10_data):
        cfg = SamplerConfig(iterations=1, prior=GPriorSpec.fixed(50.0), seed=0)
        trace = run_chain(p10_data, cfg)
        assert trace.n == 1

    def test_burn_and_thin_accounting(self, p10_data):
        cfg = SamplerConfig(
            iterations=7, burn=5, thin=3, prior=GPriorSpec.fixed(50.0), seed=0
        )
        trace = run_chain(p10_data, cfg)
        assert trace.n == 7
        assert trace.meta["raw_sweeps"] == 5 + 3 * 6 + 1

    def test_cached_log_bf_consistent(self, p10_data):
        cfg = SamplerConfig(iterations=300, prior=GPriorSpec.fixed(50.0), seed=5)
        trace = run_chain(p10_data, cfg)
        for i in range(0, trace.n, 37):
            bits = int(trace.bits[i])
            sse = sse_direct(p10_data, bits)
            ref = log_bf_value(
                sse, bits.bit_count(), p10_data.sse0, p10_data.N, trace.g_draws[i]
            )
            assert trace.log_bfs[i] == pytest.approx(ref, abs=1e-10)

    def test_fixed_g_draws_constant(self, p10_data):
        cfg = SamplerConfig(iterations=50, prior=GPriorSpec.fixed(50.0), seed=5)
        trace = run_chain(p10_data, cfg)
        assert (trace.g_draws == 50.0).all()
        assert trace.meta["g_accept_rate"] is None

    def test_hierarchical_chain(self, p10_data):
        cfg = SamplerConfig(
            iterations=500, prior=GPriorSpec.zellner_siow(p10_data.N), seed=11
        )
        trace = run_chain(p10_data, cfg)
        assert (trace.g_draws > 0).all()
        assert 0.0 < trace.meta["g_accept_rate"] <= 1.0
        assert trace.meta["sse_spot_check_max_rel"] < 1e-8

    def test_null_model_log_bf_is_exactly_zero(self):
        # B_00 = 1: returning to the null model restores sse0 exactly
        data = synth_dataset(
            N=50, p=10, active=(1, 4, 7), betas=(0.35, -0.4, 0.3), seed=11
        )
        for prior in (GPriorSpec.fixed(float(data.N)), GPriorSpec.zellner_siow(data.N)):
            trace = run_chain(data, SamplerConfig(iterations=5000, prior=prior, seed=3))
            null = trace.log_bfs[trace.bits == 0].tolist()
            assert len(null) > 0
            assert all(lbf == 0.0 for lbf in null)

    def test_gram_built_from_the_design(self, monkeypatch):
        # above GRAM_PRECOMPUTE_LIMIT the Dataset has no Gram matrix and the
        # sweep forms its columns from the centered design; the chain visits
        # the same models. On the swept matrix its log BFs are bit for bit
        # the same. On the inverse Gram, above a lowered SWEEP_MATRIX_MAX_P,
        # a column is a matrix-vector product, which rounds apart from the
        # full product in the last bits
        from modelspace import linmodel, sampler

        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 8))
        y = X[:, 0] - 0.5 * X[:, 3] + rng.standard_normal(40)
        names = [f"x{j}" for j in range(8)]
        default = make_dataset(y, X, names)
        monkeypatch.setattr(linmodel, "GRAM_PRECOMPUTE_LIMIT", 4)
        no_gram = make_dataset(y, X, names)
        assert default.gram is not None and no_gram.gram is None
        for limit, state, tol in (
            (sampler.SWEEP_MATRIX_MAX_P, FitState, 0.0), (4, InverseGramState, 1e-12)
        ):
            monkeypatch.setattr(sampler, "SWEEP_MATRIX_MAX_P", limit)
            assert type(sweep_state(no_gram)) is state
            for prior in (GPriorSpec.fixed(40.0), GPriorSpec.zellner_siow(40)):
                cfg = SamplerConfig(iterations=500, prior=prior, seed=2)
                a, b = run_chain(default, cfg), run_chain(no_gram, cfg)
                np.testing.assert_array_equal(a.bits, b.bits)
                np.testing.assert_allclose(a.log_bfs, b.log_bfs, rtol=tol, atol=tol)

    def test_inverse_gram_state_above_the_limit(self, monkeypatch):
        # above SWEEP_MATRIX_MAX_P the chain keeps the inverse Gram of the
        # active set; it records the swept matrix's models
        from modelspace import sampler

        rng = np.random.default_rng(9)
        data = _ar_dataset(rng, 16, 50, 0.6)
        assert type(sweep_state(data)) is FitState
        runs = {}
        for limit in (sampler.SWEEP_MATRIX_MAX_P, 15):
            monkeypatch.setattr(sampler, "SWEEP_MATRIX_MAX_P", limit)
            runs[limit] = [
                run_chain(data, SamplerConfig(iterations=1200, prior=prior, seed=3))
                for prior in (GPriorSpec.fixed(50.0), GPriorSpec.zellner_siow(50))
            ]
        assert type(sweep_state(data)) is InverseGramState
        for a, b in zip(*runs.values()):
            np.testing.assert_array_equal(a.bits, b.bits)
            np.testing.assert_allclose(a.log_bfs, b.log_bfs, rtol=1e-12, atol=1e-12)
            assert b.meta["sse_spot_check_max_rel"] <= 1e-12

    def test_start_modes(self, p10_data):
        for start in ("null_model", "full_model", "random"):
            cfg = SamplerConfig(
                iterations=10, prior=GPriorSpec.fixed(50.0), seed=3, start=start
            )
            assert run_chain(p10_data, cfg).n == 10

    def test_frequency_unbiasedness_across_chains(self, p10_data, p10_naive):
        _, _, exact_incl, _, _ = p10_naive
        g = float(p10_data.N)
        R, n = 50, 400
        qhat = np.empty((R, p10_data.p))
        for r in range(R):
            cfg = SamplerConfig(iterations=n, prior=GPriorSpec.fixed(g), seed=1000 + r)
            trace = run_chain(p10_data, cfg)
            qhat[r] = ((trace.bits[:, None] >> np.arange(p10_data.p)) & 1).sum(axis=0) / n
        mean = qhat.mean(axis=0)
        sd = qhat.std(axis=0, ddof=1)
        for l in range(p10_data.p):
            # the 1e-6 floor covers variables whose inclusion is pinned so
            # close to 0 or 1 that the empirical SD degenerates to zero
            assert abs(mean[l] - exact_incl[l]) <= 3 * sd[l] / math.sqrt(R) + 1e-6


def test_sampler_config_validation():
    prior = GPriorSpec.fixed(1.0)
    with pytest.raises(UsageError):
        SamplerConfig(iterations=0, prior=prior)
    with pytest.raises(UsageError):
        SamplerConfig(iterations=1, thin=0, prior=prior)
    with pytest.raises(UsageError):
        SamplerConfig(iterations=1, burn=-1, prior=prior)
    with pytest.raises(UsageError):
        SamplerConfig(iterations=1, start="warm", prior=prior)
