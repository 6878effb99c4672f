import math

import numpy as np
import pytest

from modelspace import (
    GPriorSpec,
    ModelIndex,
    UsageError,
    count_models_above,
    enumerate_exact,
    exact_quantity,
    indicator_of_dimension,
    indicator_of_model,
    indicator_of_variable,
    make_dataset,
    topk_mass_log10,
)
import modelspace.exact as exact_mod
from modelspace.exact import enumerate_shard, reduce_shards
from modelspace.linmodel import fit_model, sse_direct, subset_members
from conftest import naive_enumeration, synth_dataset


@pytest.fixture(scope="module")
def huge_data():
    # a strong signal with small noise: the best log BF is ~1147, far past
    # where exp overflows, and three inclusion probabilities round to 1
    return synth_dataset(
        N=400, p=8, active=(0, 3, 6), betas=(3, -2.5, 2), noise=0.1, seed=3
    )


class TestScale:
    @pytest.mark.parametrize(
        "shard_bits, block",
        [(None, exact_mod.BLOCK), (0, 3)],
        ids=["shard-per-model", "moving-scale"],
    )
    def test_huge_magnitudes(self, huge_data, shard_bits, block, monkeypatch):
        # one model per shard, or one shard absorbed three models at a time
        # so that the scale moves between blocks
        monkeypatch.setattr(exact_mod, "BLOCK", block)
        g = float(huge_data.N)
        lbfs, log_total, incl, dim, _ = naive_enumeration(huge_data, g)
        assert lbfs.max() > 1000.0
        res = enumerate_exact(
            huge_data, g, GPriorSpec.fixed(g), K=1, workers=1, shard_bits=shard_bits
        )
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion_exact, incl, atol=1e-12)
        np.testing.assert_allclose(res.dimension_exact, dim, atol=1e-12)

    @pytest.mark.parametrize(
        "shard_bits", [None, 0], ids=["shard-per-model", "one-shard"]
    )
    def test_probabilities_within_unit_interval(self, huge_data, shard_bits):
        g = float(huge_data.N)
        res = enumerate_exact(
            huge_data, g, GPriorSpec.fixed(g), K=1, workers=1, shard_bits=shard_bits
        )
        assert res.inclusion_exact.max() == 1.0
        for values in (res.inclusion_exact, res.dimension_exact):
            assert np.all((values >= 0.0) & (values <= 1.0))
        assert 0.0 < res.hpm_posterior <= 1.0


class TestShardWalk:
    def test_single_model_shard(self, p8_data):
        # shard_bits = p leaves no free bits: exactly one model per shard
        prior = GPriorSpec.fixed(40.0)
        shard = enumerate_shard(p8_data, p8_data.p, 0b10110001, 40.0, prior, K=1)
        assert shard.count == 1
        assert shard.top_bits.tolist() == [0b10110001]

    def test_visits_every_model_once(self, p8_data):
        prior = GPriorSpec.fixed(40.0)
        res = enumerate_exact(p8_data, 40.0, prior, K=1 << p8_data.p, shard_bits=0)
        assert res.model_count == 1 << p8_data.p
        bitmasks = [m.bits for m, _ in res.top_models]
        assert len(set(bitmasks)) == len(bitmasks) == (1 << p8_data.p)

    def test_matches_naive_enumeration(self, p8_data, p8_naive):
        lbfs, log_total, incl, dim, hpm_bits = p8_naive
        g = float(p8_data.N)
        res = enumerate_exact(p8_data, g, GPriorSpec.fixed(g), K=256)
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion_exact, incl, atol=1e-12)
        np.testing.assert_allclose(res.dimension_exact, dim, atol=1e-12)
        assert res.hpm.bits == hpm_bits
        ranked = {m.bits: lbf for m, lbf in res.top_models}
        for bits, lbf in ranked.items():
            assert lbf == pytest.approx(float(lbfs[bits]), abs=1e-10)

    def test_matches_naive_p10(self, p10_data, p10_naive):
        lbfs, log_total, incl, _, hpm_bits = p10_naive
        g = float(p10_data.N)
        res = enumerate_exact(p10_data, g, GPriorSpec.fixed(g), K=10)
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion_exact, incl, atol=1e-12)
        assert res.hpm.bits == hpm_bits

    def test_shard_split_invariance(self, p8_data):
        g = float(p8_data.N)
        prior = GPriorSpec.fixed(g)
        a = enumerate_exact(p8_data, g, prior, K=50, shard_bits=0)
        b = enumerate_exact(p8_data, g, prior, K=50, shard_bits=4)
        assert a.log_total_bf == pytest.approx(b.log_total_bf, abs=1e-12)
        np.testing.assert_allclose(a.inclusion_exact, b.inclusion_exact, atol=1e-12)
        assert [m.bits for m, _ in a.top_models] == [m.bits for m, _ in b.top_models]

    def test_worker_count_invariance(self, p8_data):
        # fixed shard layout makes the reduction bit-identical across workers
        g = float(p8_data.N)
        prior = GPriorSpec.fixed(g)
        a = enumerate_exact(p8_data, g, prior, K=100, workers=1)
        b = enumerate_exact(p8_data, g, prior, K=100, workers=2)
        assert a.log_total_bf == b.log_total_bf
        np.testing.assert_array_equal(a.inclusion_exact, b.inclusion_exact)
        assert [(m.bits, lbf) for m, lbf in a.top_models] == [
            (m.bits, lbf) for m, lbf in b.top_models
        ]

    def test_collinear_columns_excluded(self):
        # one duplicate pair: every model containing both copies is excluded
        rng = np.random.default_rng(5)
        N, p = 30, 6
        X = rng.standard_normal((N, p))
        X[:, 4] = X[:, 0]
        y = X[:, 1] + rng.standard_normal(N)
        names = [f"x{j}" for j in range(p)]
        data = make_dataset(y, X, names)
        g = float(N)
        res = enumerate_exact(data, g, GPriorSpec.fixed(g), K=1)
        # models containing both x0 and x4 are rank-deficient
        assert res.excluded_count == 1 << (p - 2)
        assert res.model_count == 1 << p

    def test_collinear_matches_naive(self):
        rng = np.random.default_rng(6)
        N, p = 25, 6
        X = rng.standard_normal((N, p))
        X[:, 5] = X[:, 2] - X[:, 3]
        y = X[:, 0] + rng.standard_normal(N)
        data = make_dataset(y, X, [f"x{j}" for j in range(p)])
        g = float(N)
        lbfs, log_total, incl, _, hpm_bits = naive_enumeration(data, g)
        res = enumerate_exact(data, g, GPriorSpec.fixed(g), K=8)
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion_exact, incl, atol=1e-12)
        assert res.hpm.bits == hpm_bits
        assert res.excluded_count == int(np.sum(np.isneginf(lbfs)))

    def test_tied_models_rank_by_ascending_bitmask(self):
        # columns orthonormal to each other and to the intercept, with
        # y = a + b: the two single-variable models tie exactly
        N = 16
        rng = np.random.default_rng(7)
        basis = np.column_stack([np.ones(N), rng.standard_normal((N, 2))])
        q, _ = np.linalg.qr(basis)
        X = q[:, 1:3]
        y = X[:, 0] + X[:, 1]
        data = make_dataset(y, X, ["a", "b"])
        g = float(N)
        lbfs, _, _, _, _ = naive_enumeration(data, g)
        assert lbfs[0b01] == pytest.approx(lbfs[0b10], abs=1e-9)
        res = enumerate_exact(data, g, GPriorSpec.fixed(g), K=4)
        ranked = [m.bits for m, _ in res.top_models]
        # full model fits perfectly, then the tied pair in bitmask order
        assert ranked[0] == 0b11
        assert ranked.index(0b01) < ranked.index(0b10)


class TestLowBitBlock:
    """The high-bit walk visits many outer models, each scored with its
    whole low-bit block."""

    @pytest.mark.parametrize("low_bits", [1, 3])
    def test_matches_naive_p8(self, p8_data, p8_naive, low_bits, monkeypatch):
        monkeypatch.setattr(exact_mod, "LOW_BITS", low_bits)
        lbfs, log_total, incl, dim, hpm_bits = p8_naive
        g = float(p8_data.N)
        res = enumerate_exact(
            p8_data, g, GPriorSpec.fixed(g), K=256, workers=1, shard_bits=1
        )
        assert res.model_count == 1 << p8_data.p
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion_exact, incl, atol=1e-12)
        np.testing.assert_allclose(res.dimension_exact, dim, atol=1e-12)
        assert res.hpm.bits == hpm_bits
        assert sorted(m.bits for m, _ in res.top_models) == list(range(256))
        for m, lbf in res.top_models:
            assert lbf == pytest.approx(float(lbfs[m.bits]), abs=1e-10)

    def test_matches_naive_p10(self, p10_data, p10_naive, monkeypatch):
        monkeypatch.setattr(exact_mod, "LOW_BITS", 3)
        lbfs, log_total, incl, dim, hpm_bits = p10_naive
        g = float(p10_data.N)
        res = enumerate_exact(
            p10_data, g, GPriorSpec.fixed(g), K=10, workers=1, shard_bits=2
        )
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion_exact, incl, atol=1e-12)
        np.testing.assert_allclose(res.dimension_exact, dim, atol=1e-12)
        assert res.hpm.bits == hpm_bits

    @pytest.mark.parametrize(
        "copy, of", [(4, 1), (5, 3)], ids=["low-high-pair", "high-high-pair"]
    )
    def test_duplicate_pair_excluded(self, copy, of, monkeypatch):
        # with LOW_BITS = 3, column 1 is a low column and 3, 4, 5 are walked:
        # the pair is caught by a low pivot or by the walk's pending set
        monkeypatch.setattr(exact_mod, "LOW_BITS", 3)
        rng = np.random.default_rng(8)
        N, p = 30, 6
        X = rng.standard_normal((N, p))
        X[:, copy] = X[:, of]
        y = X[:, 0] - X[:, of] + rng.standard_normal(N)
        data = make_dataset(y, X, [f"x{j}" for j in range(p)])
        g = float(N)
        lbfs, log_total, incl, _, hpm_bits = naive_enumeration(data, g)
        res = enumerate_exact(data, g, GPriorSpec.fixed(g), K=8, workers=1, shard_bits=0)
        assert res.excluded_count == int(np.sum(np.isneginf(lbfs))) == 1 << (p - 2)
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion_exact, incl, atol=1e-12)
        assert res.hpm.bits == hpm_bits

    def test_worker_count_invariance_with_outer_walk(self):
        # p=14 in 4 shards leaves 12 free bits: each shard walks 4 outer
        # models, so workers share shards that each take several batches
        data = synth_dataset(
            N=60, p=14, active=(2, 9, 12), betas=(0.6, -0.5, 0.4), seed=21
        )
        assert 14 - 2 > exact_mod.LOW_BITS
        g = float(data.N)
        prior = GPriorSpec.fixed(g)
        a = enumerate_exact(data, g, prior, K=100, workers=1, shard_bits=2)
        b = enumerate_exact(data, g, prior, K=100, workers=2, shard_bits=2)
        assert a.log_total_bf == b.log_total_bf
        np.testing.assert_array_equal(a.inclusion_exact, b.inclusion_exact)
        np.testing.assert_array_equal(a.dimension_exact, b.dimension_exact)
        assert a.top_models == b.top_models

    def test_every_completion_matches_direct_refit(self):
        b = exact_mod.LOW_BITS
        data = synth_dataset(N=60, p=b + 8, active=(1, 11), betas=(0.7, -0.5), seed=9)
        rng = np.random.default_rng(4)
        outer = ModelIndex.from_indices(rng.choice(np.arange(b, data.p), 5, replace=False))
        state = fit_model(data, outer)
        sse, singular = state.extension_sse(np.arange(b))
        assert not singular.any()
        members = subset_members(b)
        for t in range(1 << b):
            m = ModelIndex.from_bits(outer.bits | t)
            assert m.k == outer.k + int(members[:, t].sum())
            assert sse[t] == pytest.approx(sse_direct(data, m), rel=1e-9)


class TestReduce:
    def test_incomplete_partition_rejected(self, p8_data):
        prior = GPriorSpec.fixed(40.0)
        s0 = enumerate_shard(p8_data, 2, 0, 40.0, prior, K=4)
        s1 = enumerate_shard(p8_data, 2, 1, 40.0, prior, K=4)
        with pytest.raises(UsageError, match="partition"):
            reduce_shards([s0, s1], p8_data, prior)

    def test_single_shard_identity(self, p8_data):
        g = float(p8_data.N)
        prior = GPriorSpec.fixed(g)
        shard = enumerate_shard(p8_data, 0, 0, g, prior, K=16)
        res = reduce_shards([shard], p8_data, prior)
        full = enumerate_exact(p8_data, g, prior, K=16, shard_bits=0)
        assert res.log_total_bf == full.log_total_bf


class TestExactQuantity:
    def test_constant_quantity_is_one(self, p8_data):
        from modelspace.estimators import QuantityOfInterest

        g = float(p8_data.N)
        one = QuantityOfInterest(lambda m: 1.0, "one")
        val = exact_quantity(p8_data, g, GPriorSpec.fixed(g), one)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_null_model_indicator(self, p8_data, p8_naive):
        _, log_total, _, _, _ = p8_naive
        g = float(p8_data.N)
        val = exact_quantity(
            p8_data, g, GPriorSpec.fixed(g), indicator_of_model(ModelIndex(0, 0))
        )
        # B_0 = 1 under a uniform prior: posterior of M_0 is 1 / sum B
        assert val == pytest.approx(math.exp(-log_total), rel=1e-10)

    def test_inclusion_via_quantity(self, p8_data, p8_naive):
        _, _, incl, _, _ = p8_naive
        g = float(p8_data.N)
        for l in (0, 3, 7):
            val = exact_quantity(
                p8_data, g, GPriorSpec.fixed(g), indicator_of_variable(l)
            )
            assert val == pytest.approx(incl[l], abs=1e-12)

    def test_mean_dimension_consistent(self, p8_data, p8_naive):
        from modelspace.estimators import QuantityOfInterest

        _, _, _, dim, _ = p8_naive
        g = float(p8_data.N)
        size = QuantityOfInterest(lambda m: float(m.k), "dimension")
        val = exact_quantity(p8_data, g, GPriorSpec.fixed(g), size)
        ref = sum(k * dk for k, dk in enumerate(dim))
        assert val == pytest.approx(ref, abs=1e-12)

    def test_worker_count_bit_identical(self, p8_data, monkeypatch):
        # a lambda cannot pickle and runs in-process; the built-in indicators
        # pickle and go through the pool; both match the single-worker value
        from modelspace.estimators import QuantityOfInterest

        pools = []

        class SpyPool(exact_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(exact_mod, "ProcessPoolExecutor", SpyPool)
        g = float(p8_data.N)
        prior = GPriorSpec.fixed(g)
        size = QuantityOfInterest(lambda m: float(m.k), "dimension")
        for q, expected_pools in ((size, []), (indicator_of_variable(3), [2])):
            pools.clear()
            a = exact_quantity(p8_data, g, prior, q, workers=1)
            b = exact_quantity(p8_data, g, prior, q, workers=2)
            assert a == b
            assert pools == expected_pools


class TestRankCount:
    def test_count_above_threshold(self, p8_data, p8_naive):
        lbfs, _, _, _, hpm_bits = p8_naive
        g = float(p8_data.N)
        prior = GPriorSpec.fixed(g)
        thr = float(lbfs[hpm_bits]) - 3.0
        expected = int(np.sum(lbfs > thr))
        assert count_models_above(p8_data, g, prior, thr) == expected

    def test_nothing_above_hpm(self, p8_data, p8_naive):
        lbfs, _, _, _, hpm_bits = p8_naive
        g = float(p8_data.N)
        assert (
            count_models_above(p8_data, g, GPriorSpec.fixed(g), float(lbfs[hpm_bits]))
            == 0
        )


class TestGuards:
    def test_p_guard(self):
        data = synth_dataset(N=40, p=31, seed=1)
        with pytest.raises(UsageError, match="force"):
            enumerate_exact(data, 40.0, GPriorSpec.fixed(40.0))

    def test_hierarchical_prior_rejected(self, p8_data):
        with pytest.raises(UsageError):
            enumerate_exact(
                p8_data, 40.0, GPriorSpec.zellner_siow(p8_data.N), K=1
            )

    def test_top_k_mass_monotone(self, p8_data):
        g = float(p8_data.N)
        res = enumerate_exact(p8_data, g, GPriorSpec.fixed(g), K=256)
        masses = [topk_mass_log10(res.top_models, K) for K in (1, 4, 16, 64, 256)]
        assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))
        # the full 256-model mass equals the total on the log10 scale
        assert masses[-1] == pytest.approx(res.log_total_bf / math.log(10.0), abs=1e-10)
