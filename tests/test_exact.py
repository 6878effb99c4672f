import math
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from modelspace import (
    DistinctModels,
    GPriorSpec,
    NumericalError,
    UsageError,
    count_models_above,
    enumerate_exact,
    exact_quantity,
    indicator_of_dimension,
    indicator_of_model,
    indicator_of_variable,
    log_bf_value,
    make_dataset,
    rank_models,
    topk_mass_log10,
)
import modelspace.exact as exact_mod
from modelspace.exact import enumerate_shard, reduce_shards, subset_sse
from modelspace.cli import main
from modelspace.estimators import membership
from modelspace.linmodel import SINGULAR_EPS, fit_model, sse_direct
from conftest import naive_enumeration, synth_dataset


def assert_same_models(a, b):
    """Two ranked model sets hold the same models and log BFs, bit for bit."""
    np.testing.assert_array_equal(a.bits, b.bits)
    np.testing.assert_array_equal(a.log_bfs, b.log_bfs)


def subset_members(b):
    """(b, 2^b) booleans: entry (i, t) is set when subset t holds item i,
    that is when bit i of t is set."""
    return (np.arange(1 << b) >> np.arange(b)[:, None]) & 1 == 1


def doubling_cases():
    """(b, collinear pair) blocks for ``subset_sse`` around the handover
    from the square levels to the in-place ones: columns 0..square - 1 are
    eliminated square and the last IN_PLACE_LEVELS in place."""
    cases = []
    for b in (1, 2, exact_mod.IN_PLACE_LEVELS, exact_mod.IN_PLACE_LEVELS + 1):
        square = max(0, b - exact_mod.IN_PLACE_LEVELS)
        cases.append(pytest.param(b, None, id=f"b{b}-full-rank"))
        if square:
            pair = (square - 1, square)
            cases.append(pytest.param(b, pair, id=f"b{b}-handover-pair"))
        if b - square >= 2:
            pair = (square, b - 1)
            cases.append(pytest.param(b, pair, id=f"b{b}-in-place-pair"))
    # at b = LOW_BITS, where the reference takes about 3 s, the pair is
    # eliminated square
    b = exact_mod.LOW_BITS
    return cases + [
        pytest.param(b, None, id="full-rank"),
        pytest.param(b, (0, 1), id="low-low-pair"),
    ]


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools ``enumerate_exact`` opens."""
    opened = []

    class SpyPool(exact_mod.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(exact_mod, "ProcessPoolExecutor", SpyPool)
    return opened


@pytest.fixture(scope="module")
def huge_data():
    # a strong signal with small noise: the best log BF is ~1147, far past
    # where exp overflows, and three inclusion probabilities round to 1
    return synth_dataset(
        N=400, p=8, active=(0, 3, 6), betas=(3, -2.5, 2), noise=0.1, seed=3
    )


class TestScale:
    @pytest.mark.parametrize(
        "shard_bits, low_bits",
        [(8, exact_mod.LOW_BITS), (0, 2)],
        ids=["shard-per-model", "moving-scale"],
    )
    def test_huge_magnitudes(
        self, huge_data, shard_bits, low_bits, monkeypatch, set_shard_bits
    ):
        # one model per shard, or one shard whose walk absorbs the four
        # completions of each outer model in turn, so that the scale moves
        # between outer models
        monkeypatch.setattr(exact_mod, "LOW_BITS", low_bits)
        set_shard_bits(shard_bits)
        g = float(huge_data.N)
        lbfs, log_total, incl, dim, _ = naive_enumeration(huge_data, g)
        assert lbfs.max() > 1000.0
        res = enumerate_exact(huge_data, g, GPriorSpec.fixed(g), K=1, workers=1)
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion, incl, atol=1e-12)
        np.testing.assert_allclose(res.dimension, dim, atol=1e-12)

    @pytest.mark.parametrize(
        "shard_bits", [8, 0], ids=["shard-per-model", "one-shard"]
    )
    def test_probabilities_within_unit_interval(
        self, huge_data, shard_bits, set_shard_bits
    ):
        set_shard_bits(shard_bits)
        g = float(huge_data.N)
        res = enumerate_exact(huge_data, g, GPriorSpec.fixed(g), K=1, workers=1)
        assert res.inclusion.max() == 1.0
        for values in (res.inclusion, res.dimension):
            assert np.all((values >= 0.0) & (values <= 1.0))
        assert 0.0 < res.hpm_posterior <= 1.0


class TestShardWalk:
    def test_single_model_shard(self, p8_data):
        # shard_bits = p leaves no free bits: exactly one model per shard
        prior = GPriorSpec.fixed(40.0)
        shard = enumerate_shard(p8_data, p8_data.p, 0b10110001, 40.0, prior, K=1)
        assert shard.count == 1
        assert shard.top.bits.tolist() == [0b10110001]

    def test_visits_every_model_once(self, p8_data, set_shard_bits):
        set_shard_bits(0)
        prior = GPriorSpec.fixed(40.0)
        res = enumerate_exact(p8_data, 40.0, prior, K=1 << p8_data.p)
        assert res.model_count == 1 << p8_data.p
        bitmasks = res.top_models.bits.tolist()
        assert len(set(bitmasks)) == len(bitmasks) == (1 << p8_data.p)

    def test_matches_naive_enumeration(self, p8_data, p8_naive):
        lbfs, log_total, incl, dim, hpm_bits = p8_naive
        g = float(p8_data.N)
        res = enumerate_exact(p8_data, g, GPriorSpec.fixed(g), K=256)
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion, incl, atol=1e-12)
        np.testing.assert_allclose(res.dimension, dim, atol=1e-12)
        assert res.hpm == hpm_bits
        top = res.top_models
        np.testing.assert_allclose(top.log_bfs, lbfs[top.bits], rtol=0, atol=1e-10)

    def test_matches_naive_p10(self, p10_data, p10_naive):
        lbfs, log_total, incl, _, hpm_bits = p10_naive
        g = float(p10_data.N)
        res = enumerate_exact(p10_data, g, GPriorSpec.fixed(g), K=10)
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion, incl, atol=1e-12)
        assert res.hpm == hpm_bits

    def test_shard_split_invariance(self, p8_data, set_shard_bits):
        g = float(p8_data.N)
        prior = GPriorSpec.fixed(g)
        set_shard_bits(0)
        a = enumerate_exact(p8_data, g, prior, K=50)
        set_shard_bits(4)
        b = enumerate_exact(p8_data, g, prior, K=50)
        assert a.log_total_bf == pytest.approx(b.log_total_bf, abs=1e-12)
        np.testing.assert_allclose(a.inclusion, b.inclusion, atol=1e-12)
        np.testing.assert_array_equal(a.top_models.bits, b.top_models.bits)

    def test_worker_count_invariance(
        self, p8_data, pools, set_shard_bits, set_models_per_worker
    ):
        # fixed shard layout makes the reduction bit-identical across workers
        set_shard_bits(4)
        set_models_per_worker(16)
        g = float(p8_data.N)
        prior = GPriorSpec.fixed(g)
        a = enumerate_exact(p8_data, g, prior, K=100, workers=1)
        b = enumerate_exact(p8_data, g, prior, K=100, workers=2)
        assert pools == [2]
        assert a.log_total_bf == b.log_total_bf
        np.testing.assert_array_equal(a.inclusion, b.inclusion)
        assert_same_models(a.top_models, b.top_models)

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
        np.testing.assert_allclose(res.inclusion, incl, atol=1e-12)
        assert res.hpm == hpm_bits
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
        ranked = res.top_models.bits.tolist()
        # full model fits perfectly, then the tied pair in bitmask order
        assert ranked[0] == 0b11
        assert ranked.index(0b01) < ranked.index(0b10)


class TestLowBitBlock:
    """The high-bit walk visits many outer models, each scored with its
    whole low-bit block."""

    @pytest.mark.parametrize("low_bits", [1, 3])
    def test_matches_naive_p8(
        self, p8_data, p8_naive, low_bits, monkeypatch, set_shard_bits
    ):
        monkeypatch.setattr(exact_mod, "LOW_BITS", low_bits)
        set_shard_bits(1)
        lbfs, log_total, incl, dim, hpm_bits = p8_naive
        g = float(p8_data.N)
        res = enumerate_exact(p8_data, g, GPriorSpec.fixed(g), K=256, workers=1)
        assert res.model_count == 1 << p8_data.p
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion, incl, atol=1e-12)
        np.testing.assert_allclose(res.dimension, dim, atol=1e-12)
        assert res.hpm == hpm_bits
        top = res.top_models
        assert sorted(top.bits.tolist()) == list(range(256))
        np.testing.assert_allclose(top.log_bfs, lbfs[top.bits], rtol=0, atol=1e-10)

    def test_matches_naive_p10(self, p10_data, p10_naive, monkeypatch, set_shard_bits):
        # the second input has N = 9 <= p + 2: the 56 models with k > 7 are
        # saturated, and the walk refuses take-ins above the low block
        monkeypatch.setattr(exact_mod, "LOW_BITS", 3)
        saturated = synth_dataset(N=9, p=10, active=(1, 6), betas=(1.0, -0.8), seed=31)
        for data, naive, shard_bits in [
            (p10_data, p10_naive, 2),
            (saturated, naive_enumeration(saturated, 9.0), 1),
        ]:
            set_shard_bits(shard_bits)
            lbfs, log_total, incl, dim, hpm_bits = naive
            g = float(data.N)
            res = enumerate_exact(data, g, GPriorSpec.fixed(g), K=10, workers=1)
            assert res.excluded_count == int(np.sum(np.isneginf(lbfs)))
            assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
            np.testing.assert_allclose(res.inclusion, incl, atol=1e-12)
            np.testing.assert_allclose(res.dimension, dim, atol=1e-12)
            assert res.hpm == hpm_bits
        assert res.excluded_count == 56

    def test_long_walk_matches_naive(self, monkeypatch, set_shard_bits):
        # one shard whose depth-first walk eliminates 10 outer columns
        # above the low block on a correlated design: the Schur complement
        # it hands to the low block at each of the 2^10 outer models must
        # not drift
        monkeypatch.setattr(exact_mod, "LOW_BITS", 3)
        set_shard_bits(0)
        rng = np.random.default_rng(17)
        N, p = 60, 13
        corr = 0.8 ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
        X = rng.standard_normal((N, p)) @ np.linalg.cholesky(corr).T
        y = X[:, 1] - 0.6 * X[:, 6] + 0.5 * X[:, 11] + rng.standard_normal(N)
        data = make_dataset(y, X, [f"x{j}" for j in range(p)])
        g = float(N)
        lbfs, log_total, incl, dim, hpm_bits = naive_enumeration(data, g)
        res = enumerate_exact(data, g, GPriorSpec.fixed(g), K=100, workers=1)
        diag = res.diagnostics
        assert (diag["shard_bits"], diag["low_bits"]) == (0, 3)
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion, incl, atol=1e-12)
        np.testing.assert_allclose(res.dimension, dim, atol=1e-12)
        assert res.hpm == hpm_bits
        top = res.top_models
        np.testing.assert_allclose(top.log_bfs, lbfs[top.bits], rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "copy, of, hpm_tied",
        [(1, 0, False), (4, 1, False), (5, 3, True)],
        ids=["low-low-pair", "low-high-pair", "high-high-pair"],
    )
    def test_duplicate_pair_excluded(
        self, copy, of, hpm_tied, monkeypatch, set_shard_bits
    ):
        # with LOW_BITS = 3, columns 0, 1, 2 are low and 3, 4, 5 are walked:
        # the pair is caught by a low pivot or by a refused take-in of the
        # walk, which excludes its subtree. A pair in the low block is
        # flagged at column 1, and the subsets that also take column 2 must
        # inherit the flag
        monkeypatch.setattr(exact_mod, "LOW_BITS", 3)
        set_shard_bits(0)
        rng = np.random.default_rng(8)
        N, p = 30, 6
        X = rng.standard_normal((N, p))
        X[:, copy] = X[:, of]
        y = X[:, 0] - X[:, of] + rng.standard_normal(N)
        data = make_dataset(y, X, [f"x{j}" for j in range(p)])
        g = float(N)
        lbfs, log_total, incl, _, hpm_bits = naive_enumeration(data, g)
        res = enumerate_exact(data, g, GPriorSpec.fixed(g), K=8, workers=1)
        assert res.excluded_count == int(np.sum(np.isneginf(lbfs))) == 1 << (p - 2)
        assert res.log_total_bf == pytest.approx(log_total, abs=1e-10)
        np.testing.assert_allclose(res.inclusion, incl, atol=1e-12)
        assert res.hpm_log_bf == pytest.approx(float(lbfs[hpm_bits]), abs=1e-10)
        if hpm_tied:
            # the HPM holds one of the pair, and swapping it for the other
            # gives the same fit: the oracle scores both exactly alike, and
            # which one ranks first is set by the last bit of each
            # elimination order
            twin = hpm_bits ^ (1 << copy | 1 << of)
            assert lbfs[twin] == lbfs[hpm_bits]
            assert res.hpm in (hpm_bits, twin)
        else:
            assert res.hpm == hpm_bits

    def test_nan_log_bf_is_a_numerical_error(self, p8_data, tmp_path, monkeypatch):
        # a NaN SSE must not pass for an excluded model: the pass raises,
        # and the exact command exits 4
        def one_nan(B, low):
            sse, singular = subset_sse(B, low)
            sse[-1] = np.nan
            return sse, singular

        monkeypatch.setattr(exact_mod, "subset_sse", one_nan)
        g = float(p8_data.N)
        with pytest.raises(NumericalError):
            enumerate_exact(p8_data, g, GPriorSpec.fixed(g), K=8, workers=1)
        path = tmp_path / "d8.csv"
        names = ",".join(["y"] + p8_data.names)
        np.savetxt(path, np.column_stack([p8_data.y, p8_data.X]), delimiter=",",
                   header=names, comments="")
        rc = main(["exact", str(path), "--response", "y", "--g", repr(g),
                   "--workers", "1", "--out", str(tmp_path / "ex.json")])
        assert rc == 4

    def test_worker_count_invariance_with_outer_walk(
        self, pools, set_shard_bits, set_models_per_worker
    ):
        # 4 shards leave LOW_BITS + 2 free bits: each shard walks 4 outer
        # models, so workers share shards that each take several batches
        set_shard_bits(2)
        set_models_per_worker(1 << exact_mod.LOW_BITS)
        p = exact_mod.LOW_BITS + 4
        data = synth_dataset(
            N=60, p=p, active=(2, 9, p - 2), betas=(0.6, -0.5, 0.4), seed=21
        )
        g = float(data.N)
        prior = GPriorSpec.fixed(g)
        a = enumerate_exact(data, g, prior, K=100, workers=1)
        b = enumerate_exact(data, g, prior, K=100, workers=2)
        assert pools == [2]
        assert a.log_total_bf == b.log_total_bf
        np.testing.assert_array_equal(a.inclusion, b.inclusion)
        np.testing.assert_array_equal(a.dimension, b.dimension)
        assert_same_models(a.top_models, b.top_models)

    def test_every_completion_matches_direct_refit(self):
        b = exact_mod.LOW_BITS
        data = synth_dataset(N=60, p=b + 8, active=(1, 11), betas=(0.7, -0.5), seed=9)
        rng = np.random.default_rng(4)
        outer = sum(1 << int(j) for j in rng.choice(np.arange(b, data.p), 5, replace=False))
        low = np.arange(b)
        ix = np.append(low, data.p)
        state = fit_model(data, outer)
        block = exact_mod.LowBlock(np.diagonal(data.gram)[low])
        sse, singular = subset_sse(state.M[np.ix_(ix, ix)], block)
        assert not singular.any()
        members = subset_members(b)
        for t in range(1 << b):
            m = outer | t
            assert m.bit_count() == outer.bit_count() + int(members[:, t].sum())
            assert sse[t] == pytest.approx(sse_direct(data, m), rel=1e-9)


    @pytest.mark.parametrize("b, pair", doubling_cases())
    def test_doubling_matches_column_cholesky(self, b, pair):
        # each subset goes through the column Cholesky's float operations,
        # so flags and non-singular SSEs equal the reference bit for bit,
        # whether the collinear pair is eliminated square, in place or
        # across the handover between the two
        rng = np.random.default_rng(12)
        X = rng.standard_normal((60, b + 6))
        if pair is not None:
            X[:, pair[1]] = X[:, pair[0]]
        y = X[:, 2] - X[:, b + 1] + rng.standard_normal(60)
        data = make_dataset(y, X, [f"x{j}" for j in range(b + 6)])
        state = fit_model(data, 0b10011 << b)  # columns b, b + 1 and b + 4
        low = np.arange(b)
        ix = np.append(low, data.p)
        B, gjj = state.M[np.ix_(ix, ix)], np.diagonal(data.gram)[low]
        sse, singular = subset_sse(B, exact_mod.LowBlock(gjj))
        ref_sse, ref_singular = column_cholesky_sse(B, gjj)
        np.testing.assert_array_equal(singular, ref_singular)
        assert singular.sum() == (0 if pair is None else 1 << (b - 2))
        np.testing.assert_array_equal(sse[~singular], ref_sse[~singular])

    @pytest.mark.parametrize("in_place", [0, 1, 4, exact_mod.IN_PLACE_LEVELS, 10])
    def test_doubling_reads_only_the_lower_triangle(self, in_place, monkeypatch):
        # a take-in reads the pivot, the border below it and the same
        # entry of the trailing block, so neither B's upper triangle nor
        # the number of levels run in place, none to all of them, changes
        # a float operation
        b = 10
        rng = np.random.default_rng(17)
        Z = rng.standard_normal((30, b + 1))
        Z[:, 6] = Z[:, 3]
        B = Z.T @ Z
        gjj = np.diagonal(B)[:b].copy()
        ref = [a.copy() for a in subset_sse(B, exact_mod.LowBlock(gjj))]
        B[np.triu_indices(b + 1, 1)] = np.nan
        # a block takes its in-place levels when it is built
        monkeypatch.setattr(exact_mod, "IN_PLACE_LEVELS", in_place)
        for a, r in zip(subset_sse(B, exact_mod.LowBlock(gjj)), ref):
            np.testing.assert_array_equal(a, r)

    def test_reused_block_leaves_earlier_results(self):
        # one LowBlock scores two outer models, as in a shard: its results
        # are the block's own arrays, which the second call overwrites
        # with what a fresh block gives; the results of one block survive
        # a call on another
        b = 6
        rng = np.random.default_rng(8)
        bordered = []
        for dup in (False, True):
            X = rng.standard_normal((30, b))
            if dup:
                X[:, 4] = X[:, 2]
            y = X[:, 0] + rng.standard_normal(30)
            Z = np.column_stack([X, y])
            bordered.append(Z.T @ Z)
        gjj = np.diagonal(bordered[0])[:b].copy()
        low = exact_mod.LowBlock(gjj)
        first = subset_sse(bordered[0], low)
        assert not first[1].any()
        second = subset_sse(bordered[1], low)
        assert second[0] is first[0] and second[1] is first[1]
        assert second[1].any()
        for a, ref in zip(second, subset_sse(bordered[1], exact_mod.LowBlock(gjj))):
            np.testing.assert_array_equal(a, ref)
        own = subset_sse(bordered[0], exact_mod.LowBlock(gjj))
        kept = [a.copy() for a in own]
        subset_sse(bordered[1], exact_mod.LowBlock(gjj))
        for a, k in zip(own, kept):
            np.testing.assert_array_equal(a, k)


def workspace_count(data, item):
    """How many workspaces the calling process's thread holds."""
    return len(exact_mod._workspaces.blocks)


def assert_same_summary(a, b):
    """Two exact summaries agree bit for bit."""
    assert a.log_total_bf == b.log_total_bf
    assert a.excluded_count == b.excluded_count
    np.testing.assert_array_equal(a.inclusion, b.inclusion)
    np.testing.assert_array_equal(a.dimension, b.dimension)
    assert_same_models(a.top_models, b.top_models)


class TestWorkspace:
    """Each thread keeps one LowBlock per block width and reuses it across
    passes, refilled with each pass's thresholds."""

    @pytest.fixture
    def fresh(self, monkeypatch):
        """Drop every thread's workspaces for the test."""
        monkeypatch.setattr(exact_mod, "_workspaces", exact_mod._Workspaces())

    def test_passes_in_one_thread_share_one_block(self, p8_data, fresh):
        g = float(p8_data.N)
        low = exact_mod.low_block(p8_data, 0)
        enumerate_exact(p8_data, g, GPriorSpec.fixed(g), K=4, workers=1)
        assert exact_mod.low_block(p8_data, 0) is low
        assert exact_mod.low_block(p8_data, 1) is not low

    def test_second_dataset_matches_a_fresh_block(self, fresh, monkeypatch):
        # the first dataset's columns are 1e6 times larger, so its
        # thresholds, left in the block, would flag every take-in of the
        # second; the second's collinear pair of low columns must be
        # flagged by its own
        rng = np.random.default_rng(14)
        N, p = 40, 8
        names = [f"x{j}" for j in range(p)]
        X = 1e6 * rng.standard_normal((N, p))
        big = make_dataset(X[:, 0] + 1e6 * rng.standard_normal(N), X, names)
        X = rng.standard_normal((N, p))
        X[:, 3] = X[:, 1]
        pair = make_dataset(X[:, 0] - X[:, 5] + rng.standard_normal(N), X, names)
        g = float(N)
        prior = GPriorSpec.fixed(g)
        enumerate_exact(big, g, prior, K=10, workers=1)
        reused = enumerate_exact(pair, g, prior, K=10, workers=1)
        monkeypatch.setattr(exact_mod, "_workspaces", exact_mod._Workspaces())
        assert_same_summary(reused, enumerate_exact(pair, g, prior, K=10, workers=1))
        assert reused.excluded_count == 1 << (p - 2)

    def test_pool_workers_start_without_workspaces(self, p8_data, fresh):
        # a worker forked after a pass would otherwise hold the parent's
        # blocks, which a compare chain never uses
        g = float(p8_data.N)
        enumerate_exact(p8_data, g, GPriorSpec.fixed(g), K=4, workers=1)
        blocks = dict(exact_mod._workspaces.blocks)
        assert len(blocks) == 1
        counts = exact_mod.map_with_data(workspace_count, p8_data, range(4), workers=2)
        assert counts == [0, 0, 0, 0]
        assert exact_mod._workspaces.blocks == blocks

    def test_concurrent_threads_match_sequential_passes(self, fresh):
        # two blocks of 2^LOW_BITS completions per pass, so that each
        # thread's numpy calls run while the other's are half done
        p = exact_mod.LOW_BITS + 1
        datasets = [
            synth_dataset(N=60, p=p, active=(1, p - 1), betas=(0.6, -0.5), seed=seed)
            for seed in (40, 41)
        ]

        def passes(data, n=6):
            g = float(data.N)
            return [enumerate_exact(data, g, GPriorSpec.fixed(g), K=20, workers=1)
                    for _ in range(n)]

        sequential = [passes(data, 1)[0] for data in datasets]
        start = threading.Barrier(2)

        def run(data):
            start.wait()
            return passes(data)

        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = list(pool.map(run, datasets))
        for ref, results in zip(sequential, concurrent):
            for res in results:
                assert_same_summary(res, ref)


class TestShardLayout:
    """The default shard width leaves every shard a full low block, and the
    pool never has more workers than shards, nor more than one per
    MODELS_PER_WORKER models."""

    def test_default_width_leaves_a_full_block(self):
        for p in range(41):
            s = exact_mod.default_shard_bits(p)
            assert 0 <= s <= exact_mod.DEFAULT_SHARD_BITS
            assert p - s >= min(p, exact_mod.LOW_BITS)
            if p <= exact_mod.LOW_BITS:
                assert s == 0

    def test_worker_count_invariance_at_default_width(
        self, pools, set_models_per_worker
    ):
        set_models_per_worker(1 << exact_mod.LOW_BITS)
        p = exact_mod.LOW_BITS + 3
        data = synth_dataset(
            N=60, p=p, active=(1, 8, p - 1), betas=(0.6, -0.5, 0.4), seed=23
        )
        g = float(data.N)
        prior = GPriorSpec.fixed(g)
        a = enumerate_exact(data, g, prior, K=100, workers=1)
        b = enumerate_exact(data, g, prior, K=100, workers=2)
        diag = a.diagnostics
        assert (diag["shard_bits"], diag["low_bits"]) == (3, exact_mod.LOW_BITS)
        assert a.log_total_bf == b.log_total_bf
        np.testing.assert_array_equal(a.inclusion, b.inclusion)
        np.testing.assert_array_equal(a.dimension, b.dimension)
        assert_same_models(a.top_models, b.top_models)
        q = indicator_of_variable(8)
        assert exact_quantity(data, g, prior, q, workers=1) == exact_quantity(
            data, g, prior, q, workers=2
        )
        assert pools == [2, 2]

    def test_pool_sized_to_the_shards(self, pools, set_models_per_worker):
        set_models_per_worker(1)
        p = exact_mod.LOW_BITS + 1
        data = synth_dataset(N=60, p=p, active=(0, p - 1), betas=(0.6, -0.5), seed=24)
        g = float(data.N)
        res = enumerate_exact(data, g, GPriorSpec.fixed(g), K=1, workers=4)
        assert res.diagnostics["shard_bits"] == 1
        assert pools == [2]
        assert res.diagnostics["workers"] == 2

    def test_block_sums_stay_on_one_blas_thread(self):
        # W @ by_size is taken in runs of rows, each a gemm under OpenBLAS's
        # one-thread cutoff, and each half's margins @ positions a gemv
        # under its own
        low = exact_mod.LowBlock(np.ones(exact_mod.LOW_BITS))
        rows, n = low.shape
        assert min(low.rows, rows) * n * low.by_size.shape[1] <= exact_mod.GEMM_ONE_THREAD
        assert low.by_size.shape[0] == n
        for margins, positions in ((low.col_sums, low.positions_lo),
                                   (low.row_sums, low.positions_hi)):
            assert positions.shape[0] == margins.size
            assert positions.size < exact_mod.GEMV_ONE_THREAD
        assert exact_mod.GEMM_ONE_THREAD == 4 * 65536
        assert exact_mod.GEMV_ONE_THREAD == 4 * 2304

    def test_small_pass_runs_in_process(self, pools):
        # 8 shards of 2^LOW_BITS models are too little work for a pool
        p = exact_mod.LOW_BITS + 3
        assert 1 << p < 2 * exact_mod.MODELS_PER_WORKER
        data = synth_dataset(
            N=60, p=p, active=(1, 8, p - 1), betas=(0.6, -0.5, 0.4), seed=23
        )
        g = float(data.N)
        prior = GPriorSpec.fixed(g)
        a = enumerate_exact(data, g, prior, K=100, workers=1)
        b = enumerate_exact(data, g, prior, K=100, workers=2)
        assert pools == []
        layout = (a.diagnostics["shard_bits"], a.diagnostics["workers"])
        assert layout + (b.diagnostics["workers"],) == (3, 1, 1)
        assert a.log_total_bf == b.log_total_bf
        np.testing.assert_array_equal(a.inclusion, b.inclusion)
        np.testing.assert_array_equal(a.dimension, b.dimension)
        assert_same_models(a.top_models, b.top_models)

    def test_p20_pass_runs_in_process(self, pools):
        # a 2-process pool loses to one process at p = 20 and wins from
        # p = 21 (the module docstring's break-even)
        data = synth_dataset(
            N=60, p=20, active=(1, 8, 19), betas=(0.6, -0.5, 0.4), seed=23
        )
        g = float(data.N)
        res = enumerate_exact(data, g, GPriorSpec.fixed(g), K=1, workers=2)
        assert pools == []
        assert res.diagnostics["workers"] == 1

    @pytest.mark.parametrize(
        "shard_bits, models_per_worker, workers, size",
        [(3, 16, 2, 2), (3, 64, 8, 4), (1, 16, 8, 2), (3, 512, 2, 1)],
        ids=["by-workers", "by-work", "by-shards", "below-one-worker"],
    )
    def test_pool_sized_to_the_work(
        self, p8_data, pools, set_shard_bits, set_models_per_worker,
        shard_bits, models_per_worker, workers, size,
    ):
        # p = 8: 256 models, so the work allows 256 // models_per_worker
        # processes, at least 1
        set_shard_bits(shard_bits)
        set_models_per_worker(models_per_worker)
        g = float(p8_data.N)
        prior = GPriorSpec.fixed(g)
        res = enumerate_exact(p8_data, g, prior, K=10, workers=workers)
        assert res.diagnostics["workers"] == size
        assert pools == ([size] if size > 1 else [])
        ref = enumerate_exact(p8_data, g, prior, K=10, workers=1)
        assert res.log_total_bf == ref.log_total_bf
        np.testing.assert_array_equal(res.inclusion, ref.inclusion)
        assert_same_models(res.top_models, ref.top_models)

    @pytest.mark.parametrize("b", [0, 1, 2, 3, 7, exact_mod.LOW_BITS])
    @pytest.mark.parametrize("excluded", [False, True], ids=["full", "with-excluded"])
    def test_absorb_matches_explicit_column_sum(self, excluded, b):
        # the factorised block sums add in another order than one column
        # sum over the block's membership matrix, so they agree within a
        # tolerance fixed in advance; odd b splits the block unevenly
        p = b + 5
        rng = np.random.default_rng(13)
        lbf = rng.normal(0.0, 30.0, 1 << b)
        if excluded:
            out = rng.random(lbf.size) < 0.3
            out[np.argmax(lbf)] = False
            lbf[out] = -np.inf
        outer = 0b10110 << b
        shard = exact_mod.Shard(index=0, K=1, sums=np.zeros(3 * p + 3))
        shard.absorb(outer, lbf, exact_mod.LowBlock(np.ones(b)), None, None)
        finite = lbf > -np.inf
        w = np.exp(lbf[finite] - lbf.max())
        sums = (membership(np.flatnonzero(finite), b) * w[:, None]).sum(axis=0)
        holds, misses = shard.sums[: 2 * p].reshape(2, p)
        dim, total = shard.sums[2 * p : -2], shard.sums[-2]
        tol = 1e-13 * sums[-1]
        assert abs(total - sums[-1]) <= tol
        np.testing.assert_allclose(holds[:b], sums[:b], rtol=0, atol=tol)
        np.testing.assert_allclose(misses[:b], sums[-1] - sums[:b], rtol=0, atol=tol)
        np.testing.assert_allclose(dim[3 : 3 + b + 1], sums[b:-1], rtol=0, atol=tol)
        # exact: the outer model's variables get the total itself, the
        # total adds the dimension sums, so none of them exceeds it, and
        # an inclusion's denominator adds its numerator to a sum >= 0
        outer_bits = np.array([0, 1, 1, 0, 1])
        np.testing.assert_array_equal(holds[b:], total * outer_bits)
        np.testing.assert_array_equal(misses[b:], total * (1 - outer_bits))
        assert np.all(dim <= total)
        assert np.all(misses >= 0.0) and np.all(holds <= holds + misses)
        assert shard.excluded_count == lbf.size - int(finite.sum())


def column_cholesky_sse(B, gjj):
    """Reference for ``subset_sse``: the same bordered matrix, factored by
    one column Cholesky over a (b+1, b+1, 2^b) stack in which a column
    outside the subset gets an infinite pivot."""
    b = gjj.size
    members = subset_members(b)
    M = np.broadcast_to(B[:, :, None], (b + 1, b + 1, 1 << b)).copy()
    singular = np.zeros(1 << b, dtype=bool)
    for j in range(b):
        d = M[j, j]
        bad = members[j] & (d <= SINGULAR_EPS * gjj[j])
        singular |= bad
        ljj = np.sqrt(np.where(members[j] & ~bad, d, np.inf))
        col = M[j + 1 :, j] / ljj
        # row by row: one b x b x 2^b outer product would nearly double
        # the stack's memory
        for i, c in enumerate(col, start=j + 1):
            M[i, j + 1 :] -= c * col
    return np.maximum(M[b, b], 0.0), singular


class TestBest:
    @pytest.mark.parametrize("K", [1, 17, 40, 41, 100])
    def test_matches_full_sort(self, K):
        # 40 log BFs drawn from 6 values force ties across the K-th place
        rng = np.random.default_rng(11)
        lbf = rng.choice([-3.5, -1.0, 0.0, 0.25, 2.0, 7.0], size=40)
        bits = rng.permutation(40).astype(np.int64) * 3
        top = rank_models(DistinctModels(bits, lbf), K)
        top_lbf, top_bits = top.log_bfs, top.bits
        order = np.lexsort((bits, -lbf))[:K]
        np.testing.assert_array_equal(top_lbf, lbf[order])
        np.testing.assert_array_equal(top_bits, bits[order])
        assert top_lbf.size == min(K, lbf.size)
        for value in np.unique(top_lbf):
            tied = top_bits[top_lbf == value]
            assert np.all(np.diff(tied) > 0)


class TestReduce:
    def test_incomplete_partition_rejected(self, p8_data):
        prior = GPriorSpec.fixed(40.0)
        s0 = enumerate_shard(p8_data, 2, 0, 40.0, prior, K=4)
        s1 = enumerate_shard(p8_data, 2, 1, 40.0, prior, K=4)
        with pytest.raises(UsageError, match="partition"):
            reduce_shards([s0, s1], p8_data)

    def test_single_shard_identity(self, p8_data, set_shard_bits):
        set_shard_bits(0)
        g = float(p8_data.N)
        prior = GPriorSpec.fixed(g)
        shard = enumerate_shard(p8_data, 0, 0, g, prior, K=16)
        res = reduce_shards([shard], p8_data)
        full = enumerate_exact(p8_data, g, prior, K=16)
        assert res.log_total_bf == full.log_total_bf

    def test_only_requested_reductions_reported(self, p8_data):
        # a plain pass was asked for no quantity and no count, so it
        # reports neither rather than a 0 of each
        g = float(p8_data.N)
        prior = GPriorSpec.fixed(g)
        plain = enumerate_exact(p8_data, g, prior, K=1, workers=1)
        assert plain.diagnostics["quantity_value"] is None
        assert plain.diagnostics["rank_count"] is None
        both = enumerate_exact(p8_data, g, prior, K=1, workers=1,
                               quantity=np.bitwise_count, rank_threshold=0.0)
        assert both.diagnostics["quantity_value"] == exact_quantity(
            p8_data, g, prior, np.bitwise_count, workers=1)
        assert both.diagnostics["rank_count"] == count_models_above(
            p8_data, g, prior, 0.0, workers=1)
        assert both.diagnostics["rank_count"] > 0


class TestExactQuantity:
    def test_constant_quantity_is_one(self, p8_data):
        g = float(p8_data.N)
        val = exact_quantity(p8_data, g, GPriorSpec.fixed(g), np.ones_like)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_null_model_indicator(self, p8_data, p8_naive):
        _, log_total, _, _, _ = p8_naive
        g = float(p8_data.N)
        val = exact_quantity(
            p8_data, g, GPriorSpec.fixed(g), indicator_of_model(0)
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
        _, _, _, dim, _ = p8_naive
        g = float(p8_data.N)
        val = exact_quantity(p8_data, g, GPriorSpec.fixed(g), np.bitwise_count)
        ref = sum(k * dk for k, dk in enumerate(dim))
        assert val == pytest.approx(ref, abs=1e-12)

    def test_runs_of_a_wide_block_skip_excluded_models(self):
        # a block of 2^LOW_BITS completions meets the quantity in several
        # runs; a quarter of the models hold a collinear pair and are
        # excluded, so a quantity that is NaN on exactly those still sums
        # to 1, and an indicator matches the block sums' inclusion
        p = exact_mod.LOW_BITS
        assert 1 << p > exact_mod.QUANTITY_RUN
        rng = np.random.default_rng(15)
        X = rng.standard_normal((40, p))
        X[:, 9] = X[:, 2]
        data = make_dataset(X[:, 2] - X[:, 5] + rng.standard_normal(40), X,
                            [f"x{j}" for j in range(p)])
        g = float(data.N)
        prior = GPriorSpec.fixed(g)
        res = enumerate_exact(data, g, prior, K=1, workers=1)
        assert res.excluded_count == 1 << (p - 2)
        pair = 1 << 2 | 1 << 9

        def one_unless_excluded(bits):
            return np.where(bits & pair == pair, np.nan, 1.0)

        val = exact_quantity(data, g, prior, one_unless_excluded, workers=1)
        assert val == pytest.approx(1.0, abs=1e-12)
        for l in (2, 5, 9, p - 1):
            val = exact_quantity(data, g, prior, indicator_of_variable(l), workers=1)
            assert val == pytest.approx(res.inclusion[l], abs=1e-12)

    def test_runs_of_a_full_rank_wide_block_keep_their_offsets(self):
        # with no excluded model a run scores its models ungathered, at
        # their offset in the block
        p = exact_mod.LOW_BITS
        rng = np.random.default_rng(16)
        X = rng.standard_normal((40, p))
        data = make_dataset(X[:, 2] - X[:, 13] + rng.standard_normal(40), X,
                            [f"x{j}" for j in range(p)])
        g = float(data.N)
        prior = GPriorSpec.fixed(g)
        res = enumerate_exact(data, g, prior, K=1, workers=1)
        assert res.excluded_count == 0
        for l in (0, 12, 13, p - 1):
            val = exact_quantity(data, g, prior, indicator_of_variable(l), workers=1)
            assert val == pytest.approx(res.inclusion[l], abs=1e-12)
        t = 5 * exact_mod.QUANTITY_RUN + 3
        val = exact_quantity(data, g, prior, indicator_of_model(t), workers=1)
        lbf = log_bf_value(sse_direct(data, t), t.bit_count(), data.sse0, data.N, g)
        assert val == pytest.approx(math.exp(lbf - res.log_total_bf), rel=1e-9)

    def test_worker_count_bit_identical(
        self, p8_data, pools, set_shard_bits, set_models_per_worker
    ):
        # a ufunc and a built-in indicator both pickle and go through the
        # pool, and match the single-worker value
        set_shard_bits(2)
        set_models_per_worker(16)
        g = float(p8_data.N)
        prior = GPriorSpec.fixed(g)
        for q in (np.bitwise_count, indicator_of_variable(3)):
            pools.clear()
            a = exact_quantity(p8_data, g, prior, q, workers=1)
            b = exact_quantity(p8_data, g, prior, q, workers=2)
            assert a == b
            assert pools == [2]

    def test_single_worker_takes_any_callable(
        self, p8_data, p8_naive, pools, set_shard_bits, set_models_per_worker
    ):
        _, _, incl, _, _ = p8_naive
        g = float(p8_data.N)

        def q(bits):
            return ((bits >> 5) & 1) * 1.0

        val = exact_quantity(p8_data, g, GPriorSpec.fixed(g), q, workers=1)
        assert val == pytest.approx(incl[5], abs=1e-12)
        # a local function does not pickle, so it cannot go to the pool
        set_shard_bits(2)
        set_models_per_worker(16)
        with pytest.raises((pickle.PicklingError, AttributeError)):
            exact_quantity(p8_data, g, GPriorSpec.fixed(g), q, workers=2)
        assert pools == [2]


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

    @pytest.mark.parametrize("K", [0, -1])
    def test_top_k_below_one_rejected(self, p8_data, K, monkeypatch):
        # refused before any shard runs
        monkeypatch.setattr(exact_mod, "enumerate_shard", None)
        with pytest.raises(UsageError, match="K"):
            enumerate_exact(p8_data, 40.0, GPriorSpec.fixed(40.0), K=K, workers=1)

    def test_hierarchical_prior_rejected(self, p8_data):
        with pytest.raises(UsageError):
            enumerate_exact(
                p8_data, 40.0, GPriorSpec.zellner_siow(p8_data.N), K=1
            )

    @pytest.mark.parametrize("call", [
        lambda data, g, prior: enumerate_exact(data, g, prior, K=1, workers=1),
        lambda data, g, prior: exact_quantity(
            data, g, prior, indicator_of_variable(0), workers=1),
        lambda data, g, prior: count_models_above(data, g, prior, 0.0, workers=1),
    ], ids=["enumerate_exact", "exact_quantity", "count_models_above"])
    def test_prior_at_another_g_rejected(self, p8_data, call, monkeypatch):
        # the pass scores at g, so a prior that names another g is refused
        # before any shard runs
        monkeypatch.setattr(exact_mod, "enumerate_shard", None)
        with pytest.raises(UsageError, match="prior's g"):
            call(p8_data, 40.0, GPriorSpec.fixed(41.0))

    def test_top_k_mass_monotone(self, p8_data):
        g = float(p8_data.N)
        res = enumerate_exact(p8_data, g, GPriorSpec.fixed(g), K=256)
        masses = [topk_mass_log10(res.top_models, K) for K in (1, 4, 16, 64, 256)]
        assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))
        # the full 256-model mass equals the total on the log10 scale
        assert masses[-1] == pytest.approx(res.log_total_bf / math.log(10.0), abs=1e-10)
