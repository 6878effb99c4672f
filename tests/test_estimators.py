import math

import numpy as np
import pytest
from scipy.special import logsumexp

from modelspace import (
    ChainTrace,
    DistinctModels,
    GPriorSpec,
    ModelIndex,
    UsageError,
    dedupe_models,
    find_hpm,
    find_mpm,
    fit_model,
    frequency_se,
    hh_dimension,
    hh_estimate,
    hh_inclusion,
    indicator_of_dimension,
    indicator_of_model,
    indicator_of_variable,
    rank_models,
    renormalized_estimate,
    renormalized_inclusion,
    summarize_trace,
    topk_mass_log10,
)


def trace_of(bitmasks, p=None, g=1.0, lbfs=None):
    n = len(bitmasks)
    if lbfs is None:
        lbfs = np.zeros(n)
    return ChainTrace(bitmasks, np.full(n, float(g)), np.asarray(lbfs, float))


class TestHansenHurwitz:
    def test_constant_values_have_zero_se(self):
        trace = trace_of([0b11] * 10)
        est = hh_estimate(trace, indicator_of_variable(0))
        assert est.value == 1.0
        assert est.se <= 1e-15
        assert est.n_used == 10

    def test_two_draws_half_and_half(self):
        trace = trace_of([0b0, 0b1])
        est = hh_estimate(trace, indicator_of_variable(0))
        assert est.value == 0.5
        # q(1-q)/(n-1) with q = 1/2, n = 2
        assert est.se == pytest.approx(0.5)

    def test_single_draw_has_no_se(self):
        est = hh_estimate(trace_of([0b1]), indicator_of_variable(0))
        assert est.n_used == 1
        assert est.se is None

    def test_indicator_se_closed_form(self):
        # for a 0/1 quantity the general variance formula collapses
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=100)
        trace = trace_of(bits)
        est = hh_estimate(trace, indicator_of_variable(0))
        q = bits.mean()
        assert est.value == pytest.approx(q)
        assert est.se == pytest.approx(math.sqrt(q * (1 - q) / 99))

    def test_general_quantity_matches_formula(self):
        trace = trace_of([0b0, 0b1, 0b11, 0b111, 0b1])
        est = hh_estimate(
            trace, indicator_of_dimension(1)
        )
        vals = np.array([0.0, 1.0, 0.0, 0.0, 1.0])
        n = 5
        assert est.value == pytest.approx(vals.mean())
        assert est.se == pytest.approx(
            math.sqrt(((vals - vals.mean()) ** 2).sum() / (n * (n - 1)))
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(UsageError):
            hh_estimate(trace_of([]), indicator_of_variable(0))
        with pytest.raises(UsageError):
            hh_inclusion(trace_of([]), 4)

    def test_inclusion_matches_per_variable_estimates(self):
        rng = np.random.default_rng(3)
        trace = trace_of(rng.integers(0, 16, size=200))
        incl = hh_inclusion(trace, 4)
        se = frequency_se(incl, trace.n)
        for l in range(4):
            ref = hh_estimate(trace, indicator_of_variable(l))
            assert incl[l] == ref.value
            assert se[l] == pytest.approx(ref.se)

    def test_dimension_partition_sums_to_one(self):
        rng = np.random.default_rng(4)
        trace = trace_of(rng.integers(0, 32, size=333))
        dim = hh_dimension(trace, 5)
        assert len(dim) == 6
        assert sum(dim) == pytest.approx(1.0, abs=1e-14)

    def test_model_indicator(self):
        trace = trace_of([0b101, 0b001, 0b101, 0b111])
        est = hh_estimate(trace, indicator_of_model(ModelIndex.from_bits(0b101)))
        assert est.value == 0.5


class TestRenormalized:
    def test_single_model_gets_weight_one(self):
        models = DistinctModels.from_pairs([(ModelIndex.from_bits(0b10), 3.7)])
        est = renormalized_estimate(models, indicator_of_variable(1))
        assert est.value == 1.0
        assert est.se is None
        assert est.method == "renormalized"

    def test_shared_variable_is_exactly_one(self):
        # Bayes factors 1..16, every model holding variable 0: normalized
        # weights summed to 1 + 7e-16 here
        models = DistinctModels.from_pairs(
            (ModelIndex.from_bits(1 | (i << 1)), math.log(i + 1.0)) for i in range(16)
        )
        est = renormalized_estimate(models, indicator_of_variable(0))
        assert est.value == 1.0

    def test_equal_log_bfs_average(self):
        models = DistinctModels.from_pairs(
            [(ModelIndex.from_bits(0b01), 2.0), (ModelIndex.from_bits(0b10), 2.0)]
        )
        est = renormalized_estimate(models, indicator_of_variable(0))
        assert est.value == pytest.approx(0.5)

    def test_weights_from_log_bfs(self):
        models = DistinctModels.from_pairs([
            (ModelIndex.from_bits(0b01), math.log(3.0)),
            (ModelIndex.from_bits(0b10), math.log(1.0)),
        ])
        est = renormalized_estimate(models, indicator_of_variable(0))
        assert est.value == pytest.approx(0.75)

    def test_full_visited_space_is_exact(self, p8_data, p8_naive):
        # when every model was visited the renormalized estimator recovers
        # the exact posterior quantities
        lbfs, log_total, exact_incl, exact_dim, _ = p8_naive
        models = DistinctModels.from_pairs(
            (ModelIndex.from_bits(b), float(lbfs[b]))
            for b in range(1 << p8_data.p)
            if np.isfinite(lbfs[b])
        )
        for l in range(p8_data.p):
            est = renormalized_estimate(models, indicator_of_variable(l))
            assert est.value == pytest.approx(exact_incl[l], abs=1e-10)
        incl = renormalized_inclusion(models, p8_data.p)
        assert incl == pytest.approx(exact_incl, abs=1e-10)
        for k in range(p8_data.p + 1):
            est = renormalized_estimate(models, indicator_of_dimension(k))
            assert est.value == pytest.approx(exact_dim[k], abs=1e-10)

    def test_empty_set_rejected(self):
        with pytest.raises(UsageError):
            renormalized_estimate(DistinctModels.from_pairs([]), indicator_of_variable(0))


class TestDedupe:
    def test_keeps_first_visit(self):
        trace = trace_of([0b1, 0b10, 0b1], lbfs=[1.0, 2.0, 9.0])
        out = dedupe_models(trace)
        assert len(out) == 2
        d = {m.bits: lbf for m, lbf in out}
        assert d[0b1] == 1.0
        assert d[0b10] == 2.0

    @pytest.mark.parametrize("width", [16, 70])
    def test_length_is_distinct_count(self, width):
        rng = np.random.default_rng(width)
        masks = [(b << (width - 6)) | b for b in rng.integers(0, 50, size=400).tolist()]
        trace = trace_of(masks, lbfs=rng.normal(size=len(masks)))
        distinct = dedupe_models(trace)
        assert len(distinct) == len(set(masks)) == distinct.bits.size
        assert distinct.bits.tolist() == sorted(set(masks))
        first = {}
        for b, lbf in zip(masks, trace.log_bfs.tolist()):
            first.setdefault(b, lbf)
        assert distinct.log_bfs.tolist() == [first[b] for b in sorted(first)]


class TestModelSelection:
    def test_hpm_picks_max(self):
        models = DistinctModels.from_pairs(
            (ModelIndex.from_bits(b), lbf) for b, lbf in [(1, 0.5), (2, 3.0), (3, 1.0)]
        )
        assert find_hpm(models).bits == 2

    def test_hpm_tie_lowest_bitmask(self):
        models = DistinctModels.from_pairs((ModelIndex.from_bits(b), 7.0) for b in (6, 3, 5))
        assert find_hpm(models).bits == 3

    def test_mpm_strict_threshold(self):
        incl = [0.51, 0.5, 0.49]
        assert find_mpm(incl).bits == 0b001  # exactly 0.5 is excluded
        assert find_mpm(np.array(incl)).bits == 0b001

    def test_rank_models_order_and_ties(self):
        models = DistinctModels.from_pairs(
            (ModelIndex.from_bits(b), lbf) for b, lbf in [(5, 1.0), (2, 4.0), (3, 1.0)]
        )
        ranked = rank_models(models)
        assert [m.bits for m, _ in ranked] == [2, 3, 5]
        assert [m.bits for m, _ in rank_models(models, 2)] == [2, 3]


class TestTopKMass:
    def test_single_model(self):
        models = DistinctModels.from_pairs([(ModelIndex.from_bits(1), 5.0 * math.log(10.0))])
        assert topk_mass_log10(models, 1) == pytest.approx(5.0)

    def test_two_equal_models(self):
        lbf = 5.0 * math.log(10.0)
        models = DistinctModels.from_pairs(
            [(ModelIndex.from_bits(1), lbf), (ModelIndex.from_bits(2), lbf)]
        )
        assert topk_mass_log10(models, 2) == pytest.approx(5.0 + math.log10(2.0))

    def test_k_larger_than_set(self):
        models = DistinctModels.from_pairs([(ModelIndex.from_bits(1), 0.0)])
        assert topk_mass_log10(models, 1000) == pytest.approx(0.0)

    def test_monotone_in_k(self, p8_naive):
        lbfs, _, _, _, _ = p8_naive
        models = DistinctModels.from_pairs(
            (ModelIndex.from_bits(b), float(lbfs[b]))
            for b in range(lbfs.size)
            if np.isfinite(lbfs[b])
        )
        masses = [topk_mass_log10(models, K) for K in (1, 2, 5, 20, 100, 256)]
        assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))

    def test_bad_k(self):
        with pytest.raises(UsageError):
            topk_mass_log10(DistinctModels.from_pairs([(ModelIndex.from_bits(1), 0.0)]), 0)


class TestSummarizeTrace:
    def test_structure_and_consistency(self, p8_data, p8_naive):
        lbfs, _, _, _, hpm_bits = p8_naive
        g = float(p8_data.N)
        # build a synthetic trace visiting every model once
        bitmasks = [b for b in range(1 << p8_data.p) if np.isfinite(lbfs[b])]
        trace = ChainTrace(
            bitmasks,
            np.full(len(bitmasks), g),
            lbfs[bitmasks],
        )
        summary = summarize_trace(trace, p8_data, top_k=10)
        assert summary.hpm.bits == hpm_bits
        assert summary.hpm_log_bf == pytest.approx(float(lbfs[hpm_bits]))
        assert len(summary.top_models) == 10
        assert len(summary.inclusion) == p8_data.p
        assert len(summary.inclusion_renormalized) == p8_data.p
        assert len(summary.dimension) == p8_data.p + 1
        expected_mass = float(
            logsumexp(sorted(lbfs[bitmasks])[-10:])
        ) / math.log(10.0)
        assert summary.mass_log10 == pytest.approx(expected_mass, abs=1e-10)

    def test_real_chain_summary(self, p10_data):
        from modelspace import SamplerConfig, run_chain

        prior = GPriorSpec.fixed(float(p10_data.N))
        trace = run_chain(p10_data, SamplerConfig(iterations=500, prior=prior, seed=2))
        summary = summarize_trace(trace, p10_data, top_k=50)
        assert summary.mpm.k <= p10_data.p
        for value in summary.inclusion:
            assert 0.0 <= value <= 1.0
        vals = summary.inclusion_renormalized
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)


class TestWideModels:
    """p = 70: bitmasks at and above 2^63 keep every bit in each estimator.

    One trace sets bits up to 69; the other stays below 2^64, where numpy's
    own inference would pick uint64 for the masks.
    """

    P = 70

    @pytest.fixture(params=[70, 64], ids=["bits-to-69", "below-2^64"])
    def wide_trace(self, request):
        width = request.param
        rng = np.random.default_rng(width)
        masks = [
            int.from_bytes(rng.bytes(9), "little") & ((1 << width) - 1)
            for _ in range(300)
        ]
        masks += [(1 << 63) | 5, (1 << 63) | (1 << (width - 1)), (1 << width) - 1, 0]
        masks += masks[:40]  # revisits, so that dedupe has work to do
        assert any((1 << 63) <= b < (1 << 64) for b in masks)
        return trace_of(masks, lbfs=rng.normal(0.0, 3.0, size=len(masks)))

    @staticmethod
    def renormalized_reference(distinct, holds):
        top = max(lbf for _, lbf in distinct)
        w = [math.exp(lbf - top) for _, lbf in distinct]
        a = [float(holds(m)) for m, _ in distinct]
        return sum(wi * ai for wi, ai in zip(w, a)) / sum(w)

    def test_frequencies_match_per_model_reference(self, wide_trace):
        models, n = wide_trace.models, wide_trace.n
        incl = hh_inclusion(wide_trace, self.P)
        for l in range(self.P):
            assert incl[l] == sum(m.contains(l) for m in models) / n
        dim = hh_dimension(wide_trace, self.P)
        for k in range(self.P + 1):
            assert dim[k] == sum(m.k == k for m in models) / n
        est = hh_estimate(wide_trace, indicator_of_variable(69))
        assert est.value == sum(m.contains(69) for m in models) / n
        assert est.se == pytest.approx(frequency_se(incl, n)[69], rel=1e-12)

    def test_renormalized_matches_per_model_reference(self, wide_trace):
        distinct = dedupe_models(wide_trace)
        for l in (0, 62, 63, 64, 69):
            est = renormalized_estimate(distinct, indicator_of_variable(l))
            ref = self.renormalized_reference(distinct, lambda m: m.contains(l))
            assert est.value == pytest.approx(ref, rel=1e-12)
        target = wide_trace.models[301]
        est = renormalized_estimate(distinct, indicator_of_model(target))
        ref = self.renormalized_reference(distinct, lambda m: m.bits == target.bits)
        assert 0.0 < est.value == pytest.approx(ref, rel=1e-12)

    def test_summary_matches_per_model_reference(self, wide_trace):
        from conftest import synth_dataset

        data = synth_dataset(N=80, p=self.P, seed=70)
        summary = summarize_trace(wide_trace, data, top_k=20)
        models, n = wide_trace.models, wide_trace.n
        distinct = dedupe_models(wide_trace)
        for l in range(self.P):
            assert summary.inclusion[l] == sum(m.contains(l) for m in models) / n
            ref = self.renormalized_reference(distinct, lambda m: m.contains(l))
            assert summary.inclusion_renormalized[l] == pytest.approx(ref, rel=1e-12)
        for k in range(self.P + 1):
            assert summary.dimension[k] == sum(m.k == k for m in models) / n
