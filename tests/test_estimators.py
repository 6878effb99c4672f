import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from modelspace import (
    ChainTrace,
    DistinctModels,
    GPriorSpec,
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
from modelspace import estimators
from modelspace.estimators import weighted_sums
from modelspace.linmodel import bits_array


def trace_of(bitmasks, p=None, g=1.0, lbfs=None):
    n = len(bitmasks)
    if lbfs is None:
        lbfs = np.zeros(n)
    return ChainTrace(bitmasks, np.full(n, float(g)), np.asarray(lbfs, float))


def wide_trace(width):
    """5,006 random bitmasks of ``width`` bits, with the empty and the full
    model among them; int64 below 63 bits, Python ints above."""
    rng = np.random.default_rng(width)
    masks = [int.from_bytes(rng.bytes(9), "little") & ((1 << width) - 1)
             for _ in range(5000)]
    masks += [0, (1 << width) - 1] * 3
    trace = trace_of(masks)
    assert trace.bits.dtype == (np.int64 if width < 63 else object)
    return trace


def models_of(bits, lbfs):
    return DistinctModels(bits_array(bits), np.asarray(lbfs, dtype=np.float64))


class TestHansenHurwitz:
    def test_constant_values_have_zero_se(self):
        trace = trace_of([0b11] * 10)
        value, se = hh_estimate(trace, indicator_of_variable(0))
        assert value == 1.0
        assert se <= 1e-15

    def test_two_draws_half_and_half(self):
        trace = trace_of([0b0, 0b1])
        value, se = hh_estimate(trace, indicator_of_variable(0))
        assert value == 0.5
        # q(1-q)/(n-1) with q = 1/2, n = 2
        assert se == pytest.approx(0.5)

    def test_single_draw_has_no_se(self):
        assert hh_estimate(trace_of([0b1]), indicator_of_variable(0)) == (1.0, None)

    def test_indicator_se_closed_form(self):
        # for a 0/1 quantity the general variance formula collapses
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=100)
        trace = trace_of(bits)
        value, se = hh_estimate(trace, indicator_of_variable(0))
        q = bits.mean()
        assert value == pytest.approx(q)
        assert se == pytest.approx(math.sqrt(q * (1 - q) / 99))

    def test_general_quantity_matches_formula(self):
        trace = trace_of([0b0, 0b1, 0b11, 0b111, 0b1])
        value, se = hh_estimate(trace, indicator_of_dimension(1))
        vals = np.array([0.0, 1.0, 0.0, 0.0, 1.0])
        n = 5
        assert value == pytest.approx(vals.mean())
        assert se == pytest.approx(
            math.sqrt(((vals - vals.mean()) ** 2).sum() / (n * (n - 1)))
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(UsageError):
            hh_estimate(trace_of([]), indicator_of_variable(0))
        with pytest.raises(UsageError):
            hh_inclusion(trace_of([]), 4)
        with pytest.raises(UsageError):
            hh_dimension(trace_of([]), 4)

    def test_inclusion_matches_per_variable_estimates(self):
        rng = np.random.default_rng(3)
        trace = trace_of(rng.integers(0, 16, size=200))
        incl = hh_inclusion(trace, 4)
        se = frequency_se(incl, trace.n)
        for l in range(4):
            value, ref_se = hh_estimate(trace, indicator_of_variable(l))
            assert incl[l] == value
            assert se[l] == pytest.approx(ref_se)

    def test_dimension_partition_sums_to_one(self):
        rng = np.random.default_rng(4)
        trace = trace_of(rng.integers(0, 32, size=333))
        dim = hh_dimension(trace, 5)
        assert len(dim) == 6
        assert sum(dim) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("width", [20, 70], ids=["int64", "object"])
    def test_dimension_equals_membership_sum(self, width):
        # the popcount counts are exact integers, as are the all-ones
        # weighted column sums, so both routes agree bit for bit
        trace = wide_trace(width)
        sums = weighted_sums(trace.bits, width, np.ones(trace.n))
        dim = hh_dimension(trace, width)
        assert dim.tolist() == (sums[width:-1] / trace.n).tolist()

    @pytest.mark.parametrize("width", [20, 70], ids=["int64", "object"])
    def test_inclusion_equals_membership_sum(self, width, monkeypatch):
        # the bit counts are exact integers, as are the all-ones weighted
        # column sums, so both routes agree bit for bit; a small block
        # makes the counts add over several blocks
        monkeypatch.setattr(estimators, "BLOCK", 1000)
        trace = wide_trace(width)
        sums = weighted_sums(trace.bits, width, np.ones(trace.n))
        incl = hh_inclusion(trace, width)
        assert incl.tolist() == (sums[:width] / trace.n).tolist()

    def test_model_indicator(self):
        trace = trace_of([0b101, 0b001, 0b101, 0b111])
        value, _ = hh_estimate(trace, indicator_of_model(0b101))
        assert value == 0.5

    def test_quantity_is_a_function_of_bitmasks(self):
        # any callable from a bitmask array to a float array is a quantity
        trace = trace_of([0b0, 0b1, 0b11, 0b111])
        assert hh_estimate(trace, np.bitwise_count)[0] == 1.5
        assert indicator_of_variable(1)(trace.bits).tolist() == [0, 0, 1, 1]


class TestRenormalized:
    def test_single_model_gets_weight_one(self):
        models = models_of([0b10], [3.7])
        assert renormalized_estimate(models, indicator_of_variable(1)) == 1.0

    def test_shared_variable_is_exactly_one(self):
        # Bayes factors 1..16, every model holding variable 0: normalized
        # weights summed to 1 + 7e-16 here
        models = models_of(
            [1 | (i << 1) for i in range(16)], [math.log(i + 1.0) for i in range(16)]
        )
        assert renormalized_estimate(models, indicator_of_variable(0)) == 1.0

    def test_equal_log_bfs_average(self):
        models = models_of([0b01, 0b10], [2.0, 2.0])
        est = renormalized_estimate(models, indicator_of_variable(0))
        assert est == pytest.approx(0.5)

    def test_weights_from_log_bfs(self):
        models = models_of([0b01, 0b10], [math.log(3.0), math.log(1.0)])
        est = renormalized_estimate(models, indicator_of_variable(0))
        assert est == pytest.approx(0.75)

    def test_full_visited_space_is_exact(self, p8_data, p8_naive):
        # when every model was visited the renormalized estimator recovers
        # the exact posterior quantities
        lbfs, log_total, exact_incl, exact_dim, _ = p8_naive
        bits = np.flatnonzero(np.isfinite(lbfs))
        models = models_of(bits, lbfs[bits])
        for l in range(p8_data.p):
            est = renormalized_estimate(models, indicator_of_variable(l))
            assert est == pytest.approx(exact_incl[l], abs=1e-10)
        incl = renormalized_inclusion(models, p8_data.p)
        assert incl == pytest.approx(exact_incl, abs=1e-10)
        for k in range(p8_data.p + 1):
            est = renormalized_estimate(models, indicator_of_dimension(k))
            assert est == pytest.approx(exact_dim[k], abs=1e-10)

    def test_empty_set_rejected(self):
        with pytest.raises(UsageError):
            renormalized_estimate(models_of([], []), indicator_of_variable(0))


class TestDedupe:
    def test_keeps_first_visit(self):
        trace = trace_of([0b1, 0b10, 0b1], lbfs=[1.0, 2.0, 9.0])
        out = dedupe_models(trace)
        assert len(out) == 2
        assert out.bits.tolist() == [0b1, 0b10]
        assert out.log_bfs.tolist() == [1.0, 2.0]

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
        models = models_of([1, 2, 3], [0.5, 3.0, 1.0])
        assert find_hpm(models) == 2

    def test_hpm_tie_lowest_bitmask(self):
        models = models_of([6, 3, 5], [7.0] * 3)
        assert find_hpm(models) == 3

    def test_mpm_strict_threshold(self):
        incl = [0.51, 0.5, 0.49]
        assert find_mpm(incl) == 0b001  # exactly 0.5 is excluded
        assert find_mpm(np.array(incl)) == 0b001

    def test_rank_models_order_and_ties(self):
        models = models_of([5, 2, 3], [1.0, 4.0, 1.0])
        ranked = rank_models(models)
        assert ranked.bits.tolist() == [2, 3, 5]
        assert ranked.log_bfs.tolist() == [4.0, 1.0, 1.0]
        assert rank_models(models, 2).bits.tolist() == [2, 3]


class TestTopKMass:
    def test_single_model(self):
        models = models_of([1], [5.0 * math.log(10.0)])
        assert topk_mass_log10(models, 1) == pytest.approx(5.0)

    def test_two_equal_models(self):
        lbf = 5.0 * math.log(10.0)
        models = models_of([1, 2], [lbf, lbf])
        assert topk_mass_log10(models, 2) == pytest.approx(5.0 + math.log10(2.0))

    def test_k_larger_than_set(self):
        models = models_of([1], [0.0])
        assert topk_mass_log10(models, 1000) == pytest.approx(0.0)

    def test_monotone_in_k(self, p8_naive):
        lbfs, _, _, _, _ = p8_naive
        bits = np.flatnonzero(np.isfinite(lbfs))
        models = models_of(bits, lbfs[bits])
        masses = [topk_mass_log10(models, K) for K in (1, 2, 5, 20, 100, 256)]
        assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))

    def test_bad_k(self):
        with pytest.raises(UsageError):
            topk_mass_log10(models_of([1], [0.0]), 0)


class TestLogSumExp:
    # scipy is the oracle; its formula changed in 1.15, so an older scipy
    # may differ in the last bits, and the bound is a few ulp
    ULP = 4

    def close(self, x):
        x = np.asarray(x, dtype=np.float64)
        ours, ref = estimators.logsumexp(x), float(scipy_logsumexp(x))
        assert abs(ours - ref) <= self.ULP * np.spacing(abs(ref)), (ours, ref)

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(12)
        for n in (2, 7, 100, 1000, 4096):
            x = np.sort(rng.normal(0.0, 30.0, n))[::-1]
            self.close(x)
            x = np.round(x)  # ties at and below the max
            x[: min(3, n)] = x[0]
            self.close(x)
            x[-(n // 2):] = -np.inf
            self.close(x)

    def test_single_element(self):
        for v in (0.0, -3.5, 1e4):
            assert estimators.logsumexp(np.array([v])) == v

    def test_no_mass(self):
        assert estimators.logsumexp(np.array([])) == -math.inf
        assert estimators.logsumexp(np.array([-np.inf, -np.inf])) == -math.inf

    def test_cli_import_loads_no_scipy(self):
        # scipy is a test dependency only
        src = os.path.dirname(os.path.dirname(estimators.__file__))
        code = ("import sys, modelspace.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH", "")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


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
        assert summary.hpm == hpm_bits
        assert summary.hpm_log_bf == pytest.approx(float(lbfs[hpm_bits]))
        assert len(summary.top_models) == 10
        assert len(summary.inclusion) == p8_data.p
        assert len(summary.inclusion_renormalized) == p8_data.p
        assert len(summary.dimension) == p8_data.p + 1
        expected_mass = float(
            scipy_logsumexp(sorted(lbfs[bitmasks])[-10:])
        ) / math.log(10.0)
        assert summary.mass_log10 == pytest.approx(expected_mass, abs=1e-10)

    def test_real_chain_summary(self, p10_data):
        from modelspace import SamplerConfig, run_chain

        prior = GPriorSpec.fixed(float(p10_data.N))
        trace = run_chain(p10_data, SamplerConfig(iterations=500, prior=prior, seed=2))
        summary = summarize_trace(trace, p10_data, top_k=50)
        assert summary.mpm.bit_count() <= p10_data.p
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
        lbfs = distinct.log_bfs.tolist()
        top = max(lbfs)
        w = [math.exp(lbf - top) for lbf in lbfs]
        a = [float(holds(b)) for b in distinct.bits.tolist()]
        return sum(wi * ai for wi, ai in zip(w, a)) / sum(w)

    def test_frequencies_match_per_model_reference(self, wide_trace):
        masks, n = wide_trace.bits.tolist(), wide_trace.n
        incl = hh_inclusion(wide_trace, self.P)
        for l in range(self.P):
            assert incl[l] == sum(b >> l & 1 for b in masks) / n
        dim = hh_dimension(wide_trace, self.P)
        for k in range(self.P + 1):
            assert dim[k] == sum(b.bit_count() == k for b in masks) / n
        value, se = hh_estimate(wide_trace, indicator_of_variable(69))
        assert value == sum(b >> 69 & 1 for b in masks) / n
        assert se == pytest.approx(frequency_se(incl, n)[69], rel=1e-12)

    def test_renormalized_matches_per_model_reference(self, wide_trace):
        distinct = dedupe_models(wide_trace)
        for l in (0, 62, 63, 64, 69):
            est = renormalized_estimate(distinct, indicator_of_variable(l))
            ref = self.renormalized_reference(distinct, lambda b: b >> l & 1)
            assert est == pytest.approx(ref, rel=1e-12)
        target = int(wide_trace.bits[301])
        est = renormalized_estimate(distinct, indicator_of_model(target))
        ref = self.renormalized_reference(distinct, lambda b: b == target)
        assert 0.0 < est == pytest.approx(ref, rel=1e-12)

    def test_summary_matches_per_model_reference(self, wide_trace):
        from conftest import synth_dataset

        data = synth_dataset(N=80, p=self.P, seed=70)
        summary = summarize_trace(wide_trace, data, top_k=20)
        masks, n = wide_trace.bits.tolist(), wide_trace.n
        distinct = dedupe_models(wide_trace)
        for l in range(self.P):
            assert summary.inclusion[l] == sum(b >> l & 1 for b in masks) / n
            ref = self.renormalized_reference(distinct, lambda b: b >> l & 1)
            assert summary.inclusion_renormalized[l] == pytest.approx(ref, rel=1e-12)
        for k in range(self.P + 1):
            assert summary.dimension[k] == sum(b.bit_count() == k for b in masks) / n
