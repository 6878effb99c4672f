"""Acceptance gate: one criterion per test, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete (several criteria take minutes on one CPU).
"""

import json
import math
import time

import numpy as np
import pytest

from modelspace import (
    GPriorSpec,
    SamplerConfig,
    enumerate_exact,
    find_mpm,
    fit_model,
    frequency_se,
    hh_inclusion,
    log_bf_value,
    log_prior_g_density,
    mh_step_g,
    run_chain,
    sse_direct,
    summarize_trace,
)
from modelspace.cli import compare_runs, summary_to_json
from conftest import naive_enumeration, synth_dataset


def report(cid, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {cid}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


@pytest.fixture(scope="module")
def acc_data():
    # N=50, p=10, three active covariates, all inclusion probabilities
    # interior so Monte-Carlo checks are informative
    return synth_dataset(
        N=50, p=10, active=(1, 4, 7), betas=(0.35, -0.4, 0.3), seed=11
    )


@pytest.fixture(scope="module")
def acc_naive(acc_data):
    return naive_enumeration(acc_data, float(acc_data.N))


def test_criterion_1_oracle_equivalence(acc_data, acc_naive):
    lbfs, log_total, incl, _, hpm_bits = acc_naive
    g = float(acc_data.N)
    t0 = time.perf_counter()
    res = enumerate_exact(acc_data, g, GPriorSpec.fixed(g), K=20, workers=1)
    elapsed = time.perf_counter() - t0
    dz = abs(res.log_total_bf - log_total)
    di = float(np.abs(res.inclusion - incl).max())
    ok = (
        dz < 1e-9
        and di < 1e-10
        and res.hpm == hpm_bits
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"exact vs naive enumeration (p=10): |dlogZ|={dz:.2e} (<1e-9), "
        f"max |dq|={di:.2e} (<1e-10), HPM match={res.hpm == hpm_bits}, "
        f"runtime={elapsed:.1f}s (<10s)",
    )


def test_criterion_2_sampler_correctness(acc_data, acc_naive):
    _, _, incl, _, _ = acc_naive
    g = float(acc_data.N)
    prior = GPriorSpec.fixed(g)
    mpm_bits = sum(1 << l for l, q in enumerate(incl) if q > 0.5)
    seeds = np.random.SeedSequence(7).generate_state(10, dtype=np.uint64)
    worst_dev = 0.0
    hits = 0
    worst_time = 0.0
    for s in seeds:
        t0 = time.perf_counter()
        trace = run_chain(
            acc_data, SamplerConfig(iterations=50_000, prior=prior, seed=int(s))
        )
        worst_time = max(worst_time, time.perf_counter() - t0)
        est = hh_inclusion(trace, acc_data.p)
        se = frequency_se(est, trace.n)
        worst_dev = max(worst_dev, max(abs(est - incl) / se))
        hits += find_mpm(est) == mpm_bits
    ok = worst_dev <= 3.0 and hits >= 9 and worst_time < 60.0
    report(
        2,
        ok,
        f"10 chains of 50,000 sweeps: worst |qhat-q|/SE={worst_dev:.2f} (<=3), "
        f"MPM hits={hits}/10 (>=9), slowest chain={worst_time:.0f}s (<60s)",
    )


@pytest.fixture(scope="module")
def resampling(p8_data, p8_naive):
    # 10,000 i.i.d. samples of size 200 drawn directly from the exact
    # p=8 posterior, shared by criteria 3 and 4
    lbfs, log_total, incl, _, _ = p8_naive
    probs = np.exp(lbfs - log_total)
    probs = np.where(np.isfinite(lbfs), probs, 0.0)
    probs /= probs.sum()
    rng = np.random.default_rng(314159)
    R, n = 10_000, 200
    idx = rng.choice(probs.size, size=(R, n), p=probs)
    indicators = (idx[..., None] >> np.arange(p8_data.p)) & 1
    qhat = indicators.mean(axis=1)  # R x p
    return incl, qhat, n


def test_criterion_3_variance_calibration(resampling):
    incl, qhat, n = resampling
    vhat = qhat * (1.0 - qhat) / (n - 1)
    analytic = incl * (1.0 - incl) / n
    rel = float((np.abs(vhat.mean(axis=0) - analytic) / analytic).max())
    bound_ok = bool((vhat <= 1.0 / (4.0 * (n - 1)) + 1e-15).all())
    ok = rel < 0.05 and bound_ok
    report(
        3,
        ok,
        f"variance calibration over 10,000 resamples of size {n}: "
        f"max rel err of mean Vhat={rel:.4f} (<0.05), "
        f"Vhat<=1/(4(n-1)) always={bound_ok}",
    )


def test_criterion_4_unbiasedness(resampling):
    incl, qhat, _ = resampling
    bias = np.abs(qhat.mean(axis=0) - incl)
    bound = 4.0 * qhat.std(axis=0, ddof=1) / 100.0
    ok = bool((bias <= bound).all())
    report(
        4,
        ok,
        f"empirical estimator bias: max |mean(qhat)-q|={bias.max():.2e}, "
        f"all within 4*SD/100",
    )


def test_criterion_5_closed_form(acc_data):
    N = acc_data.N
    rng = np.random.default_rng(271828)
    worst = 0.0
    for _ in range(10_000):
        bits = int(rng.integers(1, 1 << acc_data.p))
        g = float(np.exp(rng.uniform(math.log(0.1), math.log(1e4))))
        state = fit_model(acc_data, bits)
        fast = log_bf_value(state.sse, bits.bit_count(), acc_data.sse0, N, g)
        # independent path: full least-squares refit, two-factor product
        sse = sse_direct(acc_data, bits)
        direct = -0.5 * (N - 1) * math.log(1.0 + g * sse / acc_data.sse0) + 0.5 * (
            N - bits.bit_count() - 1
        ) * math.log(1.0 + g)
        worst = max(worst, abs(fast - direct))
    null_exact = log_bf_value(acc_data.sse0, 0, acc_data.sse0, N, 50.0) == 0.0
    ok = worst < 1e-10 and null_exact
    report(
        5,
        ok,
        f"closed form vs direct refit over 10,000 (model, g) pairs: "
        f"max |dlogB|={worst:.2e} (<1e-10), B_00=1 exactly={null_exact}",
    )


def test_criterion_6_mh_g_density():
    data = synth_dataset(N=15, p=3, active=(0,), betas=(1.0,), seed=5)
    prior = GPriorSpec.zellner_siow(data.N)
    state = fit_model(data, 0b001)
    rng = np.random.default_rng(424242)
    draws = np.empty(100_000)
    g = float(data.N)
    for i in range(draws.size):
        g, _ = mh_step_g(state, g, prior, rng)
        draws[i] = g
    # quadrature-normalized conditional density on a log-g grid
    t = np.linspace(-8.0, 30.0, 40_001)
    gg = np.exp(t)
    ld = np.array(
        [
            log_bf_value(state.sse, state.k, data.sse0, data.N, gi)
            + log_prior_g_density(gi, prior)
            for gi in gg
        ]
    )
    dens = np.exp(ld - ld.max()) * gg
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(t))])
    cdf /= cdf[-1]
    F = np.interp(np.log(np.sort(draws)), t, cdf)
    n = draws.size
    ks = float(
        max(
            np.abs(F - np.arange(1, n + 1) / n).max(),
            np.abs(F - np.arange(n) / n).max(),
        )
    )
    ok = ks < 0.02
    report(6, ok, f"MH g-draws vs quadrature density: KS={ks:.4f} (<0.02) at 1e5 draws")


def test_criterion_7_determinism(acc_data):
    g = float(acc_data.N)
    prior = GPriorSpec.fixed(g)
    cfg = SamplerConfig(iterations=2000, prior=prior, seed=99)
    summaries = []
    for _ in range(2):
        trace = run_chain(acc_data, cfg)
        summary = summarize_trace(trace, acc_data, top_k=100)
        summaries.append(
            json.dumps(summary_to_json(summary, acc_data, 100), sort_keys=True)
        )
    same_bytes = summaries[0] == summaries[1]

    a = enumerate_exact(acc_data, g, prior, K=100, workers=1)
    b = enumerate_exact(acc_data, g, prior, K=100, workers=8)
    dz = abs(a.log_total_bf - b.log_total_bf)
    di = float(np.abs(a.inclusion - b.inclusion).max())
    same_top = (
        a.top_models.bits.tolist() == b.top_models.bits.tolist()
        and a.top_models.log_bfs.tolist() == b.top_models.log_bfs.tolist()
    )
    ok = same_bytes and dz < 1e-12 and di < 1e-12 and same_top
    report(
        7,
        ok,
        f"same seed byte-identical summary={same_bytes}; workers 1 vs 8: "
        f"|dlogZ|={dz:.1e} (<1e-12), max |dq|={di:.1e} (<1e-12), "
        f"identical top models={same_top}",
    )


def test_criterion_8_standin_stability():
    # CI-level stand-in for the full atmospheric-data job: a p=20 problem
    # through the same multi-run pipeline; the full dataset-conditional
    # reproduction lives in test_ozone.py as an opt-in marker
    data = synth_dataset(
        N=100, p=20, active=(2, 7, 13, 18), betas=(0.5, -0.45, 0.4, 0.35), seed=65
    )
    prior = GPriorSpec.fixed(float(data.N))
    body = compare_runs(
        data, prior, runs=10, iterations=10_000, base_seed=31, top_k=1000, workers=1
    )
    sd = body["topk_mass_log10"]["sd"]
    ok = sd < 0.05
    report(
        8,
        ok,
        f"p=20 stand-in, 10 Gibbs runs of 10,000 sweeps: SD of top-1000 "
        f"mass={sd:.4f} log10 (<0.05); full-data targets are opt-in "
        f"(pytest -m ozone with the dataset present)",
    )
