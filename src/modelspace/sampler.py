"""Gibbs sampler over the model space, with a Metropolis-Hastings step for g
under the hierarchical Zellner-Siow prior.

One "iteration" is a full systematic sweep over the p components in index
order, recording one model per sweep. Under the uniform model prior and a
g-prior density that does not depend on gamma, every prior term cancels in
the component full conditionals and in the g-step acceptance ratio, leaving
pure Bayes-factor ratios evaluated in log space.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bayesfactor import (
    NEG_INF,
    GPriorSpec,
    log_bf_value,
    sample_prior_g,
)
from .errors import UsageError
from .linmodel import Dataset, FitState, ModelIndex, sse_direct

SSE_SPOT_CHECK_EVERY = 1000


@dataclass(frozen=True)
class SamplerConfig:
    iterations: int
    prior: GPriorSpec
    burn: int = 0
    thin: int = 1
    seed: int = 0
    start: str = "null_model"  # "null_model" | "full_model" | "random"

    def __post_init__(self):
        if self.iterations < 1:
            raise UsageError("iterations must be >= 1")
        if self.burn < 0:
            raise UsageError("burn must be >= 0")
        if self.thin < 1:
            raise UsageError("thin must be >= 1")
        if self.start not in ("null_model", "full_model", "random"):
            raise UsageError(f"unknown start {self.start!r}")


@dataclass
class ChainTrace:
    """Ordered record of one sampler run: visited models, g draws, and the
    cached log Bayes factors, all aligned."""

    models: list[ModelIndex]
    g_draws: np.ndarray
    log_bfs: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.models)


def _sigmoid(lnr: float) -> float:
    """1 / (1 + exp(-lnr)), stable for any lnr including +-inf."""
    if lnr == NEG_INF:
        return 0.0
    if lnr >= 0:
        return 1.0 / (1.0 + math.exp(-lnr))
    e = math.exp(lnr)
    return e / (1.0 + e)


def gibbs_component_prob(
    state: FitState, i: int, g: float, prior: GPriorSpec
) -> float:
    """Full-conditional inclusion probability p_i for component i.

    The g-prior density and (uniform) model prior are identical across the
    two branch models, so p_i reduces to r/(1+r) with
    ln r = ln B(gamma with bit i set) - ln B(gamma with bit i cleared).
    Non-mutating: works on a clone of the state.
    """
    data = state.data
    work = state.clone()
    if work.model.contains(i):
        lbf_a = log_bf_value(work.sse, work.k, data.sse0, data.N, g)
        work.delete(i)
        lbf_b = log_bf_value(work.sse, work.k, data.sse0, data.N, g)
    else:
        lbf_b = log_bf_value(work.sse, work.k, data.sse0, data.N, g)
        if not work.add(i) or work.k > data.N - 2:
            return 0.0
        lbf_a = log_bf_value(work.sse, work.k, data.sse0, data.N, g)
    return _sigmoid(lbf_a - lbf_b)


def gibbs_sweep(
    state: FitState,
    g: float,
    prior: GPriorSpec,
    rng: np.random.Generator,
) -> FitState:
    """One systematic scan over components 1..p, in place."""
    data = state.data
    sse0 = data.sse0
    N = data.N
    kmax = N - 2
    for i in range(data.p):
        if (state.bits >> i) & 1:
            lbf_a = log_bf_value(state.sse, state.k, sse0, N, g)
            state.delete(i)
            lbf_b = log_bf_value(state.sse, state.k, sse0, N, g)
            pi = _sigmoid(lbf_a - lbf_b)
            if rng.random() < pi:
                added = state.add(i)
                assert added, "re-adding a just-deleted column cannot be singular"
        else:
            lbf_b = log_bf_value(state.sse, state.k, sse0, N, g)
            if state.k + 1 > kmax or not state.add(i):
                continue  # singular or saturated target: p_i = 0
            lbf_a = log_bf_value(state.sse, state.k, sse0, N, g)
            pi = _sigmoid(lbf_a - lbf_b)
            if rng.random() >= pi:
                state.delete(i)
    return state


def mh_step_g(
    state: FitState,
    g: float,
    prior: GPriorSpec,
    rng: np.random.Generator,
) -> tuple[float, bool]:
    """Metropolis-Hastings update of g with the prior as the proposal.

    The proposal density cancels the prior density, so the acceptance ratio
    is the pure Bayes-factor ratio B(g*)/B(g), evaluated in log space.
    Returns (new or retained g, accepted flag).
    """
    if not prior.hierarchical:
        raise UsageError("the g-step applies only to hierarchical priors")
    data = state.data
    g_star = sample_prior_g(prior, rng)
    log_ratio = log_bf_value(state.sse, state.k, data.sse0, data.N, g_star) - \
        log_bf_value(state.sse, state.k, data.sse0, data.N, g)
    if log_ratio >= 0 or rng.random() < math.exp(log_ratio):
        return g_star, True
    return g, False


def _initial_state(data: Dataset, start: str, rng: np.random.Generator) -> FitState:
    state = FitState(data)
    if start == "null_model":
        return state
    kmax = data.N - 2
    if start == "full_model":
        for j in range(data.p):
            if state.k >= kmax:
                break
            state.add(j)
        return state
    # random start: each column independently with probability 1/2, in a
    # shuffled order so truncation at saturation is not index-biased
    order = rng.permutation(data.p)
    for j in order:
        if state.k >= kmax:
            break
        if rng.random() < 0.5:
            state.add(int(j))
    return state


def run_chain(data: Dataset, config: SamplerConfig) -> ChainTrace:
    """Run one Gibbs chain; fully deterministic given config.seed."""
    rng = np.random.default_rng(config.seed)
    prior = config.prior
    state = _initial_state(data, config.start, rng)
    if prior.hierarchical:
        g = sample_prior_g(prior, rng)
    else:
        g = prior.g

    n = config.iterations
    models: list[ModelIndex] = []
    g_draws = np.empty(n)
    log_bfs = np.empty(n)
    accepts = 0
    raw = 0
    spot_max_rel = 0.0
    t0 = time.perf_counter()
    while len(models) < n:
        gibbs_sweep(state, g, prior, rng)
        if prior.hierarchical:
            g, ok = mh_step_g(state, g, prior, rng)
            accepts += ok
        raw += 1
        if raw % SSE_SPOT_CHECK_EVERY == 0:
            ref = sse_direct(data, state.model)
            spot_max_rel = max(
                spot_max_rel, abs(state.sse - ref) / max(ref, data.sse0 * 1e-12)
            )
        if raw > config.burn and (raw - config.burn - 1) % config.thin == 0:
            i = len(models)
            models.append(state.model)
            g_draws[i] = g
            log_bfs[i] = log_bf_value(state.sse, state.k, data.sse0, data.N, g)
    wall = time.perf_counter() - t0
    meta = {
        "iterations": n,
        "burn": config.burn,
        "thin": config.thin,
        "seed": config.seed,
        "start": config.start,
        "prior_kind": prior.kind,
        "g": prior.g,
        "raw_sweeps": raw,
        "wall_seconds": wall,
        "g_accept_rate": accepts / raw if prior.hierarchical else None,
        "sse_spot_check_max_rel": spot_max_rel,
        "rng": "numpy PCG64 (default_rng)",
    }
    return ChainTrace(models=models, g_draws=g_draws, log_bfs=log_bfs, meta=meta)
