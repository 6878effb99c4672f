"""Empirical (Hansen-Hurwitz) and renormalized estimators of posterior
quantities, plus the derived summaries: inclusion probabilities, HPM, MPM,
dimension posterior and top-K mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

import numpy as np
from scipy.special import logsumexp

from .errors import UsageError
from .linmodel import Dataset, ModelIndex
from .sampler import ChainTrace

LOG10 = math.log(10.0)

# Most models in one membership matrix.
BLOCK = 4096


@dataclass(frozen=True)
class QuantityOfInterest:
    """A posterior expectation target: tau(a) = sum_gamma a(M) Pr(M | y).

    The evaluator maps an array of bitmasks (``bits_array``) to a float
    array of a(M). Exact enumeration with workers > 1 pickles it, so it must
    be a module-level function, a ufunc, or a ``functools.partial`` of one,
    as ``indicator_of_*`` build; a lambda then fails in the pool
    (``pickle.PicklingError``, or ``AttributeError`` when local). With
    workers=1 any callable works.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    label: str


# Module-level evaluators, bound with functools.partial so that the
# indicator quantities pickle and can be sent to worker processes.
def _includes(l: int, bits: np.ndarray) -> np.ndarray:
    return ((bits >> l) & 1).astype(np.float64)


def _has_dimension(k: int, bits: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(bits) == k).astype(np.float64)


def _is_model(target: int, bits: np.ndarray) -> np.ndarray:
    return (bits == target).astype(np.float64)


def indicator_of_variable(l: int) -> QuantityOfInterest:
    return QuantityOfInterest(partial(_includes, l), f"include[{l}]")


def indicator_of_dimension(k: int) -> QuantityOfInterest:
    return QuantityOfInterest(partial(_has_dimension, k), f"dimension[{k}]")


def indicator_of_model(target: ModelIndex) -> QuantityOfInterest:
    return QuantityOfInterest(
        partial(_is_model, target.bits), f"model[{target.to_hex()}]"
    )


def bits_array(models: Iterable[ModelIndex]) -> np.ndarray:
    """The models' bitmasks as int64 when all are below 2^63, else as Python
    ints (dtype=object), so that shifts and popcounts stay exact for any p.
    numpy's own inference would give uint64 or float64 for larger masks."""
    bits = [m.bits for m in models]
    dtype = np.int64 if max(bits, default=0) < 1 << 63 else object
    return np.array(bits, dtype=dtype)


def membership(bits: np.ndarray, p: int) -> np.ndarray:
    """(n, 2p + 2) 0/1 matrix of n bitmasks: column l < p marks the models
    that hold variable l, column p + k those of dimension k, and the last
    column, all ones, every model."""
    n = bits.size
    member = np.zeros((n, 2 * p + 2))
    member[:, :p] = (bits[:, None] >> np.arange(p)) & 1
    member[np.arange(n), p + np.bitwise_count(bits).astype(np.intp)] = 1.0
    member[:, -1] = 1.0
    return member


@dataclass(frozen=True)
class EstimateWithSE:
    value: float
    se: float | None
    method: str  # "empirical" | "renormalized"
    n_used: int


@dataclass
class PosteriorSummary:
    """The answers of one chain ("gibbs") or enumeration ("exact"): arrays per
    variable and per dimension. A one-draw chain's SEs are None, exact ones 0."""

    method: str
    n_used: int
    inclusion: np.ndarray
    inclusion_se: np.ndarray | None
    dimension: np.ndarray
    dimension_se: np.ndarray | None
    hpm: ModelIndex
    hpm_log_bf: float
    mpm: ModelIndex
    top_models: list[tuple[ModelIndex, float]]
    mass_log10: float
    inclusion_renormalized: np.ndarray | None = None  # a chain only
    hpm_posterior: float | None = None  # an enumeration only
    log10_total_bf: float | None = None
    excluded_count: int | None = None


def hh_estimate(trace: ChainTrace, q: QuantityOfInterest) -> EstimateWithSE:
    """Hansen-Hurwitz estimate of tau(a) over a trace, with the unbiased
    variance estimate (1/(n(n-1))) sum (a_j - mean)^2."""
    n = trace.n
    if n == 0:
        raise UsageError("empty trace")
    values = q.evaluator(bits_array(trace.models))
    mean = float(values.mean())
    if n == 1:
        return EstimateWithSE(mean, None, "empirical", 1)
    var = float(np.sum((values - mean) ** 2)) / (n * (n - 1))
    return EstimateWithSE(mean, math.sqrt(var), "empirical", n)


def frequency_se(freq: np.ndarray, n: int) -> np.ndarray | None:
    """SEs of the frequencies of 0/1 quantities over n draws, None for one
    draw. For an indicator hh_estimate's variance collapses to q(1-q)/(n-1)."""
    if n == 1:
        return None
    return np.sqrt(freq * (1.0 - freq) / (n - 1))


def _frequencies(trace: ChainTrace, p: int, columns: slice) -> np.ndarray:
    """Frequencies of some columns of the trace's membership matrix, built
    ``BLOCK`` draws at a time so that its size stays bounded."""
    if trace.n == 0:
        raise UsageError("empty trace")
    bits = bits_array(trace.models)
    counts = np.zeros(2 * p + 2)
    for lo in range(0, bits.size, BLOCK):
        counts += membership(bits[lo : lo + BLOCK], p).sum(axis=0)
    return counts[columns] / trace.n


def hh_inclusion(trace: ChainTrace, p: int) -> np.ndarray:
    """Per-variable inclusion frequencies q_hat_l."""
    return _frequencies(trace, p, slice(0, p))


def hh_dimension(trace: ChainTrace, p: int) -> np.ndarray:
    """Posterior-dimension frequencies d_hat(k) for k = 0..p."""
    return _frequencies(trace, p, slice(p, -1))


def dedupe_models(trace: ChainTrace) -> list[tuple[ModelIndex, float]]:
    """Distinct visited models with one cached log Bayes factor each.

    For hierarchical traces the cached value depends on the draw's g; the
    first visit's value is kept.
    """
    seen: dict[int, tuple[ModelIndex, float]] = {}
    for m, lbf in zip(trace.models, trace.log_bfs):
        if m.bits not in seen:
            seen[m.bits] = (m, float(lbf))
    return list(seen.values())


def renormalized_estimate(
    models: list[tuple[ModelIndex, float]], q: QuantityOfInterest
) -> EstimateWithSE:
    """Estimate of tau(a) weighting each distinct model by its Bayes factor
    renormalized within the visited set. No variance estimate exists for
    this estimator."""
    if not models:
        raise UsageError("empty model set")
    # uniform model prior: the prior term is a constant shift
    logw = np.array([lbf for _, lbf in models])
    top = logw.max()
    if not np.isfinite(top):
        raise UsageError("all models in the set are excluded (log BF = -inf)")
    w = np.exp(logw - top)
    a = q.evaluator(bits_array(m for m, _ in models))
    # both sums run over arrays of one length, so their additions match
    # term by term: an indicator's estimate cannot round above 1
    value = float(np.sum(w * a) / np.sum(w))
    return EstimateWithSE(value, None, "renormalized", len(models))


def find_hpm(models: list[tuple[ModelIndex, float]]) -> ModelIndex:
    """Model with the largest unnormalized log posterior; ties broken by
    ascending bitmask."""
    if not models:
        raise UsageError("empty model set")
    best = min(models, key=lambda t: (-t[1], t[0].bits))
    return best[0]


def find_mpm(inclusion: np.ndarray) -> ModelIndex:
    """Median probability model: variables with inclusion strictly > 0.5."""
    above = np.flatnonzero(np.asarray(inclusion) > 0.5)
    return ModelIndex.from_bits(sum(1 << int(l) for l in above))


def rank_models(
    models: list[tuple[ModelIndex, float]], K: int | None = None
) -> list[tuple[ModelIndex, float]]:
    """Distinct models sorted by decreasing log BF, ties by ascending bitmask."""
    ranked = sorted(models, key=lambda t: (-t[1], t[0].bits))
    return ranked if K is None else ranked[:K]


def topk_mass_log10(models: list[tuple[ModelIndex, float]], K: int) -> float:
    """Decimal log of the summed Bayes factors of the K best distinct models."""
    if not models:
        raise UsageError("empty model set")
    if K < 1:
        raise UsageError("K must be >= 1")
    top = rank_models(models, K)
    return float(logsumexp([lbf for _, lbf in top])) / LOG10


def summarize_trace(
    trace: ChainTrace, data: Dataset, top_k: int = 1000
) -> PosteriorSummary:
    """Full posterior summary of one chain: empirical estimates with SEs,
    renormalized estimates over the deduplicated visited set, HPM/MPM and
    top-K mass. The distinct set is ranked once: the HPM leads it."""
    inclusion = hh_inclusion(trace, data.p)
    dimension = hh_dimension(trace, data.p)
    distinct = dedupe_models(trace)
    top = rank_models(distinct, top_k)
    hpm, hpm_log_bf = top[0]
    renorm = [
        renormalized_estimate(distinct, indicator_of_variable(l)).value
        for l in range(data.p)
    ]
    return PosteriorSummary(
        method="gibbs",
        n_used=trace.n,
        inclusion=inclusion,
        inclusion_se=frequency_se(inclusion, trace.n),
        dimension=dimension,
        dimension_se=frequency_se(dimension, trace.n),
        hpm=hpm,
        hpm_log_bf=hpm_log_bf,
        mpm=find_mpm(inclusion),
        top_models=top,
        mass_log10=topk_mass_log10(top, top_k),
        inclusion_renormalized=np.array(renorm),
    )
