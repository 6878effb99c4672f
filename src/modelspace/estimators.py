"""Empirical (Hansen-Hurwitz) and renormalized estimators of posterior
quantities, plus the derived summaries: inclusion probabilities, HPM, MPM,
dimension posterior and top-K mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np
from scipy.special import logsumexp

from .errors import UsageError
from .linmodel import Dataset, ModelIndex, bits_array
from .sampler import ChainTrace

if TYPE_CHECKING:
    from .exact import ExactResult

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
    variable and per dimension, and the top models as a ranked
    ``DistinctModels``, best first, from which the HPM and the top-K mass
    are read. A one-draw chain's SEs are None, exact ones 0."""

    method: str
    n_used: int
    inclusion: np.ndarray
    inclusion_se: np.ndarray | None
    dimension: np.ndarray
    dimension_se: np.ndarray | None
    top_models: DistinctModels
    inclusion_renormalized: np.ndarray | None = None  # a chain only
    hpm_posterior: float | None = None  # an enumeration only
    log10_total_bf: float | None = None
    excluded_count: int | None = None

    @property
    def hpm(self) -> ModelIndex:
        return ModelIndex.from_bits(int(self.top_models.bits[0]))

    @property
    def hpm_log_bf(self) -> float:
        return float(self.top_models.log_bfs[0])

    @property
    def mpm(self) -> ModelIndex:
        return find_mpm(self.inclusion)

    @property
    def mass_log10(self) -> float:
        """Decimal log of the summed Bayes factors of the top models."""
        return float(logsumexp(self.top_models.log_bfs)) / LOG10


def hh_estimate(trace: ChainTrace, q: QuantityOfInterest) -> EstimateWithSE:
    """Hansen-Hurwitz estimate of tau(a) over a trace, with the unbiased
    variance estimate (1/(n(n-1))) sum (a_j - mean)^2."""
    n = trace.n
    if n == 0:
        raise UsageError("empty trace")
    values = q.evaluator(trace.bits)
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


def weighted_sums(bits: np.ndarray, p: int, w: np.ndarray) -> np.ndarray:
    """Column sums of ``membership(bits, p)`` weighted by w, built ``BLOCK``
    models at a time so that the matrix stays bounded. Every column adds its
    rows in the same order, as ``Shard.absorb``'s does, so a column never
    exceeds the last, all-ones one: the total."""
    sums = np.zeros(2 * p + 2)
    for lo in range(0, bits.size, BLOCK):
        sums += np.einsum(
            "ij,i->j", membership(bits[lo : lo + BLOCK], p), w[lo : lo + BLOCK]
        )
    return sums


def _frequencies(trace: ChainTrace, p: int, columns: slice) -> np.ndarray:
    """Frequencies of some columns of the trace's membership matrix: each
    draw weighs 1, and the counts are divided by n."""
    if trace.n == 0:
        raise UsageError("empty trace")
    return weighted_sums(trace.bits, p, np.ones(trace.n))[columns] / trace.n


def hh_inclusion(trace: ChainTrace, p: int) -> np.ndarray:
    """Per-variable inclusion frequencies q_hat_l."""
    return _frequencies(trace, p, slice(0, p))


def hh_dimension(trace: ChainTrace, p: int) -> np.ndarray:
    """Posterior-dimension frequencies d_hat(k) for k = 0..p."""
    return _frequencies(trace, p, slice(p, -1))


@dataclass
class DistinctModels:
    """A set of distinct models: bitmasks (``bits_array``'s dtype rule) and
    one log Bayes factor each. Iterating yields (``ModelIndex``, log BF)
    pairs."""

    bits: np.ndarray
    log_bfs: np.ndarray

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[ModelIndex, float]]) -> "DistinctModels":
        pairs = list(pairs)
        return cls(
            bits_array([m.bits for m, _ in pairs]),
            np.array([lbf for _, lbf in pairs], dtype=np.float64),
        )

    def __len__(self) -> int:
        return self.bits.size

    def __iter__(self) -> Iterator[tuple[ModelIndex, float]]:
        for b, lbf in zip(self.bits.tolist(), self.log_bfs.tolist()):
            yield ModelIndex.from_bits(b), lbf


def dedupe_models(trace: ChainTrace) -> DistinctModels:
    """Distinct visited models, ascending by bitmask, with one cached log
    Bayes factor each.

    For hierarchical traces the cached value depends on the draw's g; the
    first visit's value is kept (``np.unique`` gives each value's first
    index).
    """
    bits, first = np.unique(trace.bits, return_index=True)
    return DistinctModels(bits, trace.log_bfs[first])


def _renormalized_weights(models: DistinctModels) -> np.ndarray:
    """Bayes factors scaled by the largest: under the uniform model prior the
    prior term is a constant shift."""
    if not len(models):
        raise UsageError("empty model set")
    top = models.log_bfs.max()
    if not np.isfinite(top):
        raise UsageError("all models in the set are excluded (log BF = -inf)")
    return np.exp(models.log_bfs - top)


def renormalized_estimate(
    models: DistinctModels, q: QuantityOfInterest
) -> EstimateWithSE:
    """Estimate of tau(a) weighting each distinct model by its Bayes factor
    renormalized within the visited set. No variance estimate exists for
    this estimator."""
    w = _renormalized_weights(models)
    a = q.evaluator(models.bits)
    # both sums run over arrays of one length, so their additions match
    # term by term: an indicator's estimate cannot round above 1
    value = float(np.sum(w * a) / np.sum(w))
    return EstimateWithSE(value, None, "renormalized", len(models))


def renormalized_inclusion(models: DistinctModels, p: int) -> np.ndarray:
    """Every variable's renormalized estimate from one weighted column sum;
    the total is that sum's last column, so none can round above 1."""
    sums = weighted_sums(models.bits, p, _renormalized_weights(models))
    return sums[:p] / sums[-1]


def rank_models(models: DistinctModels, K: int | None = None) -> DistinctModels:
    """The K >= 1 best models (all when K is None), best first: descending
    log BF, ties by ascending bitmask. A partition finds the K-th largest
    log BF, so only the models at or above it, ties included, are sorted."""
    if not len(models):
        raise UsageError("empty model set")
    if K is not None and K < 1:
        raise UsageError("K must be >= 1")
    bits, lbf = models.bits, models.log_bfs
    if K is not None and lbf.size > K:
        keep = lbf >= np.partition(lbf, lbf.size - K)[lbf.size - K]
        bits, lbf = bits[keep], lbf[keep]
    order = np.lexsort((bits, -lbf))[:K]
    return DistinctModels(bits[order], lbf[order])


def find_hpm(models: DistinctModels) -> ModelIndex:
    """Model with the largest unnormalized log posterior; ties broken by
    ascending bitmask."""
    return ModelIndex.from_bits(int(rank_models(models, 1).bits[0]))


def find_mpm(inclusion: np.ndarray) -> ModelIndex:
    """Median probability model: variables with inclusion strictly > 0.5."""
    above = np.flatnonzero(np.asarray(inclusion) > 0.5)
    return ModelIndex.from_bits(sum(1 << int(l) for l in above))


def topk_mass_log10(models: DistinctModels, K: int) -> float:
    """Decimal log of the summed Bayes factors of the K best distinct models."""
    return float(logsumexp(rank_models(models, K).log_bfs)) / LOG10


def summarize_trace(
    trace: ChainTrace, data: Dataset, top_k: int = 1000
) -> PosteriorSummary:
    """Full posterior summary of one chain: empirical estimates with SEs,
    renormalized estimates over the deduplicated visited set, and the top K
    visited models."""
    inclusion = hh_inclusion(trace, data.p)
    dimension = hh_dimension(trace, data.p)
    distinct = dedupe_models(trace)
    return PosteriorSummary(
        method="gibbs",
        n_used=trace.n,
        inclusion=inclusion,
        inclusion_se=frequency_se(inclusion, trace.n),
        dimension=dimension,
        dimension_se=frequency_se(dimension, trace.n),
        top_models=rank_models(distinct, top_k),
        inclusion_renormalized=renormalized_inclusion(distinct, data.p),
    )


def summarize_exact(res: ExactResult) -> PosteriorSummary:
    """The posterior summary of an exact enumeration, with its top K models;
    its SEs are 0."""
    return PosteriorSummary(
        method="exact",
        n_used=res.model_count,
        inclusion=res.inclusion_exact,
        inclusion_se=np.zeros_like(res.inclusion_exact),
        dimension=res.dimension_exact,
        dimension_se=np.zeros_like(res.dimension_exact),
        top_models=res.top_models,
        hpm_posterior=res.hpm_posterior,
        log10_total_bf=res.log_total_bf / LOG10,
        excluded_count=res.excluded_count,
    )
