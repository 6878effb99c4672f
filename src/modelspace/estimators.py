"""Empirical (Hansen-Hurwitz) and renormalized estimators of posterior
quantities, plus the derived summaries: inclusion probabilities, HPM, MPM,
dimension posterior and top-K mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import UsageError
from .linmodel import Dataset
from .sampler import ChainTrace

LOG10 = math.log(10.0)

# Most models in one membership or bit matrix.
BLOCK = 4096

# The values of a chain's ``trace.meta`` that its summary keeps.
CHAIN_DIAGNOSTICS = ("g_accept_rate", "sse_spot_check_max_rel", "bit_flips_per_sweep")


def logsumexp(x: np.ndarray) -> float:
    """ln sum exp(x) over a float array, formed as ``scipy.special.logsumexp``
    (1.15 and later) forms it: the m largest terms, all equal to the max,
    are set apart, s = sum exp(x - max) is taken over the others and
    divided by m unless it is 0, and ln(1 + s) + ln m + max is returned.
    An empty array, or one whose max is -inf, gives -inf."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return -math.inf
    top = x.max()
    if not np.isfinite(top):  # -inf, +inf or nan, as scipy gives
        return float(top)
    ties = x == top
    m = np.float64(np.count_nonzero(ties))
    # the ties stay in place as zeros, so the sum adds in scipy's order
    terms = np.exp(x - top)
    terms[ties] = 0.0
    s = terms.sum()
    if s != 0:
        s = s / m
    return float(np.log1p(s) + np.log(m) + top)


# A quantity a(M) is any callable that maps an array of bitmasks
# (``bits_array``) to a float array of a(M): tau(a) = sum_gamma a(M) Pr(M | y).
# Exact enumeration with workers > 1 pickles it, so there it must be a
# module-level function, a ufunc, or a ``functools.partial`` of one, as
# ``indicator_of_*`` return; a lambda then fails in the pool
# (``pickle.PicklingError``, or ``AttributeError`` when local). With
# workers=1 any callable works.
def _includes(l: int, bits: np.ndarray) -> np.ndarray:
    return ((bits >> l) & 1).astype(np.float64)


def _has_dimension(k: int, bits: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(bits) == k).astype(np.float64)


def _is_model(target: int, bits: np.ndarray) -> np.ndarray:
    return (bits == target).astype(np.float64)


def indicator_of_variable(l: int) -> partial:
    return partial(_includes, l)


def indicator_of_dimension(k: int) -> partial:
    return partial(_has_dimension, k)


def indicator_of_model(target: int) -> partial:
    """The indicator of the one model whose bitmask is ``target``."""
    return partial(_is_model, target)


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


@dataclass
class PosteriorSummary:
    """The one result type of a chain ("gibbs") and of an enumeration
    ("exact"): arrays per variable and per dimension, and the top models as
    a ranked ``DistinctModels``, best first, from which the HPM and the
    top-K mass are read. ``hpm`` and ``mpm`` are int bitmasks. A one-draw
    chain's SEs are None, exact ones 0.

    ``model_count`` is the number of distinct models scored: 2^p for an
    enumeration, the distinct visited models for a chain.
    ``log_total_bf`` is the natural log of the summed Bayes factors of
    every model, an enumeration only. ``diagnostics`` holds the
    method's own values: a chain's ``g_accept_rate``,
    ``sse_spot_check_max_rel`` and ``bit_flips_per_sweep``, an
    enumeration's layout (``shard_bits``, ``low_bits``), its ``workers``
    and, for the optional pass arguments, ``quantity_value`` and
    ``rank_count``."""

    method: str
    n_used: int
    model_count: int
    inclusion: np.ndarray
    inclusion_se: np.ndarray | None
    dimension: np.ndarray
    dimension_se: np.ndarray | None
    top_models: DistinctModels
    inclusion_renormalized: np.ndarray | None = None  # a chain only
    hpm_posterior: float | None = None  # an enumeration only
    log_total_bf: float | None = None
    excluded_count: int | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def hpm(self) -> int:
        return int(self.top_models.bits[0])

    @property
    def hpm_log_bf(self) -> float:
        return float(self.top_models.log_bfs[0])

    @property
    def mpm(self) -> int:
        return find_mpm(self.inclusion)

    @property
    def mass_log10(self) -> float:
        """Decimal log of the summed Bayes factors of the top models."""
        return logsumexp(self.top_models.log_bfs) / LOG10


def hh_estimate(
    trace: ChainTrace, q: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float | None]:
    """Hansen-Hurwitz estimate of tau(a) over a trace and its SE, from the
    unbiased variance estimate (1/(n(n-1))) sum (a_j - mean)^2; the SE is
    None for a one-draw trace."""
    n = trace.n
    if n == 0:
        raise UsageError("empty trace")
    values = q(trace.bits)
    mean = float(values.mean())
    if n == 1:
        return mean, None
    var = float(np.sum((values - mean) ** 2)) / (n * (n - 1))
    return mean, math.sqrt(var)


def frequency_se(freq: np.ndarray, n: int) -> np.ndarray | None:
    """SEs of the frequencies of 0/1 quantities over n draws, None for one
    draw. For an indicator hh_estimate's variance collapses to q(1-q)/(n-1)."""
    if n == 1:
        return None
    return np.sqrt(freq * (1.0 - freq) / (n - 1))


def weighted_sums(bits: np.ndarray, p: int, w: np.ndarray) -> np.ndarray:
    """Column sums of ``membership(bits, p)`` weighted by w, built ``BLOCK``
    models at a time so that the matrix stays bounded. Every column adds its
    rows in the same order, so a column never exceeds the last, all-ones
    one: the total."""
    sums = np.zeros(2 * p + 2)
    for lo in range(0, bits.size, BLOCK):
        sums += np.einsum(
            "ij,i->j", membership(bits[lo : lo + BLOCK], p), w[lo : lo + BLOCK]
        )
    return sums


def hh_inclusion(trace: ChainTrace, p: int) -> np.ndarray:
    """Per-variable inclusion frequencies q_hat_l: each variable's count of
    set bits over the draws, ``BLOCK`` draws at a time so that the bit
    matrix stays bounded, divided by n."""
    if trace.n == 0:
        raise UsageError("empty trace")
    shifts = np.arange(p)
    counts = sum(
        ((trace.bits[lo : lo + BLOCK, None] >> shifts) & 1).sum(axis=0)
        for lo in range(0, trace.n, BLOCK)
    )
    return counts.astype(np.float64) / trace.n


def hh_dimension(trace: ChainTrace, p: int) -> np.ndarray:
    """Posterior-dimension frequencies d_hat(k) for k = 0..p: the counts of
    the draws' popcounts, exact integers as in ``hh_inclusion``, over n."""
    if trace.n == 0:
        raise UsageError("empty trace")
    k = np.bitwise_count(trace.bits).astype(np.intp)
    return np.bincount(k, minlength=p + 1) / trace.n


@dataclass
class DistinctModels:
    """A set of distinct models as two aligned arrays: bitmasks
    (``bits_array``'s dtype rule) and one log Bayes factor each."""

    bits: np.ndarray
    log_bfs: np.ndarray

    def __len__(self) -> int:
        return self.bits.size


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
    models: DistinctModels, q: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Estimate of tau(a) weighting each distinct model by its Bayes factor
    renormalized within the visited set. No variance estimate exists for
    this estimator."""
    w = _renormalized_weights(models)
    # both sums run over arrays of one length, so their additions match
    # term by term: an indicator's estimate cannot round above 1
    return float(np.sum(w * q(models.bits)) / np.sum(w))


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


def find_hpm(models: DistinctModels) -> int:
    """Bitmask of the model with the largest unnormalized log posterior;
    ties broken by ascending bitmask."""
    return int(rank_models(models, 1).bits[0])


def find_mpm(inclusion: np.ndarray) -> int:
    """Bitmask of the median probability model: the variables with
    inclusion strictly > 0.5."""
    above = np.flatnonzero(np.asarray(inclusion) > 0.5)
    return sum(1 << int(l) for l in above)


def topk_mass_log10(models: DistinctModels, K: int) -> float:
    """Decimal log of the summed Bayes factors of the K best distinct models."""
    return logsumexp(rank_models(models, K).log_bfs) / LOG10


def summarize_trace(
    trace: ChainTrace, data: Dataset, top_k: int = 1000
) -> PosteriorSummary:
    """Full posterior summary of one chain: empirical estimates with SEs,
    renormalized estimates over the deduplicated visited set, the top K
    visited models and the chain's diagnostics from ``trace.meta``."""
    inclusion = hh_inclusion(trace, data.p)
    dimension = hh_dimension(trace, data.p)
    distinct = dedupe_models(trace)
    return PosteriorSummary(
        method="gibbs",
        n_used=trace.n,
        model_count=len(distinct),
        inclusion=inclusion,
        inclusion_se=frequency_se(inclusion, trace.n),
        dimension=dimension,
        dimension_se=frequency_se(dimension, trace.n),
        top_models=rank_models(distinct, top_k),
        inclusion_renormalized=renormalized_inclusion(distinct, data.p),
        diagnostics={key: trace.meta.get(key) for key in CHAIN_DIAGNOSTICS},
    )
