"""Parallel exact enumeration of the model space.

The space is partitioned by the s highest-order bit positions into 2^s
shards. Within a shard a Gray-code walk visits the outer models, the
settings of the free positions above the lowest b = min(p - s, LOW_BITS),
with exactly one add or delete per step. Each outer model's 2^b
completions in the low positions are scored together: the Schur
complement of its active set in the Gram matrix of the b low columns is
eliminated by subset doubling (``FitState.extension_sse``), which costs
O(2^b) array work rather than a Cholesky per completion, and their log
Bayes factors come from one numpy expression. Each shard keeps one
log-space scale, m, the largest log Bayes factor it has seen, and plain
float sums of exp(log BF - m), so 1e50-scale totals never overflow. It
absorbs each outer model's completions in one weighted column sum over
the low block's cached membership matrix, and keeps its top K by a
partition followed by a sort of the survivors. Shards are reduced in index
order, so results are bit-identical regardless of worker count.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# log_bf_value stays in this namespace: the benchmark's tracer wraps it by name.
from .bayesfactor import NEG_INF, GPriorSpec, log_bf_value, log_bf_values  # noqa: F401
from .errors import NumericalError, UsageError
from .estimators import QuantityOfInterest, membership
from .linmodel import Dataset, FitState, ModelIndex, subset_members

# Enumerating beyond p=30 (~1e9 models) is an opt-in long job.
P_GUARD = 30

# Fixed shard-prefix width: independent of worker count so that results are
# bit-identical for any parallelism level.
DEFAULT_SHARD_BITS = 8

# Free bit positions of a shard scored in one batch per outer model.
LOW_BITS = 10


def default_workers() -> int:
    env = os.environ.get("MODELSPACE_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise UsageError(
                f"MODELSPACE_WORKERS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def default_shard_bits(p: int) -> int:
    return min(p, DEFAULT_SHARD_BITS)


@functools.lru_cache(maxsize=None)
def low_membership(b: int) -> np.ndarray:
    """``membership`` of the 2^b subsets of a low block of b positions:
    columns for the b positions, the dimensions 0..b and every subset."""
    member = membership(np.arange(1 << b, dtype=np.int64), b)
    member.flags.writeable = False
    return member


def _best(lbf: np.ndarray, bits: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The K >= 1 best models: descending log BF, ties by ascending bitmask.
    A partition finds the K-th largest log BF, so only the models at or
    above it, ties included, are sorted."""
    if lbf.size > K:
        keep = lbf >= np.partition(lbf, lbf.size - K)[lbf.size - K]
        lbf = lbf[keep]
        bits = bits[keep]
    order = np.lexsort((bits, -lbf))[:K]
    return lbf[order], bits[order]


@dataclass
class Shard:
    """Accumulators for one fixed-prefix slice of the model space.

    ``total``, ``dim``, ``incl`` and ``quantity_sum`` are sums of
    exp(log BF - m) over the non-excluded models (weighted by the model's
    dimension, inclusion or quantity value), all on the one scale ``m``.
    ``top_lbf`` and ``top_bits`` hold the K best models, best first.
    """

    index: int
    K: int
    incl: np.ndarray  # per variable
    dim: np.ndarray  # per dimension 0..p
    m: float = NEG_INF
    total: float = 0.0
    quantity_sum: float = 0.0
    count: int = 0
    excluded_count: int = 0
    rank_count: int = 0  # models with log_bf strictly above rank_threshold
    top_lbf: np.ndarray = field(default_factory=lambda: np.empty(0))
    top_bits: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def rescale(self, m: float) -> None:
        """Move every sum onto the scale m >= self.m."""
        c = math.exp(self.m - m)
        self.total *= c
        self.incl *= c
        self.dim *= c
        self.quantity_sum *= c
        self.m = m

    def absorb(
        self,
        outer: int,
        lbf: np.ndarray,
        quantity: QuantityOfInterest | None,
        rank_threshold: float | None,
    ) -> None:
        """Add the 2^b completions of one outer model: entry t of ``lbf`` is
        for the model ``outer | t``, and -inf excludes it. A NaN is a
        numerical fault, not an exclusion, and raises NumericalError."""
        if np.isnan(lbf).any():
            raise NumericalError(
                f"NaN log Bayes factor among the completions of model {outer:#x}"
            )
        b = lbf.size.bit_length() - 1
        finite = lbf > NEG_INF
        n_finite = int(np.count_nonzero(finite))
        self.count += lbf.size
        self.excluded_count += lbf.size - n_finite
        if not n_finite:
            return
        bits = outer | np.flatnonzero(finite)
        low = low_membership(b)
        if n_finite < lbf.size:
            lbf = lbf[finite]
            low = low[finite]
        top = float(lbf.max())
        if top > self.m:
            self.rescale(top)
        w = np.exp(lbf - self.m)

        # One column sum over the low block's membership, total included,
        # makes every numerator and the denominator go through the same
        # monotone float additions, so no inclusion or dimension can round
        # above 1; each variable of the outer model gets the total itself.
        sums = (low * w[:, None]).sum(axis=0)
        total = float(sums[-1])
        self.incl[:b] += sums[:b]
        self.incl[b:] += total * ((outer >> np.arange(b, self.incl.size)) & 1)
        k = outer.bit_count()
        self.dim[k : k + b + 1] += sums[b:-1]
        self.total += total

        if quantity is not None:
            self.quantity_sum += float(np.dot(quantity.evaluator(bits), w))
        if rank_threshold is not None:
            self.rank_count += int(np.count_nonzero(lbf > rank_threshold))
        if self.top_lbf.size == self.K:
            # only a model at least as good as the K-th can enter
            keep = lbf >= self.top_lbf[-1]
            if not keep.any():
                return
            lbf = lbf[keep]
            bits = bits[keep]
        self.top_lbf, self.top_bits = _best(
            np.concatenate((self.top_lbf, lbf)),
            np.concatenate((self.top_bits, bits)),
            self.K,
        )


def enumerate_shard(
    data: Dataset,
    shard_bits: int,
    prefix: int,
    g: float,
    prior: GPriorSpec,
    K: int,
    quantity: QuantityOfInterest | None = None,
    rank_threshold: float | None = None,
) -> Shard:
    """Score all completions of one fixed high-bit prefix.

    A Gray-code walk over the free positions above the lowest b visits the
    outer models; each one's 2^b completions in the low b positions are
    scored in one batch. Columns of the walk that are collinear with the
    current active set are held in a pending set: while any remains, all
    2^b completions are excluded, and pending adds are retried after every
    delete so the walk recovers as soon as the dependency is broken. A
    completion is excluded when one of its low pivots is singular by the
    same rule, or when it is saturated (k > N - 2). The uniform model prior
    is a constant factor, so ``prior`` does not enter the sums.
    """
    p = data.p
    free = p - shard_bits
    b = min(free, LOW_BITS)
    low = np.arange(b)
    low_k = subset_members(b).sum(axis=0)
    fixed_bits = prefix << free

    shard = Shard(index=prefix, K=K, incl=np.zeros(p), dim=np.zeros(p + 1))

    state = FitState(data)
    pending: set[int] = set()
    bits = 0
    for j in range(free, p):
        if (fixed_bits >> j) & 1:
            bits |= 1 << j
            if not state.add(j):
                pending.add(j)

    for t in range(1 << (free - b)):
        if t:
            # Gray code: flip the ctz(t)-th position above the low block
            j = b + (t & -t).bit_length() - 1
            if (bits >> j) & 1:
                bits &= ~(1 << j)
                if j in pending:
                    pending.discard(j)
                else:
                    state.delete(j)
                if pending:
                    # a delete can break a dependency; retry pending adds
                    for pj in sorted(pending):
                        if state.add(pj):
                            pending.discard(pj)
            else:
                bits |= 1 << j
                if not state.add(j):
                    pending.add(j)
        if pending:
            lbf = np.full(1 << b, NEG_INF)
        else:
            # with nothing pending the state holds every set bit
            sse, singular = state.extension_sse(low)
            lbf = log_bf_values(sse, state.k + low_k, data.sse0, data.N, g)
            lbf[singular] = NEG_INF
        shard.absorb(bits, lbf, quantity, rank_threshold)
    return shard


@dataclass
class ExactResult:
    log_total_bf: float  # ln sum_gamma B (prior factored out)
    inclusion_exact: np.ndarray
    dimension_exact: np.ndarray
    hpm: ModelIndex
    hpm_log_bf: float
    hpm_posterior: float
    top_models: list[tuple[ModelIndex, float]]
    excluded_count: int
    model_count: int
    quantity_value: float = 0.0
    rank_count: int = 0


def reduce_shards(shards: list[Shard], data: Dataset, prior: GPriorSpec) -> ExactResult:
    """Combine shard accumulators in index order (bit-reproducible): move
    each shard, in place, onto the common largest scale, then add. The
    uniform model prior cancels from every ratio, so ``prior`` is unused."""
    p = data.p
    shards = sorted(shards, key=lambda s: s.index)
    seen = {s.index for s in shards}
    if len(shards) == 0 or seen != set(range(len(shards))):
        raise UsageError("shards do not form a complete partition")

    count = sum(s.count for s in shards)
    expected = 1 << p
    if count != expected:
        raise UsageError(f"partition visited {count} models, expected {expected}")

    top_lbf, top_bits = _best(
        np.concatenate([s.top_lbf for s in shards]),
        np.concatenate([s.top_bits for s in shards]),
        shards[0].K,
    )
    top = [
        (ModelIndex.from_bits(int(bits)), float(lbf))
        for lbf, bits in zip(top_lbf, top_bits)
    ]
    if not top:
        raise UsageError("no full-rank models found")

    m = max(s.m for s in shards)
    total = 0.0
    incl = np.zeros(p)
    dim = np.zeros(p + 1)
    qsum = 0.0
    for s in shards:
        s.rescale(m)
        total += s.total
        incl += s.incl
        dim += s.dim
        qsum += s.quantity_sum

    hpm, hpm_lbf = top[0]
    return ExactResult(
        log_total_bf=m + math.log(total),
        inclusion_exact=incl / total,
        dimension_exact=dim / total,
        hpm=hpm,
        hpm_log_bf=hpm_lbf,
        hpm_posterior=math.exp(hpm_lbf - m) / total,
        top_models=top,
        excluded_count=sum(s.excluded_count for s in shards),
        model_count=count,
        quantity_value=qsum / total,
        rank_count=sum(s.rank_count for s in shards),
    )


# The Dataset of the enumeration a pool worker serves, set once per worker.
_worker_data: Dataset | None = None


def _init_worker(data: Dataset) -> None:
    global _worker_data
    _worker_data = data


def _shard_job(args):
    return enumerate_shard(_worker_data, *args)


def enumerate_exact(
    data: Dataset,
    g: float,
    prior: GPriorSpec,
    K: int = 1000,
    workers: int | None = None,
    shard_bits: int | None = None,
    force: bool = False,
    quantity: QuantityOfInterest | None = None,
    rank_threshold: float | None = None,
) -> ExactResult:
    """Sharded exact enumeration of all 2^p models under a fixed g.

    Shards go to a process pool when workers > 1: each worker receives the
    Dataset once, then contiguous runs of shards, and a quantity's evaluator
    must pickle (a module-level function, a ufunc, or a ``partial`` of one;
    a lambda fails in the pool). With workers=1 any callable works. The
    shard layout does not depend on the worker count, so the result is
    bit-identical either way.
    """
    p = data.p
    if K < 1:
        raise UsageError(f"K (--top-k) must be >= 1, got {K}")
    if p > P_GUARD and not force:
        raise UsageError(
            f"p={p} exceeds the enumeration guard ({P_GUARD}); pass force=True "
            "(--force on the CLI) for an opt-in long run"
        )
    if prior.hierarchical:
        raise UsageError("exact enumeration supports fixed g only")
    s = default_shard_bits(p) if shard_bits is None else shard_bits
    if not 0 <= s <= p:
        raise UsageError(f"shard_bits must be in [0, {p}]")
    workers = default_workers() if workers is None else max(1, workers)
    prefixes = range(1 << s)
    if workers == 1 or s == 0:
        shards = [
            enumerate_shard(data, s, pre, g, prior, K, quantity, rank_threshold)
            for pre in prefixes
        ]
    else:
        jobs = [(s, pre, g, prior, K, quantity, rank_threshold) for pre in prefixes]
        chunksize = max(1, len(jobs) // (4 * workers))
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(data,)
        ) as pool:
            shards = list(pool.map(_shard_job, jobs, chunksize=chunksize))
    return reduce_shards(shards, data, prior)


def exact_quantity(
    data: Dataset,
    g: float,
    prior: GPriorSpec,
    q: QuantityOfInterest,
    workers: int | None = None,
    shard_bits: int | None = None,
    force: bool = False,
) -> float:
    """Exact tau(a) = sum_gamma a(M) Pr(M | y) by a full sharded pass.

    The evaluator maps a bitmask array to a float array. With workers > 1
    it must pickle (a module-level function, a ufunc, or a ``partial`` of
    one; a lambda fails in the pool); with workers=1 any callable works.
    The value is bit-identical for any worker count.
    """
    res = enumerate_exact(
        data,
        g,
        prior,
        K=1,
        workers=workers,
        shard_bits=shard_bits,
        force=force,
        quantity=q,
    )
    return res.quantity_value


def count_models_above(
    data: Dataset,
    g: float,
    prior: GPriorSpec,
    log_bf_threshold: float,
    workers: int | None = None,
    shard_bits: int | None = None,
    force: bool = False,
) -> int:
    """Number of models with log Bayes factor strictly above a threshold."""
    res = enumerate_exact(
        data,
        g,
        prior,
        K=1,
        workers=workers,
        shard_bits=shard_bits,
        force=force,
        rank_threshold=log_bf_threshold,
    )
    return res.rank_count
