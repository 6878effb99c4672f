"""Parallel exact enumeration of the model space.

The space is partitioned by the s highest-order bit positions into 2^s
shards; within each shard a Gray-code walk over the remaining p-s positions
visits every completion with exactly one add or delete per step. Each shard
keeps one log-space scale, m, the largest log Bayes factor it has seen, and
plain float sums of exp(log BF - m), so 1e50-scale totals never overflow.
The walk absorbs its models into those sums ``BLOCK`` at a time in one
vectorised step. Shards are reduced in index order, so results are
bit-identical regardless of worker count.
"""

from __future__ import annotations

import heapq
import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bayesfactor import NEG_INF, GPriorSpec, log_bf_value
from .errors import UsageError
from .estimators import QuantityOfInterest
from .linmodel import Dataset, FitState, ModelIndex

# Enumerating beyond p=30 (~1e9 models) is an opt-in long job.
P_GUARD = 30

# Fixed shard-prefix width: independent of worker count so that results are
# bit-identical for any parallelism level.
DEFAULT_SHARD_BITS = 8

# Models buffered by the walk between two vectorised absorbs.
BLOCK = 4096


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


@dataclass
class Shard:
    """Accumulators for one fixed-prefix slice of the model space.

    ``total``, ``dim``, ``incl`` and ``quantity_sum`` are sums of
    exp(log BF - m) over the non-excluded models (weighted by the model's
    dimension, inclusion or quantity value), all on the one scale ``m``.
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
    heap: list[tuple[float, int]] = field(default_factory=list)  # (log_bf, -bits)

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
        bits: list[int],
        lbfs: list[float],
        quantity: QuantityOfInterest | None,
        rank_threshold: float | None,
    ) -> None:
        """Add one block of models; an excluded model has log BF -inf."""
        lbf = np.array(lbfs)
        finite = lbf > NEG_INF
        self.count += lbf.size
        self.excluded_count += lbf.size - int(np.count_nonzero(finite))
        if not finite.any():
            return
        lbf = lbf[finite]
        b = np.array(bits, dtype=np.int64)[finite]
        top = float(lbf.max())
        if top > self.m:
            self.rescale(top)
        w = np.exp(lbf - self.m)

        # Membership of each model in every variable, in its dimension, and
        # in the total. One column sum over all of them makes every
        # numerator and the denominator go through the same monotone float
        # additions, so no inclusion or dimension can round above 1.
        p = self.incl.size
        n = b.size
        includes = (b[:, None] >> np.arange(p)) & 1
        member = np.zeros((n, 2 * p + 2))
        member[:, :p] = includes
        member[np.arange(n), p + includes.sum(axis=1)] = 1.0
        member[:, -1] = 1.0
        sums = (member * w[:, None]).sum(axis=0)
        self.incl += sums[:p]
        self.dim += sums[p:-1]
        self.total += float(sums[-1])

        if quantity is not None:
            values = [quantity.evaluator(ModelIndex.from_bits(int(x))) for x in b]
            self.quantity_sum += float(np.dot(values, w))
        if rank_threshold is not None:
            self.rank_count += int(np.count_nonzero(lbf > rank_threshold))
        # best first: descending log BF, ties by ascending bitmask
        for i in np.lexsort((b, -lbf))[: self.K]:
            item = (float(lbf[i]), -int(b[i]))
            if len(self.heap) < self.K:
                heapq.heappush(self.heap, item)
            elif item > self.heap[0]:
                heapq.heapreplace(self.heap, item)
            else:
                break


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
    """Walk all completions of one fixed high-bit prefix in Gray-code order.

    Columns that are collinear with the current active set are held in a
    pending set: the model is excluded while any pending column remains,
    and pending adds are retried after every step so the walk recovers as
    soon as the dependency is broken. The uniform model prior is a constant
    factor, so ``prior`` does not enter the sums.
    """
    p = data.p
    free = p - shard_bits
    fixed_bits = prefix << free
    sse0 = data.sse0
    N = data.N

    shard = Shard(index=prefix, K=K, incl=np.zeros(p), dim=np.zeros(p + 1))

    state = FitState(data)
    pending: set[int] = set()
    bits = 0
    for j in range(free, p):
        if (fixed_bits >> j) & 1:
            bits |= 1 << j
            if not state.add(j):
                pending.add(j)

    block_bits: list[int] = []
    block_lbfs: list[float] = []
    for t in range(1 << free):
        if t:
            j = (t & -t).bit_length() - 1  # Gray code: flip the ctz(t)-th free bit
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
        block_bits.append(bits)
        # with nothing pending the state holds every set bit, and
        # log_bf_value excludes saturated models itself
        block_lbfs.append(
            NEG_INF if pending else log_bf_value(state.sse, state.k, sse0, N, g)
        )
        if len(block_bits) == BLOCK:
            shard.absorb(block_bits, block_lbfs, quantity, rank_threshold)
            block_bits = []
            block_lbfs = []
    if block_bits:
        shard.absorb(block_bits, block_lbfs, quantity, rank_threshold)
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

    heap: list[tuple[float, int]] = []
    K = shards[0].K
    for s in shards:
        for item in s.heap:
            if len(heap) < K:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)
    top = sorted(
        [(ModelIndex.from_bits(-nb), lbf) for lbf, nb in heap],
        key=lambda t: (-t[1], t[0].bits),
    )
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


def _picklable(obj) -> bool:
    try:
        pickle.dumps(obj)
    except (pickle.PicklingError, AttributeError, TypeError):
        return False
    return True


def _shard_job(args):
    data, shard_bits, prefix, g, prior, K, quantity, rank_threshold = args
    return enumerate_shard(data, shard_bits, prefix, g, prior, K, quantity, rank_threshold)


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

    Shards go to a process pool when workers > 1, unless the quantity does
    not pickle; then they are enumerated in-process. The shard layout does
    not depend on the worker count, so the result is bit-identical either way.
    """
    p = data.p
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
    if workers == 1 or s == 0 or (quantity is not None and not _picklable(quantity)):
        shards = [
            enumerate_shard(data, s, pre, g, prior, K, quantity, rank_threshold)
            for pre in prefixes
        ]
    else:
        jobs = [(data, s, pre, g, prior, K, quantity, rank_threshold) for pre in prefixes]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(_shard_job, jobs, chunksize=1))
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

    The evaluator may be any callable. A picklable one is enumerated across
    ``workers`` processes; any other runs in-process. The value is
    bit-identical for any worker count.
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
