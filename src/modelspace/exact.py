"""Parallel exact enumeration of the model space.

The space is partitioned by the s highest-order bit positions into 2^s
shards. A shard is scored by one elimination on one bordered cross-product
matrix [[G, X'y], [y'X, sse0]] of its columns: eliminating a column either
leaves it out, keeping the trailing block, or takes it in, subtracting one
rank-one term. A depth-first walk takes in the prefix's set columns and
branches on each free position above the lowest b = min(p - s, LOW_BITS);
at each outer model it reaches, what is left of the matrix is the Schur
complement of the model's columns in the Gram matrix of the b low columns,
bordered by the residual cross-products and the SSE. Subset doubling
(``subset_sse``) eliminates that block breadth first, scoring the 2^b
completions in O(2^b) array work rather than one factorisation per
completion; their log Bayes factors come from one numpy expression. A
take-in whose pivot is collinear, or that saturates the model, excludes
every model below it. Each shard keeps one log-space scale, m,
the largest log Bayes factor it has seen, and one vector of plain float
sums of exp(log BF - m), so 1e50-scale totals never overflow. It
absorbs each outer model's completions in one weighted column sum over
the low block's cached membership matrix, and keeps its top K as a
``DistinctModels`` ranked by ``rank_models``; the reduction ranks the
shards' top models again. Shards are reduced in index order, so results
are bit-identical regardless of worker count.

The shard width is s = min(max(0, p - LOW_BITS), DEFAULT_SHARD_BITS): it
is a function of p alone, with no option to change it and no dependence on
the worker count, and leaves every shard at least one full low block of
min(p, LOW_BITS) bits, so the numpy calls per block and the fixed costs per
shard are spread over 2^b models. The width fixes the reduction order, so
an exact result depends on the data and g alone; reports record the layout
as ``shard_bits`` and ``low_bits``.

A pass opens a process pool only where the work pays for it: at most
min(workers, 2^s, max(1, 2^p // MODELS_PER_WORKER)) processes, so that
each gets at least 2^18 models, and a pass given one runs its shards
in-process. On a 2-vCPU host a 2-process pool costs 10-14 ms to start and
join, against 8M models/s per core in a shard. At K = 1000 on the
benchmark's stand-in it loses at p = 18 (25-30 ms in-process against
37-40 ms pooled), breaks about even at p = 19 (48-59 ms against 50-55 ms)
and wins at p = 21 (203 ms against 133-139 ms). The pool's size changes
only which process runs a shard, never the layout, so results do not
depend on it.

No BLAS call whose length grows with 2^b runs in a shard: a threaded BLAS
starts helper threads for long vectors, and on a host with as many pool
workers as cores those threads spin against the other workers. The block
sums are an einsum and a numpy reduction, which stay on the calling thread.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# log_bf_value stays in this namespace: the benchmark's tracer wraps it by name.
from .bayesfactor import NEG_INF, GPriorSpec, log_bf_value, log_bf_values  # noqa: F401
from .errors import NumericalError, UsageError
from .estimators import DistinctModels, PosteriorSummary, membership, rank_models
from .linmodel import SINGULAR_EPS, Dataset

# Enumerating beyond p=30 (~1e9 models) is an opt-in long job.
P_GUARD = 30

# Widest default shard prefix. The width depends on p only, never on the
# worker count, so that results are bit-identical for any parallelism level.
DEFAULT_SHARD_BITS = 8

# Free bit positions of a shard scored in one batch per outer model.
LOW_BITS = 14

# Fewest models that pay for one more pool process: about 30 ms of one
# core's work, against the 10-14 ms a 2-process pool costs to start and join.
MODELS_PER_WORKER = 1 << 18


def default_workers() -> int:
    env = os.environ.get("MODELSPACE_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"MODELSPACE_WORKERS must be an integer >= 1, got {env!r}")
    return workers


def default_shard_bits(p: int) -> int:
    """Prefix width that leaves every shard at least one full low block."""
    return min(max(0, p - LOW_BITS), DEFAULT_SHARD_BITS)


@functools.lru_cache(maxsize=None)
def low_membership(b: int) -> np.ndarray:
    """``membership`` of the 2^b subsets of a low block of b positions:
    columns for the b positions, the dimensions 0..b and every subset."""
    member = membership(np.arange(1 << b, dtype=np.int64), b)
    member.flags.writeable = False
    return member


@dataclass
class Shard:
    """Accumulators for one fixed-prefix slice of the model space.

    ``sums`` holds sums of exp(log BF - m) over the non-excluded models, all
    on the one scale ``m``: first ``membership``'s p + (p + 1) + 1 columns
    (weighted by each inclusion, each dimension and 1, the total), then the
    sum weighted by the quantity. ``top`` holds the K best models, ranked
    by ``rank_models``.
    """

    index: int
    K: int
    sums: np.ndarray  # length 2p + 3
    m: float = NEG_INF
    count: int = 0
    excluded_count: int = 0
    rank_count: int = 0  # models with log_bf strictly above rank_threshold
    top: DistinctModels = field(
        default_factory=lambda: DistinctModels(np.empty(0, dtype=np.int64), np.empty(0))
    )

    def rescale(self, m: float) -> None:
        """Move every sum onto the scale m >= self.m."""
        self.sums *= math.exp(self.m - m)
        self.m = m

    def absorb(
        self,
        outer: int,
        lbf: np.ndarray,
        quantity: Callable[[np.ndarray], np.ndarray] | None,
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
        # The einsum adds the rows in order, as (low * w[:, None]).sum(axis=0)
        # would, without building that (2^b, 2b + 2) product.
        sums = np.einsum("ij,i->j", low, w)
        total = sums[-1]
        p = (self.sums.size - 3) // 2
        self.sums[:b] += sums[:b]
        self.sums[b:p] += total * ((outer >> np.arange(b, p)) & 1)
        k = p + outer.bit_count()
        self.sums[k : k + b + 1] += sums[b:-1]
        self.sums[-2] += total

        if quantity is not None:
            # a reduction, not np.dot: see the module docstring on BLAS
            self.sums[-1] += (quantity(bits) * w).sum()
        if rank_threshold is not None:
            self.rank_count += int(np.count_nonzero(lbf > rank_threshold))
        if len(self.top) == self.K:
            # only a model at least as good as the K-th can enter
            keep = lbf >= self.top.log_bfs[-1]
            if not keep.any():
                return
            lbf = lbf[keep]
            bits = bits[keep]
        self.top = rank_models(
            DistinctModels(
                np.concatenate((self.top.bits, bits)),
                np.concatenate((self.top.log_bfs, lbf)),
            ),
            self.K,
        )


def _take_in(T: np.ndarray) -> np.ndarray:
    """The Schur complement left after eliminating T's first column: the
    trailing block minus c c' with c = T[1:, 0] / sqrt(T[0, 0]). A stack
    of matrices, batch last, is eliminated in one call."""
    col = T[1:, 0] / np.sqrt(T[0, 0])
    return T[1:, 1:] - col[:, None] * col[None]


def subset_sse(B: np.ndarray, gjj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """SSE of one model extended by each subset T of b further columns L,
    and whether that extension is singular.

    ``B`` is the (b+1)x(b+1) bordered matrix [[S, r], [r', sse]], with S the
    Schur complement of the model's active set A in the Gram matrix of L,
    r = X'y_L - G_LA beta_A and sse the model's SSE; ``gjj`` holds the G_jj
    of L. Then SSE(A + T) = sse - r_T' S_TT^-1 r_T, the last pivot left
    after eliminating T from [[S_TT, r_T], [r_T', sse]]. Entry t of both
    returned arrays is for the subset T holding column i of L when bit i of
    t is set. The subsets are eliminated breadth first, by doubling: level
    j holds, batch last, the Schur complements of all 2^j subsets of the
    first j columns, each on the remaining columns and y. The child that
    leaves column j out is the trailing block, the one that takes it in is
    ``_take_in``'s, and the children are stacked [left out, taken in], so
    subset t stays at index t. A subset is singular when a column it takes
    in has a pivot d <= SINGULAR_EPS * G_jj; its children inherit the flag,
    and its SSE is meaningless, possibly NaN.
    """
    T = B[:, :, None]
    singular = np.zeros(1, dtype=bool)
    # a singular subset's children may take the square root of a
    # negative pivot or divide by a zero one
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(gjj.size):
            d = T[0, 0]
            T = np.concatenate((T[1:, 1:], _take_in(T)), axis=2)
            singular = np.concatenate(
                (singular, singular | (d <= SINGULAR_EPS * gjj[j]))
            )
    return np.maximum(T[0, 0], 0.0), singular


def enumerate_shard(
    data: Dataset,
    shard_bits: int,
    prefix: int,
    g: float,
    prior: GPriorSpec,
    K: int,
    quantity: Callable[[np.ndarray], np.ndarray] | None = None,
    rank_threshold: float | None = None,
) -> Shard:
    """Score all completions of one fixed high-bit prefix.

    One bordered cross-product matrix holds the prefix's set columns, the
    outer columns (the free positions above the lowest b) from highest to
    lowest, the low block and y. A depth-first walk eliminates its columns
    in that order: the child that leaves a column out is the trailing
    block, the one that takes it in is ``_take_in``'s, and a prefix column
    is always taken in. At each outer model, ``subset_sse`` scores its 2^b
    completions in the low positions in one batch. A take-in is refused
    when its pivot is d <= SINGULAR_EPS * G_jj, or when it leaves k > N - 2
    columns, by the rule of ``FitState.add``; every model of the refused
    subtree is excluded, so exclusion depends on the model and the layout
    alone. The uniform model prior is a constant factor, so ``prior`` does
    not enter the sums.
    """
    p = data.p
    free = p - shard_bits
    b = min(free, LOW_BITS)
    # int64: with the uint8 counts, N - k - 1 in log_bf_values wraps once N > 255
    low_k = np.bitwise_count(np.arange(1 << b)).astype(np.int64)
    taken = [j for j in range(free, p) if (prefix >> (j - free)) & 1]
    order = taken + list(range(free - 1, b - 1, -1)) + list(range(b))
    B = np.empty((len(order) + 1, len(order) + 1))
    B[:-1, :-1] = data.gram[np.ix_(order, order)]
    B[:-1, -1] = B[-1, :-1] = data.xty[order]
    B[-1, -1] = data.sse0
    gjj = np.diagonal(data.gram)[order]
    depth = len(order) - b

    shard = Shard(index=prefix, K=K, sums=np.zeros(2 * p + 3))

    # (matrix, level, model bits, model size); the left child is pushed
    # last, so outer models are absorbed in ascending order
    stack = [(B, 0, 0, 0)]
    while stack:
        B, level, bits, k = stack.pop()
        if level == depth:
            sse, singular = subset_sse(B, gjj[level:])
            lbf = log_bf_values(sse, k + low_k, data.sse0, data.N, g)
            lbf[singular] = NEG_INF
            shard.absorb(bits, lbf, quantity, rank_threshold)
            continue
        j = order[level]
        if k >= data.N - 2 or B[0, 0] <= SINGULAR_EPS * gjj[level]:
            # the subtree: positions below j, or the whole shard
            shard.count += 1 << min(j, free)
            shard.excluded_count += 1 << min(j, free)
        else:
            stack.append((_take_in(B), level + 1, bits | 1 << j, k + 1))
        if j < free:
            stack.append((B[1:, 1:], level + 1, bits, k))
    return shard


def reduce_shards(shards: list[Shard], data: Dataset) -> PosteriorSummary:
    """Combine shard accumulators in index order (bit-reproducible): move
    each shard, in place, onto the common largest scale, then add. The
    uniform model prior cancels from every ratio, so no prior enters.

    The result is the exact ``PosteriorSummary``: ``top_models`` holds the
    K best models, ranked by ``rank_models``, ``log_total_bf`` is
    ln sum_gamma B, and ``diagnostics`` hold the layout that fixed the
    reduction order (``shard_bits``, ``low_bits``) and the pass's
    ``quantity_value`` and ``rank_count``."""
    p = data.p
    shards = sorted(shards, key=lambda s: s.index)
    seen = {s.index for s in shards}
    if len(shards) == 0 or seen != set(range(len(shards))):
        raise UsageError("shards do not form a complete partition")

    count = sum(s.count for s in shards)
    expected = 1 << p
    if count != expected:
        raise UsageError(f"partition visited {count} models, expected {expected}")

    top = DistinctModels(
        np.concatenate([s.top.bits for s in shards]),
        np.concatenate([s.top.log_bfs for s in shards]),
    )
    if not len(top):
        raise UsageError("no full-rank models found")
    top = rank_models(top, shards[0].K)

    m = max(s.m for s in shards)
    sums = np.zeros(2 * p + 3)
    for s in shards:
        s.rescale(m)
        sums += s.sums
    total = float(sums[-2])
    inclusion = sums[:p] / total
    dimension = sums[p:-2] / total

    shard_bits = len(shards).bit_length() - 1
    return PosteriorSummary(
        method="exact",
        n_used=count,
        model_count=count,
        inclusion=inclusion,
        inclusion_se=np.zeros_like(inclusion),
        dimension=dimension,
        dimension_se=np.zeros_like(dimension),
        top_models=top,
        hpm_posterior=math.exp(float(top.log_bfs[0]) - m) / total,
        log_total_bf=m + math.log(total),
        excluded_count=sum(s.excluded_count for s in shards),
        diagnostics={
            "shard_bits": shard_bits,
            "low_bits": min(p - shard_bits, LOW_BITS),
            "quantity_value": float(sums[-1]) / total,
            "rank_count": sum(s.rank_count for s in shards),
        },
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
    force: bool = False,
    quantity: Callable[[np.ndarray], np.ndarray] | None = None,
    rank_threshold: float | None = None,
) -> PosteriorSummary:
    """Sharded exact enumeration of all 2^p models under a fixed g, as the
    exact ``PosteriorSummary`` of ``reduce_shards``: ``model_count`` is 2^p,
    ``log_total_bf`` is in natural log, and ``diagnostics["workers"]`` is
    the number of processes that ran the shards, 1 in-process.

    ``workers`` is an upper bound. Shards go to a process pool of
    min(workers, 2^s, max(1, 2^p // MODELS_PER_WORKER)) processes when that
    is above 1, so a pass below 2^19 models runs in-process: there a pool
    costs more to start than it saves (the module docstring has the
    break-even). Each pool worker receives the Dataset once, then
    contiguous runs of shards, and a quantity must pickle (a
    module-level function, a ufunc, or a ``partial`` of one; a lambda fails
    in the pool). In-process, any callable works. The shard layout is a
    function of p alone, with no option to change it, so the result depends
    on the data and g alone and is bit-identical for any worker count.
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
    s = default_shard_bits(p)
    prefixes = range(1 << s)
    workers = default_workers() if workers is None else max(1, workers)
    workers = min(workers, len(prefixes), max(1, (1 << p) // MODELS_PER_WORKER))
    if workers == 1:
        shards = [
            enumerate_shard(data, s, pre, g, prior, K, quantity, rank_threshold)
            for pre in prefixes
        ]
    else:
        # built before the fork, so that no worker rebuilds it on every pass
        low_membership(min(p - s, LOW_BITS))
        jobs = [(s, pre, g, prior, K, quantity, rank_threshold) for pre in prefixes]
        chunksize = max(1, len(jobs) // (4 * workers))
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(data,)
        ) as pool:
            shards = list(pool.map(_shard_job, jobs, chunksize=chunksize))
    res = reduce_shards(shards, data)
    res.diagnostics["workers"] = workers
    return res


def exact_quantity(
    data: Dataset,
    g: float,
    prior: GPriorSpec,
    q: Callable[[np.ndarray], np.ndarray],
    workers: int | None = None,
    force: bool = False,
) -> float:
    """Exact tau(a) = sum_gamma a(M) Pr(M | y) by a full sharded pass.

    The quantity maps a bitmask array to a float array. With workers > 1
    it must pickle (a module-level function, a ufunc, or a ``partial`` of
    one; a lambda fails in the pool); with workers=1 any callable works.
    The pass uses ``enumerate_exact``'s layout, a function of p alone, so
    the value is bit-identical for any worker count.
    """
    res = enumerate_exact(data, g, prior, K=1, workers=workers, force=force, quantity=q)
    return res.diagnostics["quantity_value"]


def count_models_above(
    data: Dataset,
    g: float,
    prior: GPriorSpec,
    log_bf_threshold: float,
    workers: int | None = None,
    force: bool = False,
) -> int:
    """Number of models with log Bayes factor strictly above a threshold."""
    res = enumerate_exact(
        data,
        g,
        prior,
        K=1,
        workers=workers,
        force=force,
        rank_threshold=log_bf_threshold,
    )
    return res.diagnostics["rank_count"]
