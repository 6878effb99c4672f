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
(``subset_sse``) eliminates that block one low column per level, for all
subsets so far at once, scoring the 2^b completions in O(2^b) array work
rather than one factorisation per completion; their log Bayes factors
come from one numpy expression. The first b - IN_PLACE_LEVELS levels are
square: each copies every subset's trailing block to the child that
leaves the column out and writes both triangles of the child that takes
it in. Their batches are small, so they cost numpy calls, not traffic.
Then the lower triangle is handed over to one array per column, and the
last levels run in place there: the left-out child is its parent, so
only the taken-in child is written, one lower-triangle column at a time.
A take-in reads only the pivot, the border below it and the same entry
of the trailing block, so both forms make the same float operations. A
take-in whose pivot is collinear, or that saturates the model, excludes
every model below it. Each shard keeps one log-space scale, m,
the largest log Bayes factor it has seen, and one vector of plain float
sums of exp(log BF - m), so 1e50-scale totals never overflow. It
absorbs each outer model's completions by factorised block sums
(``LowBlock.block_sums``): the weights form a 2^hi x 2^lo matrix over
the two halves of the low block, whose margins give the sums by position
and whose product with the low half's popcount indicator gives the sums
by size, in O(2^b) work. An inclusion is the sum over the models that
hold a variable divided by that sum plus the one over the models that
miss it, and a dimension its sum divided by the total of the dimension
sums, so neither can round above 1. A shard keeps its top K as a
``DistinctModels`` ranked by ``rank_models``; the reduction ranks the
shards' top models again. Shards are reduced in index order, so results
are bit-identical regardless of worker count. Each thread keeps one
``LowBlock`` per block width, which every pass, shard and outer model it
runs reuses, refilled only with each pass's thresholds: it holds the
doubling's levels, the block's sizes, weights and masks and the block
sums' tables, so scoring and absorbing an outer model allocate no array
of 2^b entries. A new block at b = 16 takes about 2.4 MB and 560 minor
page faults by the end of its first p=17 pass, once per thread; a
repeated pass takes none.

The shard width is s = min(max(0, p - LOW_BITS), DEFAULT_SHARD_BITS): it
is a function of p alone, with no option to change it and no dependence on
the worker count, and leaves every shard at least one full low block of
min(p, LOW_BITS) bits, so the numpy calls per block and the fixed costs per
shard are spread over 2^b models. The width fixes the reduction order, so
an exact result depends on the data and g alone; reports record the layout
as ``shard_bits`` and ``low_bits``.

A pass opens a process pool only where the work pays for it: at most
min(workers, 2^s, max(1, 2^p // MODELS_PER_WORKER)) processes, so that
each gets at least 2^20 models, and a pass given one runs its shards
in-process. On a 2-vCPU x86-64 host a 2-process pool costs 8-14 ms to
start and join, against 27-55M models/s per core as the host's speed
drifts (see the README). At K = 1000 on the benchmark's stand-in, [min,
median] of 7 alternating calls in two runs, it loses at p = 19 (15-20 ms
in-process against 25-36 ms pooled) and at p = 20 (29-30 / 32 ms against
32-33 / 35-36 ms), and wins at p = 21 (57-61 / 60-62 ms against 49-51 /
52-54 ms) and p = 22 (120-138 ms against 87-112 ms). The pool's size
changes only which process runs a shard, never the layout, so results do
not depend on it. The pool is ``map_with_data``'s, which
``cli.compare_runs`` runs its chains on too: each worker gets the Dataset
once and drops the workspaces it forked with, so a compare worker holds
none and an exact worker builds its own at its first shard instead of
copying the parent's pages on write.

No BLAS call in a shard is large enough to start BLAS helper threads,
which on a host with as many pool workers as cores would spin against the
other workers. OpenBLAS runs a gemm on one thread while M * N * K <=
4 * 65536 (``GEMM_ONE_THREAD``) and a gemv while m * n < 4 * 2304
(``GEMV_ONE_THREAD``). The block sums make two kinds of product. W @
by_size is 2^8 x 2^8 by 2^8 x 9 at b = 16, M * N * K = 589,824, so it is
taken in runs of 113 rows, 260,352 each. Each half's margins @ positions
is a 2^8-vector by a 2^8 x 16 matrix, m * n = 4,096. Every other
reduction is a numpy one, which stays on the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
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

# Free bit positions of a shard scored in one batch per outer model. On the
# p=35 stand-in, in-process on a 2-vCPU x86-64 host, a 2^27-model shard runs
# at 39-40M models/s per core with 14, 46-47M with 15, 52-55M with 16,
# 54-55M with 17, which doubles the workspace, and 51M with 18.
LOW_BITS = 16

# Doubling levels of a low block that run in place on the lower triangle,
# the last ones; the levels before run square, where a numpy call per
# column would cost more than the copy it saves. subset_sse at b = 16 on
# a p=35 stand-in block, medians of 12 rounds in two sweeps on a 2-vCPU
# x86-64 host: 1,163-1,303 us with every level square, 1,098-1,099 with
# 5 levels in place, 1,000-1,045 with 6, 932-976 with 7, 929-942 with 8,
# 898-956 with 9, 909-949 with 10 and 1,100-1,136 with all 16.
IN_PLACE_LEVELS = 8

# Fewest models that pay for one more pool process: about 30 ms of one
# core's work, against the 8-14 ms a 2-process pool costs to start and join.
# At 2^19 a p = 20 pass opened a 2-process pool that lost to one process.
MODELS_PER_WORKER = 1 << 20

# Models per call of an exact pass's quantity: 64 KB int64 and float
# arrays, half of glibc's first mmap threshold of 128 KB, which only grows.
QUANTITY_RUN = 1 << 13

# OpenBLAS runs a gemm on one thread while M * N * K <= 4 * 65536, and a
# gemv while m * n < 4 * 2304; see the module docstring
GEMM_ONE_THREAD = 4 * 65536
GEMV_ONE_THREAD = 4 * 2304


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


class LowBlock:
    """The low block of b positions that every outer model completes, with
    the scratch arrays and tables that score and absorb its 2^b
    completions. ``low_block`` keeps one per thread and block width, and
    every pass, shard and outer model that thread runs reuses it.

    ``threshold`` holds the pivots SINGULAR_EPS * G_jj at or below which a
    take-in is singular and ``sizes`` the popcount of each subset t; ``k``
    takes an outer model's completion sizes. ``subset_sse`` copies the
    bordered matrix to ``first`` and runs the doubling's first
    b - IN_PLACE_LEVELS levels square, each a tuple of views in
    ``levels``: the pivot, border and trailing block of the level before,
    the level's left-out and taken-in halves, the flags of the subsets so
    far and of the new ones, and the level's threshold. ``handover``
    copies the lower triangle of the last square level into ``columns``:
    column c of the lower triangle, c = 0..b with y at c = b, is one
    (b + 1 - c) x 2^c array holding the entries (r, c), r >= c, of every
    subset of the first c positions. The last levels, one tuple each in
    ``in_place``, eliminate a column there: its pivots and border, one
    (rows from c, row c, left-out, taken-in) tuple of views per later
    column c, and the flags and threshold as above. The columns lie in
    one buffer from y down, and the square levels alternate between two
    stretches of y's column past the entries that the handover writes.
    Once the doubling is done only y's column, ``sse``, is live, and the
    buffer after it holds ``w``, the completions' weights, and
    ``scratch``, the size term of ``log_bf_values`` and then, as bytes,
    the two ``masks`` of ``Shard.absorb``; ``singular`` holds the flags.
    ``run`` is 0..QUANTITY_RUN - 1, for the quantity runs of a block
    without exclusions. The rest are the tables of ``block_sums``.
    """

    def __init__(self, gjj: np.ndarray):
        b = self.b = gjj.size
        self.threshold = SINGULAR_EPS * gjj
        # uint8: a size is at most p, and log_bf_values takes N - 1 - k in
        # float, so it cannot wrap
        self.sizes = np.bitwise_count(np.arange(1 << b)).astype(np.uint8)
        self.k = np.empty(1 << b, dtype=np.uint8)
        self.run = np.arange(QUANTITY_RUN)

        square = max(0, b - IN_PLACE_LEVELS)
        # the columns from y down to the first one eliminated in place, in
        # a buffer with room for w and the scratch after y's
        column_sizes = [(b + 1 - c) << c for c in range(square, b + 1)]
        buffer = np.empty(max(sum(column_sizes), 3 << b))
        self.columns, start = {}, 0
        for c in range(b, square - 1, -1):
            end = start + column_sizes[c - square]
            self.columns[c] = buffer[start:end].reshape(b + 1 - c, 1 << c)
            start = end
        self.sse = self.columns[b][0]
        self.w, self.scratch = buffer[1 << b : 3 << b].reshape(2, 1 << b)
        self.masks = self.scratch.view(bool)[: 2 << b].reshape(2, 1 << b)
        self.singular = np.zeros(1 << b, dtype=bool)

        # square level j holds (b - j)^2 matrix entries for each of
        # 2^(j + 1) subsets; the handover writes the first 2^square
        # entries of each column, so the levels alternate between two
        # stretches of y's column after those, where they fit for
        # IN_PLACE_LEVELS >= 7
        self.first = T = np.empty((b + 1, b + 1, 1))
        even, odd = [max([0] + [(b - j) ** 2 << (j + 1) for j in range(parity, square, 2)])
                     for parity in (0, 1)]
        spare = self.sse[1 << square :]
        if even + odd > spare.size:
            spare = np.empty(even + odd)
        buffers = [spare[:even], spare[even : even + odd]]
        self.levels = []
        for j in range(square):
            n, half = b - j, 1 << j
            level = buffers[j % 2][: n * n * 2 * half].reshape(n, n, 2 * half)
            self.levels.append((
                T[0, 0], T[1:, 0], T[1:, 1:], level[:, :, :half], level[:, :, half:],
                self.singular[:half], self.singular[half : 2 * half],
                self.threshold[j : j + 1],
            ))
            T = level
        self.handover = [
            (self.columns[c][:, : 1 << square], T[c - square :, c - square])
            for c in range(square, b + 1)
        ]
        self.in_place = []
        for j in range(square, b):
            half = 1 << j
            d, border = self.columns[j][0, :half], self.columns[j][1:, :half]
            updates = [
                (border[i:], border[i], self.columns[c][:, :half], self.columns[c][:, half : 2 * half])
                for i, c in enumerate(range(j + 1, b + 1))
            ]
            self.in_place.append((
                d, border, updates, self.singular[:half], self.singular[half : 2 * half],
                self.threshold[j : j + 1],
            ))

        # subset t is entry (t >> lo, t & (2^lo - 1)) of a (2^hi, 2^lo) matrix W
        hi = b // 2
        lo = self.lo = b - hi
        self.shape = (1 << hi, 1 << lo)
        low_half = membership(np.arange(1 << lo), lo)
        # column j marks the low halves of popcount j
        self.by_size = np.ascontiguousarray(low_half[:, lo:-1])
        self.row_sizes = np.empty((1 << hi, lo + 1))
        # W @ by_size is taken in runs of rows small enough for one thread
        self.rows = max(1, GEMM_ONE_THREAD // self.by_size.size)
        # the size of each entry of row_sizes: its row's popcount plus j
        row_popcount = np.bitwise_count(np.arange(1 << hi)).astype(np.intp)
        self.size_of = (row_popcount[:, None] + np.arange(lo + 1)).ravel()
        # W's column sums and row sums; for each, which halves hold each
        # position of that half, then which miss it
        self.col_sums = np.empty(1 << lo)
        self.row_sums = np.empty(1 << hi)
        holds_lo = low_half[:, :lo]
        holds_hi = membership(np.arange(1 << hi), hi)[:, :hi]
        self.positions_lo = np.hstack((holds_lo, 1.0 - holds_lo))
        self.positions_hi = np.hstack((holds_hi, 1.0 - holds_hi))
        self.in_out = np.empty((2, b))

    def block_sums(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sums of the weights w of the 2^b subsets: of those that hold
        each position, then of those that miss it (2 x b), and of those of
        each size 0..b.

        W's column sums and row sums are the margins of the low and the
        high half, and one product of each with its half's ``positions``
        sums them by position. W @ ``by_size`` sums each row by the
        popcount of the low half; a subset's size adds its row's popcount,
        so one bincount gives the sums by size. See the module docstring
        on the products' size."""
        W = w.reshape(self.shape)
        for r in range(0, W.shape[0], self.rows):
            np.matmul(W[r : r + self.rows], self.by_size, out=self.row_sizes[r : r + self.rows])
        np.sum(W, axis=0, out=self.col_sums)
        np.sum(self.row_sizes, axis=1, out=self.row_sums)
        lo = self.lo
        self.in_out[:, :lo] = (self.col_sums @ self.positions_lo).reshape(2, lo)
        self.in_out[:, lo:] = (self.row_sums @ self.positions_hi).reshape(2, self.b - lo)
        by_size = np.bincount(self.size_of, self.row_sizes.ravel(), minlength=self.b + 1)
        return self.in_out, by_size


class _Workspaces(threading.local):
    """Each thread's ``LowBlock`` of each block width."""

    def __init__(self):
        self.blocks: dict[int, LowBlock] = {}


_workspaces = _Workspaces()


def low_block(data: Dataset, shard_bits: int) -> LowBlock:
    """The calling thread's ``LowBlock`` for every shard of width
    ``shard_bits``: positions 0..b-1, with b = min(p - shard_bits,
    LOW_BITS), and thresholds from this data's G_jj."""
    gjj = np.diagonal(data.gram)[: min(data.p - shard_bits, LOW_BITS)]
    low = _workspaces.blocks.get(gjj.size)
    if low is None:
        low = _workspaces.blocks[gjj.size] = LowBlock(gjj)
    else:
        np.multiply(SINGULAR_EPS, gjj, out=low.threshold)
    return low


@dataclass
class Shard:
    """Accumulators for one fixed-prefix slice of the model space.

    ``sums`` holds sums of exp(log BF - m) over the non-excluded models, all
    on the one scale ``m``: p of the models that hold each variable, p of
    those that miss it, p + 1 of those of each dimension and the total,
    which adds the dimension sums; then the sum weighted by the quantity.
    ``top`` holds the K best models, ranked by ``rank_models``.
    """

    index: int
    K: int
    sums: np.ndarray  # length 3p + 3
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
        low: LowBlock,
        quantity: Callable[[np.ndarray], np.ndarray] | None,
        rank_threshold: float | None,
    ) -> None:
        """Add the 2^b completions of one outer model: entry t of ``lbf`` is
        for the model ``outer | t``, and -inf excludes it. A NaN is a
        numerical fault, not an exclusion, and raises NumericalError."""
        top = float(lbf.max())
        if math.isnan(top):
            raise NumericalError(
                f"NaN log Bayes factor among the completions of model {outer:#x}"
            )
        finite, entry = low.masks
        n_finite = int(np.count_nonzero(np.greater(lbf, NEG_INF, out=finite)))
        self.count += lbf.size
        self.excluded_count += lbf.size - n_finite
        if not n_finite:
            return
        if top > self.m:
            self.rescale(top)
        # an excluded model weighs exp(-inf) = 0
        w = np.exp(np.subtract(lbf, self.m, out=low.w), out=low.w)

        # each variable of the outer model is held, or missed, by all of them
        in_out, by_size = low.block_sums(w)
        total = by_size.sum()
        b = low.b
        p = self.sums.size // 3 - 1
        holds_misses = self.sums[: 2 * p].reshape(2, p)
        holds_misses[:, :b] += in_out.reshape(2, b)
        outer_bits = (outer >> np.arange(b, p)) & 1
        holds_misses[0, b:] += total * outer_bits
        holds_misses[1, b:] += total * (1 - outer_bits)
        k = 2 * p + outer.bit_count()
        self.sums[k : k + b + 1] += by_size
        self.sums[-2] += total

        if quantity is not None:
            # in runs of QUANTITY_RUN models, so that glibc serves every
            # temporary from its heap rather than mapping fresh pages; a
            # reduction, not np.dot: see the module docstring on BLAS. A
            # block without exclusions scores each run whole, ungathered.
            for lo in range(0, lbf.size, QUANTITY_RUN):
                if n_finite == lbf.size:
                    bits = outer | lo | low.run[: lbf.size - lo]
                    weights = w[lo : lo + QUANTITY_RUN]
                else:
                    scored = np.flatnonzero(finite[lo : lo + QUANTITY_RUN]) + lo
                    bits, weights = outer | scored, w[scored]
                self.sums[-1] += (quantity(bits) * weights).sum()
        if rank_threshold is not None:
            above = np.greater(lbf, rank_threshold, out=entry)
            self.rank_count += int(np.count_nonzero(above))
        # only a model at least as good as the K-th, of the top or of
        # this block, can enter
        if len(self.top) == self.K:
            can_enter = np.greater_equal(lbf, self.top.log_bfs[-1], out=entry)
        elif n_finite > self.K:
            kth = top if self.K == 1 else np.partition(lbf, lbf.size - self.K)[lbf.size - self.K]
            can_enter = np.greater_equal(lbf, kth, out=entry)
        else:
            can_enter = finite
        enter = np.flatnonzero(can_enter)
        if not enter.size:
            return
        self.top = rank_models(
            DistinctModels(
                np.concatenate((self.top.bits, outer | enter)),
                np.concatenate((self.top.log_bfs, lbf[enter])),
            ),
            self.K,
        )


def _take_in(T: np.ndarray) -> np.ndarray:
    """The Schur complement left after eliminating T's first column: the
    trailing block minus c c' with c = T[1:, 0] / sqrt(T[0, 0]). A stack
    of matrices, batch last, is eliminated in one call."""
    col = T[1:, 0] / np.sqrt(T[0, 0])
    return T[1:, 1:] - col[:, None] * col[None]


def subset_sse(B: np.ndarray, low: LowBlock) -> tuple[np.ndarray, np.ndarray]:
    """SSE of one model extended by each subset T of b further columns L,
    and whether that extension is singular.

    ``B`` is the (b+1)x(b+1) bordered matrix [[S, r], [r', sse]], with S the
    Schur complement of the model's active set A in the Gram matrix of L,
    r = X'y_L - G_LA beta_A and sse the model's SSE; ``low`` is the
    ``LowBlock`` of L. Then SSE(A + T) = sse - r_T' S_TT^-1 r_T, the last
    pivot left after eliminating T from [[S_TT, r_T], [r_T', sse]]. Entry t
    of both returned arrays is for the subset T holding column i of L when
    bit i of t is set. The subsets are eliminated by doubling: level j
    holds, batch last, the Schur complements of all 2^j subsets of the
    first j columns, each on the remaining columns and y. The child that
    leaves column j out is the trailing block, the one that takes it in is
    ``_take_in``'s, and the children are stacked [left out, taken in], so
    subset t stays at index t. The last IN_PLACE_LEVELS levels keep only
    lower triangles, one array per column, in which the left-out child is
    its parent and the taken-in child is written column by column (see
    ``LowBlock``). A subset is singular when a column it takes in has a
    pivot d <= SINGULAR_EPS * G_jj; its children inherit the flag, and its
    SSE is meaningless, possibly NaN. Only B's lower triangle is read. The
    levels are built in ``low``'s buffers, and the returned arrays are its
    ``sse``, clipped at 0 in place, and ``singular``: they hold until the
    next call with the same block.
    """
    np.copyto(low.first[:, :, 0], B)
    # a singular subset's children may take the square root of a
    # negative pivot or divide by a zero one
    with np.errstate(invalid="ignore", divide="ignore"):
        for d, border, rest, left_out, taken_in, flags, child_flags, eps in low.levels:
            np.less_equal(d, eps, out=child_flags)
            child_flags |= flags
            np.copyto(left_out, rest)
            # _take_in, written into the level; the pivots and the border
            # of the level before are not read again, so they take sqrt(d)
            # and the column
            col = np.divide(border, np.sqrt(d, out=d), out=border)
            np.subtract(rest, np.multiply(col[:, None], col[None], out=taken_in), out=taken_in)
        for column, lower in low.handover:
            np.copyto(column, lower)
        # the left-out child of subset t is t itself, so only the taken-in
        # one is written, at t + 2^j, one lower-triangle column at a time;
        # the border becomes the column, so the updates' views read it
        for d, border, updates, flags, child_flags, eps in low.in_place:
            np.less_equal(d, eps, out=child_flags)
            child_flags |= flags
            np.divide(border, np.sqrt(d, out=d), out=border)
            for below, pivot_row, left_out, taken_in in updates:
                np.subtract(left_out, np.multiply(below, pivot_row, out=taken_in), out=taken_in)
    return np.maximum(low.sse, 0.0, out=low.sse), low.singular


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
    not enter the sums. The low block is the calling thread's
    ``low_block``, so an outer model allocates no array of 2^b entries,
    unless a quantity is given or the top K is filled by a partition.
    """
    p = data.p
    free = p - shard_bits
    b = min(free, LOW_BITS)
    taken = [j for j in range(free, p) if (prefix >> (j - free)) & 1]
    order = taken + list(range(free - 1, b - 1, -1)) + list(range(b))
    B = np.empty((len(order) + 1, len(order) + 1))
    B[:-1, :-1] = data.gram[np.ix_(order, order)]
    B[:-1, -1] = B[-1, :-1] = data.xty[order]
    B[-1, -1] = data.sse0
    gjj = np.diagonal(data.gram)[order]
    depth = len(order) - b
    low = low_block(data, shard_bits)

    shard = Shard(index=prefix, K=K, sums=np.zeros(3 * p + 3))

    # (matrix, level, model bits, model size); the left child is pushed
    # last, so outer models are absorbed in ascending order
    stack = [(B, 0, 0, 0)]
    while stack:
        B, level, bits, k = stack.pop()
        if level == depth:
            sse, singular = subset_sse(B, low)
            k_block = np.add(low.sizes, k, out=low.k)
            lbf = log_bf_values(sse, k_block, data.sse0, data.N, g, out=sse, scratch=low.scratch)
            np.copyto(lbf, NEG_INF, where=singular)
            shard.absorb(bits, lbf, low, quantity, rank_threshold)
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
    sums = np.zeros(3 * p + 3)
    for s in shards:
        s.rescale(m)
        sums += s.sums
    # each ratio's denominator adds its numerator to other non-negative
    # sums, and rounding is monotone, so none can exceed 1
    holds, misses = sums[: 2 * p].reshape(2, p)
    inclusion = holds / (holds + misses)
    total = float(sums[-2])
    dimension = sums[2 * p : -2] / total

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


# The Dataset a pool worker serves, set once per worker.
_worker_data: Dataset | None = None


def _init_worker(data: Dataset) -> None:
    global _worker_data
    _worker_data = data
    # the blocks this process forked with: an exact worker builds its own
    # at its first shard, a compare worker needs none
    _workspaces.blocks.clear()


def _run_task(fn: Callable, item):
    return fn(_worker_data, item)


def map_with_data(fn: Callable, data: Dataset, items, workers: int, run: int = 1) -> list:
    """``[fn(data, item) for item in items]``, in order: in-process for one
    worker, otherwise on a pool of ``workers`` processes that each receive
    the Dataset once, start without the workspaces they forked with, and
    take the items in contiguous runs of ``run``, each run with ``fn``.
    ``fn`` and the items must pickle for a pool."""
    if workers == 1:
        return [fn(data, item) for item in items]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(data,)
    ) as pool:
        return list(pool.map(partial(_run_task, fn), items, chunksize=run))


def _prefix_shard(data: Dataset, prefix: int, shard_bits: int, **kwargs) -> Shard:
    """``enumerate_shard`` with the prefix second, for ``map_with_data``."""
    return enumerate_shard(data, shard_bits, prefix, **kwargs)


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
    is above 1, so a pass below 2^21 models runs in-process: there a pool
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
    if prior.g != g:
        raise UsageError(f"g={g!r} but the prior's g is {prior.g!r}")
    s = default_shard_bits(p)
    prefixes = range(1 << s)
    workers = default_workers() if workers is None else max(1, workers)
    workers = min(workers, len(prefixes), max(1, (1 << p) // MODELS_PER_WORKER))
    task = partial(_prefix_shard, shard_bits=s, g=g, prior=prior, K=K,
                   quantity=quantity, rank_threshold=rank_threshold)
    run = max(1, len(prefixes) // (4 * workers))
    shards = map_with_data(task, data, prefixes, workers, run)
    res = reduce_shards(shards, data)
    res.diagnostics["workers"] = workers
    # a reduction the pass was not asked for is None, not a 0
    if quantity is None:
        res.diagnostics["quantity_value"] = None
    if rank_threshold is None:
        res.diagnostics["rank_count"] = None
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
