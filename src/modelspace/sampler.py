"""Gibbs sampler over the model space, with a Metropolis-Hastings step for g
under the hierarchical Zellner-Siow prior.

One "iteration" is a full systematic sweep over the p components in index
order, recording one model per sweep. Under the uniform model prior and a
g-prior density that does not depend on gamma, every prior term cancels in
the component full conditionals and in the g-step acceptance ratio, leaving
pure Bayes-factor ratios evaluated in log space.

Each component's conditional needs only the SSE of the model with that bit
flipped. Up to ``SWEEP_MATRIX_MAX_P`` columns, the sweep runs on
``linmodel.FitState``, the cross-product matrix of the design and the
response swept on the active set: every flip SSE, add or drop, costs O(1)
from two lists of floats and only a bit that actually flips pays an O(p^2)
rank-one update (Goodnight 1979, *A tutorial on the SWEEP operator*). Above
it, ``InverseGramState`` keeps the inverse Gram matrix of the active set in
O(min(p, N) * p) memory: a drop SSE costs O(1), an add SSE one k-vector
product and a flip an O(k^2) update (fast updating as in George &
McCulloch 1997, *Approaches for Bayesian variable selection*). Either
state's rank-one update is one BLAS product (``np.dot`` of a column and a
row) into a buffer it owns. Each entry of that product rounds once, as
``np.multiply.outer``'s does, so a chain does not depend on the BLAS
thread count; OpenBLAS starts helper threads only above 65,536 * 4
multiply-adds, that is for an inverse Gram of more than 512 active
columns, and never on the sweep's swept matrix (p <= 96). Both states
offer what the sweep reads and changes: ``data``, the bitmask ``bits``,
its size ``k`` and its ``sse``, with ``flip_sse(i)``, ``add(i, sse)``
(False, with the state untouched, on a singular or saturated add),
``delete(i, sse)`` and ``reset()``. ``flip_sse`` returns a value in
[0, sse0]; the sweep hands it to ``add`` or ``delete`` as ``sse``, and
other callers leave ``sse`` out for the state to compute. ``run_chain``
resets the state after each SSE spot check, which bounds the drift of
the updates.

The generator is a numpy Generator whose bit generator has ``advance``,
such as the PCG64 that ``default_rng`` builds. A sweep draws p uniforms in
one block (``Generator.random(p)`` returns the doubles of p scalar draws,
one 64-bit output each) and steps the generator back by those that
singular or saturated adds left unused. A seeded chain therefore draws
exactly the stream of one scalar ``random()`` per drawing component, and
the g-step between sweeps continues it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bayesfactor import (
    NEG_INF,
    GPriorSpec,
    log_bf_value,
    sample_prior_g,
)
from .errors import UsageError
from .linmodel import (
    SINGULAR_EPS,
    Dataset,
    FitState,
    bit_indices,
    bits_array,
    sse_direct,
)

SSE_SPOT_CHECK_EVERY = 1000
# the largest p whose sweep keeps the (p+1)x(p+1) swept matrix. Its flips
# cost O(p^2) each, the inverse Gram's O(k^2). With the state forced on the
# same chain (N = 2p, one BLAS thread, a 2-vCPU host), the swept matrix ran
# 3.7-4.2x the inverse Gram's sweeps/s at p=96 with ~4 flips per sweep and
# 1.15-1.43x with about half the bits flipping every sweep; at p=128 these
# read 3.1-3.2x and 0.97-1.23x: with half the bits flipping, the crossover
# now sits near p=128
SWEEP_MATRIX_MAX_P = 96


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
        if self.seed < 0:
            raise UsageError(f"seed (--seed) must be >= 0, got {self.seed}")
        if self.start not in ("null_model", "full_model", "random"):
            raise UsageError(f"unknown start {self.start!r}")


@dataclass
class ChainTrace:
    """Ordered record of one sampler run or trace file: three aligned arrays
    of the visited models' bitmasks (``bits_array``'s dtype rule), the g
    draws and the cached log Bayes factors."""

    bits: np.ndarray
    g_draws: np.ndarray
    log_bfs: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.bits = bits_array(self.bits)

    @property
    def n(self) -> int:
        return self.bits.size


def _sigmoid(lnr: float) -> float:
    """1 / (1 + exp(-lnr)), stable for any lnr including +-inf."""
    if lnr == NEG_INF:
        return 0.0
    if lnr >= 0:
        return 1.0 / (1.0 + math.exp(-lnr))
    e = math.exp(lnr)
    return e / (1.0 + e)


class InverseGramState:
    """Least-squares state of one model, kept for the Gibbs sweep at
    p > ``SWEEP_MATRIX_MAX_P``, where an O(p^2) update per flip costs more
    than it saves.

    Holds the active columns ``cols``, ``Ginv``, the inverse of the active
    centered Gram submatrix G[A,A], the coefficients ``beta`` = Ginv X'y[A]
    and the active rows ``GA`` = G[A,:], all in the order of ``cols``, in
    O(min(p, N) * p) memory. From these, ``flip_sse`` gives the SSE after
    flipping any one bit: O(1) for a drop, one k-vector product for an add.
    Only ``add`` and ``delete`` pay an O(k^2) rank-one update. ``reset``
    rebuilds the state from the bitmask by one solve on G[A,A].
    """

    __slots__ = (
        "data", "bits", "k", "sse", "cols", "Ginv", "beta", "GA",
        "_sse0", "_gdiag", "_xty", "_kmax", "_add", "_Gbuf", "_bbuf", "_GAbuf",
        "_Tbuf",
    )

    def __init__(self, data: Dataset, bits: int = 0):
        self.data = data
        self._sse0 = data.sse0
        self._gdiag = [data.gram_diag(j) for j in range(data.p)]
        self._xty = data.xty.tolist()
        self._kmax = data.N - 2
        # Ginv, beta and GA are views of the leading k rows of buffers
        # sized for the largest model the sweep can reach
        cap = max(min(data.p, self._kmax), bits.bit_count())
        self._Gbuf = np.empty((cap, cap))
        self._bbuf = np.empty(cap)
        self._GAbuf = np.empty((cap, data.p))
        # the rank-one products of the updates, k^2 of them at a time
        self._Tbuf = np.empty(cap * cap)
        self.bits = bits
        self.reset()

    def reset(self) -> None:
        """Rebuild the state of the current model by one solve on G[A,A],
        which discards the drift of the updates since the last reset."""
        data = self.data
        self._add = None  # (i, sse, w, d, c) of the last add conditional
        self.cols = cols = bit_indices(self.bits)
        k = len(cols)
        self.sse = data.sse0
        if k:
            GA = self._GAbuf[:k]
            for r, j in enumerate(cols):
                GA[r] = data.gram_col(j)
            xty = data.xty[cols]
            sol = np.linalg.solve(GA[:, cols], np.column_stack([np.eye(k), xty]))
            self._Gbuf[:k, :k] = sol[:, :k]
            self._bbuf[:k] = sol[:, k]
            self.sse = min(max(data.sse0 - float(xty @ sol[:, k]), 0.0), data.sse0)
        self._resize(k)

    def _resize(self, k: int) -> None:
        self.k = k
        self.Ginv = self._Gbuf[:k, :k]
        self.beta = self._bbuf[:k]
        self.GA = self._GAbuf[:k]

    def _outer(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The outer product of two k-vectors, one BLAS product into the
        reused buffer. Each entry rounds once, as ``np.outer``'s does; a
        zero may come back +0.0 where ``np.outer`` gives -0.0, a sign that
        no SSE reads."""
        k = a.size
        T = self._Tbuf[: k * k].reshape(k, k)
        return np.dot(a[:, None], b[None, :], out=T)

    def flip_sse(self, i: int) -> float | None:
        """SSE of the model with bit i flipped, or None when that add is
        singular or saturated, by the rule of ``FitState.flip_sse``."""
        k = self.k
        if (self.bits >> i) & 1:
            if k == 1:
                return self._sse0
            q = self.cols.index(i)
            b = self.beta[q]
            sse = self.sse + b * b / self.Ginv[q, q]
            # clamped to [0, sse0] as in FitState; the lower bound binds
            # only if the drift of the updates made Ginv[q, q] negative
            if sse < 0.0:
                return 0.0
            if sse > self._sse0:
                return self._sse0
            return sse
        if k >= self._kmax:
            return None
        gii = self._gdiag[i]
        if k:
            gi = self.GA[:, i]
            w = self.Ginv @ gi
            d = gii - gi @ w
            c = self._xty[i] - gi @ self.beta
        else:
            w = None
            d = gii
            c = self._xty[i]
        if d <= SINGULAR_EPS * gii:
            return None
        sse = self.sse - c * c / d
        if sse < 0.0:
            sse = 0.0
        self._add = (i, sse, w, d, c)
        return sse

    def add(self, i: int, sse: float | None = None) -> bool:
        """Add column i, reusing the pieces of the ``flip_sse(i)`` call just
        made, which hold its SSE, so a given ``sse`` adds nothing. Returns
        False, with the state untouched, when the add is singular or
        saturated."""
        if (self.bits >> i) & 1:
            raise ValueError(f"column {i} already active")
        if (self._add is None or self._add[0] != i) and self.flip_sse(i) is None:
            return False
        _, sse, w, d, c = self._add
        self._add = None
        k = self.k
        G = self._Gbuf
        if k:
            u = w / d
            self.Ginv += self._outer(w, u)
            G[:k, k] = -u
            G[k, :k] = -u
            self.beta -= w * (c / d)
        G[k, k] = 1.0 / d
        self._bbuf[k] = c / d
        self._GAbuf[k] = self.data.gram_col(i)
        self.sse = sse
        self.cols.append(i)
        self.bits |= 1 << i
        self._resize(k + 1)
        return True

    def delete(self, i: int, sse: float | None = None) -> None:
        """Drop column i; the SSE becomes ``sse``, the ``flip_sse(i)``
        value, computed here when not given. At k = 1 that is sse0 exactly,
        so the null model's log BF is exactly 0."""
        k = self.k
        q = self.cols.index(i)
        last = k - 1
        self.sse = self.flip_sse(i) if sse is None else sse
        self._add = None
        if k > 1:
            Ginv = self.Ginv
            f = Ginv[q]
            e = f[q]
            bq = self.beta[q]
            # the update zeroes row and column q; the last active column
            # then moves into position q
            self.beta -= f * (bq / e)
            Ginv -= self._outer(f, f / e)
            Ginv[q] = Ginv[last]
            Ginv[:, q] = Ginv[:, last]
            self.beta[q] = self.beta[last]
            self.GA[q] = self.GA[last]
        self.cols[q] = self.cols[last]
        self.cols.pop()
        self.bits &= ~(1 << i)
        self._resize(last)


def sweep_state(data: Dataset, bits: int = 0) -> FitState | InverseGramState:
    """The Gibbs sweep's state of model ``bits``: the swept matrix up to
    ``SWEEP_MATRIX_MAX_P`` columns, the active-set inverse above."""
    if data.p <= SWEEP_MATRIX_MAX_P:
        return FitState(data, bits)
    return InverseGramState(data, bits)


def gibbs_sweep(
    state: FitState | InverseGramState,
    g: float,
    prior: GPriorSpec,
    rng: np.random.Generator,
) -> FitState | InverseGramState:
    """One systematic scan over components 1..p, in place.

    Component i is included with its full-conditional probability
    r/(1+r), ln r = ln B(bit i set) - ln B(bit i clear). A singular or
    saturated add has probability 0 and draws no uniform.

    ``rng`` is a numpy Generator whose bit generator has ``advance``, such
    as the PCG64 of ``default_rng``. The sweep draws its p uniforms in one
    block, hands them out in order to the components that draw, and then
    steps the generator back by the unused ones, so that it leaves the
    stream where p scalar ``rng.random()`` calls, one per drawing
    component, would have left it.
    """
    data = state.data
    sse0 = data.sse0
    N = data.N
    p = data.p
    # each flip's log BF groups its terms as log_bf_value does, so it
    # rounds the same; a flip is never saturated, since flip_sse refuses a
    # saturated add and a drop only shrinks the model
    a = -0.5 * (N - 1)
    lg = math.log1p(g)
    lbf = log_bf_value(state.sse, state.k, sse0, N, g)
    uniforms = rng.random(p).tolist()
    used = 0
    for i in range(p):
        sse = state.flip_sse(i)
        if sse is None:
            continue
        # flip_sse clamps to [0, sse0], so the ratio needs no clamp
        fit = a * math.log1p(g * (sse / sse0))
        u = uniforms[used]
        used += 1
        if (state.bits >> i) & 1:
            lbf_flip = fit + 0.5 * (N - state.k) * lg
            if u >= _sigmoid(lbf - lbf_flip):
                state.delete(i, sse)
                lbf = lbf_flip
        else:
            lbf_flip = fit + 0.5 * (N - state.k - 2) * lg
            if u < _sigmoid(lbf_flip - lbf):
                state.add(i, sse)
                lbf = lbf_flip
    if used < p:
        # one step per double; PCG64's period is 2^128
        rng.bit_generator.advance((used - p) % (1 << 128))
    return state


def mh_step_g(
    state: FitState | InverseGramState,
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


def _initial_state(
    data: Dataset, start: str, rng: np.random.Generator
) -> FitState | InverseGramState:
    state = sweep_state(data)
    if start == "null_model":
        return state
    kmax = data.N - 2
    full = start == "full_model"
    # random start: each column independently with probability 1/2, in a
    # shuffled order so truncation at saturation is not index-biased
    order = range(data.p) if full else rng.permutation(data.p).tolist()
    for j in order:
        if state.k >= kmax:
            break
        # a singular column is skipped
        if full or rng.random() < 0.5:
            state.add(j)
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
    try:
        # int64 holds every bitmask of up to 63 columns
        bits = np.empty(n, dtype=np.int64 if data.p <= 63 else object)
        g_draws = np.empty(n)
        log_bfs = np.empty(n)
    except (MemoryError, ValueError):  # a trace larger than memory can hold
        raise UsageError(
            f"iterations (--iterations) {n} is too many to hold the trace"
        ) from None
    accepts = 0
    raw = 0
    flips = 0
    spot_max_rel = 0.0
    i = 0
    while i < n:
        before = state.bits
        gibbs_sweep(state, g, prior, rng)
        flips += (before ^ state.bits).bit_count()
        if prior.hierarchical:
            g, ok = mh_step_g(state, g, prior, rng)
            accepts += ok
        raw += 1
        if raw % SSE_SPOT_CHECK_EVERY == 0:
            ref = sse_direct(data, state.bits)
            spot_max_rel = max(
                spot_max_rel, abs(state.sse - ref) / max(ref, data.sse0 * 1e-12)
            )
            # the check measured the drift of the rank-one updates; reset it
            state.reset()
        if raw > config.burn and (raw - config.burn - 1) % config.thin == 0:
            bits[i] = state.bits
            g_draws[i] = g
            log_bfs[i] = log_bf_value(state.sse, state.k, data.sse0, data.N, g)
            i += 1
    meta = {
        "raw_sweeps": raw,
        "g_accept_rate": accepts / raw if prior.hierarchical else None,
        "bit_flips_per_sweep": flips / raw,
        "sse_spot_check_max_rel": spot_max_rel,
    }
    return ChainTrace(bits=bits, g_draws=g_draws, log_bfs=log_bfs, meta=meta)
