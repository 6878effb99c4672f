"""Closed-form log Bayes factors under the g-prior, and priors on g. The
model-space prior is uniform, so it cancels from every ratio. All
arithmetic stays in log space: totals on real data reach 1e50 and must
never be exponentiated en route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

NEG_INF = float("-inf")


@dataclass(frozen=True)
class GPriorSpec:
    """Prior on g (fixed or Zellner-Siow hierarchical); the model-space
    prior is uniform over all 2^p models."""

    kind: str  # "fixed" | "zellner_siow"
    g: float | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind == "fixed":
            if self.g is None or not math.isfinite(self.g) or self.g <= 0:
                raise UsageError(f"fixed g-prior needs a finite g > 0, got {self.g}")
        elif self.kind == "zellner_siow":
            if self.n is None or self.n < 1:
                raise UsageError("Zellner-Siow prior needs the sample count N")
        else:
            raise UsageError(f"unknown g-prior kind {self.kind!r}")

    @classmethod
    def fixed(cls, g: float) -> "GPriorSpec":
        return cls(kind="fixed", g=float(g))

    @classmethod
    def zellner_siow(cls, n: int) -> "GPriorSpec":
        return cls(kind="zellner_siow", n=int(n))

    @property
    def hierarchical(self) -> bool:
        return self.kind == "zellner_siow"


def log_bf_value(sse: float, k: int, sse0: float, N: int, g: float) -> float:
    """ln B_{gamma 0}(g) = -((N-1)/2) ln(1 + g SSE/SSE0) + ((N-k-1)/2) ln(1+g)."""
    if k > N - 2:
        return NEG_INF
    ratio = max(sse / sse0, 0.0)
    return -0.5 * (N - 1) * math.log1p(g * ratio) + 0.5 * (N - k - 1) * math.log1p(g)


def log_bf_values(
    sse: np.ndarray,
    k: np.ndarray,
    sse0: float,
    N: int,
    g: float,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """``log_bf_value`` over 1-d arrays of SSE and model size, written to
    ``out`` when given (it may be ``sse``). ``scratch``, a contiguous float
    array of the same length, takes the size term and then the saturation
    mask, so that a call given both allocates nothing. Each step rounds
    as that function's does: 0.5 * (N - k - 1) is exact, so the size term
    is the one rounded product however it is grouped, and N - 1 - k is
    exact in float for any integer dtype of k."""
    lbf = np.divide(sse, sse0, out=out)
    np.maximum(lbf, 0.0, out=lbf)
    np.multiply(g, lbf, out=lbf)
    np.log1p(lbf, out=lbf)
    lbf *= -0.5 * (N - 1)
    term = np.subtract(N - 1, k, out=scratch, dtype=np.float64)
    term *= 0.5 * math.log1p(g)
    lbf += term
    saturated = np.greater(k, N - 2, out=term.view(bool)[: term.size])
    np.copyto(lbf, NEG_INF, where=saturated)
    return lbf


def log_prior_g_density(g: float, spec: GPriorSpec) -> float:
    """Log density of the Zellner-Siow prior Inverse-Gamma(1/2, N/2) at g."""
    if not spec.hierarchical:
        raise UsageError("fixed-g specs have no density on g")
    if g <= 0:
        return NEG_INF
    n = spec.n
    return (
        0.5 * math.log(n / 2.0)
        - math.lgamma(0.5)
        - 1.5 * math.log(g)
        - n / (2.0 * g)
    )


def sample_prior_g(spec: GPriorSpec, rng: np.random.Generator) -> float:
    """Draw g ~ Inverse-Gamma(1/2, N/2): a Gamma(1/2, rate N/2) draw, inverted."""
    if not spec.hierarchical:
        raise UsageError("fixed-g specs are not sampled")
    return 1.0 / rng.gamma(0.5, 2.0 / spec.n)
