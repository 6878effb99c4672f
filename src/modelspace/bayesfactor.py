"""Closed-form log Bayes factors under the g-prior, priors on g, and the
model-space prior. All arithmetic stays in log space: totals on real data
reach 1e50 and must never be exponentiated en route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

LOG2 = math.log(2.0)
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

    def log_model_prior(self, p: int) -> float:
        """log Pr(M_gamma); constant -p*ln2 under the uniform prior."""
        return -p * LOG2


def log_bf_value(sse: float, k: int, sse0: float, N: int, g: float) -> float:
    """ln B_{gamma 0}(g) = -((N-1)/2) ln(1 + g SSE/SSE0) + ((N-k-1)/2) ln(1+g)."""
    if k > N - 2:
        return NEG_INF
    ratio = max(sse / sse0, 0.0)
    return -0.5 * (N - 1) * math.log1p(g * ratio) + 0.5 * (N - k - 1) * math.log1p(g)


def log_bf_values(sse: np.ndarray, k: np.ndarray, sse0: float, N: int, g: float) -> np.ndarray:
    """``log_bf_value`` over arrays of SSE and model size in one expression."""
    ratio = np.maximum(sse / sse0, 0.0)
    lbf = -0.5 * (N - 1) * np.log1p(g * ratio) + 0.5 * (N - k - 1) * math.log1p(g)
    return np.where(k > N - 2, NEG_INF, lbf)


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
