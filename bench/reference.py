"""Independent reference values for the output checks.

Everything here is plain numpy least squares on the benchmark's own copy of
the design. Nothing calls the program's ``sse_direct``, ``FitState`` or the
tests' ``naive_enumeration``, so a fault shared by those paths still shows.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def log_bf(sse: float, k: int, sse0: float, N: int, g: float) -> float:
    """ln B(M : M0) under a fixed g-prior (Liang et al. 2008, eq. 5)."""
    if k > N - 2:
        return -math.inf
    return 0.5 * (N - k - 1) * math.log(1.0 + g) - 0.5 * (N - 1) * math.log(
        1.0 + g * sse / sse0
    )


class Design:
    """Centered response and candidate columns of one problem."""

    def __init__(self, y: np.ndarray, X: np.ndarray):
        self.N, self.p = X.shape
        self.yc = y - y.mean()
        self.Xc = X - X.mean(axis=0)
        self.sse0 = float(self.yc @ self.yc)

    def columns(self, bits: int) -> list[int]:
        return [j for j in range(self.p) if (bits >> j) & 1]

    def refit_sse(self, bits: int) -> float:
        cols = self.columns(bits)
        if not cols:
            return self.sse0
        A = self.Xc[:, cols]
        beta, _, rank, _ = np.linalg.lstsq(A, self.yc, rcond=None)
        if rank < len(cols):
            raise ValueError(f"model {bits:x} is rank-deficient")
        r = self.yc - A @ beta
        return float(r @ r)

    def refit_log_bf(self, bits: int, g: float) -> float:
        return log_bf(self.refit_sse(bits), bits.bit_count(), self.sse0, self.N, g)


class FullSpace:
    """Log Bayes factors of all 2^p models and the exact summaries.

    Models are solved in batches by size through the normal equations on the
    centered Gram matrix, with numpy's batched solver.
    """

    def __init__(self, design: Design, g: float):
        p, N = design.p, design.N
        gram = design.Xc.T @ design.Xc
        xty = design.Xc.T @ design.yc
        lbf = np.empty(1 << p)
        lbf[0] = 0.0
        weights = 1 << np.arange(p)
        for k in range(1, p + 1):
            idx = np.array(list(itertools.combinations(range(p), k)))
            bits = weights[idx].sum(axis=1)
            for lo in range(0, len(idx), 4096):
                sub = idx[lo : lo + 4096]
                A = gram[sub[:, :, None], sub[:, None, :]]
                b = xty[sub]
                beta = np.linalg.solve(A, b[:, :, None])[:, :, 0]
                sse = np.maximum(design.sse0 - np.einsum("ij,ij->i", b, beta), 0.0)
                lbf[bits[lo : lo + 4096]] = 0.5 * (N - k - 1) * np.log1p(g) - 0.5 * (
                    N - 1
                ) * np.log1p(g * sse / design.sse0)
        self.p = p
        self.lbf = lbf
        top = lbf.max()
        w = np.exp(lbf - top)
        total = w.sum()
        self.log_total_bf = float(top + np.log(total))
        members = (np.arange(1 << p)[:, None] >> np.arange(p)) & 1
        self.inclusion = (w @ members) / total
        popcount = members.sum(axis=1)
        self.dimension = np.bincount(popcount, weights=w, minlength=p + 1) / total
        self.hpm_bits = int(np.argmax(lbf))


def renormalized_inclusion(bits: list[int], lbfs: list[float], p: int) -> np.ndarray:
    """Inclusion over a set of distinct models weighted by renormalized BFs."""
    lbf = np.asarray(lbfs)
    w = np.exp(lbf - lbf.max())
    members = (np.asarray(bits, dtype=np.int64)[:, None] >> np.arange(p)) & 1
    return (w @ members) / w.sum()


def read_trace_file(path) -> list[tuple[int, float, float]]:
    """(bitmask, g, log BF) per line of a trace file, parsed without the program."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                h, g, lbf = line.split("\t")
                out.append((int(h, 16), float(g), float(lbf)))
    return out
