"""Data ingestion, design expansion, and the incremental SSE engine.

A Dataset holds the response and candidate columns; the intercept is never
a candidate, it is implicit in every model. All linear algebra runs on the
centered design, which matches the centered Gram matrix used by the g-prior
covariance. FitState maintains a Cholesky factor of the active centered Gram
submatrix so that adding or deleting one variable costs O(k^2) and never
touches the N-length data once the Gram matrix is precomputed; from the
same factor it scores every extension by subsets of b further columns in
one batch.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, SingularModelError

logger = logging.getLogger(__name__)

# Relative collinearity floor for the Schur complement in a Cholesky
# extension; hitting it marks the move singular.
SINGULAR_EPS = 1e-10

# Precompute the full p x p centered Gram matrix up to this many columns.
GRAM_PRECOMPUTE_LIMIT = 2048


@dataclass(frozen=True)
class ModelIndex:
    """A model: a bitmask over the p candidate columns, with cached popcount."""

    bits: int
    k: int

    @classmethod
    def from_bits(cls, bits: int) -> "ModelIndex":
        return cls(bits, bits.bit_count())

    @classmethod
    def from_indices(cls, indices) -> "ModelIndex":
        bits = 0
        for j in indices:
            bits |= 1 << int(j)
        return cls.from_bits(bits)

    def contains(self, j: int) -> bool:
        return bool((self.bits >> j) & 1)

    def indices(self) -> list[int]:
        out = []
        bits = self.bits
        j = 0
        while bits:
            if bits & 1:
                out.append(j)
            bits >>= 1
            j += 1
        return out

    def to_hex(self) -> str:
        return format(self.bits, "x")

    @classmethod
    def from_hex(cls, s: str) -> "ModelIndex":
        return cls.from_bits(int(s, 16))


@functools.lru_cache(maxsize=None)
def subset_members(b: int) -> np.ndarray:
    """(b, 2^b) booleans: entry (i, t) is set when subset t holds item i,
    that is when bit i of t is set."""
    members = (np.arange(1 << b) >> np.arange(b)[:, None]) & 1 == 1
    members.flags.writeable = False
    return members


@dataclass
class Dataset:
    """Response, candidate columns, and centering metadata.

    ``X`` keeps the original (uncentered) column values; ``Xc`` is the
    centered design used by all fits. ``gram``/``xty`` are the centered
    cross-products, precomputed when p is moderate so that incremental
    updates are independent of N.
    """

    y: np.ndarray
    X: np.ndarray
    names: list[str]
    column_means: np.ndarray
    ybar: float
    sse0: float
    Xc: np.ndarray = field(repr=False)
    xty: np.ndarray = field(repr=False)
    gram: np.ndarray | None = field(repr=False, default=None)
    dropped: list[str] = field(default_factory=list)

    @property
    def N(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def gram_col(self, j: int) -> np.ndarray:
        """Column j of the centered Gram matrix."""
        if self.gram is not None:
            return self.gram[:, j]
        return self.Xc.T @ self.Xc[:, j]

    def gram_diag(self, j: int) -> float:
        if self.gram is not None:
            return float(self.gram[j, j])
        col = self.Xc[:, j]
        return float(col @ col)

    def digest(self) -> str:
        """Content hash of the parsed numeric matrix (response first)."""
        h = hashlib.sha256()
        h.update(f"{self.N},{self.p};".encode())
        h.update(np.ascontiguousarray(self.y, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(self.X, dtype=np.float64).tobytes())
        return h.hexdigest()


def make_dataset(y, X, names, dropped=None) -> Dataset:
    """Validate arrays and build a Dataset; constant columns are dropped."""
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DataError("X must be N x p and y length N")
    names = list(names)
    if len(names) != X.shape[1]:
        raise DataError("column name count does not match X")
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"duplicate column names: {dupes}")

    dropped = list(dropped or [])
    keep = []
    for j in range(X.shape[1]):
        col = X[:, j]
        if np.ptp(col) == 0.0:
            logger.warning("dropping constant column %r", names[j])
            dropped.append(names[j])
        else:
            keep.append(j)
    X = X[:, keep]
    names = [names[j] for j in keep]

    N, p = X.shape
    if N < 3:
        raise DataError(f"need N >= 3 observations, got {N}")
    if p < 1:
        raise DataError("no usable candidate columns")
    ybar = float(y.mean())
    sse0 = float(np.sum((y - ybar) ** 2))
    if sse0 <= 0.0:
        raise DataError("constant response: SSE of the null model is zero")
    if N <= p + 2:
        logger.warning(
            "N=%d <= p+2=%d: models near saturation will be excluded", N, p + 2
        )

    column_means = X.mean(axis=0)
    Xc = X - column_means
    xty = Xc.T @ (y - ybar)
    gram = Xc.T @ Xc if p <= GRAM_PRECOMPUTE_LIMIT else None
    return Dataset(
        y=y,
        X=X,
        names=names,
        column_means=column_means,
        ybar=ybar,
        sse0=sse0,
        Xc=Xc,
        xty=xty,
        gram=gram,
        dropped=dropped,
    )


def load_csv(path, response: str) -> Dataset:
    """Load a CSV (header row, '.' decimals) and split off the response column."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if response not in header:
                raise DataError(f"{path}: no column named {response!r}")
            rows = []
            for i, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{i}: expected {len(header)} cells")
                parsed = []
                for name, cell in zip(header, row):
                    try:
                        v = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}:{i}: non-numeric cell in column {name!r}: {cell!r}"
                        ) from None
                    if not math.isfinite(v):
                        raise DataError(
                            f"{path}:{i}: non-finite value in column {name!r}"
                        )
                    parsed.append(v)
                rows.append(parsed)
    except FileNotFoundError:
        raise DataError(f"{path}: file not found") from None

    if not rows:
        raise DataError(f"{path}: no data rows")
    mat = np.array(rows, dtype=np.float64)
    ridx = header.index(response)
    y = mat[:, ridx]
    cols = [j for j in range(len(header)) if j != ridx]
    X = mat[:, cols]
    names = [header[j] for j in cols]
    return make_dataset(y, X, names)


def expand_design(data: Dataset, mains: list[str]) -> Dataset:
    """Expand main effects into mains + squares + pairwise interactions.

    Squares are named "x4x4", interactions "x4x6" with the factors in the
    original main-effect order.
    """
    if not mains:
        raise DataError("mains must be non-empty")
    missing = [m for m in mains if m not in data.names]
    if missing:
        raise DataError(f"unknown main-effect columns: {missing}")
    cols = {m: data.X[:, data.names.index(m)] for m in mains}

    names: list[str] = []
    arrays: list[np.ndarray] = []
    for m in mains:
        names.append(m)
        arrays.append(cols[m])
    for m in mains:
        names.append(f"{m}{m}")
        arrays.append(cols[m] * cols[m])
    for i, a in enumerate(mains):
        for b in mains[i + 1 :]:
            names.append(f"{a}{b}")
            arrays.append(cols[a] * cols[b])
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"duplicate column names after expansion: {dupes}")
    return make_dataset(data.y, np.column_stack(arrays), names)


class FitState:
    """Incrementally maintained least-squares state for one model.

    Holds the lower-triangular Cholesky factor L of the active centered Gram
    submatrix, and the forward-substitution vector b solving L b = X_g' (y - ybar),
    so that SSE = sse0 - ||b||^2. Single-owner mutable value.
    """

    __slots__ = ("data", "_L", "_b", "_active", "_pos", "k", "bits", "sse")

    def __init__(self, data: Dataset):
        self.data = data
        cap = min(data.p, data.N + 1)
        self._L = np.zeros((cap, cap))
        self._b = np.zeros(cap)
        self._active = np.full(cap, -1, dtype=np.int64)
        self._pos = np.full(data.p, -1, dtype=np.int64)
        self.k = 0
        self.bits = 0
        self.sse = data.sse0

    @property
    def model(self) -> ModelIndex:
        return ModelIndex(self.bits, self.k)

    def add(self, j: int) -> bool:
        """Extend the fit with column j. Returns False (no change) if the
        move is singular (collinear with the active set)."""
        k = self.k
        if self._pos[j] >= 0:
            raise ValueError(f"column {j} already active")
        if k >= self._L.shape[0]:
            return False
        data = self.data
        L = self._L
        row = L[k]
        gjj = data.gram_diag(j)
        if k > 0:
            col = data.gram_col(j)[self._active[:k]]
            for i in range(k):
                row[i] = (col[i] - L[i, :i] @ row[:i]) / L[i, i]
            d = gjj - row[:k] @ row[:k]
        else:
            d = gjj
        if d <= SINGULAR_EPS * gjj:
            return False
        ljj = math.sqrt(d)
        row[k] = ljj
        b = self._b
        bnew = (data.xty[j] - row[:k] @ b[:k]) / ljj
        b[k] = bnew
        self.sse = max(self.sse - bnew * bnew, 0.0)
        self._active[k] = j
        self._pos[j] = k
        self.bits |= 1 << j
        self.k = k + 1
        return True

    def extension_sse(self, cols) -> tuple[np.ndarray, np.ndarray]:
        """SSE of this model extended by each subset of the inactive ``cols``.

        Entry t of both returned arrays is for subset t of ``subset_members``.
        With S = G_LL - G_LA G_AA^-1 G_AL, the Schur complement of the active
        set A in the Gram matrix of the b columns L, r = X'y_L - G_LA beta_A
        and T a subset of L, SSE(A + T) = sse - r_T' S_TT^-1 r_T: the last
        pivot of the Cholesky factor of the bordered matrix
        [[S_TT, r_T], [r_T', sse]]. The subsets are eliminated by doubling.
        Level j holds, batch last, the Schur complements of all 2^j subsets
        of the first j columns, each on the remaining columns and y. The
        child that leaves column j out is the trailing block, rest; the one
        that takes it in is rest - c c' with c = T[1:, 0] / sqrt(d), and the
        children are stacked [left out, taken in], so subset t stays at
        index t. A subset is singular when a column it takes in has a pivot
        that meets ``add``'s rule, d <= SINGULAR_EPS * G_jj; its children
        inherit the flag, and its SSE is meaningless, possibly NaN.
        """
        cols = np.asarray(cols, dtype=np.int64)
        b = cols.size
        k = self.k
        G = self.data.gram_col(cols)
        B = np.zeros((b + 1, b + 1))
        B[:b, :b] = G[cols]
        B[:b, b] = B[b, :b] = self.data.xty[cols]
        gjj = np.diagonal(B)[:b].copy()
        if k:
            V = np.empty((k, b + 1))
            # L is triangular; numpy's general solve stays single-threaded on
            # this tiny system, where a threaded BLAS triangular solve spins
            # its helper threads against the other pool workers
            V[:, :b] = np.linalg.solve(self._L[:k, :k], G[self._active[:k]])
            V[:, b] = self._b[:k]
            B -= V.T @ V
        B[b, b] = self.sse
        T = B[:, :, None]
        singular = np.zeros(1, dtype=bool)
        # a singular subset's children may take the square root of a
        # negative pivot or divide by a zero one
        with np.errstate(invalid="ignore", divide="ignore"):
            for j in range(b):
                d = T[0, 0]
                rest = T[1:, 1:]
                col = T[1:, 0] / np.sqrt(d)
                T = np.concatenate((rest, rest - col[:, None] * col[None]), axis=2)
                singular = np.concatenate(
                    (singular, singular | (d <= SINGULAR_EPS * gjj[j]))
                )
        return np.maximum(T[0, 0], 0.0), singular

    def delete(self, j: int) -> None:
        """Remove column j, restoring triangularity via Givens rotations."""
        idx = int(self._pos[j])
        if idx < 0:
            raise ValueError(f"column {j} is not active")
        k = self.k
        L = self._L
        b = self._b
        if idx < k - 1:
            L[idx : k - 1, :k] = L[idx + 1 : k, :k]
            for jj in range(idx, k - 1):
                a = L[jj, jj]
                t = L[jj, jj + 1]
                r = math.hypot(a, t)
                c = a / r
                s = t / r
                col1 = L[jj : k - 1, jj].copy()
                col2 = L[jj : k - 1, jj + 1]
                L[jj : k - 1, jj] = c * col1 + s * col2
                L[jj : k - 1, jj + 1] = -s * col1 + c * col2
                b1 = b[jj]
                b2 = b[jj + 1]
                b[jj] = c * b1 + s * b2
                b[jj + 1] = -s * b1 + c * b2
            self._active[idx : k - 1] = self._active[idx + 1 : k]
            self._pos[self._active[idx : k - 1]] -= 1
        removed = b[k - 1]
        self.sse = min(self.sse + removed * removed, self.data.sse0)
        self._pos[j] = -1
        self.bits &= ~(1 << j)
        self.k = k - 1


def fit_model(data: Dataset, model: ModelIndex) -> FitState:
    """Build a FitState for an arbitrary model by chained adds."""
    state = FitState(data)
    for j in model.indices():
        if not state.add(j):
            raise SingularModelError(
                f"model {model.to_hex()} is rank-deficient at column "
                f"{data.names[j]!r}"
            )
    return state


def sse_direct(data: Dataset, model: ModelIndex) -> float:
    """SSE from a from-scratch least-squares solve; the oracle for the
    incremental updates."""
    if model.k == 0:
        return data.sse0
    if model.k > data.N - 2:
        raise DataError(
            f"model has k={model.k} > N-2={data.N - 2}; excluded from evaluation"
        )
    cols = model.indices()
    Xs = data.Xc[:, cols]
    yc = data.y - data.ybar
    beta, _, rank, _ = np.linalg.lstsq(Xs, yc, rcond=None)
    if rank < model.k:
        names = [data.names[j] for j in cols]
        raise DataError(f"rank-deficient design submatrix over columns {names}")
    resid = yc - Xs @ beta
    return float(resid @ resid)
