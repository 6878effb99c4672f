"""Data ingestion, design expansion, and the Gibbs sweep's SSE engine.

A Dataset holds the response and candidate columns; the intercept is never
a candidate, it is implicit in every model. A model is a Python int, the
bitmask of its columns (bit j set when column j is in it); ``bit_indices``
lists those columns in ascending order. All linear algebra runs on the
centered design, which matches the centered Gram matrix used by the g-prior
covariance. FitState, the state of the Gibbs sweep and of ``fit_model``,
keeps the cross-product matrix of the centered design and the response
swept on the active set, so that adding or deleting one variable is one
O(p^2) sweep that never touches the N-length data once the Gram matrix is
precomputed. ``SINGULAR_EPS`` is the collinearity rule of every fit,
exact enumeration's included.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, SingularModelError

logger = logging.getLogger(__name__)

# Relative collinearity floor for the pivot of an added column, a fraction
# of its Gram diagonal; hitting it marks the move singular.
SINGULAR_EPS = 1e-10

# Precompute the full p x p centered Gram matrix up to this many columns.
GRAM_PRECOMPUTE_LIMIT = 2048


# ModelIndex stays only for the benchmark's layer probe, which builds its
# models with it; ROADMAP item 4 removes it.
class ModelIndex:
    @staticmethod
    def from_indices(indices) -> int:
        bits = 0
        for j in indices:
            bits |= 1 << int(j)
        return bits


def bit_indices(bits) -> list[int]:
    """The ascending column indices of a model's bitmask: a Python int, or a
    numpy integer read from a trace array."""
    bits = int(bits)
    return [j for j in range(bits.bit_length()) if (bits >> j) & 1]


def bits_array(bits) -> np.ndarray:
    """Bitmasks as int64 when all lie in [0, 2^63), else as Python ints
    (dtype=object), so that shifts and popcounts stay exact for any p.
    numpy's own inference would give uint64 or float64 for larger masks.
    An int64 or object array is returned as it is."""
    if isinstance(bits, np.ndarray) and bits.dtype in (np.int64, object):
        return bits
    bits = [int(b) for b in bits]
    inside = not bits or (min(bits) >= 0 and max(bits) < 1 << 63)
    return np.array(bits, dtype=np.int64 if inside else object)


@dataclass
class Dataset:
    """Response and candidate columns, raw and centered.

    ``X`` keeps the original (uncentered) column values; ``Xc`` is the
    centered design used by all fits. ``gram``/``xty`` are the centered
    cross-products, precomputed when p is moderate so that incremental
    updates are independent of N.
    """

    y: np.ndarray
    X: np.ndarray
    names: list[str]
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

    N = X.shape[0]
    if N < 3:
        raise DataError(f"need N >= 3 observations, got {N}")

    dropped = list(dropped or [])
    constant = np.ptp(X, axis=0) == 0.0
    for j in np.flatnonzero(constant):
        logger.warning("dropping constant column %r", names[j])
        dropped.append(names[j])
    keep = np.flatnonzero(~constant)
    X = X[:, keep]
    names = [names[j] for j in keep]

    p = X.shape[1]
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

    Xc = X - X.mean(axis=0)
    xty = Xc.T @ (y - ybar)
    gram = Xc.T @ Xc if p <= GRAM_PRECOMPUTE_LIMIT else None
    return Dataset(
        y=y,
        X=X,
        names=names,
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
        # utf-8-sig: a byte-order mark (Excel's "CSV UTF-8") is not part of
        # the first column's name
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if len(set(header)) < len(header):
                dupes = sorted({h for h in header if header.count(h) > 1})
                raise DataError(f"{path}: duplicate column names: {dupes}")
            if response not in header:
                raise DataError(f"{path}: no column named {response!r}")
            rows = list(reader)
    except OSError as e:  # missing, a directory, unreadable
        raise DataError(f"{path}: not found or unreadable ({e.strerror})") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e})") from None

    body = [row for row in rows if row]
    if not body:
        raise DataError(f"{path}: no data rows")
    # numpy converts each cell as float() does; a ragged body raises
    try:
        mat = np.array(body, dtype=np.float64)
        ok = mat.shape[1] == len(header) and bool(np.isfinite(mat).all())
    except ValueError:
        ok = False
    if not ok:
        mat = _parse_rows(path, header, rows)
    ridx = header.index(response)
    y = mat[:, ridx]
    cols = [j for j in range(len(header)) if j != ridx]
    X = mat[:, cols]
    names = [header[j] for j in cols]
    return make_dataset(y, X, names)


def _parse_rows(path, header: list[str], rows: list[list[str]]) -> np.ndarray:
    """Cell by cell in file order, so that the first bad cell is named with
    its line and column."""
    parsed = []
    for i, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{i}: expected {len(header)} cells")
        values = []
        for name, cell in zip(header, row):
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}:{i}: non-numeric cell in column {name!r}: {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise DataError(f"{path}:{i}: non-finite value in column {name!r}")
            values.append(v)
        parsed.append(values)
    return np.array(parsed, dtype=np.float64)


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
    """Least-squares state of one model: the cross-product matrix of the
    centered design and the response, swept on the active set.

    ``M`` is the (p+1)x(p+1) cross-product matrix [[G, X'y], [y'X, sse0]]
    swept on the active set A (Goodnight 1979, *A tutorial on the SWEEP
    operator*). For j outside A, M[j,j] is the pivot
    d_j = G_jj - G_jA G_AA^-1 G_Aj of adding j and M[j,p] is the residual
    cross-product c_j; for j in A, M[j,j] is -(G_AA^-1)_jj and M[j,p] is
    beta_j. M[p,p] is the SSE. ``D`` and ``C`` are M's diagonal and last
    row as Python floats, so ``flip_sse`` gives the SSE after flipping any
    one bit, add or drop, as sse - C[j]^2/D[j] in O(1). ``add`` is a sweep
    and ``delete`` a reverse sweep on one pivot: an O(p^2) rank-one update
    of M that never touches the N-length data. The update is one BLAS
    product of the pivot's column and its scaled row into a buffer the
    state owns, so a flip allocates nothing. It rounds each entry once, as
    the elementwise outer product does, and at the sweep's p <= 96 its
    (p+1)^2 multiply-adds are far below OpenBLAS's threading threshold.
    Either takes the SSE of the flip when the caller has just computed it
    by ``flip_sse``, as the Gibbs sweep has, and computes it otherwise.
    When the model empties, M
    returns to its pristine copy, so the null model's SSE is sse0 exactly
    and the drift of the updates restarts from zero. Single-owner mutable
    value.
    """

    __slots__ = (
        "data", "bits", "k", "sse", "M", "D", "C", "_M0", "_sse0", "_tiny", "_kmax",
        "_T", "_U", "_u", "_cols", "_diag", "_last",
    )

    def __init__(self, data: Dataset, bits: int = 0):
        self.data = data
        p = data.p
        M0 = np.empty((p + 1, p + 1))
        M0[:p, :p] = data.Xc.T @ data.Xc if data.gram is None else data.gram
        M0[:p, p] = M0[p, :p] = data.xty
        M0[p, p] = data.sse0
        self._M0 = M0
        self._sse0 = data.sse0
        # an add is singular when its pivot is at most SINGULAR_EPS * G_jj
        self._tiny = (SINGULAR_EPS * M0.diagonal()[:p]).tolist()
        self._kmax = data.N - 2
        # M is never rebound, so the views below stay valid: each pivot's
        # column, the diagonal and the last row
        self.M = M = np.empty_like(M0)
        self._cols = [M[i : i + 1].T for i in range(p)]
        self._diag = M.diagonal()
        self._last = M[-1]
        # the rank-one product and the scaled pivot row it is taken with
        self._T = np.empty_like(M0)
        self._U = np.empty((1, p + 1))
        self._u = self._U[0]
        self.bits = bits
        self.reset()

    def reset(self) -> None:
        """Sweep the pristine matrix on the current model's columns, which
        discards the drift of the updates since the last reset."""
        bits = self.bits
        np.copyto(self.M, self._M0)
        self.bits = 0
        self.k = 0
        # no singular check here: a model reached in one order of adds is
        # rebuilt in index order, where a pivot can differ
        for j in bit_indices(bits):
            self._sweep(j)
        self._refresh(min(max(float(self.M[-1, -1]), 0.0), self._sse0))

    def flip_sse(self, i: int) -> float | None:
        """SSE of the model with bit i flipped, or None when that add is
        singular (d_i <= SINGULAR_EPS * G_ii) or saturated (k+1 > N-2)."""
        d = self.D[i]
        if (self.bits >> i) & 1:
            if self.k == 1:
                return self._sse0
        elif self.k >= self._kmax or d <= self._tiny[i]:
            return None
        c = self.C[i]
        sse = self.sse - c * c / d
        # clamped to [0, sse0]; comparisons keep the bits of
        # min(max(sse, 0.0), sse0), -0.0 and NaN included
        if sse < 0.0:
            return 0.0
        if sse > self._sse0:
            return self._sse0
        return sse

    def add(self, j: int, sse: float | None = None) -> bool:
        """Sweep column j into the model, whose SSE becomes ``sse``, the
        ``flip_sse(j)`` value, computed here when not given. Returns False,
        with the state untouched, when the add is singular or saturated."""
        if (self.bits >> j) & 1:
            raise ValueError(f"column {j} already active")
        if sse is None:
            sse = self.flip_sse(j)
            if sse is None:
                return False
        self._sweep(j)
        self._refresh(sse)
        return True

    def delete(self, j: int, sse: float | None = None) -> None:
        """Reverse-sweep column j out of the model, whose SSE becomes
        ``sse``, the ``flip_sse(j)`` value, computed here when not given."""
        if not (self.bits >> j) & 1:
            raise ValueError(f"column {j} is not active")
        if sse is None:
            sse = self.flip_sse(j)
        self._sweep(j)
        self._refresh(sse)

    def _sweep(self, i: int) -> None:
        """Sweep M on pivot i, or reverse-sweep it when i is active."""
        drop = (self.bits >> i) & 1
        self.bits ^= 1 << i
        self.k += -1 if drop else 1
        M = self.M
        if not self.k:
            np.copyto(M, self._M0)
            return
        h = M[i, i]
        u = self._u
        T = self._T
        # the reverse sweep divides by -h and adds: x / -h is exactly
        # -(x / h), and a + -b is a - b
        np.divide(M[i], -h if drop else h, out=u)
        # a K=1 product with beta = 0 rounds each entry once, as x * y
        # does, but writes +0.0 where x * y is -0.0; M holds no -0.0 (its
        # zeros are sums and quotients by pivots of the right sign), so
        # M -/+ T keeps the bits of the outer product's update
        np.dot(self._cols[i], self._U, out=T)
        if drop:
            M += T
        else:
            M -= T
        u[i] = -1.0 / h
        M[i] = u
        M[:, i] = u

    def _refresh(self, sse: float) -> None:
        self.sse = sse
        self.M[-1, -1] = sse
        self.D = self._diag.tolist()
        self.C = self._last.tolist()


def fit_model(data: Dataset, bits: int) -> FitState:
    """Build a FitState for the model of bitmask ``bits`` by chained adds."""
    state = FitState(data)
    for j in bit_indices(bits):
        if not state.add(j):
            raise SingularModelError(
                f"model {format(bits, 'x')} is rank-deficient or saturated at "
                f"column {data.names[j]!r}"
            )
    return state


def sse_direct(data: Dataset, bits: int) -> float:
    """SSE of the model of bitmask ``bits`` from a from-scratch least-squares
    solve; the oracle for the incremental updates."""
    k = int(bits).bit_count()
    if k == 0:
        return data.sse0
    if k > data.N - 2:
        raise DataError(
            f"model has k={k} > N-2={data.N - 2}; excluded from evaluation"
        )
    cols = bit_indices(bits)
    Xs = data.Xc[:, cols]
    yc = data.y - data.ybar
    beta, _, rank, _ = np.linalg.lstsq(Xs, yc, rcond=None)
    if rank < k:
        names = [data.names[j] for j in cols]
        raise DataError(f"rank-deficient design submatrix over columns {names}")
    resid = yc - Xs @ beta
    return float(resid @ resid)
