import os

import numpy as np
import pytest
from scipy.special import logsumexp

import modelspace.exact as exact_mod
from modelspace import Dataset, ModelIndex, log_bf_value, make_dataset, sse_direct
from modelspace.errors import DataError


def synth_dataset(N, p, active=(), betas=(), noise=1.0, seed=0) -> Dataset:
    """Gaussian design with a sparse true signal."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, p))
    beta = np.zeros(p)
    for j, b in zip(active, betas):
        beta[j] = b
    y = X @ beta + noise * rng.standard_normal(N)
    return make_dataset(y, X, [f"x{j}" for j in range(p)])


def naive_enumeration(data: Dataset, g: float):
    """Full-refit enumeration of all 2^p models: the independent oracle.

    Returns (log_bfs array indexed by bitmask, log-sum of BFs, exact
    inclusion probabilities, exact dimension posterior, hpm bitmask).
    Rank-deficient or saturated models get log BF -inf.
    """
    p = data.p
    n_models = 1 << p
    lbfs = np.full(n_models, -np.inf)
    for bits in range(n_models):
        m = ModelIndex.from_bits(bits)
        try:
            sse = sse_direct(data, m)
        except DataError:
            continue
        lbfs[bits] = log_bf_value(sse, m.k, data.sse0, data.N, g)
    log_total = logsumexp(lbfs)
    incl = np.empty(p)
    for l in range(p):
        members = [b for b in range(n_models) if (b >> l) & 1]
        incl[l] = np.exp(logsumexp(lbfs[members]) - log_total)
    dim = np.zeros(p + 1)
    for bits in range(n_models):
        if np.isfinite(lbfs[bits]):
            dim[bits.bit_count()] += np.exp(lbfs[bits] - log_total)
    finite = np.where(np.isfinite(lbfs))[0]
    hpm_bits = int(finite[np.lexsort((finite, -lbfs[finite]))[0]])
    return lbfs, float(log_total), incl, dim, hpm_bits


def standin_dataset(p: int, seed: int = 1, scale: float = 1.0) -> Dataset:
    """The first p columns of the synthetic stand-in for the paper's ozone
    design: N = 178 rows of seven AR(1) main effects (rho = 0.5), expanded
    to 7 mains, 7 squares and 21 pairwise interactions, with a sparse signal
    on five of those 35 columns, its coefficients times ``scale``, plus unit
    noise."""
    rng = np.random.default_rng([seed, 0])
    idx = np.arange(7)
    corr = 0.5 ** np.abs(idx[:, None] - idx[None, :])
    Z = rng.standard_normal((178, 7)) @ np.linalg.cholesky(corr).T
    mains = [f"x{i}" for i in range(1, 8)]
    pairs = [(a, b) for a in range(7) for b in range(a + 1, 7)]
    X = np.column_stack([Z, Z * Z] + [Z[:, a] * Z[:, b] for a, b in pairs])
    names = mains + [m + m for m in mains] + [mains[a] + mains[b] for a, b in pairs]
    signal = {"x1": 0.9, "x3": -0.8, "x2x2": 0.6, "x1x2": 0.7, "x3x4": 0.6}
    beta = scale * np.array([signal.get(name, 0.0) for name in names])
    y = X @ beta + rng.standard_normal(178)
    return make_dataset(y, X[:, :p], names[:p])


@pytest.fixture
def set_shard_bits(monkeypatch):
    """``set_shard_bits(s)`` makes every exact pass of the test use 2^s
    shards, whatever p, to reach multi-shard layouts at small p."""

    def set_to(s):
        monkeypatch.setattr(exact_mod, "default_shard_bits", lambda p: s)

    return set_to


@pytest.fixture
def set_models_per_worker(monkeypatch):
    """``set_models_per_worker(n)`` gives every exact pass of the test one
    pool process per n models, to reach the pool at small p."""

    def set_to(n):
        monkeypatch.setattr(exact_mod, "MODELS_PER_WORKER", n)

    return set_to


@pytest.fixture(scope="session")
def p10_data() -> Dataset:
    # moderate signal so no inclusion probability is pinned at 0 or 1
    return synth_dataset(
        N=50, p=10, active=(1, 4, 7), betas=(0.45, -0.55, 0.35), seed=20240601
    )


@pytest.fixture(scope="session")
def p8_data() -> Dataset:
    return synth_dataset(
        N=40, p=8, active=(0, 3, 6), betas=(0.5, -0.4, 0.35), seed=77
    )


@pytest.fixture(scope="session")
def p8_naive(p8_data):
    return naive_enumeration(p8_data, float(p8_data.N))


@pytest.fixture(scope="session")
def p10_naive(p10_data):
    return naive_enumeration(p10_data, float(p10_data.N))


def ozone_csv_path():
    path = os.environ.get("MODELSPACE_OZONE_CSV")
    if path and os.path.exists(path):
        return path
    here = os.path.join(os.path.dirname(__file__), "data", "ozone.csv")
    if os.path.exists(here):
        return here
    return None
