"""Seeded synthetic stand-in for the paper's ozone design.

N = 178 rows and seven correlated main effects x1..x7. The program's own
``--mains`` path (``modelspace expand`` or ``gibbs --mains``) turns them into
35 candidate columns: 7 mains, 7 squares and 21 pairwise interactions. The
response carries a sparse signal on five of those columns. Smaller problems
are leading-column prefixes of the same expanded design.

The benchmark builds the expanded columns itself (``expand_columns``) only to
compute the response and the independent reference values; the program
always receives the mains CSV or a CSV that the program expanded.
"""

from __future__ import annotations

import csv

import numpy as np

N = 178
MAINS = [f"x{i}" for i in range(1, 8)]
# AR(1) correlation between main effects: corr(x_i, x_j) = RHO ** |i - j|.
RHO = 0.5
NOISE_SD = 1.0
# Sparse signal on the expanded design. The first four columns lie inside
# every prefix the workloads use (p >= 16); x3x4 is column 25.
SIGNAL = {"x1": 0.9, "x3": -0.8, "x2x2": 0.6, "x1x2": 0.7, "x3x4": 0.6}
G = 178.0  # fixed g = N, the paper's choice


def expanded_names() -> list[str]:
    names = MAINS + [m + m for m in MAINS]
    names += [a + b for i, a in enumerate(MAINS) for b in MAINS[i + 1 :]]
    return names


def expand_columns(Z: np.ndarray) -> np.ndarray:
    """Mains, squares, then interactions in row-major pair order."""
    p0 = Z.shape[1]
    cols = [Z[:, j] for j in range(p0)]
    cols += [Z[:, j] * Z[:, j] for j in range(p0)]
    cols += [Z[:, a] * Z[:, b] for a in range(p0) for b in range(a + 1, p0)]
    return np.column_stack(cols)


def draw_mains(seed: int, replicate: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Response y (N,) and main effects Z (N, 7) for one seed and replicate."""
    rng = np.random.default_rng([seed, replicate])
    idx = np.arange(len(MAINS))
    corr = RHO ** np.abs(idx[:, None] - idx[None, :])
    Z = rng.standard_normal((N, len(MAINS))) @ np.linalg.cholesky(corr).T
    names = expanded_names()
    beta = np.zeros(len(names))
    for name, b in SIGNAL.items():
        beta[names.index(name)] = b
    y = expand_columns(Z) @ beta + NOISE_SD * rng.standard_normal(N)
    return y, Z


def write_csv(path, header: list[str], rows: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def write_mains_csv(path, y: np.ndarray, Z: np.ndarray) -> None:
    write_csv(path, ["y"] + MAINS, np.column_stack([y, Z]))


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of a CSV, parsed without the program."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=np.float64)


def write_prefix_csv(wide_path, path, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep the response and the first p candidate columns of an expanded
    CSV (response first). Returns (y, X) as written."""
    header, mat = read_csv(wide_path)
    if header[0] != "y":
        raise ValueError(f"{wide_path}: expected the response in column 0")
    write_csv(path, header[: p + 1], mat[:, : p + 1])
    return mat[:, 0], mat[:, 1 : p + 1]
