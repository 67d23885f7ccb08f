"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths of the package: the
correspondence oracle takes the dense SVD of S itself, where the package
eigendecomposes the Gram matrix of S's shorter side, the quadratic
oracle solves the normal equations explicitly instead of calling a
fitting routine, counts use collections.Counter over raw loops, the
chi-square statistic is an explicit double loop, and ``corpus.csv`` is
written by the standard library's ``csv.writer``, where the package quotes
cells itself. Agreement between the two routes is evidence, not tautology.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from typing import IO, Sequence

import numpy as np

SV_EPS = 1e-12


def ca_eigen_oracle(matrix, col_labels: Sequence[str]) -> dict:
    """Correspondence analysis via the dense SVD of S.

    Keeps a dimension whose singular value exceeds ``SV_EPS`` (1e-12), its
    own rule: the library keeps an eigenvalue above max(rows, cols) times
    the float64 machine epsilon instead. ``random_contingency`` rejects any
    table whose smallest kept value is below 1e-7, so on the tables the
    tests draw both rules keep the same dimensions. Applies the same sign
    canon as the library (per dimension, the largest-magnitude column
    standard coordinate is positive; float ties broken by smallest label),
    so results are directly comparable.
    """
    m = np.asarray(matrix, dtype=np.float64)
    n = m.sum()
    p = m / n
    rows, cols = p.shape
    a = p.sum(axis=1)
    b = p.sum(axis=0)
    s = np.empty_like(p)
    for i in range(rows):
        for j in range(cols):
            s[i, j] = (p[i, j] - a[i] * b[j]) / math.sqrt(a[i] * b[j])

    u, sv, vt = np.linalg.svd(s, full_matrices=False)
    keep = sv > SV_EPS
    sv, u, v = sv[keep], u[:, keep], vt[keep].T

    col_std = v / np.sqrt(b)[:, None]
    for k in range(sv.size):
        mag = np.abs(col_std[:, k])
        peak = mag.max()
        ties = np.flatnonzero(mag == peak)
        j = min(ties, key=lambda idx: col_labels[idx])
        if col_std[j, k] < 0:
            u[:, k] *= -1.0
            v[:, k] *= -1.0
            col_std[:, k] *= -1.0
    row_std = u / np.sqrt(a)[:, None]

    return {
        "row_masses": a,
        "col_masses": b,
        "singular_values": sv,
        "inertia_total": float((sv**2).sum()),
        "row_standard": row_std,
        "col_standard": col_std,
        "row_principal": row_std * sv,
        "col_principal": col_std * sv,
    }


def chi_square(matrix) -> float:
    """Pearson chi-square of independence, explicit loops."""
    m = np.asarray(matrix, dtype=np.float64)
    n = m.sum()
    row_sums = m.sum(axis=1)
    col_sums = m.sum(axis=0)
    total = 0.0
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            expected = row_sums[i] * col_sums[j] / n
            total += (m[i, j] - expected) ** 2 / expected
    return total


def residual_scores(table) -> np.ndarray:
    """Standardized Pearson residuals (obs - exp) / sqrt(exp), loops."""
    m = np.asarray(table, dtype=np.float64)
    n = m.sum()
    out = np.zeros_like(m)
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            expected = m[i].sum() * m[:, j].sum() / n
            out[i, j] = (m[i, j] - expected) / math.sqrt(expected)
    return out


def quadratic_normal_equations(xs, ys) -> tuple[float, float, float]:
    """Least-squares quadratic through the normal equations (3x3 solve)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    design = np.vstack([xs**2, xs, np.ones_like(xs)]).T
    lhs = design.T @ design
    rhs = design.T @ ys
    c2, c1, c0 = np.linalg.solve(lhs, rhs)
    return float(c2), float(c1), float(c0)


def vocabulary_counter(token_lists) -> tuple[Counter, Counter]:
    """(total frequency, document frequency) per term via Counter."""
    totals: Counter = Counter()
    dfs: Counter = Counter()
    for tokens in token_lists:
        totals.update(tokens)
        dfs.update(set(tokens))
    return totals, dfs


def rects_intersect(a, b) -> bool:
    """Strict-interior overlap of two (x0, y0, x1, y1) rectangles."""
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


def overlapping_pairs(boxes) -> list[tuple[int, int]]:
    """All overlapping index pairs, checked O(n^2)."""
    hits = []
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if rects_intersect(boxes[i], boxes[j]):
                hits.append((i, j))
    return hits


def random_contingency(rng: np.random.Generator) -> np.ndarray:
    """A random non-degenerate integer matrix, at most 8x6.

    Degeneracy is decided by the *oracle*: reject zero rows/columns,
    near-zero retained singular values, and near-ties between consecutive
    singular values (where the dimension ordering — and therefore any
    comparison — becomes numerically arbitrary).
    """
    while True:
        n_rows = int(rng.integers(3, 9))
        n_cols = int(rng.integers(3, 7))
        m = rng.integers(0, 9, size=(n_rows, n_cols)).astype(np.float64)
        if (m.sum(axis=1) == 0).any() or (m.sum(axis=0) == 0).any():
            continue
        labels = [f"c{j}" for j in range(n_cols)]
        sv = ca_eigen_oracle(m, labels)["singular_values"]
        if sv.size == 0 or sv[-1] < 1e-7:
            continue
        gaps = np.diff(sv)  # descending, so gaps are <= 0
        if np.any(np.abs(gaps) < 1e-5 * sv[0]):
            continue
        return m


class _LfLines:
    """The target of a ``csv.writer`` whose ``\\r\\n`` line terminator makes it
    quote every field holding ``\\r`` or ``\\n``: it ends each line with
    ``\\n`` instead."""

    def __init__(self, fh: IO[str]) -> None:
        self._fh = fh

    def write(self, line: str) -> int:
        return self._fh.write(line[:-2] + "\n")


def corpus_csv_oracle(documents) -> bytes:
    """The bytes of ``corpus.csv`` for ``documents``, as ``csv.writer`` with
    minimal quoting writes them, with ``\\n`` line endings."""
    text = io.StringIO()
    writer = csv.writer(_LfLines(text), lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(["id", "title", "abstract", "keywords", "year", "doc_type", "citations"])
    for doc in documents:
        writer.writerow([doc.id, doc.title, doc.abstract, "; ".join(doc.keywords), doc.year,
                         doc.doc_type.value, doc.citations])
    return text.getvalue().encode("utf-8")
