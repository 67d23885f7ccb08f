"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the code paths of the package: the
correspondence oracle takes the dense SVD of S itself, where the package
eigendecomposes the Gram matrix of S's shorter side, the quadratic
oracle solves the normal equations explicitly instead of calling a
fitting routine, counts use collections.Counter over raw loops, the
term-count matrix is built in one pass over every token and summed by
SciPy's ``sum_duplicates``, where the package counts a block of streams at
a time and sums each block with ``numpy.unique``, the document-term
matrix, its weightings, its sums and its rebuild from ``dtm.tsv`` are
SciPy matrix operations (column slicing, COO conversion, ``sum``,
``eliminate_zeros``), where the package works on NumPy CSR arrays, the
chi-square statistic is an explicit double loop, and ``corpus.csv`` is
written by the standard library's ``csv.writer``, where the package quotes
cells itself. The tokenizer's oracle is the per-run loop the package ran
before it took all-letter documents whole; it shares the package's run
pattern. Agreement between the two routes is evidence, not tautology.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import Counter, defaultdict
from typing import IO, Sequence

import numpy as np
from scipy import sparse

from lexevo import textpipe

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


def per_run_tokenize(text: str, min_len: int = 2) -> list[str]:
    """``textpipe.tokenize`` as it was before its whole-document fast path:
    every candidate run is checked on its own, and a run that is not all
    letters is split into its letter fragments."""
    out: list[str] = []
    for run in textpipe._RUN.findall(textpipe._normalize(text)):
        if run.isalpha():
            if len(run) >= min_len:
                out.append(run)
        else:
            out.extend(f for f in textpipe._letter_fragments(run) if len(f) >= min_len)
    return out


def one_pass_count_terms(streams) -> tuple[dict, sparse.csr_matrix]:
    """The column map and canonical CSR counts of ``count_terms``, from one
    int64 column id per token of all the streams at once."""
    lengths = [len(s.tokens) for s in streams]
    column: dict[str, int] = defaultdict(itertools.count().__next__)
    tokens = itertools.chain.from_iterable(s.tokens for s in streams)
    indices = np.fromiter(map(column.__getitem__, tokens), np.int64, sum(lengths))
    indptr = np.zeros(len(streams) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    ones = np.ones(len(indices), dtype=np.int64)
    matrix = sparse.csr_matrix((ones, indices, indptr), shape=(len(streams), len(column)))
    matrix.sum_duplicates()
    return dict(column), matrix


def count_sums(matrix: sparse.csr_matrix) -> dict[str, np.ndarray]:
    """Column and row sums and nnz of a count matrix, from SciPy."""
    return {
        "totals": np.asarray(matrix.sum(axis=0)).ravel(),
        "doc_frequency": matrix.getnnz(axis=0),
        "row_totals": np.asarray(matrix.sum(axis=1)).ravel(),
        "row_nnz": matrix.getnnz(axis=1),
    }


def uniqueness_oracle(matrix: sparse.csr_matrix) -> tuple[float, float, float]:
    """(mean tokens, mean distinct terms, mean unique/total ratio over the
    non-empty rows) of a count matrix, from SciPy's row sums and nnz."""
    sums = count_sums(matrix)
    totals, uniques = sums["row_totals"].tolist(), sums["row_nnz"].tolist()
    ratios = [u / t for u, t in zip(uniques, totals) if t > 0]
    n = matrix.shape[0]
    return sum(totals) / n, sum(uniques) / n, sum(ratios) / len(ratios)


def dtm_oracle(
    matrix: sparse.csr_matrix, column: dict[str, int], terms: Sequence[str]
) -> tuple[np.ndarray, list[str], sparse.csr_matrix]:
    """(kept-row mask, kept terms, counts) of ``build_dtm``: SciPy slices
    the vocabulary's columns, then the non-empty rows."""
    kept_terms = [t for t in terms if t in column]
    selected = matrix[:, [column[t] for t in kept_terms]]
    nonempty = selected.getnnz(axis=1) > 0
    selected = selected[nonempty]
    selected.sort_indices()
    return nonempty, kept_terms, selected


def weight_oracle(counts: sparse.csr_matrix, scheme: str) -> sparse.csr_matrix:
    """``weight_arrays`` on a SciPy count matrix, through COO and
    ``eliminate_zeros``; the formulas are in ``textpipe.weight_arrays``."""
    coo = counts.tocoo()
    f = coo.data.astype(np.float64)
    ri, cj = coo.row, coo.col
    n_rows, n_cols = counts.shape
    df = np.bincount(cj, minlength=n_cols)
    row_margins = np.asarray(counts.sum(axis=1)).ravel()
    col_margins = np.asarray(counts.sum(axis=0)).ravel()
    if scheme == "relative-frequency":
        vals = f / row_margins[ri]
    elif scheme == "tf-idf":
        vals = (f / row_margins[ri]) * np.log(n_rows / df[cj])
    else:
        p = f / col_margins[cj]
        ent = np.zeros(n_cols)
        np.add.at(ent, cj, p * np.log(p))
        factor = np.maximum(1.0 + ent / np.log(n_rows), 0.0)
        fmax = np.zeros(n_cols)
        np.maximum.at(fmax, cj, f)
        factor[(df == n_rows) & (col_margins == n_rows * fmax)] = 0.0
        vals = np.log1p(f) * factor[cj]
    values = sparse.csr_matrix((vals, (ri, cj)), shape=counts.shape)
    values.eliminate_zeros()
    return values


def triplets_oracle(
    rows: Sequence[str], index: dict[str, int], triplets, n_cols: int
) -> sparse.csr_matrix:
    """The count matrix of ``dtm.tsv``'s triplets, built by SciPy from COO."""
    doc_ids, terms, counts = triplets
    row_index = {r: i for i, r in enumerate(rows)}
    return sparse.csr_matrix(
        (np.asarray(counts, dtype=np.int64),
         ([row_index[d] for d in doc_ids], [index[t] for t in terms])),
        shape=(len(rows), n_cols),
    )


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
