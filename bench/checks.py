"""Output checks for one benchmark repetition, computed outside lexevo.

Every function returns a list of failure messages; an empty list means
the check passed. The correspondence-analysis checks recompute the model
from the triplet artifact with sparse algebra, independently of
``lexevo.ca``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, svds

# The artifacts the README lists. ``manifest.json`` is written by
# ``lexevo run`` only, so a staged run is checked without it.
ARTIFACTS = (
    "corpus.csv", "filter_report.json", "rejects.tsv", "vocabulary.tsv",
    "dtm.tsv", "weighted.tsv", "term_frequencies.tsv", "yearly_counts.tsv",
    "type_shares.tsv", "stats.json", "ca_model.json", "ca_coords.tsv",
    "year_coords.tsv", "periods.json", "periods.md", "term_bars.svg",
    "type_bars.svg", "trend.svg", "ca_map.svg", "word_cloud.svg",
    "cloud_layout.tsv",
)
MANIFEST = "manifest.json"
INERTIA_RTOL = 1e-9
SINGULAR_VALUE_RTOL = 1e-8


def fingerprint(out: Path) -> dict[str, str]:
    """sha256 of every artifact except the manifest (which holds timings)."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != MANIFEST
    }


def artifacts_present(out: Path, with_manifest: bool) -> list[str]:
    expected = ARTIFACTS + ((MANIFEST,) if with_manifest else ())
    return [f"missing artifact {name}" for name in expected if not (out / name).is_file()]


def bookkeeping_matches(out: Path, bookkeeping: dict) -> list[str]:
    """filter_report.json, rejects.tsv and yearly_counts.tsv against the
    counts the generator knows by construction."""
    errors = []
    report = json.loads((out / "filter_report.json").read_text(encoding="utf-8"))
    for key in ("loaded", "excluded_non_research", "excluded_no_abstract", "retained"):
        if report.get(key) != bookkeeping[key]:
            errors.append(f"filter_report {key} = {report.get(key)}, generated {bookkeeping[key]}")
    rejects = (out / "rejects.tsv").read_text(encoding="utf-8").splitlines()
    if len(rejects) != bookkeeping["rejected"]:
        errors.append(f"rejects.tsv has {len(rejects)} rows, generated {bookkeeping['rejected']}")
    lines = (out / "yearly_counts.tsv").read_text(encoding="utf-8").splitlines()[1:]
    by_year = dict(line.split("\t") for line in lines)
    if {y: int(n) for y, n in by_year.items()} != bookkeeping["retained_by_year"]:
        errors.append("yearly_counts.tsv differs from the generated documents per year")
    return errors


def read_triplets(path: Path) -> sparse.csr_matrix:
    """A ``doc_id term value`` dump as a sparse matrix (row and column
    order as first seen; CA totals and singular values do not depend on it)."""
    rows: dict[str, int] = {}
    cols: dict[str, int] = {}
    ri, cj, vals = [], [], []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            doc, term, value = line.rstrip("\n").split("\t")
            ri.append(rows.setdefault(doc, len(rows)))
            cj.append(cols.setdefault(term, len(cols)))
            vals.append(float(value))
    return sparse.csr_matrix(
        (np.asarray(vals), (np.asarray(ri), np.asarray(cj))), shape=(len(rows), len(cols))
    )


def ca_matches(out: Path, matrix_artifact: str) -> list[str]:
    """Total inertia (chi^2 / n) and the leading singular values of the
    standardized residuals, from the matrix the CA stage was fed."""
    model = json.loads((out / "ca_model.json").read_text(encoding="utf-8"))
    dims = int(model["dims"])
    p = read_triplets(out / matrix_artifact)
    p = p / p.sum()
    r = np.asarray(p.sum(axis=1)).ravel()
    c = np.asarray(p.sum(axis=0)).ravel()
    coo = p.tocoo()
    inertia = float(np.sum(coo.data**2 / (r[coo.row] * c[coo.col]))) - 1.0

    # S = D_r^-1/2 (P - r c^T) D_c^-1/2 = Q - sqrt(r) sqrt(c)^T, applied
    # without forming the dense residual matrix.
    q = sparse.diags(1 / np.sqrt(r)) @ p @ sparse.diags(1 / np.sqrt(c))
    sr, sc = np.sqrt(r), np.sqrt(c)
    op = LinearOperator(
        p.shape,
        matvec=lambda x: q @ x.ravel() - sr * (sc @ x.ravel()),
        rmatvec=lambda y: q.T @ y.ravel() - sc * (sr @ y.ravel()),
        dtype=np.float64,
    )
    v0 = np.full(min(p.shape), 1.0 / np.sqrt(min(p.shape)))
    sv = np.sort(svds(op, k=dims, tol=0, v0=v0, return_singular_vectors=False))[::-1]

    errors = []
    if not np.isclose(model["inertia_total"], inertia, rtol=INERTIA_RTOL, atol=0):
        errors.append(f"inertia_total {model['inertia_total']!r} != chi2/n {inertia!r}")
    reported = np.asarray(model["singular_values"][:dims])
    if not np.allclose(reported, sv, rtol=SINGULAR_VALUE_RTOL, atol=0):
        errors.append(f"singular values {reported.tolist()} != svds {sv.tolist()}")
    return errors
