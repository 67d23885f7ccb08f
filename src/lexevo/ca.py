"""Correspondence analysis of a labeled non-negative table.

The table is normalized to the correspondence matrix P (counts divided by
the grand total), whose row and column sums are the masses a and b. The
decomposition is the SVD of the standardized residuals

    S = D_a^{-1/2} (P - a b^T) D_b^{-1/2} = U D_lambda V^T

Standard coordinates are the mass-rescaled singular vectors
(rows: D_a^{-1/2} U, columns: D_b^{-1/2} V); principal coordinates are
standard coordinates scaled by the singular values, so inter-point
Euclidean distances approximate chi-square distances. The total inertia
equals the chi-square statistic of the table divided by the grand total.

The fit never forms S or any other rows x columns array. With
Q = D_a^{-1/2} P D_b^{-1/2} kept sparse, S = Q - sqrt(a) sqrt(b)^T, and the
shorter side's Gram matrix (S S^T = Q Q^T - sqrt(a) sqrt(a)^T for the rows,
the same with the sides swapped for the columns) is a dense min(rows, cols)
square matrix, filled a block of rows at a time from the sparse product.
Its eigenvalues are the squared singular values, all of them reported, and
its eigenvectors are that side's singular vectors. One Householder
reduction (LAPACK ``dsytrd``, in place) turns it into a tridiagonal matrix
T with the same eigenvalues. Every eigenvalue of T comes from ``dsterf``,
as in ``numpy.linalg.eigvalsh``. Only the ``dims`` leading eigenvectors
of T are computed, by bisection and inverse iteration (``dstebz`` and
``dstein``, the path of LAPACK's subset driver ``dsyevr``, exact for
repeated eigenvalues too), and carried back through the stored reflectors.
The other side's singular vectors follow from the transition formula
S^T w / sigma for the retained dimensions only (Greenacre,
*Correspondence Analysis in Practice*, 3rd ed., 2017).

Zero rule: an eigenvalue at or below max(rows, cols) times the float64
machine epsilon is zero, and its dimension is dropped. The Gram matrix has
one exactly-zero eigenvalue (the trivial dimension, on sqrt(a)), which comes
out near 1e-15 instead; the rounding error of an eigenvalue is about
n * eps * lambda_1, and lambda_1 <= 1 in correspondence analysis.

Supplementary profiles (here: yearly term profiles) are projected through
the row transition formula and never influence the axes.

Determinism: the reduction and the tridiagonal routines are direct LAPACK
methods with no random start (``dstein`` draws its start vectors from a
fixed seed), so the same input gives the same vectors, a basis of a tied
eigenspace included. Each Gram entry sums the same products in the same
order whatever the block size. The SVD sign ambiguity is fixed per
dimension by requiring the column standard coordinate of largest absolute
value to be positive (ties broken by the lexicographically first column
label), recorded as sign convention ``colmax-positive-v1``. Two runs on the
same input produce identical output.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import artifacts
from .corpus import Corpus
from .errors import DataError, ValidationError
from .textpipe import DocTermMatrix, group_sum

if TYPE_CHECKING:  # annotations only: SciPy is imported where a matrix is built
    from scipy import sparse

__all__ = [
    "SIGN_CONVENTION",
    "CaInput",
    "CaModel",
    "SupplementaryProjection",
    "compute_ca",
    "project_supplementary",
    "aggregate_year_profiles",
    "write_coordinates_tsv",
    "write_model_json",
    "write_year_coords_tsv",
    "read_model_artifacts",
    "read_year_coords_tsv",
]

logger = logging.getLogger("lexevo.ca")

SIGN_CONVENTION = "colmax-positive-v1"

#: Rows of the Gram matrix that :func:`compute_ca` fills from one sparse
#: product at a time.
_BLOCK_ROWS = 256


@dataclass(frozen=True, eq=False)
class CaInput:
    """A labeled non-negative matrix (numpy or scipy-sparse) ready for
    correspondence analysis."""

    matrix: np.ndarray | sparse.spmatrix
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    @classmethod
    def from_counts(cls, dtm: DocTermMatrix) -> "CaInput":
        return cls(dtm.counts, dtm.rows, dtm.terms)

    def validate(self) -> None:
        m = self.matrix
        if m.ndim != 2:
            raise ValidationError(f"matrix must be 2-d, got shape {m.shape}")
        if m.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValidationError(
                f"label count {(len(self.row_labels), len(self.col_labels))} "
                f"does not match matrix shape {m.shape}"
            )
        stored = m if isinstance(m, np.ndarray) else m.data
        if not np.all(np.isfinite(stored)):
            raise ValidationError("matrix contains non-finite entries")
        if (stored < 0).any():
            bad = np.transpose((m < 0).nonzero())[:5].tolist()
            raise ValidationError(f"matrix has negative entries at {bad}")
        if m.sum() <= 0:
            raise ValidationError("matrix grand total must be positive")
        zero_rows = [self.row_labels[i] for i in np.flatnonzero(_margin(m, 1) == 0)]
        zero_cols = [self.col_labels[j] for j in np.flatnonzero(_margin(m, 0) == 0)]
        if zero_rows or zero_cols:
            raise ValidationError(
                f"matrix has all-zero rows {zero_rows} / columns {zero_cols}"
            )


def _margin(m: np.ndarray | sparse.spmatrix, axis: int) -> np.ndarray:
    return np.asarray(m.sum(axis=axis)).ravel()


@dataclass(frozen=True, eq=False)
class CaModel:
    """Fitted correspondence analysis.

    ``singular_values`` holds every non-trivial singular value (descending;
    non-trivial under the module's zero rule); coordinate matrices keep only
    the retained leading dimensions. ``dims``, ``inertia_total`` and
    ``inertia_shares`` are computed from those once, on first use, so a
    reloaded model derives them exactly as the fitted one does.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    row_masses: np.ndarray
    col_masses: np.ndarray
    singular_values: np.ndarray
    row_coords_standard: np.ndarray
    col_coords_standard: np.ndarray
    row_coords_principal: np.ndarray
    col_coords_principal: np.ndarray

    @cached_property
    def dims(self) -> int:
        """Number of retained dimensions: the coordinates' width."""
        return self.col_coords_principal.shape[1]

    @cached_property
    def inertia_total(self) -> float:
        """Sum of the squared singular values."""
        return float(np.sum(self.singular_values**2))

    @cached_property
    def inertia_shares(self) -> np.ndarray:
        """Each dimension's share of the total inertia; all zero when the
        total is zero."""
        total = self.inertia_total
        sv = self.singular_values
        return sv**2 / total if total > 0 else np.zeros_like(sv)


def _canonicalize_signs(
    u: np.ndarray, v: np.ndarray, col_std: np.ndarray, col_labels: Sequence[str]
) -> None:
    """Flip singular-vector pairs in place so that, per dimension, the
    column standard coordinate of largest magnitude is positive."""
    for k in range(u.shape[1]):
        col = col_std[:, k]
        magnitude = np.abs(col)
        peak = magnitude.max()
        candidates = np.flatnonzero(magnitude == peak)
        j = min(candidates, key=lambda i: col_labels[i])
        if col[j] < 0:
            u[:, k] *= -1.0
            v[:, k] *= -1.0
            col_std[:, k] *= -1.0


def _apply_reflectors(c: np.ndarray, tau: np.ndarray, z: np.ndarray) -> None:
    """Overwrite ``z`` with Q z, where Q = H(0) H(1) ... H(n-2) is the
    orthogonal factor of LAPACK ``dsytrd`` (lower storage): H(i) = I - tau[i]
    v v^T with v = [1, c[i+2:, i]] acting on rows i+1 onwards. Destroys the
    subdiagonal of ``c``."""
    for i in range(len(tau) - 1, -1, -1):
        v = c[i + 1 :, i]
        v[0] = 1.0
        z[i + 1 :] -= tau[i] * np.outer(v, v @ z[i + 1 :])


def compute_ca(inp: CaInput, dims: int = 2) -> CaModel:
    """Fit correspondence analysis and retain the top ``dims`` dimensions.

    ``dims`` must satisfy 1 <= dims <= min(rows, cols) - 1. A squared
    singular value at or below ``max(rows, cols)`` machine epsilons is zero
    (the module's zero rule) and its dimension is dropped, so the retained
    count can be smaller than requested (zero for an independent table).
    The only dense arrays are the min(rows, cols) square Gram matrix
    (reduced in place; one block of rows at a time while it is built), its
    eigenvalues, and arrays of one side's length times ``dims``.
    """
    # Imported here, like every SciPy import of the package: at module level
    # it would add to the start-up of every subcommand, and only ingest, ca
    # and periods build a sparse matrix.
    from scipy import sparse
    from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal, lapack

    inp.validate()
    n_rows, n_cols = inp.matrix.shape
    max_dims = min(n_rows, n_cols) - 1
    if not 1 <= dims <= max_dims:
        raise ValidationError(
            f"dims must be between 1 and min(rows, cols) - 1 = {max_dims}, got {dims}"
        )

    p = sparse.csr_matrix(inp.matrix, dtype=np.float64)
    p = p / p.sum()
    a, b = _margin(p, 1), _margin(p, 0)
    root_a, root_b = np.sqrt(a), np.sqrt(b)
    q = sparse.diags(1.0 / root_a) @ p @ sparse.diags(1.0 / root_b)
    del p

    # S = Q - sqrt(a) sqrt(b)^T. Since Q sqrt(b) = sqrt(a), the rows' Gram
    # matrix is S S^T = Q Q^T - sqrt(a) sqrt(a)^T; with more rows than
    # columns, the same holds for S^T with the two sides swapped.
    transposed = n_rows > n_cols
    qs, root_s, root_l = (q.T.tocsr(), root_b, root_a) if transposed else (q, root_a, root_b)
    del q
    # P and Q are released once the next copy exists, so while the Gram
    # matrix is filled the only whole sparse copies of the table are qs and
    # its transpose. It is filled a block of rows at a time, so the only
    # other large arrays are one block's rows and their sparse product; the
    # mass term is subtracted one row at a time.
    n = qs.shape[0]
    qs_t = qs.T.tocsr()
    gram = np.empty((n, n))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        (qs[start:stop] @ qs_t).toarray(out=gram[start:stop])
        for i in range(start, stop):
            gram[i] -= root_s[i] * root_s
    del qs_t

    # gram.T is the same symmetric matrix in Fortran order, so LAPACK reduces
    # it to tridiagonal form in place, without a copy.
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    c, d, e, tau, info = lapack.dsytrd(gram.T, lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsytrd failed with info = {info}")
    eigvals = eigvalsh_tridiagonal(d, e, lapack_driver="sterf")[::-1]
    sv = np.sqrt(eigvals[eigvals > max(n_rows, n_cols) * np.finfo(np.float64).eps])
    k = min(dims, sv.size)
    if k:
        _, w = eigh_tridiagonal(d, e, select="i", select_range=(n - k, n - 1))
        w = np.ascontiguousarray(w[:, ::-1])
        _apply_reflectors(c, tau, w)
    else:
        w = np.zeros((n, 0))
    del gram, c

    # Transition formula, for the retained dimensions only: the other side's
    # singular vectors are S^T w / sigma.
    z = (qs.T @ w - np.outer(root_l, root_s @ w)) / sv[:k]
    u, v = (z, w) if transposed else (w, z)

    col_std = v / root_b[:, None]
    _canonicalize_signs(u, v, col_std, inp.col_labels)
    row_std = u / root_a[:, None]

    return CaModel(
        row_labels=tuple(inp.row_labels),
        col_labels=tuple(inp.col_labels),
        row_masses=a,
        col_masses=b,
        singular_values=sv,
        row_coords_standard=row_std,
        col_coords_standard=col_std,
        row_coords_principal=row_std * sv[:k],
        col_coords_principal=col_std * sv[:k],
    )


@dataclass(frozen=True, eq=False)
class SupplementaryProjection:
    """A profile projected into an existing solution without mass."""

    label: str
    coords: np.ndarray


def project_supplementary(
    model: CaModel, profile: Sequence[float] | np.ndarray, label: str
) -> SupplementaryProjection:
    """Project a column profile through the row transition formula.

    The profile is normalized to sum 1; its principal coordinate on
    dimension k is the profile-weighted average of the column standard
    coordinates. An active row's own profile reproduces that row's
    principal coordinates.
    """
    r = np.asarray(profile, dtype=np.float64)
    if r.ndim != 1 or r.size != len(model.col_labels):
        raise ValidationError(
            f"profile length {r.size} does not match {len(model.col_labels)} columns"
        )
    if (r < 0).any():
        raise ValidationError("profile entries must be non-negative")
    total = r.sum()
    if total <= 0:
        raise ValidationError("profile must have at least one positive entry")
    r = r / total
    return SupplementaryProjection(label, r @ model.col_coords_standard)


def aggregate_year_profiles(
    inp: CaInput, corpus: Corpus
) -> list[tuple[int, np.ndarray]]:
    """Column-wise sums of the CA input's rows per publication year,
    ascending by year. The rows summed are those the model is fitted on, so
    a year's projection is the mass-weighted centroid of its documents.

    Every matrix row must map to a corpus document (consistency error
    otherwise). A year whose rows are all zero would have a zero profile;
    such years are omitted with a warning.
    """
    from scipy import sparse

    docs = corpus.by_id()
    row_years: list[int] = []
    for doc_id in inp.row_labels:
        doc = docs.get(doc_id)
        if doc is None:
            raise DataError(f"matrix row {doc_id!r} has no corpus document")
        row_years.append(doc.year)
    years = sorted(set(row_years))
    slot = {year: i for i, year in enumerate(years)}
    sums = group_sum(sparse.csr_matrix(inp.matrix), [slot[y] for y in row_years], len(years))
    out: list[tuple[int, np.ndarray]] = []
    for year, profile in zip(years, sums):
        if profile.sum() <= 0:
            logger.warning("year %d has an all-zero profile; omitted", year)
            continue
        out.append((year, profile))
    return out


# ---------------------------------------------------------------------------
# On-disk artifacts
# ---------------------------------------------------------------------------


def _coords_columns(k: int) -> artifacts.Columns:
    dims = [f"dim{d + 1}" for d in range(k)]
    floats = ["mass", *dims, *(f"contrib_{name}" for name in dims)]
    return [("kind", str), ("label", str), *((name, float) for name in floats)]


def _year_columns(k: int) -> artifacts.Columns:
    return [("label", str)] + [(f"dim{d + 1}", float) for d in range(k)]


def write_coordinates_tsv(model: CaModel, dest: str | Path) -> None:
    """Coordinate export: kind, label, mass, principal coordinates, then
    per-dimension contributions (mass * coord^2 / lambda^2)."""
    k = model.dims
    masses = np.concatenate([model.row_masses, model.col_masses])
    coords = np.vstack([model.row_coords_principal, model.col_coords_principal])
    contribs = masses[:, None] * coords**2 / model.singular_values[:k] ** 2
    kinds = ["row"] * len(model.row_labels) + ["col"] * len(model.col_labels)
    labels = model.row_labels + model.col_labels
    artifacts.write_tsv(dest, _coords_columns(k), [kinds, labels, masses, *coords.T, *contribs.T])


def write_model_json(model: CaModel, dest: str | Path) -> None:
    payload = {
        "sign_convention": SIGN_CONVENTION,
        "dims": model.dims,
        "singular_values": [float(v) for v in model.singular_values],
        "inertia_total": model.inertia_total,
        "inertia_shares": [float(v) for v in model.inertia_shares],
    }
    artifacts.write_json(dest, payload)


def write_year_coords_tsv(
    projections: Sequence[SupplementaryProjection], dest: str | Path
) -> None:
    k = projections[0].coords.size if projections else 0
    coords = np.asarray([p.coords for p in projections]).reshape(len(projections), k)
    artifacts.write_tsv(dest, _year_columns(k), [[p.label for p in projections], *coords.T])


def read_model_artifacts(coords_src: str | Path, model_src: str | Path) -> CaModel:
    """Rebuild a CaModel from the coordinate TSV and the model JSON.

    Standard coordinates are recovered as principal / singular value, so
    the reloaded model is numerically identical to the one exported
    (coordinates are written with full round-trip precision).
    """
    meta = artifacts.read_json(model_src)
    sv = np.asarray(meta["singular_values"], dtype=np.float64)
    k = int(meta["dims"])

    kinds, labels, masses, *values = artifacts.read_tsv(coords_src, _coords_columns(k))
    is_row = np.asarray([kind == "row" for kind in kinds], dtype=bool)
    labels, masses = np.asarray(labels, dtype=object), np.asarray(masses)
    principal = np.asarray(values[:k]).reshape(k, len(kinds)).T
    row_pri, col_pri = principal[is_row], principal[~is_row]
    lam = sv[:k]
    return CaModel(
        row_labels=tuple(labels[is_row]),
        col_labels=tuple(labels[~is_row]),
        row_masses=masses[is_row],
        col_masses=masses[~is_row],
        singular_values=sv,
        row_coords_standard=row_pri / lam if k else row_pri,
        col_coords_standard=col_pri / lam if k else col_pri,
        row_coords_principal=row_pri,
        col_coords_principal=col_pri,
    )


def read_year_coords_tsv(src: str | Path, dims: int) -> list[SupplementaryProjection]:
    """The projections of ``year_coords.tsv``, which holds ``dims`` coordinates."""
    labels, *values = artifacts.read_tsv(src, _year_columns(dims))
    coords = np.asarray(values).reshape(dims, len(labels)).T
    return [SupplementaryProjection(label, c) for label, c in zip(labels, coords)]
