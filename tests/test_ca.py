import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import oracles
from lexevo.ca import (
    SIGN_CONVENTION,
    CaInput,
    aggregate_year_profiles,
    compute_ca,
    project_supplementary,
    read_model_artifacts,
    read_year_coords_tsv,
    write_coordinates_tsv,
    write_model_json,
    write_year_coords_tsv,
)
from lexevo.corpus import Corpus, DocType, Document, FilterReport
from lexevo.errors import DataError, ValidationError
from lexevo.textpipe import (
    TokenStream,
    build_dtm,
    build_vocabulary,
    count_terms,
)

# A fixed, comfortably non-degenerate table used throughout.
FIXTURE = np.array(
    [
        [10, 2, 1, 0],
        [3, 8, 2, 1],
        [1, 3, 9, 4],
        [0, 1, 5, 12],
        [2, 4, 1, 6],
    ],
    dtype=np.float64,
)
ROWS = tuple(f"r{i}" for i in range(5))
COLS = ("alpha", "beta", "gamma", "delta")


def _model(matrix=FIXTURE, dims=2):
    rows = tuple(f"r{i}" for i in range(matrix.shape[0]))
    cols = COLS[: matrix.shape[1]]
    return compute_ca(CaInput(matrix, rows, cols), dims=dims)


# --- algebraic identities ----------------------------------------------------


def test_masses_are_marginal_proportions():
    model = _model()
    n = FIXTURE.sum()
    assert np.allclose(model.row_masses, FIXTURE.sum(axis=1) / n, atol=1e-12)
    assert np.allclose(model.col_masses, FIXTURE.sum(axis=0) / n, atol=1e-12)
    assert model.row_masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert model.col_masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_singular_values_descending_and_at_most_one():
    model = _model()
    sv = model.singular_values
    assert np.all(sv[:-1] >= sv[1:])
    assert np.all(sv <= 1.0 + 1e-12)
    assert np.all(sv > 0)


def test_inertia_is_chi_square_over_n():
    model = _model()
    chi2 = oracles.chi_square(FIXTURE)
    assert model.inertia_total == pytest.approx(chi2 / FIXTURE.sum(), abs=1e-9)
    assert model.inertia_total == pytest.approx(
        float((model.singular_values**2).sum()), abs=1e-12
    )
    assert model.inertia_shares.sum() == pytest.approx(1.0, abs=1e-12)


def test_principal_centroids_sit_at_the_origin():
    model = _model(dims=3)
    for k in range(model.dims):
        assert model.row_masses @ model.row_coords_principal[:, k] == pytest.approx(
            0.0, abs=1e-9
        )
        assert model.col_masses @ model.col_coords_principal[:, k] == pytest.approx(
            0.0, abs=1e-9
        )


def test_standard_coordinates_have_unit_weighted_variance():
    model = _model(dims=3)
    for k in range(model.dims):
        assert model.row_masses @ model.row_coords_standard[:, k] ** 2 == (
            pytest.approx(1.0, abs=1e-9)
        )
        assert model.col_masses @ model.col_coords_standard[:, k] ** 2 == (
            pytest.approx(1.0, abs=1e-9)
        )


def test_transition_formula_links_the_two_clouds():
    model = _model(dims=3)
    p = FIXTURE / FIXTURE.sum()
    row_profiles = p / model.row_masses[:, None]
    col_profiles = (p / model.col_masses[None, :]).T
    assert np.allclose(
        model.row_coords_principal,
        row_profiles @ model.col_coords_standard,
        atol=1e-9,
    )
    assert np.allclose(
        model.col_coords_principal,
        col_profiles @ model.row_coords_standard,
        atol=1e-9,
    )


def test_sign_convention_per_dimension():
    model = _model(dims=3)
    assert SIGN_CONVENTION == "colmax-positive-v1"
    for k in range(model.dims):
        col = model.col_coords_standard[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_matches_eigendecomposition_oracle():
    oracle = oracles.ca_eigen_oracle(FIXTURE, COLS)
    model = _model(dims=3)
    assert np.allclose(model.singular_values, oracle["singular_values"], atol=1e-9)
    assert model.inertia_total == pytest.approx(oracle["inertia_total"], abs=1e-9)
    k = model.dims
    assert np.allclose(model.row_coords_principal, oracle["row_principal"][:, :k], atol=1e-9)
    assert np.allclose(model.col_coords_principal, oracle["col_principal"][:, :k], atol=1e-9)


def test_scale_invariance():
    base = _model()
    scaled = _model(FIXTURE * 7.0)
    assert np.allclose(base.singular_values, scaled.singular_values, atol=1e-12)
    assert np.allclose(
        base.row_coords_principal, scaled.row_coords_principal, atol=1e-12
    )
    assert base.inertia_total == pytest.approx(scaled.inertia_total, abs=1e-12)


@given(st.permutations(range(5)))
@settings(max_examples=20)
def test_row_permutation_equivariance(perm):
    base = _model(dims=2)
    permuted = compute_ca(
        CaInput(FIXTURE[list(perm)], tuple(f"r{i}" for i in perm), COLS), dims=2
    )
    assert np.allclose(
        permuted.row_coords_principal,
        base.row_coords_principal[list(perm)],
        atol=1e-9,
    )
    assert np.allclose(
        permuted.col_coords_principal, base.col_coords_principal, atol=1e-9
    )


def test_retained_dimensions_capped_by_request():
    assert _model(dims=1).dims == 1
    assert _model(dims=3).dims == 3
    assert _model(dims=1).row_coords_principal.shape == (5, 1)
    # singular values are always reported for every non-trivial dimension
    assert _model(dims=1).singular_values.size == 3


def _refuse(*args, **kwargs):
    raise AssertionError("called a routine the fit must not call")


def test_independent_table_has_no_retained_dimensions(monkeypatch):
    import scipy.linalg

    # outer product -> chi-square exactly 0 -> every dimension trivial, so
    # there is no eigenvector to ask LAPACK for
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", _refuse)
    table = np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    model = compute_ca(CaInput(table, ("a", "b", "c"), ("x", "y", "z")), dims=2)
    assert model.dims == 0
    assert model.inertia_total == 0.0
    assert model.singular_values.size == 0
    assert model.row_coords_principal.shape == model.col_coords_principal.shape == (3, 0)



def _labeled(matrix):
    rows = tuple(f"r{i}" for i in range(matrix.shape[0]))
    cols = tuple(f"c{j}" for j in range(matrix.shape[1]))
    return CaInput(matrix, rows, cols)


def test_fit_allocates_no_rows_by_columns_array():
    # 300 x 40,000 with every row and column occupied: the dense table alone
    # would take 92 MiB. Fitting it, and its transpose, must trace far less.
    rng = np.random.default_rng(8)
    n_rows, n_cols = 300, 40_000
    rows = np.concatenate([np.arange(n_rows), rng.integers(0, n_rows, 80_000 + n_cols)])
    cols = np.concatenate([rng.integers(0, n_cols, n_rows + 80_000), np.arange(n_cols)])
    table = sparse.csr_matrix(
        (rng.integers(1, 5, rows.size).astype(np.float64), (rows, cols)),
        shape=(n_rows, n_cols),
    )
    dense_bytes = n_rows * n_cols * 8
    for matrix in (table, table.T.tocsr()):
        inp = _labeled(matrix)
        tracemalloc.start()
        try:
            model = compute_ca(inp, dims=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4, (matrix.shape, peak)
        assert model.singular_values.size == n_rows - 1


def test_transposed_table_swaps_the_two_clouds():
    # FIXTURE has more rows than columns and its transpose fewer, so the two
    # fits decompose different sides' Gram matrices.
    model = _model(dims=3)
    swapped = compute_ca(_labeled(FIXTURE.T), dims=3)
    assert np.allclose(swapped.singular_values, model.singular_values, rtol=0, atol=1e-12)
    signs = np.sign(np.sum(swapped.row_coords_principal * model.col_coords_principal, axis=0))
    assert np.allclose(swapped.row_coords_principal * signs, model.col_coords_principal,
                       rtol=0, atol=1e-12)
    assert np.allclose(swapped.col_coords_principal * signs, model.row_coords_principal,
                       rtol=0, atol=1e-12)


def test_proportional_rows_drop_a_dimension_in_either_orientation():
    table = np.array([[1, 2, 3, 4], [2, 4, 6, 8], [5, 1, 0, 2], [0, 3, 1, 1]], np.float64)
    for matrix in (table, table.T):
        model = compute_ca(_labeled(matrix), dims=3)
        assert model.singular_values.size == 2
        assert model.dims == 2


# --- the truncated eigenvector step -----------------------------------------


def _occupied_table(rng, n_rows, n_cols, extra):
    """A sparse random count table in which every row and column is used."""
    rows = np.concatenate([np.arange(n_rows), rng.integers(0, n_rows, extra + n_cols)])
    cols = np.concatenate([rng.integers(0, n_cols, n_rows + extra), np.arange(n_cols)])
    return sparse.csr_matrix(
        (rng.integers(1, 5, rows.size).astype(np.float64), (rows, cols)),
        shape=(n_rows, n_cols),
    )


def test_fit_computes_no_full_eigenvector_matrix(monkeypatch):
    import scipy.linalg
    from scipy.linalg import lapack

    table = _occupied_table(np.random.default_rng(3), 300, 400, 6_000)
    oracle = oracles.ca_eigen_oracle(table.toarray(), tuple(f"c{j}" for j in range(400)))
    reductions, subsets = [], []
    dsytrd, eigh_tridiagonal = lapack.dsytrd, scipy.linalg.eigh_tridiagonal

    def counted_dsytrd(*args, **kwargs):
        reductions.append(args[0].shape)
        return dsytrd(*args, **kwargs)

    def recorded_eigh_tridiagonal(d, e, **kwargs):
        subsets.append(kwargs.get("select_range"))
        return eigh_tridiagonal(d, e, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
    monkeypatch.setattr(np.linalg, "svd", _refuse)
    monkeypatch.setattr(scipy.linalg, "eigh", _refuse)
    monkeypatch.setattr(lapack, "dsytrd", counted_dsytrd)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recorded_eigh_tridiagonal)
    model = compute_ca(_labeled(table), dims=2)
    assert reductions == [(300, 300)]  # the 300-row Gram matrix, reduced once
    assert subsets == [(298, 299)]  # and only its two leading vectors
    assert model.singular_values.size == 299
    assert np.allclose(model.singular_values, oracle["singular_values"], atol=1e-9)
    assert np.allclose(model.row_coords_principal, oracle["row_principal"][:, :2], atol=1e-9)
    assert np.allclose(model.col_coords_principal, oracle["col_principal"][:, :2], atol=1e-9)


def test_failed_reduction_is_a_linalg_error(monkeypatch):
    from scipy.linalg import lapack

    dsytrd = lapack.dsytrd

    def failing(*args, **kwargs):
        return (*dsytrd(*args, **kwargs)[:4], -1)

    monkeypatch.setattr(lapack, "dsytrd", failing)
    with pytest.raises(np.linalg.LinAlgError, match="dsytrd"):
        compute_ca(_labeled(FIXTURE), dims=2)


def test_gram_block_size_does_not_change_the_fit(monkeypatch, tmp_path):
    import lexevo.ca

    # A 30-row Gram side is not a multiple of 7, so the last block is short.
    table = _occupied_table(np.random.default_rng(4), 30, 45, 200)
    fits = []
    for block in (lexevo.ca._BLOCK_ROWS, 7):
        monkeypatch.setattr(lexevo.ca, "_BLOCK_ROWS", block)
        model = compute_ca(_labeled(table), dims=4)
        path = tmp_path / f"ca_model_{block}.json"
        write_model_json(model, path)
        fits.append((path.read_bytes(), model.row_coords_principal, model.col_coords_principal))
    (json_a, rows_a, cols_a), (json_b, rows_b, cols_b) = fits
    assert json_a == json_b
    assert np.array_equal(rows_a, rows_b) and np.array_equal(cols_a, cols_b)


def test_fit_peaks_near_one_gram_matrix():
    import scipy.linalg  # noqa: F401 - the fit's import is not its memory

    # A 1,500-row Gram side is several blocks long. Beside the Gram matrix,
    # the fit holds one block's sparse product, LAPACK's work arrays and
    # arrays of one side's length, never a second n x n array.
    table = _occupied_table(np.random.default_rng(9), 1_500, 2_000, 4_000)
    gram_bytes = 1_500**2 * 8
    tracemalloc.start()
    try:
        compute_ca(_labeled(table), dims=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * gram_bytes, peak / gram_bytes


def test_fit_releases_each_sparse_copy_once_the_next_exists():
    # A tall table has its columns' Gram matrix filled from Q^T and its
    # transpose. P and Q are released once the next copy exists, so the fit
    # holds three float64 copies of the table while Q is formed from P, and
    # two plus one block's rows and product while the Gram matrix is
    # filled; holding P and Q then too would make it four. Less the Gram
    # matrix, which also outweighs the arrays of the rows' length, the peak
    # stays under three copies.
    table = _occupied_table(np.random.default_rng(5), 20_000, 1_024, 700_000)
    as_float = sparse.csr_matrix(table, dtype=np.float64)
    copy_bytes = as_float.data.nbytes + as_float.indices.nbytes + as_float.indptr.nbytes
    gram_bytes = 1_024**2 * 8
    inp = _labeled(table.astype(np.int64))
    compute_ca(inp, dims=2)  # imports and first-call set-up are not the fit's memory
    tracemalloc.start()
    try:
        compute_ca(inp, dims=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - gram_bytes < 3 * copy_bytes, (peak - gram_bytes) / copy_bytes


@pytest.mark.parametrize(
    "table",
    [
        np.array([[3, 1], [1, 2]]),
        np.array([[3, 1, 0], [1, 2, 2], [0, 1, 4]]),
        np.array([[3, 1, 0, 2, 1], [1, 2, 2, 0, 1], [0, 1, 4, 1, 3]]),
        np.array([[3, 1, 0, 2, 1], [1, 2, 2, 0, 1], [0, 1, 4, 1, 3]]).T,
    ],
    ids=["2x2", "3x3", "3x5", "5x3"],
)
def test_every_dimension_of_a_small_table(table):
    # dims = min(rows, cols) - 1 asks for all but one eigenvector of the
    # Gram matrix, the largest admissible request.
    table = table.astype(np.float64)
    dims = min(table.shape) - 1
    model = compute_ca(_labeled(table), dims=dims)
    oracle = oracles.ca_eigen_oracle(table, tuple(f"c{j}" for j in range(table.shape[1])))
    assert model.dims == model.singular_values.size == dims
    assert np.allclose(model.singular_values, oracle["singular_values"][:dims], atol=1e-9)
    assert np.allclose(model.row_coords_principal, oracle["row_principal"][:, :dims], atol=1e-9)
    assert np.allclose(model.col_coords_principal, oracle["col_principal"][:, :dims], atol=1e-9)


def test_tied_leading_spectrum_gives_identical_coordinates(tmp_path):
    # 5 I + 1 has equal masses and a threefold leading eigenvalue: any two
    # orthonormal vectors of that eigenspace solve the fit, so two fits
    # agree only if the eigen routine picks its basis deterministically.
    table = 5.0 * np.eye(4) + 1.0
    paths = [tmp_path / "first.tsv", tmp_path / "second.tsv"]
    for path in paths:
        model = compute_ca(_labeled(table), dims=2)
        write_coordinates_tsv(model, path)
    assert np.allclose(model.singular_values, model.singular_values[0], rtol=0, atol=1e-12)
    assert model.singular_values.size == 3
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_repeated_eigenvalues_match_the_oracle_geometry():
    # Three identical blocks on the diagonal: the eigenvalue 1 (the blocks
    # are perfectly associated) appears twice and every eigenvalue of one
    # block three times, on a 30-row Gram side. Five dimensions take both
    # eigenspaces whole. Any orthonormal basis of a repeated eigenspace
    # solves the fit, so the fit is compared with the oracle through F F^T
    # and G G^T, which a rotation inside a whole eigenspace leaves unchanged.
    block = np.random.default_rng(5).integers(1, 9, (10, 12)).astype(np.float64)
    table = np.kron(np.eye(3), block)
    model = compute_ca(_labeled(table), dims=5)
    oracle = oracles.ca_eigen_oracle(table, tuple(f"c{j}" for j in range(36)))
    sv = oracle["singular_values"]
    assert np.allclose(sv[:2], 1.0) and sv[1] - sv[2] > 1e-3 and sv[4] - sv[5] > 1e-3
    assert model.singular_values.size == 2 + 3 * 9
    assert np.allclose(model.singular_values, sv[:29], atol=1e-9)
    for ours, theirs in [
        (model.row_coords_principal, oracle["row_principal"][:, :5]),
        (model.col_coords_principal, oracle["col_principal"][:, :5]),
    ]:
        assert np.allclose(ours @ ours.T, theirs @ theirs.T, atol=1e-9)


# --- validation ---------------------------------------------------------------


def test_validate_rejects_negative_entries():
    bad = FIXTURE.copy()
    bad[0, 0] = -1
    with pytest.raises(ValidationError, match="negative"):
        compute_ca(CaInput(bad, ROWS, COLS))


def test_validate_rejects_zero_rows_and_columns_by_label():
    bad = FIXTURE.copy()
    bad[2, :] = 0
    with pytest.raises(ValidationError, match="r2"):
        compute_ca(CaInput(bad, ROWS, COLS))
    bad = FIXTURE.copy()
    bad[:, 1] = 0
    with pytest.raises(ValidationError, match="beta"):
        compute_ca(CaInput(bad, ROWS, COLS))


def test_a_sparse_row_of_explicit_zeros_is_an_all_zero_row():
    # Row r2 keeps its four stored entries, each set to 0: it has no mass.
    stored = sparse.csr_matrix(FIXTURE)
    stored.data[stored.indptr[2] : stored.indptr[3]] = 0.0
    assert stored.getnnz(axis=1).tolist() == [3, 4, 4, 3, 4]
    with pytest.raises(ValidationError, match=r"all-zero rows \['r2'\] / columns \[\]"):
        compute_ca(CaInput(stored, ROWS, COLS))


def test_validate_rejects_label_shape_mismatch():
    with pytest.raises(ValidationError):
        compute_ca(CaInput(FIXTURE, ROWS[:-1], COLS))


def _with(value, *cells):
    bad = FIXTURE.copy()
    for cell in cells:
        bad[cell] = value
    return bad


@pytest.mark.parametrize(
    "bad, rows",
    [
        (_with(-1.0, (0, 0), (3, 2)), ROWS),
        (_with(np.inf, (1, 1)), ROWS),
        (_with(0.0, (2, slice(None)), (slice(None), 1)), ROWS),
        (np.zeros_like(FIXTURE), ROWS),
        (FIXTURE, ROWS[:-1]),
    ],
)
def test_validate_gives_sparse_input_the_dense_message(bad, rows):
    with pytest.raises(ValidationError) as dense:
        compute_ca(CaInput(bad, rows, COLS))
    with pytest.raises(ValidationError) as sparse_error:
        compute_ca(CaInput(sparse.csr_matrix(bad), rows, COLS))
    assert str(sparse_error.value) == str(dense.value)


def test_sparse_and_dense_input_give_identical_models():
    dense = compute_ca(CaInput(FIXTURE, ROWS, COLS), dims=2)
    counts = sparse.csr_matrix(FIXTURE.astype(np.int64))
    model = compute_ca(CaInput(counts, ROWS, COLS), dims=2)
    for name in ("singular_values", "row_coords_principal", "col_coords_principal",
                 "row_masses", "col_masses"):
        assert np.array_equal(getattr(model, name), getattr(dense, name)), name
    assert model.inertia_total == dense.inertia_total


def test_dims_out_of_range():
    with pytest.raises(ValidationError, match="dims"):
        _model(dims=0)
    with pytest.raises(ValidationError, match="dims"):
        _model(dims=4)  # min(5, 4) - 1 = 3


# --- supplementary projection --------------------------------------------------


def test_active_row_profile_reproduces_its_coordinates():
    model = _model(dims=3)
    for i in range(FIXTURE.shape[0]):
        proj = project_supplementary(model, FIXTURE[i], label=f"r{i}")
        assert np.allclose(proj.coords, model.row_coords_principal[i], atol=1e-9)


def test_column_mass_profile_projects_to_the_origin():
    model = _model(dims=3)
    proj = project_supplementary(model, model.col_masses, label="avg")
    assert np.allclose(proj.coords, 0.0, atol=1e-9)


def test_projection_normalizes_the_profile():
    model = _model()
    once = project_supplementary(model, FIXTURE[0], "x")
    scaled = project_supplementary(model, FIXTURE[0] * 13, "x")
    assert np.allclose(once.coords, scaled.coords, atol=1e-12)


def test_projection_validates_input():
    model = _model()
    with pytest.raises(ValidationError):
        project_supplementary(model, [1.0, 2.0], "short")
    with pytest.raises(ValidationError):
        project_supplementary(model, [1.0, -1.0, 0.0, 0.0], "neg")
    with pytest.raises(ValidationError):
        project_supplementary(model, [0.0, 0.0, 0.0, 0.0], "zero")


# --- year profiles --------------------------------------------------------------


def _tiny_corpus_and_dtm():
    docs = tuple(
        Document(id=f"d{i}", title="t", abstract="", keywords=(), year=year,
                 doc_type=DocType.ARTICLE, citations=0)
        for i, year in enumerate([2019, 2019, 2020])
    )
    corpus = Corpus(docs, FilterReport(3, 0, 0, 3))
    streams = [
        TokenStream("d0", ("aa", "bb")),
        TokenStream("d1", ("aa",)),
        TokenStream("d2", ("bb", "bb")),
    ]
    counts = count_terms(streams)
    return corpus, build_dtm(counts, build_vocabulary(counts, 1))


def test_aggregate_year_profiles_sums_counts_by_year():
    corpus, dtm = _tiny_corpus_and_dtm()
    profiles = aggregate_year_profiles(CaInput.from_counts(dtm), corpus)
    assert [year for year, _ in profiles] == [2019, 2020]
    by_year = dict(profiles)
    j_aa, j_bb = dtm.vocabulary.index["aa"], dtm.vocabulary.index["bb"]
    assert by_year[2019][j_aa] == 2 and by_year[2019][j_bb] == 1
    assert by_year[2020][j_aa] == 0 and by_year[2020][j_bb] == 2


def test_aggregate_year_profiles_requires_known_documents():
    corpus, dtm = _tiny_corpus_and_dtm()
    orphan = Corpus(corpus.documents[:2], FilterReport(2, 0, 0, 2))
    with pytest.raises(DataError, match="d2"):
        aggregate_year_profiles(CaInput.from_counts(dtm), orphan)


def test_aggregate_year_profiles_omits_zero_years_with_warning(caplog):
    corpus, dtm = _tiny_corpus_and_dtm()
    # A dense input where d2 (the only 2020 document) has an all-zero row.
    dense = dtm.counts.toarray()
    dense[dtm.rows.index("d2")] = 0
    with caplog.at_level(logging.WARNING):
        profiles = aggregate_year_profiles(CaInput(dense, dtm.rows, dtm.terms), corpus)
    assert [year for year, _ in profiles] == [2019]
    assert any("2020" in rec.message for rec in caplog.records)


# --- artifacts --------------------------------------------------------------------


def test_model_artifacts_round_trip(tmp_path):
    independent = np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    for model in (_model(dims=3), _model(independent)):
        coords_path, model_path = tmp_path / "ca_coords.tsv", tmp_path / "ca_model.json"
        write_coordinates_tsv(model, coords_path)
        write_model_json(model, model_path)
        again = read_model_artifacts(coords_path, model_path)
        assert again.row_labels == model.row_labels
        assert again.col_labels == model.col_labels
        assert again.dims == model.dims
        # repr round-trip makes the reload bit-exact, and the derived
        # inertia follows bit for bit from the singular values
        assert np.array_equal(again.row_coords_principal, model.row_coords_principal)
        assert np.array_equal(again.col_coords_principal, model.col_coords_principal)
        assert np.array_equal(again.singular_values, model.singular_values)
        assert again.inertia_total == model.inertia_total
        assert np.array_equal(again.inertia_shares, model.inertia_shares)
        assert np.allclose(
            again.row_coords_standard, model.row_coords_standard, atol=1e-12
        )
    # the independent table, reloaded last, keeps no dimension and no inertia
    assert (again.dims, again.inertia_total, again.inertia_shares.size) == (0, 0.0, 0)


def test_contributions_sum_to_one_per_dimension(tmp_path):
    model = _model(dims=2)
    path = tmp_path / "ca_coords.tsv"
    write_coordinates_tsv(model, path)
    lines = [l.split("\t") for l in path.read_text(encoding="utf-8").splitlines()[1:]]
    for kind in ("row", "col"):
        rows = [l for l in lines if l[0] == kind]
        for dim in range(model.dims):
            total = sum(float(r[3 + model.dims + dim]) for r in rows)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_year_coords_round_trip(tmp_path):
    model = _model()
    projections = [
        project_supplementary(model, FIXTURE[i], str(2010 + i)) for i in range(3)
    ]
    path = tmp_path / "year_coords.tsv"
    write_year_coords_tsv(projections, path)
    again = read_year_coords_tsv(path, model.dims)
    assert [p.label for p in again] == ["2010", "2011", "2012"]
    for orig, loaded in zip(projections, again):
        assert np.array_equal(orig.coords, loaded.coords)
