"""Release gate: the pinned numerical and behavioral contracts.

Each ``test_criterion_N`` checks one contract end to end, with tolerances
and runtime budgets asserted inside the test itself. The conftest terminal
hook prints a one-line PASS/FAIL verdict per criterion after the run.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from lexevo.ca import CaInput, compute_ca, project_supplementary
from lexevo.cli import main
from lexevo.corpus import Corpus, DocType, Document, FilterReport
from lexevo.periods import DEFAULT_PERIOD_SPEC, assign_periods, characteristic_terms
from lexevo.pipeline import A_MANIFEST
from lexevo.stats import (
    TrendFit,
    YearlyCounts,
    fit_quadratic_trend,
    predict_trend,
    publication_type_shares,
    publications_per_year,
)
from lexevo.stopwords import ENGLISH_STOPWORDS
from lexevo.textpipe import build_vocabulary
from lexevo.viz import layout_word_cloud

ACCEPT_SEED = 20240917
N_RANDOM_TABLES = 120


# ---------------------------------------------------------------------------
# criterion 1: quadratic trend arithmetic
# ---------------------------------------------------------------------------


def test_criterion_1():
    """Coefficients (46.9, -370.1, 579) anchored at 2009 forecast exactly
    4590.0 for 2022 and 5580.0 for 2023, in under a millisecond."""
    fit = TrendFit(c2=46.9, c1=-370.1, c0=579.0, r_squared=None, first_year=2009)
    predict_trend(fit, 2022)  # warm-up outside the timed window

    start = time.perf_counter()
    y2022 = predict_trend(fit, 2022)
    y2023 = predict_trend(fit, 2023)
    elapsed = time.perf_counter() - start

    assert abs(y2022 - 4590.0) <= 1e-9
    assert abs(y2023 - 5580.0) <= 1e-9
    # The forecasts only come out right if 2022 sits at x = 14, i.e. the
    # year-to-index mapping is x = year - 2008.
    assert fit.x_of_year(2022) == 2022 - 2008
    assert elapsed < 1e-3


# ---------------------------------------------------------------------------
# criterion 2: filter report arithmetic
# ---------------------------------------------------------------------------


def test_criterion_2():
    report = FilterReport.from_exclusions(14_162, non_research=945, no_abstract=430)
    assert report.retained == 12_787
    # The explicit form conserves documents, so constructing it directly
    # with the same retained count must succeed.
    FilterReport(14_162, 945, 430, 12_787)


# ---------------------------------------------------------------------------
# criterion 3: share arithmetic
# ---------------------------------------------------------------------------


def test_criterion_3():
    """9,525 articles out of 12,787 documents report a share of 0.7449."""
    docs = []
    for i in range(12_787):
        doc_type = DocType.ARTICLE if i < 9_525 else DocType.CONFERENCE_PAPER
        docs.append(
            Document(
                id=f"d{i:05d}",
                title="t",
                abstract="a",
                keywords=(),
                year=2020,
                doc_type=doc_type,
                citations=0,
            )
        )
    corpus = Corpus(tuple(docs), FilterReport(12_787, 0, 0, 12_787))
    shares = publication_type_shares(corpus)
    assert shares[0][0] is DocType.ARTICLE
    assert abs(shares[0][1] - 0.7449) <= 1e-4


# ---------------------------------------------------------------------------
# criteria 4 and 5: correspondence analysis vs an independent oracle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ca_random_suite():
    """Random non-degenerate tables, each fitted by the library and by the
    eigendecomposition oracle; the elapsed wall time covers both."""
    rng = np.random.default_rng(ACCEPT_SEED)
    fixtures = []
    start = time.perf_counter()
    for _ in range(N_RANDOM_TABLES):
        m = oracles.random_contingency(rng)
        row_labels = tuple(f"r{i}" for i in range(m.shape[0]))
        col_labels = tuple(f"c{j}" for j in range(m.shape[1]))
        inp = CaInput(m, row_labels, col_labels)
        model = compute_ca(inp, dims=min(m.shape) - 1)
        oracle = oracles.ca_eigen_oracle(m, col_labels)
        fixtures.append((m, model, oracle))
    elapsed = time.perf_counter() - start
    return fixtures, elapsed


def test_criterion_4(ca_random_suite):
    fixtures, elapsed = ca_random_suite
    assert len(fixtures) >= 100
    for m, model, oracle in fixtures:
        assert model.singular_values.shape == oracle["singular_values"].shape
        np.testing.assert_allclose(
            model.singular_values, oracle["singular_values"], rtol=0, atol=1e-9
        )
        assert abs(model.inertia_total - oracle["inertia_total"]) <= 1e-9
        k = model.dims
        np.testing.assert_allclose(
            model.row_coords_principal,
            oracle["row_principal"][:, :k],
            rtol=0,
            atol=1e-9,
        )
        np.testing.assert_allclose(
            model.col_coords_principal,
            oracle["col_principal"][:, :k],
            rtol=0,
            atol=1e-9,
        )
    assert elapsed < 10.0


def test_criterion_5(ca_random_suite):
    fixtures, _ = ca_random_suite
    for m, model, _oracle in fixtures:
        n = m.sum()
        assert abs(model.inertia_total - oracles.chi_square(m) / n) <= 1e-9

        row_centroid = model.row_masses @ model.row_coords_principal
        col_centroid = model.col_masses @ model.col_coords_principal
        assert np.abs(row_centroid).max() <= 1e-9
        assert np.abs(col_centroid).max() <= 1e-9

        # Transition formulas: each side's principal coordinates are its
        # profiles averaged over the other side's standard coordinates.
        row_profiles = m / m.sum(axis=1)[:, None]
        col_profiles = m.T / m.sum(axis=0)[:, None]
        np.testing.assert_allclose(
            row_profiles @ model.col_coords_standard,
            model.row_coords_principal,
            rtol=0,
            atol=1e-9,
        )
        np.testing.assert_allclose(
            col_profiles @ model.row_coords_standard,
            model.col_coords_principal,
            rtol=0,
            atol=1e-9,
        )

        for i, label in enumerate(model.row_labels):
            projected = project_supplementary(model, m[i], label)
            np.testing.assert_allclose(
                projected.coords,
                model.row_coords_principal[i],
                rtol=0,
                atol=1e-9,
            )


# ---------------------------------------------------------------------------
# criterion 6: least-squares recovery
# ---------------------------------------------------------------------------


def test_criterion_6():
    exact = YearlyCounts(2009, tuple(3 * x * x - 5 * x + 11 for x in range(1, 13)))
    fit = fit_quadratic_trend(exact)
    assert abs(fit.c2 - 3.0) <= 1e-9
    assert abs(fit.c1 + 5.0) <= 1e-9
    assert abs(fit.c0 - 11.0) <= 1e-9
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    rng = np.random.default_rng(ACCEPT_SEED)
    for _ in range(50):
        n = int(rng.integers(5, 15))
        counts = tuple(int(c) for c in rng.integers(0, 500, size=n))
        fit = fit_quadratic_trend(YearlyCounts(2009, counts))
        oc2, oc1, oc0 = oracles.quadratic_normal_equations(
            range(1, n + 1), counts
        )
        assert abs(fit.c2 - oc2) <= 1e-9
        assert abs(fit.c1 - oc1) <= 1e-9
        assert abs(fit.c0 - oc0) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 7: pipeline determinism and speed
# ---------------------------------------------------------------------------


def _artifact_bytes(out: Path) -> dict[str, bytes]:
    """Every produced file keyed by name, except the manifest, whose stage
    timings legitimately differ between runs."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.name != A_MANIFEST
    }


def test_criterion_7(tmp_path, write_mini_config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"

    start = time.perf_counter()
    assert main(["run", "--config", str(write_mini_config(out_a))]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    assert main(["run", "--config", str(write_mini_config(out_b))]) == 0

    first = _artifact_bytes(out_a)
    second = _artifact_bytes(out_b)
    assert first.keys() == second.keys()
    assert first, "pipeline produced no artifacts"
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs between runs"
    assert (out_a / A_MANIFEST).exists()


# ---------------------------------------------------------------------------
# criterion 8: text-stage results vs brute-force recomputation
# ---------------------------------------------------------------------------


def test_criterion_8(mini_corpus, mini_streams, mini_counts, mini_dtm, mini_expected):
    # Vocabulary: totals and document frequencies from plain Counters.
    totals, dfs = oracles.vocabulary_counter([s.tokens for s in mini_streams])
    vocab = build_vocabulary(mini_counts, min_total_frequency=5, stoplist=ENGLISH_STOPWORDS)
    assert set(vocab.terms) == {t for t, c in totals.items() if c >= 5}
    for term in vocab.terms:
        assert vocab.total_frequency[term] == totals[term]
        assert vocab.doc_frequency[term] == dfs[term]

    # Document-term matrix marginals, recounted token by token.
    kept = set(mini_dtm.terms)
    dense = mini_dtm.counts.toarray()
    streams_by_id = {s.doc_id: s for s in mini_streams}
    for i, doc_id in enumerate(mini_dtm.rows):
        expected_row = sum(
            1 for tok in streams_by_id[doc_id].tokens if tok in kept
        )
        assert int(dense[i].sum()) == expected_row
        assert int(mini_dtm.row_margins[i]) == expected_row
    for j, term in enumerate(mini_dtm.terms):
        assert int(dense[:, j].sum()) == totals[term]
        assert int(mini_dtm.col_margins[j]) == totals[term]
    assert mini_dtm.grand_total == int(dense.sum())

    # Yearly counts against a Counter over document years, zero-filled.
    yearly = publications_per_year(mini_corpus)
    by_year = Counter(doc.year for doc in mini_corpus.documents)
    assert yearly.first_year == min(by_year)
    assert yearly.counts == tuple(
        by_year.get(y, 0) for y in range(min(by_year), max(by_year) + 1)
    )
    assert dict(zip((str(y) for y in yearly.years), yearly.counts)) == {
        k: v for k, v in mini_expected["retained_by_year"].items()
    }

    # Publication-type shares as plain count ratios.
    type_counts = Counter(doc.doc_type for doc in mini_corpus.documents)
    n_docs = len(mini_corpus.documents)
    for doc_type, share in publication_type_shares(mini_corpus):
        assert abs(share - type_counts[doc_type] / n_docs) <= 1e-9

    # Characteristic terms per period against standardized residuals
    # computed with explicit loops.
    assignment = assign_periods(mini_corpus, DEFAULT_PERIOD_SPEC)
    names = DEFAULT_PERIOD_SPEC.names()
    row_of = {doc_id: i for i, doc_id in enumerate(mini_dtm.rows)}
    table = np.zeros((len(names), len(mini_dtm.terms)))
    for doc_id, period in assignment.items():
        if period is not None and doc_id in row_of:
            table[names.index(period)] += dense[row_of[doc_id]]
    scores = oracles.residual_scores(table)
    for p_idx, period in enumerate(names):
        expected = sorted(
            zip(mini_dtm.terms, scores[p_idx]), key=lambda kv: (-kv[1], kv[0])
        )[:10]
        got = characteristic_terms(
            mini_dtm, assignment, period, k=10, period_names=names
        )
        assert [term for term, _ in got] == [term for term, _ in expected]
        for (_, got_score), (_, want_score) in zip(got, expected):
            assert abs(got_score - want_score) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 9: word-cloud layouts never overlap
# ---------------------------------------------------------------------------


def test_criterion_9():
    weights = [(f"term{i:02d}", 100.0 - 3.0 * i) for i in range(30)]
    for seed in range(50):
        layout = layout_word_cloud(weights, canvas=(800.0, 500.0), seed=seed)
        assert len(layout.placements) + len(layout.dropped) == 30
        boxes = [p.box for p in layout.placements]
        assert oracles.overlapping_pairs(boxes) == [], f"overlap at seed {seed}"
