from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from lexevo.corpus import Corpus, DocType, Document, FilterReport
from lexevo.errors import DataError, InsufficientDataError, ValidationError
from lexevo.stats import (
    TrendFit,
    YearlyCounts,
    fit_quadratic_trend,
    predict_trend,
    publication_type_shares,
    publications_per_year,
    term_frequency_table,
    write_term_table_tsv,
    write_yearly_counts_tsv,
)
from lexevo.textpipe import build_vocabulary, count_terms, TokenStream


def _corpus(years_types):
    docs = tuple(
        Document(
            id=f"d{i}", title=f"t{i}", abstract="text", keywords=(),
            year=year, doc_type=doc_type, citations=0,
        )
        for i, (year, doc_type) in enumerate(years_types)
    )
    return Corpus(docs, FilterReport(len(docs), 0, 0, len(docs)))


# --- yearly counts ----------------------------------------------------------


def test_publications_per_year_zero_fills_gaps():
    corpus = _corpus([(2010, DocType.ARTICLE), (2013, DocType.ARTICLE),
                      (2013, DocType.REVIEW)])
    series = publications_per_year(corpus)
    assert series.first_year == 2010
    assert series.counts == (1, 0, 0, 2)
    assert list(series.years) == [2010, 2011, 2012, 2013]


def test_publications_per_year_empty_corpus():
    with pytest.raises(DataError):
        publications_per_year(Corpus((), FilterReport(0, 0, 0, 0)))


def test_yearly_counts_match_expected_fixture(mini_corpus, mini_expected):
    series = publications_per_year(mini_corpus)
    got = {str(y): c for y, c in zip(series.years, series.counts) if c}
    assert got == mini_expected["retained_by_year"]


def test_yearly_counts_match_counter_oracle(mini_corpus):
    by_year = Counter(doc.year for doc in mini_corpus.documents)
    series = publications_per_year(mini_corpus)
    for year, count in zip(series.years, series.counts):
        assert count == by_year.get(year, 0)
    assert sum(series.counts) == len(mini_corpus.documents)


def test_yearly_counts_validation():
    with pytest.raises(DataError):
        YearlyCounts(2000, ())
    with pytest.raises(DataError):
        YearlyCounts(2000, (1, -2))


# --- type shares ------------------------------------------------------------


def test_type_shares_sum_to_one_and_sort_by_share_then_name():
    corpus = _corpus(
        [(2020, DocType.ARTICLE)] * 3
        + [(2020, DocType.REVIEW)] * 3
        + [(2020, DocType.CONFERENCE_PAPER)] * 4
    )
    shares = publication_type_shares(corpus)
    assert sum(s for _, s in shares) == pytest.approx(1.0)
    assert [t for t, _ in shares] == [
        DocType.CONFERENCE_PAPER,  # 0.4
        DocType.ARTICLE,           # 0.3, ties broken by type name
        DocType.REVIEW,
    ]
    assert shares[0][1] == pytest.approx(0.4)


# --- term table -------------------------------------------------------------


def _vocab_from(counts: dict[str, int]):
    stream = TokenStream(
        "d0", tuple(t for t, c in counts.items() for _ in range(c))
    )
    return build_vocabulary(count_terms([stream]), min_total_frequency=1)


def test_term_frequency_table_top_k_and_shares():
    vocab = _vocab_from({"aa": 6, "bb": 3, "cc": 1})
    table = term_frequency_table(vocab, top_k=2)
    assert [(r.term, r.frequency) for r in table.rows] == [("aa", 6), ("bb", 3)]
    assert table.rows[0].share == pytest.approx(0.6)
    assert table.selected_share == pytest.approx(0.9)


def test_term_frequency_table_truncation_flag():
    vocab = _vocab_from({"aa": 2})
    table = term_frequency_table(vocab, top_k=10)
    assert len(table.rows) == 1


def test_term_frequency_table_rejects_bad_top_k():
    with pytest.raises(ValidationError):
        term_frequency_table(_vocab_from({"aa": 2}), top_k=0)


# --- quadratic trend ---------------------------------------------------------


def test_fit_recovers_exact_quadratic():
    # counts generated from y = 2x^2 - 3x + 7 at x = 1..8
    counts = tuple(2 * x * x - 3 * x + 7 for x in range(1, 9))
    fit = fit_quadratic_trend(YearlyCounts(2009, counts))
    assert fit.c2 == pytest.approx(2.0, abs=1e-9)
    assert fit.c1 == pytest.approx(-3.0, abs=1e-9)
    assert fit.c0 == pytest.approx(7.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert fit.first_year == 2009


def test_fit_x_convention_first_year_maps_to_one():
    fit = TrendFit(c2=1.0, c1=0.0, c0=0.0, r_squared=None, first_year=2009)
    assert fit.x_of_year(2009) == 1
    assert predict_trend(fit, 2009) == 1.0
    assert predict_trend(fit, 2011) == 9.0


def test_fit_requires_three_years():
    with pytest.raises(InsufficientDataError):
        fit_quadratic_trend(YearlyCounts(2020, (1, 2)))


def test_fit_constant_series_has_undefined_r_squared():
    fit = fit_quadratic_trend(YearlyCounts(2020, (5, 5, 5, 5)))
    assert fit.r_squared is None
    assert fit.predict(2030) == pytest.approx(5.0, abs=1e-9)


@given(
    st.integers(min_value=1900, max_value=2050),
    st.lists(st.integers(min_value=0, max_value=500), min_size=3, max_size=15),
)
def test_fit_is_invariant_under_year_shift(first_year, counts):
    # x depends only on the offset from first_year, so shifting the series
    # in calendar time must not change the fitted coefficients.
    base = fit_quadratic_trend(YearlyCounts(first_year, tuple(counts)))
    moved = fit_quadratic_trend(YearlyCounts(first_year + 37, tuple(counts)))
    assert moved.c2 == pytest.approx(base.c2, abs=1e-9)
    assert moved.c1 == pytest.approx(base.c1, abs=1e-9)
    assert moved.c0 == pytest.approx(base.c0, abs=1e-9)
    for offset in range(len(counts) + 3):
        assert moved.predict(first_year + 37 + offset) == pytest.approx(
            base.predict(first_year + offset), abs=1e-6
        )


@given(st.lists(st.integers(min_value=0, max_value=300), min_size=3, max_size=20))
def test_fit_matches_normal_equations_oracle(counts):
    series = YearlyCounts(2000, tuple(counts))
    fit = fit_quadratic_trend(series)
    xs = [x + 1 for x in range(len(counts))]
    c2, c1, c0 = oracles.quadratic_normal_equations(xs, counts)
    assert fit.c2 == pytest.approx(c2, abs=1e-8)
    assert fit.c1 == pytest.approx(c1, abs=1e-8)
    assert fit.c0 == pytest.approx(c0, abs=1e-8)


def test_r_squared_definition():
    series = YearlyCounts(2015, (1, 5, 2, 8, 3))
    fit = fit_quadratic_trend(series)
    ys = np.array(series.counts, dtype=float)
    predicted = np.array([fit.predict(y) for y in series.years])
    ss_res = float(((ys - predicted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    assert fit.r_squared == pytest.approx(1 - ss_res / ss_tot, abs=1e-12)


# --- writers ----------------------------------------------------------------


def test_term_table_tsv_shape(tmp_path):
    table = term_frequency_table(_vocab_from({"aa": 6, "bb": 3}), top_k=2)
    path = tmp_path / "term_frequencies.tsv"
    write_term_table_tsv(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "term\tfrequency\tshare"
    assert lines[1].startswith("aa\t6\t")
    assert float(lines[1].split("\t")[2]) == table.rows[0].share


def test_yearly_counts_tsv_shape(tmp_path):
    path = tmp_path / "yearly_counts.tsv"
    write_yearly_counts_tsv(YearlyCounts(2019, (2, 0, 4)), path)
    assert path.read_text(encoding="utf-8") == "year\tcount\n2019\t2\n2020\t0\n2021\t4\n"
