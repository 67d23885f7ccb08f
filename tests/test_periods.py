import json
import math

import numpy as np
import pytest

import oracles
from lexevo.corpus import Corpus, DocType, Document, FilterReport
from lexevo.errors import (
    DataError,
    EmptyPeriodError,
    LabelNotFoundError,
    ValidationError,
)
from lexevo.periods import (
    DEFAULT_PERIOD_SPEC,
    Period,
    PeriodReport,
    PeriodSpec,
    assign_periods,
    characteristic_terms,
    period_report,
    pioneer_documents,
    write_periods_json,
    write_periods_markdown,
)
from lexevo.textpipe import TokenStream, build_dtm, build_vocabulary, count_terms


def _doc(i, year, cites=0, title=None):
    return Document(
        id=f"d{i}", title=title or f"title {i}", abstract="text", keywords=(),
        year=year, doc_type=DocType.ARTICLE, citations=cites,
    )


def _corpus(docs):
    return Corpus(tuple(docs), FilterReport(len(docs), 0, 0, len(docs)))


def _fixture():
    """Two eras with sharply different vocabularies plus one shared term."""
    docs = [
        _doc(0, 2010, cites=50),
        _doc(1, 2011, cites=90),
        _doc(2, 2020, cites=5),
        _doc(3, 2021, cites=12),
    ]
    streams = [
        TokenStream("d0", ("old", "old", "shared")),
        TokenStream("d1", ("old", "shared")),
        TokenStream("d2", ("new", "new", "shared")),
        TokenStream("d3", ("new", "shared", "shared")),
    ]
    counts = count_terms(streams)
    spec = PeriodSpec.parse("Early:2009-2015,Late:2016-2022")
    return _corpus(docs), build_dtm(counts, build_vocabulary(counts, 1)), spec


# --- period spec -------------------------------------------------------------


def test_period_spec_parse_and_format_round_trip():
    spec = PeriodSpec.parse("Early:2009-2015,Late:2016-2022")
    assert spec.names() == ["Early", "Late"]
    assert spec.periods[0] == Period("Early", 2009, 2015)
    assert spec.format() == "Early:2009-2015, Late:2016-2022"
    assert PeriodSpec.parse(spec.format()) == spec


def test_default_period_spec():
    assert DEFAULT_PERIOD_SPEC.format() == (
        "Surgimiento:2009-2012, Crecimiento:2013-2018, Auge:2019-2022"
    )


def test_period_spec_rejects_overlap_and_disorder():
    with pytest.raises(ValidationError, match="overlap"):
        PeriodSpec.parse("A:2009-2015,B:2015-2020")
    with pytest.raises(ValidationError):
        PeriodSpec.parse("A:2016-2020,B:2009-2015")


def test_period_spec_rejects_duplicates_and_bad_ranges():
    with pytest.raises(ValidationError):
        PeriodSpec.parse("A:2009-2012,A:2013-2015")
    with pytest.raises(ValidationError):
        Period("A", 2015, 2012)
    with pytest.raises(ValidationError):
        Period("", 2010, 2012)
    with pytest.raises(ValidationError, match="unassigned"):
        Period("unassigned", 2010, 2012)


def test_period_spec_parse_errors_name_the_input():
    with pytest.raises(ValidationError):
        PeriodSpec.parse("A:2009")
    with pytest.raises(ValidationError):
        PeriodSpec.parse("")


# --- assignment ---------------------------------------------------------------


def test_assign_periods_maps_years_and_leaves_gaps_unassigned():
    spec = PeriodSpec.parse("Early:2010-2012,Late:2020-2022")
    corpus = _corpus([_doc(0, 2010), _doc(1, 2015), _doc(2, 2022)])
    assignment = assign_periods(corpus, spec)
    assert assignment == {"d0": "Early", "d1": None, "d2": "Late"}


# --- characteristic terms -------------------------------------------------------


def test_characteristic_terms_prefer_era_specific_vocabulary():
    corpus, dtm, spec = _fixture()
    assignment = assign_periods(corpus, spec)
    early = characteristic_terms(dtm, assignment, "Early", k=3, period_names=spec.names())
    late = characteristic_terms(dtm, assignment, "Late", k=3, period_names=spec.names())
    assert early[0][0] == "old"
    assert late[0][0] == "new"
    assert early[0][1] > 0
    # the shared term is nobody's champion
    assert dict(early)["shared"] < early[0][1]


def test_characteristic_terms_match_residual_oracle():
    corpus, dtm, spec = _fixture()
    assignment = assign_periods(corpus, spec)
    dense = dtm.counts.toarray()
    table = np.vstack([dense[0] + dense[1], dense[2] + dense[3]])
    expected = oracles.residual_scores(table)
    for row, period in enumerate(["Early", "Late"]):
        got = dict(
            characteristic_terms(dtm, assignment, period, k=3, period_names=spec.names())
        )
        for term, j in dtm.vocabulary.index.items():
            assert got[term] == pytest.approx(expected[row, j], abs=1e-9)


def test_characteristic_terms_account_for_unassigned_documents():
    # With a document outside every period, the contingency table gains an
    # "unassigned" row, changing the expected counts for everyone else.
    docs = [_doc(0, 2010), _doc(1, 2011), _doc(2, 1999, title="outside")]
    streams = [
        TokenStream("d0", ("aa", "bb")),
        TokenStream("d1", ("aa",)),
        TokenStream("d2", ("bb", "bb", "bb")),
    ]
    counts = count_terms(streams)
    dtm = build_dtm(counts, build_vocabulary(counts, 1))
    spec = PeriodSpec.parse("Only:2009-2015")
    assignment = assign_periods(_corpus(docs), spec)

    dense = dtm.counts.toarray()
    table = np.vstack([dense[0] + dense[1], dense[2]])  # period row + unassigned row
    expected = oracles.residual_scores(table)
    got = dict(characteristic_terms(dtm, assignment, "Only", k=2, period_names=spec.names()))
    for term, j in dtm.vocabulary.index.items():
        assert got[term] == pytest.approx(expected[0, j], abs=1e-9)


def test_characteristic_terms_sorted_by_score_then_term():
    corpus, dtm, spec = _fixture()
    assignment = assign_periods(corpus, spec)
    scores = characteristic_terms(dtm, assignment, "Early", k=3, period_names=spec.names())
    assert scores == sorted(scores, key=lambda ts: (-ts[1], ts[0]))


def test_characteristic_terms_scale_like_sqrt_under_count_doubling():
    # Doubling every count scales each residual by sqrt(2): the ranking is
    # invariant even though the scores are not.
    corpus, dtm, spec = _fixture()
    assignment = assign_periods(corpus, spec)
    base = characteristic_terms(dtm, assignment, "Early", k=3, period_names=spec.names())

    doubled_streams = [
        TokenStream(s, tuple(t for t in tokens for _ in range(2)))
        for s, tokens in [
            ("d0", ("old", "old", "shared")),
            ("d1", ("old", "shared")),
            ("d2", ("new", "new", "shared")),
            ("d3", ("new", "shared", "shared")),
        ]
    ]
    counts = count_terms(doubled_streams)
    doubled = characteristic_terms(
        build_dtm(counts, build_vocabulary(counts, 1)), assignment, "Early", k=3,
        period_names=spec.names(),
    )
    assert [t for t, _ in doubled] == [t for t, _ in base]
    for (_, s2), (_, s1) in zip(doubled, base):
        assert s2 == pytest.approx(s1 * math.sqrt(2), abs=1e-9)


def test_characteristic_terms_validation():
    corpus, dtm, spec = _fixture()
    assignment = assign_periods(corpus, spec)
    with pytest.raises(ValidationError):
        characteristic_terms(dtm, assignment, "Early", k=0, period_names=spec.names())
    with pytest.raises(LabelNotFoundError):
        characteristic_terms(dtm, assignment, "Missing", k=1, period_names=spec.names())


def test_characteristic_terms_empty_period_is_an_error():
    corpus, dtm, _ = _fixture()
    spec = PeriodSpec.parse("Early:2009-2015,Late:2016-2022,Future:2030-2040")
    assignment = assign_periods(corpus, spec)
    with pytest.raises(EmptyPeriodError, match="Future"):
        characteristic_terms(dtm, assignment, "Future", k=1, period_names=spec.names())


# --- pioneer documents -----------------------------------------------------------


def test_pioneer_documents_sort_by_citations_then_year_then_title():
    docs = [
        _doc(0, 2011, cites=50, title="bbb"),
        _doc(1, 2010, cites=50, title="aaa"),
        _doc(2, 2010, cites=50, title="zzz"),
        _doc(3, 2012, cites=90),
    ]
    corpus = _corpus(docs)
    spec = PeriodSpec.parse("P:2009-2015")
    assignment = assign_periods(corpus, spec)
    got = pioneer_documents(corpus, assignment, "P", k=4)
    assert [d.id for d in got] == ["d3", "d1", "d2", "d0"]


def test_pioneer_documents_empty_period():
    corpus = _corpus([_doc(0, 2010)])
    spec = PeriodSpec.parse("P:2009-2012,Q:2020-2022")
    assignment = assign_periods(corpus, spec)
    with pytest.raises(EmptyPeriodError):
        pioneer_documents(corpus, assignment, "Q", k=1)


# --- reports ----------------------------------------------------------------------


def test_period_report_counts_and_shares():
    corpus, dtm, spec = _fixture()
    reports = period_report(corpus, dtm, spec, k_terms=2, k_docs=1)
    assert [r.name for r in reports] == ["Early", "Late"]
    assert [r.doc_count for r in reports] == [2, 2]
    assert all(r.share_of_corpus == pytest.approx(0.5) for r in reports)
    assert reports[0].pioneer_docs[0] == ("title 1", 2011, 90)
    assert reports[0].characteristic_terms[0][0] == "old"


def test_period_report_on_bundled_corpus(mini_corpus, mini_dtm, mini_expected):
    reports = period_report(
        mini_corpus, mini_dtm, DEFAULT_PERIOD_SPEC, k_terms=5, k_docs=3
    )
    got = {r.name: r.doc_count for r in reports}
    assert got == mini_expected["period_doc_counts"]
    assert sum(r.share_of_corpus for r in reports) == pytest.approx(1.0)
    assignment = assign_periods(mini_corpus, DEFAULT_PERIOD_SPEC)
    for r in reports:
        alone = characteristic_terms(mini_dtm, assignment, r.name, 5, DEFAULT_PERIOD_SPEC.names())
        assert list(r.characteristic_terms) == alone


def test_periods_json_schema(tmp_path):
    corpus, dtm, spec = _fixture()
    reports = period_report(corpus, dtm, spec, k_terms=2, k_docs=1)
    path = tmp_path / "periods.json"
    write_periods_json(reports, len(corpus.documents), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["corpus_size"] == 4
    assert payload["unassigned"] == 0
    names = [p["name"] for p in payload["periods"]]
    assert names == ["Early", "Late"]
    first = payload["periods"][0]
    assert {"term", "score"} <= set(first["characteristic_terms"][0])
    assert {"title", "year", "citations"} <= set(first["pioneer_docs"][0])


def test_periods_markdown_contains_sections(tmp_path):
    corpus, dtm, spec = _fixture()
    reports = period_report(corpus, dtm, spec, k_terms=1, k_docs=1)
    path = tmp_path / "periods.md"
    write_periods_markdown(reports, len(corpus.documents), path)
    text = path.read_text(encoding="utf-8")
    assert "## Early (2009-2015)" in text
    assert "## Late (2016-2022)" in text
    assert "| old |" in text


def test_periods_markdown_keeps_pipes_and_line_breaks_inside_cells(tmp_path):
    report = PeriodReport(
        name="Early", first_year=2009, last_year=2015, doc_count=1, share_of_corpus=1.0,
        characteristic_terms=(("a|b", 1.5),),
        pioneer_docs=(("A | B: a study\nof pipes\r\nand breaks", 2012, 5),),
    )
    path = tmp_path / "periods.md"
    write_periods_markdown([report], 1, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert "| a\\|b | 1.500 |" in lines
    assert "| A \\| B: a study of pipes  and breaks | 2012 | 5 |" in lines
