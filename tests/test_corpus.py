import pytest
from hypothesis import given, strategies as st

from lexevo.corpus import (
    CANONICAL_SCHEMA,
    Corpus,
    CsvSchema,
    DocType,
    Document,
    FilterReport,
    filter_corpus,
    normalize_doc_type,
    parse_bibliographic_csv,
    write_corpus_csv,
    write_rejects_report,
)
from lexevo.errors import DataError, EncodingError, SchemaError


def _csv(*rows: str) -> bytes:
    header = "id,title,abstract,keywords,year,doc_type,citations"
    return ("\n".join([header, *rows]) + "\n").encode("utf-8")


def _doc(i, year=2020, doc_type=DocType.ARTICLE, abstract="some text", cites=0):
    return Document(
        id=f"d{i}",
        title=f"title {i}",
        abstract=abstract,
        keywords=(),
        year=year,
        doc_type=doc_type,
        citations=cites,
    )


def _corpus(docs):
    return Corpus(tuple(docs), FilterReport(len(docs), 0, 0, len(docs)))


# --- parsing ----------------------------------------------------------------


def test_parse_happy_path():
    corpus = parse_bibliographic_csv(
        _csv("a1,Title One,An abstract.,kw1; kw2,2015,article,3"),
        CANONICAL_SCHEMA,
    )
    assert len(corpus) == 1
    doc = corpus.documents[0]
    assert doc.id == "a1"
    assert doc.title == "Title One"
    assert doc.keywords == ("kw1", "kw2")
    assert doc.year == 2015
    assert doc.doc_type is DocType.ARTICLE
    assert doc.citations == 3
    assert corpus.provenance == FilterReport(1, 0, 0, 1)
    assert corpus.rejects == ()


def test_parse_assigns_sequential_ids_when_id_column_is_blank():
    corpus = parse_bibliographic_csv(
        _csv(",t,a,,2019,article,", ",t,a,,2020,article,"),
        CANONICAL_SCHEMA,
    )
    assert [d.id for d in corpus.documents] == ["d0001", "d0002"]


def test_parse_missing_citations_defaults_to_zero():
    corpus = parse_bibliographic_csv(_csv("x,t,a,,2019,article,"), CANONICAL_SCHEMA)
    assert corpus.documents[0].citations == 0


def test_parse_rejects_bad_rows_and_keeps_the_rest():
    corpus = parse_bibliographic_csv(
        _csv(
            "a,t,a,,not-a-year,article,0",
            "b,t,a,,1850,article,0",       # outside the default window
            "c,t,a,,2020,article,many",
            "d,t,a,,2020,article,-1",
            "e,t,a,,2020,article,5",
            "e,t,a,,2021,article,5",       # duplicate id
        ),
        CANONICAL_SCHEMA,
    )
    assert [d.id for d in corpus.documents] == ["e"]
    assert [r.row for r in corpus.rejects] == [1, 2, 3, 4, 6]
    reasons = " | ".join(r.reason for r in corpus.rejects)
    assert "malformed year" in reasons
    assert "outside window" in reasons
    assert "malformed citations" in reasons
    assert "negative citations" in reasons
    assert "duplicate id" in reasons
    # rejected rows never count as loaded
    assert corpus.provenance.loaded == 1


def test_parse_respects_custom_year_window():
    corpus = parse_bibliographic_csv(
        _csv("a,t,a,,2005,article,0", "b,t,a,,2010,article,0"),
        CANONICAL_SCHEMA,
        year_window=(2009, 2022),
    )
    assert [d.id for d in corpus.documents] == ["b"]
    assert corpus.rejects[0].reason == "year 2005 outside window 2009..2022"


def test_parse_quoted_fields_and_embedded_commas():
    corpus = parse_bibliographic_csv(
        _csv('a,"One, two, three","Contains, commas",,2020,article,0'),
        CANONICAL_SCHEMA,
    )
    assert corpus.documents[0].title == "One, two, three"
    assert corpus.documents[0].abstract == "Contains, commas"


def test_parse_missing_mapped_column_is_a_schema_error():
    with pytest.raises(SchemaError, match="abstract"):
        parse_bibliographic_csv(b"id,title,year\n", CANONICAL_SCHEMA)


def test_parse_empty_input_is_a_schema_error():
    with pytest.raises(SchemaError, match="no header"):
        parse_bibliographic_csv(b"", CANONICAL_SCHEMA)


def test_parse_rejects_non_utf8_bytes():
    data = _csv("a,t,resum\xe9,,2020,article,0").decode("utf-8").encode("latin-1")
    with pytest.raises(EncodingError):
        parse_bibliographic_csv(data, CANONICAL_SCHEMA)


def test_utf8_bom_is_not_part_of_the_first_column_name():
    raw = (
        "Title,Abstract,Year,Document Type\n"
        "Caf\u00e9 T,An abstract,2018,Article\n"
    ).encode("utf-8")
    schema = CsvSchema(
        title="Title", abstract="Abstract", year="Year", doc_type="Document Type"
    )
    plain = parse_bibliographic_csv(raw, schema)
    assert plain.documents[0].title == "Caf\u00e9 T"
    assert parse_bibliographic_csv(b"\xef\xbb\xbf" + raw, schema) == plain


def test_parse_with_renamed_columns():
    raw = (
        "Title,Abstract,Year,Document Type\n"
        "T,A,2018,Conference Paper\n"
    ).encode("utf-8")
    schema = CsvSchema(
        title="Title", abstract="Abstract", year="Year", doc_type="Document Type"
    )
    corpus = parse_bibliographic_csv(raw, schema)
    assert corpus.documents[0].doc_type is DocType.CONFERENCE_PAPER
    assert corpus.documents[0].keywords == ()


@pytest.mark.parametrize(
    ("raw", "expected"),
    [
        ("Article", DocType.ARTICLE),
        ("conference paper", DocType.CONFERENCE_PAPER),
        ("Proceedings Paper", DocType.CONFERENCE_PAPER),
        ("Review", DocType.REVIEW),
        ("Book Chapter", DocType.BOOK_CHAPTER),
        ("Editorial", DocType.OTHER),
        ("", DocType.OTHER),
    ],
)
def test_doc_type_normalization(raw, expected):
    assert normalize_doc_type(raw) is expected


# --- filtering --------------------------------------------------------------


def test_filter_type_before_abstract():
    # A non-research record without an abstract must count as non-research,
    # not as missing-abstract: the type filter runs first.
    docs = [
        _doc(1, doc_type=DocType.OTHER, abstract=""),
        _doc(2, doc_type=DocType.OTHER),
        _doc(3, abstract=""),
        _doc(4),
    ]
    filtered = filter_corpus(_corpus(docs))
    assert filtered.provenance == FilterReport(4, 2, 1, 1)
    assert [d.id for d in filtered.documents] == ["d4"]


def test_filter_treats_whitespace_abstract_as_missing():
    filtered = filter_corpus(_corpus([_doc(1, abstract="   ")]))
    assert filtered.provenance.excluded_no_abstract == 1


def test_filter_custom_excluded_types():
    docs = [_doc(1, doc_type=DocType.REVIEW), _doc(2)]
    filtered = filter_corpus(_corpus(docs), {DocType.REVIEW, DocType.OTHER})
    assert [d.id for d in filtered.documents] == ["d2"]


_doc_strategy = st.tuples(
    st.sampled_from(["", "   ", "text body", "data analysis methods"]),
    st.sampled_from(list(DocType)),
    st.integers(min_value=1990, max_value=2030),
)


@given(st.lists(_doc_strategy, max_size=25))
def test_filter_conserves_and_is_idempotent(items):
    docs = [
        _doc(i, year=year, doc_type=doc_type, abstract=abstract)
        for i, (abstract, doc_type, year) in enumerate(items)
    ]
    once = filter_corpus(_corpus(docs))
    report = once.provenance
    assert report.loaded == (
        report.excluded_non_research + report.excluded_no_abstract + report.retained
    )
    assert report.retained == len(once.documents)
    twice = filter_corpus(once)
    assert twice.documents == once.documents
    assert twice.provenance == once.provenance


def test_filter_report_rejects_negative_counts():
    with pytest.raises(DataError):
        FilterReport(1, -1, 1, 1)


def test_filter_report_rejects_non_conserving_counts():
    with pytest.raises(DataError, match="conserve"):
        FilterReport(10, 1, 1, 7)


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(DataError, match="duplicate"):
        _corpus([_doc(1), _doc(1)])


# --- writers ----------------------------------------------------------------


def test_write_then_parse_round_trips(tmp_path):
    docs = [
        _doc(1, year=2011, cites=4),
        Document(
            id="q",
            title='He said "hi", twice',
            abstract="Line with, commas",
            keywords=("alpha", "beta gamma"),
            year=2020,
            doc_type=DocType.REVIEW,
            citations=17,
        ),
    ]
    corpus = _corpus(docs)
    path = tmp_path / "corpus.csv"
    write_corpus_csv(corpus, path)
    again = parse_bibliographic_csv(path.read_bytes(), CANONICAL_SCHEMA)
    assert again.documents == corpus.documents


def test_write_corpus_is_deterministic(tmp_path):
    corpus = _corpus([_doc(1), _doc(2)])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_corpus_csv(corpus, a)
    write_corpus_csv(corpus, b)
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_rejects_report_format(tmp_path):
    corpus = parse_bibliographic_csv(
        _csv("a,t,a,,bad,article,0", "b,t,a,,2020,article,0"),
        CANONICAL_SCHEMA,
    )
    path = tmp_path / "rejects.tsv"
    write_rejects_report(corpus.rejects, path)
    assert path.read_text(encoding="utf-8") == "1\tmalformed year 'bad'\n"
