import csv
import io
import re
import tempfile
import tracemalloc
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings, strategies as st

from lexevo import artifacts, corpus as corpus_module
from lexevo.corpus import (
    CANONICAL_SCHEMA,
    Corpus,
    CsvSchema,
    DocType,
    Document,
    FilterReport,
    filter_corpus,
    load_corpus_csv,
    normalize_doc_type,
    write_corpus_csv,
    write_rejects_report,
)
from lexevo.errors import DataError, EncodingError, SchemaError


def _csv(*rows: str) -> bytes:
    header = "id,title,abstract,keywords,year,doc_type,citations"
    return ("\n".join([header, *rows]) + "\n").encode("utf-8")


def _load(source: bytes, schema: CsvSchema = CANONICAL_SCHEMA, **kwargs) -> Corpus:
    """Parse the export ``source``: write it to a temporary file and load
    that file, as ingest loads its input."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.csv"
        path.write_bytes(source)
        return load_corpus_csv(path, schema, **kwargs)


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
    corpus = _load(_csv("a1,Title One,An abstract.,kw1; kw2,2015,article,3"))
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
    corpus = _load(_csv(",t,a,,2019,article,", ",t,a,,2020,article,"))
    assert [d.id for d in corpus.documents] == ["d0001", "d0002"]


def test_parse_missing_citations_defaults_to_zero():
    corpus = _load(_csv("x,t,a,,2019,article,"))
    assert corpus.documents[0].citations == 0


def test_parse_rejects_bad_rows_and_keeps_the_rest():
    corpus = _load(
        _csv(
            "a,t,a,,not-a-year,article,0",
            "b,t,a,,1850,article,0",       # outside the default window
            "c,t,a,,2020,article,many",
            "d,t,a,,2020,article,-1",
            "e,t,a,,2020,article,5",
            "e,t,a,,2021,article,5",       # duplicate id
        )
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
    corpus = _load(
        _csv("a,t,a,,2005,article,0", "b,t,a,,2010,article,0"),
        year_window=(2009, 2022),
    )
    assert [d.id for d in corpus.documents] == ["b"]
    assert corpus.rejects[0].reason == "year 2005 outside window 2009..2022"


def test_parse_quoted_fields_and_embedded_commas():
    corpus = _load(_csv('a,"One, two, three","Contains, commas",,2020,article,0'))
    assert corpus.documents[0].title == "One, two, three"
    assert corpus.documents[0].abstract == "Contains, commas"


def test_parse_missing_mapped_column_is_a_schema_error():
    with pytest.raises(SchemaError, match="abstract"):
        _load(b"id,title,year\n")


def test_parse_empty_input_is_a_schema_error():
    with pytest.raises(SchemaError, match="no header"):
        _load(b"")


def test_parse_rejects_non_utf8_bytes():
    data = _csv("a,t,resum\xe9,,2020,article,0").decode("utf-8").encode("latin-1")
    with pytest.raises(EncodingError):
        _load(data)


def test_utf8_bom_is_not_part_of_the_first_column_name():
    raw = (
        "Title,Abstract,Year,Document Type\n"
        "Caf\u00e9 T,An abstract,2018,Article\n"
    ).encode("utf-8")
    schema = CsvSchema(
        title="Title", abstract="Abstract", year="Year", doc_type="Document Type"
    )
    plain = _load(raw, schema)
    assert plain.documents[0].title == "Caf\u00e9 T"
    assert _load(b"\xef\xbb\xbf" + raw, schema) == plain


def test_parse_with_renamed_columns():
    raw = (
        "Title,Abstract,Year,Document Type\n"
        "T,A,2018,Conference Paper\n"
    ).encode("utf-8")
    schema = CsvSchema(
        title="Title", abstract="Abstract", year="Year", doc_type="Document Type"
    )
    corpus = _load(raw, schema)
    assert corpus.documents[0].doc_type is DocType.CONFERENCE_PAPER
    assert corpus.documents[0].keywords == ()


# --- streamed decode --------------------------------------------------------

_CHUNK = 8192  # bytes the text layer reads and decodes at a time
_BOM = b"\xef\xbb\xbf"
_COLUMNS = ("id", "title", "abstract", "keywords", "year", "doc_type", "citations")


def _whole_text_lines(source, name: str = "input"):
    """The oracle: read and decode the whole binary stream, then split it
    into lines. ``name`` is unused: the oracle's decode error names no file."""
    return io.StringIO(source.read().decode("utf-8-sig"), newline="")


def _whole_text_parse(source: bytes) -> Corpus:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(artifacts, "text_lines", _whole_text_lines)
        return _load(source)


_cells = st.lists(
    st.one_of(
        st.sampled_from(
            ["\n", "\r\n", "\r", "\x0c", "\u2028", "\x85", ",", '"', ";", " ",
             "\u00e9", "\u2014", "\U0001d6fc", "\u5b57"]
        ),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
).map("".join)
_rows = st.lists(
    st.fixed_dictionaries(
        {
            "id": st.one_of(st.sampled_from(["", "a", "b"]), _cells),
            "title": _cells,
            "abstract": _cells,
            "keywords": _cells,
            "year": st.one_of(st.integers(1890, 2110).map(str), _cells),
            "doc_type": st.one_of(st.sampled_from(["Article", "Review", "Letter"]), _cells),
            "citations": st.one_of(st.integers(-2, 40).map(str), _cells),
        }
    ),
    min_size=1,  # a row after the filler puts bytes past the first chunk
    max_size=30,
)


def _export(columns, terminator, quoting, bom, pivot, shift, rows) -> bytes:
    """A filler row whose abstract ends in ``pivot``, starting ``shift``
    bytes before the end of the first chunk, then ``rows``."""

    def encode(rows) -> bytes:
        text = io.StringIO()
        writer = csv.writer(text, lineterminator=terminator, quoting=quoting)
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)
        return bom + text.getvalue().encode("utf-8")

    filler = dict(zip(_COLUMNS, ("f", "t", "@" + pivot, "", "2020", "Article", "0")))
    at = encode([filler]).index(b"@")  # the pivot quotes the field or not
    filler["abstract"] = "x" * (_CHUNK - shift - at) + pivot
    source = encode([filler, *rows])
    assert source.index(pivot.encode("utf-8"), _CHUNK - 8) == _CHUNK - shift
    return source


@st.composite
def _exports(draw) -> bytes:
    """A CSV export larger than one decode chunk, with a multi-byte
    character or a CRLF that starts 1 to 4 bytes before the end of the
    first chunk, so that it often straddles the boundary."""
    return _export(
        columns=draw(st.permutations(_COLUMNS)),
        terminator=draw(st.sampled_from(["\n", "\r\n", "\r"])),
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
        bom=_BOM if draw(st.booleans()) else b"",
        pivot=draw(st.sampled_from(["\u00e9", "\u2014", "\U0001d6fc", "\r\n"])),
        shift=draw(st.integers(1, 4)),  # the pivot starts this many bytes before the boundary
        rows=draw(_rows),
    )


def _assert_streamed_parse_is_the_whole_text_parse(source: bytes) -> None:
    streamed = csv.reader(artifacts.text_lines(io.BytesIO(source), "input"))
    assert list(streamed) == list(csv.reader(_whole_text_lines(io.BytesIO(source))))
    assert _load(source) == _whole_text_parse(source)


@settings(max_examples=50, deadline=None)
@given(_exports())
def test_streamed_decode_parses_like_the_whole_text(source):
    assert len(source) > _CHUNK
    _assert_streamed_parse_is_the_whole_text_parse(source)


def test_streamed_decode_of_an_export_of_exactly_one_chunk():
    # The abstract comes last and no row follows the filler, so the export
    # ends at the chunk boundary, right after a two-byte pivot and the newline.
    columns = tuple(c for c in _COLUMNS if c != "abstract") + ("abstract",)
    source = _export(columns, "\n", csv.QUOTE_MINIMAL, b"", "\u00e9", 3, rows=[])
    assert len(source) == _CHUNK
    _assert_streamed_parse_is_the_whole_text_parse(source)


_HEAD = _csv("a,t,ok,,2020,article,0")
_FAR = _HEAD + b"b,t," + b"x" * 3 * _CHUNK  # the next byte is past the first chunks
_INVALID_UTF8 = {
    "past-the-first-chunk": (_FAR + b"\xff,,2020,article,0\n", len(_FAR)),
    "past-the-first-chunk-after-a-bom": (
        _BOM + _FAR + b"\xff,,2020,article,0\n", len(_BOM) + len(_FAR)
    ),
    "in-the-header": (_BOM + b"id,ti\xe9tle,abstract\n" + _HEAD, len(_BOM) + 5),
    "truncated-at-the-end": (_FAR + "\u2014".encode("utf-8")[:2], len(_FAR)),
}


@pytest.mark.parametrize(("source", "offset"), _INVALID_UTF8.values(), ids=_INVALID_UTF8)
def test_invalid_utf8_is_an_encoding_error_at_its_offset_in_the_file(source, offset):
    with pytest.raises(UnicodeDecodeError):
        source.decode("utf-8-sig")
    with pytest.raises(EncodingError, match=f"not valid UTF-8 at byte {offset} "):
        _load(source)


@pytest.fixture()
def opened_files(monkeypatch):
    """Every file that ``corpus`` opens, so a test can check it was closed."""
    opened = []

    def spy(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(corpus_module, "open", spy, raising=False)
    return opened


@pytest.mark.parametrize(("source", "offset"), _INVALID_UTF8.values(), ids=_INVALID_UTF8)
def test_invalid_utf8_in_a_file_is_named_by_its_path_at_its_offset(
    source, offset, tmp_path, opened_files
):
    path = tmp_path / "export.csv"
    path.write_bytes(source)
    message = f"^{re.escape(str(path))} is not valid UTF-8 at byte {offset} "
    with pytest.raises(EncodingError, match=message) as raised:
        load_corpus_csv(path, CANONICAL_SCHEMA)
    # Closed while the traceback, which holds the parse's frames, still lives.
    assert len(opened_files) == 1 and opened_files[0].closed, raised


@pytest.mark.parametrize(
    ("source", "error"),
    [
        (b"", SchemaError),  # no header row
        (b"id,title\n" + b"a,t\n" * 5000, SchemaError),  # a mapped column is missing
        (_csv("a,t,x,,2020,article,0"), None),
    ],
    ids=["empty", "missing-column", "parsed"],
)
def test_a_loaded_file_is_closed_on_every_outcome(source, error, tmp_path, opened_files):
    path = tmp_path / "export.csv"
    path.write_bytes(source)
    if error is None:
        assert len(load_corpus_csv(path, CANONICAL_SCHEMA)) == 1
    else:
        with pytest.raises(error) as raised:
            load_corpus_csv(path, CANONICAL_SCHEMA)
        # Closed while the traceback, which holds the parse's frames, still lives.
        assert opened_files[0].closed, raised
    assert len(opened_files) == 1 and opened_files[0].closed


def _large_export() -> bytes:
    """A 2 MB export whose characters reach beyond Latin-1, as real exports'
    do (dashes, Greek letters): a whole decoded text would then cost 2 or 4
    bytes per character."""
    rare = ["caf\u00e9"] * 49 + ["\U0001d6fc"]
    rows = [
        f"d{i},Title {i} \u2014 part {i % 7},"
        f"\"Abstract {i}: the {'lexical evolution of a field, ' * 42}{rare[i % 50]}.\","
        f"alpha; beta,{2000 + i % 20},Article,{i % 50}"
        for i in range(1700)
    ]
    source = _csv(*rows)
    assert len(source) >= 2_000_000
    return source


def test_parse_peak_memory_stays_below_twice_the_export():
    source = _large_export()
    tracemalloc.start()
    try:
        corpus = _load(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(corpus) == 1700
    assert peak < 2 * len(source)


def test_loading_a_file_holds_little_beyond_the_corpus_it_returns(tmp_path):
    # The file is read a chunk at a time as it is parsed: what the load
    # holds at its peak beyond the corpus is a small part of the file.
    path = tmp_path / "export.csv"
    path.write_bytes(_large_export())
    load_corpus_csv(path, CANONICAL_SCHEMA)  # first-call set-up is not the load's memory
    tracemalloc.start()
    try:
        corpus = load_corpus_csv(path, CANONICAL_SCHEMA)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) == 1700
    assert peak - retained < path.stat().st_size / 4, (peak - retained, path.stat().st_size)


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
    again = load_corpus_csv(path, CANONICAL_SCHEMA)
    assert again.documents == corpus.documents


def test_write_corpus_is_deterministic(tmp_path):
    corpus = _corpus([_doc(1), _doc(2)])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_corpus_csv(corpus, a)
    write_corpus_csv(corpus, b)
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


_documents = st.lists(
    st.builds(
        Document,
        id=_cells,
        title=_cells,
        abstract=_cells,
        keywords=st.lists(_cells, max_size=3).map(tuple),
        year=st.integers(1900, 2100),
        doc_type=st.sampled_from(DocType),
        citations=st.integers(0, 10**6),
    ),
    max_size=6,
    unique_by=lambda d: d.id,
)


@settings(max_examples=100, deadline=None)
@given(docs=_documents)
def test_corpus_csv_is_what_the_csv_module_writes_and_round_trips(tmp_path_factory, docs):
    path = tmp_path_factory.mktemp("csv") / "corpus.csv"
    write_corpus_csv(_corpus(docs), path)
    assert path.read_bytes() == oracles.corpus_csv_oracle(docs)
    parsed = load_corpus_csv(path, CANONICAL_SCHEMA)
    write_corpus_csv(parsed, path)
    assert path.read_bytes() == oracles.corpus_csv_oracle(parsed.documents)
    assert load_corpus_csv(path, CANONICAL_SCHEMA).documents == parsed.documents


def test_write_corpus_peak_memory_stays_far_below_the_file(tmp_path):
    # Each abstract holds a comma, so every row has a quoted cell.
    docs = [
        _doc(i, abstract=f"Abstract {i}: {'the lexical evolution of a field, ' * 36}")
        for i in range(3600)
    ]
    corpus = _corpus(docs)
    path = tmp_path / "corpus.csv"
    tracemalloc.start()
    try:
        write_corpus_csv(corpus, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 4_000_000
    assert peak < size / 4


def test_rejects_report_format(tmp_path):
    corpus = _load(_csv("a,t,a,,bad,article,0", "b,t,a,,2020,article,0"))
    path = tmp_path / "rejects.tsv"
    write_rejects_report(corpus.rejects, path)
    assert path.read_text(encoding="utf-8") == "1\tmalformed year 'bad'\n"
