"""Bibliographic corpus ingestion and cleaning.

Parses CSV exports (RFC 4180, UTF-8, header row) into validated
:class:`Document` records and applies the corpus-cleaning filters with an
auditable :class:`FilterReport`. All structures are frozen dataclasses, so
a parsed corpus can be shared freely across threads.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from . import artifacts
from .errors import DataError, SchemaError

__all__ = [
    "DocType",
    "Document",
    "FilterReport",
    "RejectedRow",
    "Corpus",
    "CsvSchema",
    "CANONICAL_SCHEMA",
    "DEFAULT_EXCLUDED_TYPES",
    "normalize_doc_type",
    "parse_bibliographic_csv",
    "load_corpus_csv",
    "filter_corpus",
    "write_corpus_csv",
    "write_rejects_report",
]


class DocType(str, Enum):
    """Canonical publication types."""

    CONFERENCE_PAPER = "conference-paper"
    ARTICLE = "article"
    REVIEW = "review"
    BOOK_CHAPTER = "book-chapter"
    CONFERENCE_REVIEW = "conference-review"
    BOOK = "book"
    OTHER = "other"


#: Case-insensitive aliases seen in real exports. Unknown strings map to
#: OTHER, never to an error: exports are messy and an unrecognized type is
#: exactly the editorial/letter class the filter is meant to drop.
DEFAULT_TYPE_ALIASES: dict[str, DocType] = {
    "conference paper": DocType.CONFERENCE_PAPER,
    "conference-paper": DocType.CONFERENCE_PAPER,
    "proceedings paper": DocType.CONFERENCE_PAPER,
    "article": DocType.ARTICLE,
    "journal article": DocType.ARTICLE,
    "review": DocType.REVIEW,
    "book chapter": DocType.BOOK_CHAPTER,
    "book-chapter": DocType.BOOK_CHAPTER,
    "chapter": DocType.BOOK_CHAPTER,
    "conference review": DocType.CONFERENCE_REVIEW,
    "conference-review": DocType.CONFERENCE_REVIEW,
    "book": DocType.BOOK,
    "other": DocType.OTHER,
}

DEFAULT_EXCLUDED_TYPES: frozenset[DocType] = frozenset({DocType.OTHER})

DEFAULT_YEAR_WINDOW: tuple[int, int] = (1900, 2100)


def normalize_doc_type(raw: str) -> DocType:
    """Map a raw type string to a canonical :class:`DocType` through
    ``DEFAULT_TYPE_ALIASES``.

    Matching is case-insensitive after trimming; unknown strings become
    ``DocType.OTHER``.
    """
    return DEFAULT_TYPE_ALIASES.get(raw.strip().lower(), DocType.OTHER)


@dataclass(frozen=True)
class Document:
    """One bibliographic record."""

    id: str
    title: str
    abstract: str
    keywords: tuple[str, ...]
    year: int
    doc_type: DocType
    citations: int


@dataclass(frozen=True)
class FilterReport:
    """Accounting of the corpus-cleaning filters.

    Invariant: ``loaded == excluded_non_research + excluded_no_abstract +
    retained``, checked on construction.
    """

    loaded: int
    excluded_non_research: int
    excluded_no_abstract: int
    retained: int

    def __post_init__(self) -> None:
        counts = (
            self.loaded,
            self.excluded_non_research,
            self.excluded_no_abstract,
            self.retained,
        )
        if any(c < 0 for c in counts):
            raise DataError(f"filter report counts must be non-negative: {self}")
        expected = (
            self.excluded_non_research + self.excluded_no_abstract + self.retained
        )
        if self.loaded != expected:
            raise DataError(
                "filter report does not conserve documents: "
                f"loaded={self.loaded} but exclusions+retained={expected}"
            )

    @classmethod
    def from_exclusions(
        cls, loaded: int, non_research: int, no_abstract: int
    ) -> "FilterReport":
        """Build a report from the exclusion counts, deriving ``retained``."""
        return cls(loaded, non_research, no_abstract, loaded - non_research - no_abstract)


@dataclass(frozen=True)
class RejectedRow:
    """One skipped input row: 1-based data-record number and the reason."""

    row: int
    reason: str


@dataclass(frozen=True)
class Corpus:
    """An ordered, immutable collection of documents plus its provenance."""

    documents: tuple[Document, ...]
    provenance: FilterReport
    rejects: tuple[RejectedRow, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise DataError(f"duplicate document id in corpus: {doc.id!r}")
            seen.add(doc.id)
        if self.provenance.retained != len(self.documents):
            raise DataError(
                f"provenance retained={self.provenance.retained} does not match "
                f"{len(self.documents)} documents"
            )

    def __len__(self) -> int:
        return len(self.documents)

    def by_id(self) -> dict[str, Document]:
        return {doc.id: doc for doc in self.documents}


@dataclass(frozen=True)
class CsvSchema:
    """Maps logical record fields to CSV column names.

    ``title``, ``abstract``, ``year`` and ``doc_type`` must be mapped;
    ``keywords``, ``citations`` and ``id`` are optional and default to
    empty / 0 / a generated record id.
    """

    title: str
    abstract: str
    year: str
    doc_type: str
    keywords: str | None = None
    citations: str | None = None
    id: str | None = None

    def mapped_columns(self) -> list[tuple[str, str]]:
        """(logical field, column name) pairs in canonical field order."""
        pairs = [
            ("id", self.id),
            ("title", self.title),
            ("abstract", self.abstract),
            ("keywords", self.keywords),
            ("year", self.year),
            ("doc_type", self.doc_type),
            ("citations", self.citations),
        ]
        return [(f, c) for f, c in pairs if c is not None]


#: Schema of the canonical writer: logical field names as column names.
CANONICAL_SCHEMA = CsvSchema(
    title="title",
    abstract="abstract",
    year="year",
    doc_type="doc_type",
    keywords="keywords",
    citations="citations",
    id="id",
)


def _records(source: IO[bytes], name: str | Path) -> Iterator[list[str]]:
    """The CSV records of a binary UTF-8 stream, read and decoded as the
    reader asks for them; ``name`` names ``source`` in an encoding error."""
    return csv.reader(artifacts.text_lines(source, name))


def parse_bibliographic_csv(
    source: bytes,
    schema: CsvSchema,
    *,
    year_window: tuple[int, int] = DEFAULT_YEAR_WINDOW,
) -> Corpus:
    """Parse the bytes of a bibliographic CSV export into a :class:`Corpus`.

    The bytes must be UTF-8 (:class:`EncodingError` otherwise, and no
    documents are returned); a leading byte-order mark, which exports often
    carry, is not data. The bytes are decoded chunk by chunk as the CSV
    reader asks for lines, so the decoded text is never held whole: each
    field becomes its own string. :func:`load_corpus_csv` parses a file the
    same way, read as it is decoded. One document per data row. Keywords
    are split on ``;`` and trimmed.
    Rows with a malformed year or citation count (or a year outside
    ``year_window``, or a duplicate id, or an id that holds a tab or a
    line break and so cannot be a cell of a TSV artifact) are collected
    into ``Corpus.rejects`` and skipped; they do not count as loaded.
    The returned provenance has ``loaded == retained`` and zero exclusions:
    filtering is a separate, explicit step (:func:`filter_corpus`).
    """
    return _parse(io.BytesIO(source), "input", schema, year_window)


def _parse(
    source: IO[bytes], name: str | Path, schema: CsvSchema, year_window: tuple[int, int]
) -> Corpus:
    reader = _records(source, name)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{name} has no header row") from None

    col_index: dict[str, int] = {}
    for logical, column in schema.mapped_columns():
        try:
            col_index[logical] = header.index(column)
        except ValueError:
            raise SchemaError(
                f"mapped column {column!r} (field {logical!r}) "
                f"not found in header {header!r}"
            ) from None

    def cell(row: list[str], logical: str) -> str:
        idx = col_index.get(logical)
        if idx is None or idx >= len(row):
            return ""
        return row[idx]

    lo, hi = year_window
    documents: list[Document] = []
    rejects: list[RejectedRow] = []
    seen_ids: set[str] = set()
    for record_no, row in enumerate(reader, start=1):
        if not row:
            continue

        year_raw = cell(row, "year").strip()
        try:
            year = int(year_raw)
        except ValueError:
            rejects.append(RejectedRow(record_no, f"malformed year {year_raw!r}"))
            continue
        if not lo <= year <= hi:
            rejects.append(
                RejectedRow(record_no, f"year {year} outside window {lo}..{hi}")
            )
            continue

        citations_raw = cell(row, "citations").strip()
        if citations_raw == "":
            citations = 0
        else:
            try:
                citations = int(citations_raw)
            except ValueError:
                rejects.append(
                    RejectedRow(record_no, f"malformed citations {citations_raw!r}")
                )
                continue
        if citations < 0:
            rejects.append(
                RejectedRow(record_no, f"negative citations {citations}")
            )
            continue

        doc_id = cell(row, "id").strip() or f"d{record_no:04d}"
        if "\t" in doc_id or doc_id.splitlines() != [doc_id]:
            rejects.append(
                RejectedRow(record_no, f"id {doc_id!r} holds a tab or a line break")
            )
            continue
        if doc_id in seen_ids:
            rejects.append(RejectedRow(record_no, f"duplicate id {doc_id!r}"))
            continue
        seen_ids.add(doc_id)

        keywords = tuple(
            kw.strip() for kw in cell(row, "keywords").split(";") if kw.strip()
        )
        documents.append(
            Document(
                id=doc_id,
                title=cell(row, "title").strip(),
                abstract=cell(row, "abstract").strip(),
                keywords=keywords,
                year=year,
                doc_type=normalize_doc_type(cell(row, "doc_type")),
                citations=citations,
            )
        )

    report = FilterReport(len(documents), 0, 0, len(documents))
    return Corpus(tuple(documents), report, tuple(rejects))


def load_corpus_csv(
    path: str | Path,
    schema: CsvSchema,
    *,
    year_window: tuple[int, int] = DEFAULT_YEAR_WINDOW,
) -> Corpus:
    """Parse a CSV file from disk, as :func:`parse_bibliographic_csv` does;
    an encoding error names ``path``. The file is read a chunk at a time as
    the CSV reader asks for lines, so its bytes are never held whole: the
    parse holds little more than the corpus it returns. The file is closed
    on return and on every error."""
    with open(path, "rb") as source:
        return _parse(source, path, schema, year_window)


def filter_corpus(
    corpus: Corpus,
    excluded_types: Iterable[DocType] = DEFAULT_EXCLUDED_TYPES,
) -> Corpus:
    """Apply the corpus-cleaning filters, preserving document order.

    Order is normative: the type filter runs first, then the
    missing-abstract filter, so a non-research record without an abstract
    counts as non-research. Exclusion counts accumulate onto the existing
    provenance, which makes the operation idempotent.
    """
    excluded = frozenset(excluded_types)
    after_type = [d for d in corpus.documents if d.doc_type not in excluded]
    n_type = len(corpus.documents) - len(after_type)
    survivors = [d for d in after_type if d.abstract.strip()]
    n_abstract = len(after_type) - len(survivors)

    report = FilterReport(
        loaded=corpus.provenance.loaded,
        excluded_non_research=corpus.provenance.excluded_non_research + n_type,
        excluded_no_abstract=corpus.provenance.excluded_no_abstract + n_abstract,
        retained=len(survivors),
    )
    return replace(corpus, documents=tuple(survivors), provenance=report)


#: The columns of ``corpus.csv``, in the field order of :data:`CANONICAL_SCHEMA`.
_CORPUS_COLUMNS = [
    (column, int if field in ("year", "citations") else str)
    for field, column in CANONICAL_SCHEMA.mapped_columns()
]


def write_corpus_csv(corpus: Corpus, dest: str | Path) -> None:
    """Canonical writer: :func:`artifacts.write_csv` of the columns of
    :data:`CANONICAL_SCHEMA` in its field order, keywords joined with ``"; "``.

    parse -> write -> parse round-trips to field-identical documents.
    """
    docs = corpus.documents
    values = [
        [d.id for d in docs],
        [d.title for d in docs],
        [d.abstract for d in docs],
        ["; ".join(d.keywords) for d in docs],
        [d.year for d in docs],
        [d.doc_type.value for d in docs],
        [d.citations for d in docs],
    ]
    artifacts.write_csv(dest, _CORPUS_COLUMNS, values)


def write_rejects_report(rejects: Sequence[RejectedRow], dest: str | Path) -> None:
    """Rejects report: one tab-separated line per skipped row (row, reason),
    no header line."""
    values = [[r.row for r in rejects], [r.reason for r in rejects]]
    artifacts.write_tsv(dest, (("row", int), ("reason", str)), values, header=False)
