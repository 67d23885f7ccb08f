"""Timeline segmentation: named year ranges, their characteristic terms
and their most-cited ("pioneer") documents.

Characteristic terms are scored by the standardized Pearson residual of
the (period, term) cell in the period-by-term contingency table built
from the document-term matrix: (observed - expected) / sqrt(expected),
expected = row_total * col_total / grand_total. Positive scores mark
over-represented terms; the score sits in the same chi-square geometry as
the correspondence analysis. Documents outside every period form an
implicit "unassigned" table row, so scores measure over-representation
against the whole corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import artifacts
from .corpus import Corpus, Document
from .errors import DataError, EmptyPeriodError, LabelNotFoundError, ValidationError
from .textpipe import DocTermMatrix, group_sum

__all__ = [
    "Period",
    "PeriodSpec",
    "PeriodReport",
    "DEFAULT_PERIOD_SPEC",
    "UNASSIGNED",
    "assign_periods",
    "characteristic_terms",
    "pioneer_documents",
    "period_report",
    "write_periods_json",
    "write_periods_markdown",
]

UNASSIGNED = "unassigned"


@dataclass(frozen=True)
class Period:
    name: str
    first_year: int
    last_year: int

    def __post_init__(self) -> None:
        if not self.name or self.name == UNASSIGNED:
            raise ValidationError(f"invalid period name {self.name!r}")
        if self.first_year > self.last_year:
            raise ValidationError(
                f"period {self.name!r} has first_year > last_year"
            )

    def contains(self, year: int) -> bool:
        return self.first_year <= year <= self.last_year


@dataclass(frozen=True)
class PeriodSpec:
    """Ordered, non-overlapping year ranges; gaps are allowed."""

    periods: tuple[Period, ...]

    def __post_init__(self) -> None:
        if not self.periods:
            raise ValidationError("period spec must contain at least one period")
        names = [p.name for p in self.periods]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate period names in {names}")
        for prev, cur in zip(self.periods, self.periods[1:]):
            if cur.first_year <= prev.last_year:
                raise ValidationError(
                    f"periods {prev.name!r} and {cur.name!r} overlap or are out of order"
                )

    def names(self) -> list[str]:
        return [p.name for p in self.periods]

    @classmethod
    def parse(cls, text: str) -> "PeriodSpec":
        """Parse ``Name:first-last`` items separated by commas."""
        periods = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                name, years = item.split(":")
                first, last = years.split("-")
                periods.append(Period(name.strip(), int(first), int(last)))
            except ValueError:
                raise ValidationError(
                    f"cannot parse period {item!r}; expected Name:first-last"
                ) from None
        return cls(tuple(periods))

    def format(self) -> str:
        return ", ".join(
            f"{p.name}:{p.first_year}-{p.last_year}" for p in self.periods
        )


DEFAULT_PERIOD_SPEC = PeriodSpec(
    (
        Period("Surgimiento", 2009, 2012),
        Period("Crecimiento", 2013, 2018),
        Period("Auge", 2019, 2022),
    )
)


def assign_periods(corpus: Corpus, spec: PeriodSpec) -> dict[str, str | None]:
    """Map each document id to its period name by year containment, or to
    None when the year falls outside every period."""
    assignment: dict[str, str | None] = {}
    for doc in corpus.documents:
        assignment[doc.id] = next(
            (p.name for p in spec.periods if p.contains(doc.year)), None
        )
    return assignment


def _contingency(
    dtm: DocTermMatrix,
    assignment: Mapping[str, str | None],
    period_names: Sequence[str],
) -> tuple[list[str], np.ndarray]:
    """Period-by-term count table over the matrix rows; documents outside
    every period are pooled into a trailing unassigned row when present."""
    n = len(period_names)
    row_of: dict[str, int] = {name: i for i, name in enumerate(period_names)}
    try:
        groups = [row_of.get(assignment[doc_id], n) for doc_id in dtm.rows]
    except KeyError as exc:
        raise DataError(f"matrix row {exc.args[0]!r} has no corpus document") from None
    table = group_sum(dtm.csr, groups, n + 1)
    names = list(period_names)
    if table[-1].sum() > 0:
        names.append(UNASSIGNED)
    else:
        table = table[:-1]
    return names, table


def characteristic_terms(
    dtm: DocTermMatrix,
    assignment: Mapping[str, str | None],
    period: str,
    k: int,
    period_names: Sequence[str],
) -> list[tuple[str, float]]:
    """Top ``k`` terms by standardized residual for one period, descending,
    ties broken lexicographically.

    ``period_names`` (such as ``PeriodSpec.names()``) fixes the rows of the
    period-by-term table, in order; documents assigned to none of them are
    pooled into a trailing unassigned row when they hold any counts. A
    matrix row that is not a key of ``assignment`` raises :class:`DataError`.
    """
    if period not in period_names:
        raise LabelNotFoundError(f"unknown period {period!r}")

    names, table = _contingency(dtm, assignment, period_names)
    return _top_terms(names, table, dtm.terms, period, k)


def _top_terms(
    names: Sequence[str], table: np.ndarray, terms: Sequence[str], period: str, k: int
) -> list[tuple[str, float]]:
    """Score one period's row of a period-by-term table (see
    :func:`characteristic_terms`)."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    p_idx = names.index(period)
    row_totals = table.sum(axis=1)
    if row_totals[p_idx] == 0:
        raise EmptyPeriodError(
            f"period {period!r} has no documents with in-vocabulary tokens"
        )
    col_totals = table.sum(axis=0)
    grand = table.sum()
    expected = row_totals[p_idx] * col_totals / grand
    scores = (table[p_idx] - expected) / np.sqrt(expected)
    order = sorted(range(len(terms)), key=lambda j: (-scores[j], terms[j]))
    return [(terms[j], float(scores[j])) for j in order[:k]]


def pioneer_documents(
    corpus: Corpus,
    assignment: Mapping[str, str | None],
    period: str,
    k: int,
) -> list[Document]:
    """Top ``k`` documents of a period by citations (descending); ties by
    year ascending, then title."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    members = [d for d in corpus.documents if assignment.get(d.id) == period]
    if not members:
        raise EmptyPeriodError(f"period {period!r} contains no documents")
    members.sort(key=lambda d: (-d.citations, d.year, d.title))
    return members[:k]


@dataclass(frozen=True)
class PeriodReport:
    name: str
    first_year: int
    last_year: int
    doc_count: int
    share_of_corpus: float
    characteristic_terms: tuple[tuple[str, float], ...]
    pioneer_docs: tuple[tuple[str, int, int], ...]  # (title, year, citations)


def period_report(
    corpus: Corpus,
    dtm: DocTermMatrix,
    spec: PeriodSpec,
    k_terms: int,
    k_docs: int,
) -> list[PeriodReport]:
    """One report per configured period; shares are computed against the
    full corpus size, so shares plus the unassigned share sum to 1. The
    period-by-term table is built once and scored for every period."""
    assignment = assign_periods(corpus, spec)
    names, table = _contingency(dtm, assignment, spec.names())
    reports = []
    for p in spec.periods:
        docs = pioneer_documents(corpus, assignment, p.name, k_docs)
        terms = _top_terms(names, table, dtm.terms, p.name, k_terms)
        count = sum(1 for v in assignment.values() if v == p.name)
        reports.append(
            PeriodReport(
                name=p.name,
                first_year=p.first_year,
                last_year=p.last_year,
                doc_count=count,
                share_of_corpus=count / len(corpus.documents),
                characteristic_terms=tuple(terms),
                pioneer_docs=tuple(
                    (d.title, d.year, d.citations) for d in docs
                ),
            )
        )
    return reports


def write_periods_json(
    reports: Sequence[PeriodReport],
    corpus_size: int,
    dest: str | Path,
) -> None:
    assigned = sum(r.doc_count for r in reports)
    payload = {
        "corpus_size": corpus_size,
        "unassigned": corpus_size - assigned,
        "periods": [
            {
                "name": r.name,
                "first_year": r.first_year,
                "last_year": r.last_year,
                "doc_count": r.doc_count,
                "share_of_corpus": r.share_of_corpus,
                "characteristic_terms": [
                    {"term": t, "score": s} for t, s in r.characteristic_terms
                ],
                "pioneer_docs": [
                    {"title": t, "year": y, "citations": c}
                    for t, y, c in r.pioneer_docs
                ],
            }
            for r in reports
        ],
    }
    artifacts.write_json(dest, payload)


#: A Markdown table cell holds no column separator and no line break.
_MD_CELL = str.maketrans({"|": "\\|", "\r": " ", "\n": " "})


def write_periods_markdown(
    reports: Sequence[PeriodReport],
    corpus_size: int,
    dest: str | Path,
) -> None:
    assigned = sum(r.doc_count for r in reports)
    lines = [
        "# Period report\n",
        "\n",
        f"Corpus: {corpus_size:,} documents; unassigned: {corpus_size - assigned:,}\n",
    ]
    for r in reports:
        lines += [
            "\n",
            f"## {r.name} ({r.first_year}-{r.last_year})\n",
            "\n",
            f"{r.doc_count:,} documents, {r.share_of_corpus:.1%} of the corpus.\n",
            "\n",
            "| term | score |\n|---|---|\n",
        ]
        lines += [
            f"| {t.translate(_MD_CELL)} | {s:.3f} |\n" for t, s in r.characteristic_terms
        ]
        lines += [
            "\n",
            "| title | year | citations |\n|---|---|---|\n",
        ]
        lines += [
            f"| {t.translate(_MD_CELL)} | {y} | {c:,} |\n" for t, y, c in r.pioneer_docs
        ]
    artifacts.write_text(dest, "".join(lines))
