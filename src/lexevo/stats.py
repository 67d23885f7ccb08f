"""Descriptive corpus statistics: ranked term frequencies, publications
per year, publication-type shares, and the quadratic publication trend
fitted by ordinary least squares.

Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import artifacts
from .corpus import Corpus, DocType
from .errors import DataError, InsufficientDataError, ValidationError
from .textpipe import Vocabulary

__all__ = [
    "YearlyCounts",
    "TrendFit",
    "TermFrequencyRow",
    "TermFrequencyTable",
    "term_frequency_table",
    "publications_per_year",
    "publication_type_shares",
    "fit_quadratic_trend",
    "predict_trend",
    "write_term_table_tsv",
    "write_yearly_counts_tsv",
    "write_type_shares_tsv",
]


@dataclass(frozen=True)
class YearlyCounts:
    """Contiguous per-year publication counts starting at ``first_year``."""

    first_year: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise DataError("yearly counts must cover at least one year")
        if any(c < 0 for c in self.counts):
            raise DataError("yearly counts must be non-negative")

    @property
    def years(self) -> range:
        return range(self.first_year, self.first_year + len(self.counts))


@dataclass(frozen=True)
class TrendFit:
    """Quadratic trend y(x) = c2 x^2 + c1 x + c0 over year indices.

    The year-to-x mapping is affine: x = year - first_year + 1, so the
    first observed year sits at x = 1. ``r_squared`` is None when the
    series is constant (SStot = 0 leaves it undefined).
    """

    c2: float
    c1: float
    c0: float
    r_squared: float | None
    first_year: int

    def x_of_year(self, year: int) -> int:
        return year - self.first_year + 1

    def predict(self, year: int) -> float:
        x = self.x_of_year(year)
        return self.c2 * x * x + self.c1 * x + self.c0


@dataclass(frozen=True)
class TermFrequencyRow:
    term: str
    frequency: int
    share: float  # this term's fraction of all vocabulary occurrences


@dataclass(frozen=True)
class TermFrequencyTable:
    rows: tuple[TermFrequencyRow, ...]
    selected_share: float  # fraction covered by the selected terms together


def term_frequency_table(vocab: Vocabulary, top_k: int) -> TermFrequencyTable:
    """Top ``top_k`` terms by total frequency (ties lexicographic, which is
    the vocabulary's own ordering). ``selected_share`` is the selected
    frequency mass over the whole vocabulary mass, which must be positive."""
    if top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    chosen = vocab.terms[: min(top_k, len(vocab))]
    total = sum(vocab.total_frequency.values())
    if total == 0:
        raise ValidationError("vocabulary has no occurrences")
    rows = tuple(
        TermFrequencyRow(t, vocab.total_frequency[t], vocab.total_frequency[t] / total)
        for t in chosen
    )
    selected = sum(r.frequency for r in rows)
    return TermFrequencyTable(rows, selected / total)


def publications_per_year(corpus: Corpus) -> YearlyCounts:
    """One bin per calendar year from the earliest to the latest document,
    zero-filled in between."""
    if not corpus.documents:
        raise DataError("cannot count publications of an empty corpus")
    years = [doc.year for doc in corpus.documents]
    first, last = min(years), max(years)
    counts = [0] * (last - first + 1)
    for y in years:
        counts[y - first] += 1
    return YearlyCounts(first, tuple(counts))


def publication_type_shares(corpus: Corpus) -> list[tuple[DocType, float]]:
    """Proportion of each publication type, descending, ties lexicographic."""
    if not corpus.documents:
        raise DataError("cannot compute type shares of an empty corpus")
    counts: dict[DocType, int] = {}
    for doc in corpus.documents:
        counts[doc.doc_type] = counts.get(doc.doc_type, 0) + 1
    n = len(corpus.documents)
    return sorted(
        ((t, c / n) for t, c in counts.items()),
        key=lambda item: (-item[1], item[0].value),
    )


def fit_quadratic_trend(series: YearlyCounts) -> TrendFit:
    """Ordinary least squares on points (x_i, y_i), x_i = year - first + 1.

    The contract is the minimizer, not the algorithm; this uses numpy's
    least-squares polynomial fit (orthogonalization based), which the test
    suite checks against an explicit normal-equations solve.
    """
    y = np.asarray(series.counts, dtype=np.float64)
    x = np.arange(1, len(y) + 1, dtype=np.float64)
    if len(x) < 3:  # each x is a distinct year
        raise InsufficientDataError(f"quadratic fit needs >= 3 distinct years, got {len(x)}")
    c2, c1, c0 = np.polyfit(x, y, 2)
    residuals = y - (c2 * x * x + c1 * x + c0)
    ss_res = float(residuals @ residuals)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = None if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return TrendFit(float(c2), float(c1), float(c0), r_squared, series.first_year)


def predict_trend(fit: TrendFit, year: int) -> float:
    """Evaluate the fitted quadratic at a calendar year; no clamping."""
    return fit.predict(year)


# ---------------------------------------------------------------------------
# On-disk formats
# ---------------------------------------------------------------------------


#: The columns of the three tables that ``lexevo figures`` reads back.
TERM_FREQUENCY_COLUMNS = (("term", str), ("frequency", int), ("share", float))
YEARLY_COUNTS_COLUMNS = (("year", int), ("count", int))
TYPE_SHARES_COLUMNS = (("doc_type", str), ("share", float))


def write_term_table_tsv(table: TermFrequencyTable, dest: str | Path) -> None:
    rows = table.rows
    values = [[r.term for r in rows], [r.frequency for r in rows], [r.share for r in rows]]
    artifacts.write_tsv(dest, TERM_FREQUENCY_COLUMNS, values)


def write_yearly_counts_tsv(series: YearlyCounts, dest: str | Path) -> None:
    artifacts.write_tsv(dest, YEARLY_COUNTS_COLUMNS, [series.years, series.counts])


def write_type_shares_tsv(shares: Sequence[tuple[DocType, float]], dest: str | Path) -> None:
    values = [[t.value for t, _ in shares], [s for _, s in shares]]
    artifacts.write_tsv(dest, TYPE_SHARES_COLUMNS, values)
