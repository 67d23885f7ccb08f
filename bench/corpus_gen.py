"""Deterministic synthetic Scopus-style exports for the benchmark.

``generate(seed, size)`` returns the CSV rows of one export plus the
bookkeeping the generator knows by construction: rows loaded and
rejected, non-research and no-abstract exclusions, and retained
documents per year. The same (seed, size) always gives the same bytes.

What every export contains, so each pipeline path does real work:

- a fixed share of malformed rows (free-text year, negative citations),
  which the parser must reject;
- non-research document types (some without an abstract, which still
  count as non-research) and research rows with empty abstracts;
- publication counts rising over 2009-2022;
- abstracts of 80-220 tokens drawn from a Zipf law over a pseudo-word
  pool whose ranks drift by year, so correspondence analysis finds a
  year trajectory; stopwords, capitals, commas, hyphens and digits are
  mixed in so the tokenizer and the stoplist have work to do.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

HEADER = ["Title", "Abstract", "Author Keywords", "Year", "Document Type", "Cited by"]
YEARS = tuple(range(2009, 2023))
RESEARCH_TYPES = ("Article", "Conference Paper", "Review", "Book Chapter")
NON_RESEARCH_TYPES = ("Editorial", "Letter", "Note", "Erratum")
BAD_YEARS = ("in press", "n.d.", "2019a", "forthcoming")
FILLERS = ("the", "of", "and", "in", "for", "with", "to", "on", "by", "from",
           "is", "are", "this", "that", "we", "our", "which", "was")
ONSETS = ("b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t",
          "v", "z", "br", "ch", "st", "tr", "pl", "gr", "ñ", "qu")
NUCLEI = ("a", "e", "i", "o", "u", "ai", "ou", "é", "ó")

# Shares of the loaded rows, fixed so that every size has the same mix.
REJECT_SHARE = 0.005
NON_RESEARCH_SHARE_OF_EXCLUDED = 0.7
NON_RESEARCH_WITHOUT_ABSTRACT = 0.25
POOL_SEED = 20220421  # word pool and drift are the same for every corpus seed


@dataclass(frozen=True)
class CorpusSize:
    """Shape of one export: row counts and the shape of its word law."""

    loaded: int  # rows that parse (every row except the malformed ones)
    retained: int  # research rows with an abstract
    pool: int  # distinct pseudo-words the abstracts draw from
    zipf: float  # exponent of the rank-frequency law
    drift: float  # log-weight change of a word across the year range


def word_pool(n: int) -> list[str]:
    """``n`` distinct lowercase pseudo-words of two to four syllables."""
    rng = np.random.default_rng(POOL_SEED)
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n:
        lengths = rng.integers(2, 5, size=n).tolist()
        onsets = rng.integers(len(ONSETS), size=(n, 4)).tolist()
        nuclei = rng.integers(len(NUCLEI), size=(n, 4)).tolist()
        for k, on, nu in zip(lengths, onsets, nuclei):
            word = "".join(ONSETS[on[j]] + NUCLEI[nu[j]] for j in range(k))
            if word not in seen and len(words) < n:
                seen.add(word)
                words.append(word)
    return words


def _allocate(total: int, weights: np.ndarray) -> np.ndarray:
    """Split ``total`` into integer parts proportional to ``weights``
    (largest remainder), so the parts always sum to ``total``."""
    exact = total * weights / weights.sum()
    parts = np.floor(exact).astype(np.int64)
    short = total - int(parts.sum())
    order = np.argsort(-(exact - parts), kind="stable")
    parts[order[:short]] += 1
    return parts


def _abstract(rng: np.random.Generator, words: np.ndarray) -> str:
    """Join content words into sentences with stopwords and punctuation."""
    m = len(words)
    r = rng.random(m)
    fillers = rng.integers(len(FILLERS), size=m)
    numbers = rng.integers(2000, 2030, size=m)
    breaks = set(np.cumsum(rng.integers(10, 22, size=m // 10 + 1)).tolist())
    out: list[str] = [words[0].capitalize()]
    for i in range(1, m):
        w = words[i]
        if i in breaks:
            out[-1] += "."
            w = w.capitalize()
        elif r[i] < 0.30:
            out.append(FILLERS[fillers[i]])
        elif r[i] < 0.33:
            out[-1] += ","
        elif r[i] < 0.345:
            out.append(str(numbers[i]))
        elif r[i] < 0.355:
            w = out.pop() + "-" + w
        out.append(w)
    return " ".join(out) + "."


def generate(seed: int, size: CorpusSize) -> tuple[list[list[str]], dict]:
    """Rows of one export (header excluded) and its bookkeeping."""
    rng = np.random.default_rng(seed)
    pool = np.array(word_pool(size.pool), dtype=object)
    n_years = len(YEARS)
    growth = np.exp(0.18 * np.arange(n_years))

    excluded = size.loaded - size.retained
    n_non_research = round(excluded * NON_RESEARCH_SHARE_OF_EXCLUDED)
    n_no_abstract = excluded - n_non_research
    n_rejects = round(size.loaded * REJECT_SHARE)
    retained_by_year = _allocate(size.retained, growth)

    # Per-year log-weights: a Zipf law on a fixed base rank, plus a linear
    # drift whose direction is drawn per word, so ranks change over time.
    # The law is fixed for a size; the seed only draws documents from it,
    # so the vocabulary (and the work it causes) barely varies by seed.
    base = -size.zipf * np.log(np.arange(1, size.pool + 1))
    direction = np.random.default_rng(POOL_SEED).standard_normal(size.pool)
    t = np.linspace(-0.5, 0.5, n_years)
    cdfs = []
    for k in range(n_years):
        logw = base + size.drift * direction * t[k]
        cdf = np.cumsum(np.exp(logw - logw.max()))
        cdfs.append(cdf / cdf[-1])

    def draw(year_idx: int, n: int) -> np.ndarray:
        ids = np.searchsorted(cdfs[year_idx], rng.random(n), side="right")
        return pool[np.minimum(ids, size.pool - 1)]

    def content(year_idx: int) -> str:
        n = int(rng.integers(80, 221))
        return _abstract(rng, draw(year_idx, int(n * 0.72)))

    def title(year_idx: int) -> str:
        return " ".join(draw(year_idx, int(rng.integers(4, 9)))).capitalize()

    def keywords(year_idx: int) -> str:
        return "; ".join(draw(year_idx, 3))

    def citations(year_idx: int) -> str:
        return str(int(rng.integers(0, 8 + 12 * (n_years - year_idx))))

    rows: list[list[str]] = []
    # Retained research documents.
    for k, year in enumerate(YEARS):
        for _ in range(int(retained_by_year[k])):
            rows.append([title(k), content(k), keywords(k), str(year),
                         RESEARCH_TYPES[int(rng.integers(len(RESEARCH_TYPES)))],
                         citations(k)])
    # Excluded documents: the type filter runs before the abstract filter,
    # so a non-research row without an abstract counts as non-research.
    for i in range(n_non_research):
        k = int(rng.integers(n_years))
        blank = i < round(n_non_research * NON_RESEARCH_WITHOUT_ABSTRACT)
        rows.append([title(k), "" if blank else content(k), "", str(YEARS[k]),
                     NON_RESEARCH_TYPES[int(rng.integers(len(NON_RESEARCH_TYPES)))],
                     citations(k)])
    for i in range(n_no_abstract):
        k = int(rng.integers(n_years))
        rows.append([title(k), " " if i % 2 else "", keywords(k), str(YEARS[k]),
                     RESEARCH_TYPES[int(rng.integers(len(RESEARCH_TYPES)))],
                     citations(k)])
    # Malformed rows, alternating a free-text year and a negative count.
    for i in range(n_rejects):
        k = int(rng.integers(n_years))
        if i % 2:
            year, cited = BAD_YEARS[(i // 2) % len(BAD_YEARS)], citations(k)
        else:
            year, cited = str(YEARS[k]), str(-1 - int(rng.integers(50)))
        rows.append([title(k), content(k), keywords(k), year,
                     RESEARCH_TYPES[0], cited])

    order = rng.permutation(len(rows))
    rows = [rows[i] for i in order]
    bookkeeping = {
        "csv_rows": len(rows),
        "loaded": size.loaded,
        "rejected": n_rejects,
        "excluded_non_research": n_non_research,
        "excluded_no_abstract": n_no_abstract,
        "retained": size.retained,
        "retained_by_year": {str(y): int(n) for y, n in zip(YEARS, retained_by_year)},
    }
    return rows, bookkeeping


def to_csv(rows: list[list[str]]) -> str:
    """The export as text: header row, RFC 4180 quoting, ``\\n`` endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(rows)
    return buf.getvalue()
