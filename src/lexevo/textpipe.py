"""Abstract text processing: tokens, stopwords, vocabulary and the
sparse document-term matrix, plus the pluggable weighting schemes.

``tokenize_documents`` keeps one string object per distinct token, which
every stream that holds the token points to. The tokenized corpus is
counted once, by ``count_terms``: it gives every distinct token an integer
column, in order of first appearance, and builds one int64 CSR matrix of
per-document counts, a :class:`TermCounts`, a block of streams at a time,
so no array holds an entry per token of the corpus. Every
later step reads that matrix instead of the tokens: ``auto_stop_terms``
reads document frequencies (column nnz), ``build_vocabulary`` reads totals
and document frequencies (column sums and nnz) and skips stoplisted
columns, ``build_dtm`` selects the vocabulary's columns and prunes the rows
left empty, and ``uniqueness_stats`` reads token and distinct-term counts
(row sums and row nnz). The built structures are immutable and safe to
share.

SciPy is imported by the functions that build or convert a sparse matrix,
not by the module, so a process that never builds one (``lexevo stats``,
``lexevo figures``) starts without it.
"""

from __future__ import annotations

import itertools
import re
import unicodedata
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from . import artifacts
from .corpus import Corpus
from .errors import (
    ConfigError,
    DegenerateCorpusError,
    DependencyError,
    EmptyMatrixError,
    UndefinedStatisticError,
    ValidationError,
)
from .stopwords import ENGLISH_STOPWORDS

if TYPE_CHECKING:  # annotations only; see the module docstring
    from scipy import sparse

__all__ = [
    "TokenStream",
    "TermCounts",
    "UniquenessStats",
    "Vocabulary",
    "DocTermMatrix",
    "WeightScheme",
    "tokenize",
    "tokenize_documents",
    "load_stoplist",
    "count_terms",
    "auto_stop_terms",
    "remove_stopwords",
    "uniqueness_stats",
    "build_vocabulary",
    "build_dtm",
    "weight_matrix",
    "write_vocabulary_tsv",
    "read_vocabulary_tsv",
    "write_counts_tsv",
    "read_counts_tsv",
    "dtm_from_triplets",
    "group_sum",
    "ENGLISH_STOPWORDS",
]

DEFAULT_MIN_TOKEN_LEN = 2
DEFAULT_MIN_TERM_FREQUENCY = 5

# Candidate runs: every code point except digits, the underscore and the
# separators (code points that are neither alphanumeric nor combining
# marks) of three blocks: Latin below U+0300, where the marks begin,
# General Punctuation (dashes, curly quotes, thin spaces) and CJK Symbols
# and Punctuation (the ideographic space). Python's ``re`` has no class for
# the marks (category M), so the runs are a superset of tokens: a run that
# is not all letters (it holds a mark, another separator, or a numeric
# letter of category Nl/No such as a superscript) is split exactly by
# ``_letter_fragments``.
_SEPARATORS = "".join(
    ch
    for ch in map(chr, (*range(0x300), *range(0x2000, 0x2070), *range(0x3000, 0x3040)))
    if not ch.isalnum() and unicodedata.category(ch)[0] != "M"
)
_RUN = re.compile(f"[^{re.escape(_SEPARATORS)}\\d_]+")


def _letter_fragments(run: str) -> Iterator[str]:
    """Maximal stretches of a letter followed by letters and combining
    marks; a mark with no letter before it separates, like punctuation."""
    current: list[str] = []
    for ch in run:
        if ch.isalpha() or (current and unicodedata.category(ch)[0] == "M"):
            current.append(ch)
        elif current:
            yield "".join(current)
            current = []
    if current:
        yield "".join(current)


def _normalize(text: str) -> str:
    """NFC, then lowercase: the one normalization of tokens and stoplists."""
    return unicodedata.normalize("NFC", text).lower()


@dataclass(frozen=True)
class TokenStream:
    """Ordered normalized tokens of one document."""

    doc_id: str
    tokens: tuple[str, ...]


def tokenize(text: str, min_len: int = DEFAULT_MIN_TOKEN_LEN) -> list[str]:
    """Normalize to NFC, then ``str.lower()``; split on anything that is
    neither a Unicode letter nor a combining mark (category M) following
    one, and drop tokens shorter than ``min_len`` code points. Order
    preserved; empty input gives an empty list. NFC composes a letter with
    its combining accent, so decomposed (NFD) text gives the same tokens as
    composed; a mark that has no composed form stays attached to its
    letter, such as the dot above that ``lower()`` leaves on ``"İ"``
    (``"İstanbul"`` gives ``["i\\u0307stanbul"]``)."""
    out: list[str] = []
    for run in _RUN.findall(_normalize(text)):
        if run.isalpha():  # the common case: the run is already all letters
            if len(run) >= min_len:
                out.append(run)
        else:
            out.extend(f for f in _letter_fragments(run) if len(f) >= min_len)
    return out


def tokenize_documents(
    corpus: Corpus, min_len: int = DEFAULT_MIN_TOKEN_LEN
) -> list[TokenStream]:
    """Tokenize every abstract of the corpus, in corpus order.

    Equal tokens are one string object across all the streams: a stream
    holds pointers to the corpus's distinct tokens, not a string per
    occurrence."""
    canonical: dict[str, str] = {}
    streams = []
    for doc in corpus.documents:
        tokens = tokenize(doc.abstract, min_len)
        streams.append(TokenStream(doc.id, tuple(map(canonical.setdefault, tokens, tokens))))
    return streams


def load_stoplist(path: str | Path) -> frozenset[str]:
    """Read a stoplist file: UTF-8, one term per line, ``#`` comments. Each
    term is normalized like a token, so an NFD entry stops the NFC token."""
    terms: set[str] = set()
    for line in artifacts.read_text(path).splitlines():
        term = line.strip()
        if term and not term.startswith("#"):
            terms.add(_normalize(term))
    return frozenset(terms)


@dataclass(frozen=True, eq=False)
class TermCounts:
    """Per-document counts of every distinct token of a tokenized corpus.

    One row per stream (``doc_ids``), one column per distinct token
    (``column`` maps token -> column, in order of first appearance), and
    ``matrix``, the int64 CSR counts in canonical form (sorted, summed
    indices), so every column holds at least one occurrence.
    """

    doc_ids: tuple[str, ...]
    column: dict[str, int]
    matrix: sparse.csr_matrix

    @cached_property
    def totals(self) -> np.ndarray:
        """Corpus-wide count of each column (column sums)."""
        return np.asarray(self.matrix.sum(axis=0)).ravel()

    @cached_property
    def doc_frequency(self) -> np.ndarray:
        """Number of documents holding each column (column nnz)."""
        return np.bincount(self.matrix.indices, minlength=len(self.column))


#: Streams that :func:`count_terms` maps to columns and counts at a time.
_BLOCK_STREAMS = 1024


def count_terms(streams: Sequence[TokenStream]) -> TermCounts:
    """The one counting pass over the tokens: every distinct token's column
    (in order of first appearance) and its count in each stream, one row
    per stream.

    The streams are counted ``_BLOCK_STREAMS`` at a time, so no array holds
    an entry per token of the corpus: a block's tokens become int32 column
    ids, sorted and summed per stream, and the row pointers are filled as
    each block is counted. The blocks' distinct ids and counts are
    concatenated once, into the matrix's int32 indices and int64 data."""
    from scipy import sparse

    column: dict[str, int] = defaultdict(itertools.count().__next__)
    indices, data = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    indptr = np.zeros(len(streams) + 1, np.int32)
    for start in range(0, len(streams), _BLOCK_STREAMS):
        block = streams[start : start + _BLOCK_STREAMS]
        lengths = [len(s.tokens) for s in block]
        tokens = itertools.chain.from_iterable(s.tokens for s in block)
        ids = np.fromiter(map(column.__getitem__, tokens), np.int32, sum(lengths))
        # One int64 key per token, its stream's row above its column, so the
        # sorted distinct keys are the block's rows in canonical CSR order.
        rows = np.repeat(np.arange(len(block), dtype=np.int64), lengths)
        keys, counts = np.unique((rows << 32) | ids, return_counts=True)
        indices.append((keys & 0xFFFFFFFF).astype(np.int32))
        data.append(counts.astype(np.int32))
        row_nnz = np.bincount(keys >> 32, minlength=len(block))
        indptr[start + 1 : start + len(block) + 1] = indptr[start] + np.cumsum(row_nnz)
    matrix = sparse.csr_matrix(
        (np.concatenate(data, dtype=np.int64), np.concatenate(indices), indptr),
        shape=(len(streams), len(column)),
    )
    return TermCounts(tuple(s.doc_id for s in streams), dict(column), matrix)


def auto_stop_terms(counts: TermCounts, max_doc_fraction: float) -> frozenset[str]:
    """Terms whose document frequency exceeds ``max_doc_fraction`` of the
    documents; used to optionally extend the stoplist."""
    if not 0.0 < max_doc_fraction <= 1.0:
        raise ValidationError(
            f"max_doc_fraction must be in (0, 1], got {max_doc_fraction}"
        )
    n = len(counts.doc_ids)
    if n == 0:
        return frozenset()
    frequent = counts.doc_frequency / n > max_doc_fraction
    return frozenset(t for t, j in counts.column.items() if frequent[j])


def remove_stopwords(
    stream: TokenStream, stoplist: frozenset[str] | set[str]
) -> TokenStream:
    """Drop stoplisted tokens, preserving the order of survivors.

    Idempotent: a second pass with the same list changes nothing. The
    pipeline does not call it: ``build_vocabulary`` skips stoplisted
    columns of the counts instead.
    """
    return TokenStream(
        stream.doc_id, tuple(t for t in stream.tokens if t not in stoplist)
    )


@dataclass(frozen=True)
class UniquenessStats:
    """Per-document token statistics averaged over a corpus."""

    mean_tokens: float
    mean_unique: float
    unique_ratio: float  # mean of per-document unique/total ratios

    @property
    def ratio_of_means(self) -> float:
        return self.mean_unique / self.mean_tokens


def uniqueness_stats(counts: TermCounts) -> UniquenessStats:
    """Mean token count, mean distinct-term count and the mean per-document
    unique/total ratio. Zero-token documents count toward the means but are
    excluded from the ratio mean (their ratio is undefined)."""
    n = len(counts.doc_ids)
    if n == 0:
        raise UndefinedStatisticError("no token streams given")
    totals = np.asarray(counts.matrix.sum(axis=1)).ravel().tolist()
    uniques = np.diff(counts.matrix.indptr).tolist()
    ratios = [u / t for u, t in zip(uniques, totals) if t > 0]
    if not ratios:
        raise UndefinedStatisticError("every token stream is empty")
    return UniquenessStats(
        mean_tokens=sum(totals) / n,
        mean_unique=sum(uniques) / n,
        unique_ratio=sum(ratios) / len(ratios),
    )


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Corpus vocabulary, ordered by descending total frequency then term."""

    terms: tuple[str, ...]
    doc_frequency: dict[str, int]
    total_frequency: dict[str, int]

    @cached_property
    def index(self) -> dict[str, int]:
        """Term -> column position in ``terms``, built once on first use."""
        return {t: i for i, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)


def build_vocabulary(
    counts: TermCounts,
    min_total_frequency: int = DEFAULT_MIN_TERM_FREQUENCY,
    stoplist: frozenset[str] | set[str] = frozenset(),
) -> Vocabulary:
    """Collect every term outside ``stoplist`` whose corpus-wide count
    reaches the threshold."""
    if min_total_frequency < 1:
        raise ValidationError(
            f"min_total_frequency must be >= 1, got {min_total_frequency}"
        )
    totals = counts.totals.tolist()
    df = counts.doc_frequency.tolist()
    kept = [
        (t, j) for t, j in counts.column.items()
        if totals[j] >= min_total_frequency and t not in stoplist
    ]
    if not kept:
        raise ConfigError(
            f"vocabulary is empty at min_total_frequency={min_total_frequency}"
        )
    kept.sort(key=lambda tj: (-totals[tj[1]], tj[0]))
    return Vocabulary(
        terms=tuple(t for t, _ in kept),
        doc_frequency={t: df[j] for t, j in kept},
        total_frequency={t: totals[j] for t, j in kept},
    )


def _subset_vocabulary(vocab: Vocabulary, keep: Sequence[str]) -> Vocabulary:
    """Restrict a vocabulary to ``keep`` (order preserved, stats carried)."""
    return Vocabulary(
        terms=tuple(keep),
        doc_frequency={t: vocab.doc_frequency[t] for t in keep},
        total_frequency={t: vocab.total_frequency[t] for t in keep},
    )


@dataclass(frozen=True, eq=False)
class DocTermMatrix:
    """Sparse counts with marginals; rows are documents, columns terms.

    The marginals and the grand total are the sums of ``counts``, computed
    once on first use. ``build_dtm`` guarantees that no row or column is
    all zero.
    """

    rows: tuple[str, ...]
    vocabulary: Vocabulary
    counts: sparse.csr_matrix
    pruned_rows: tuple[str, ...] = ()
    pruned_terms: tuple[str, ...] = ()

    @property
    def terms(self) -> tuple[str, ...]:
        return self.vocabulary.terms

    @cached_property
    def row_margins(self) -> np.ndarray:
        return np.asarray(self.counts.sum(axis=1)).ravel()

    @cached_property
    def col_margins(self) -> np.ndarray:
        return np.asarray(self.counts.sum(axis=0)).ravel()

    @cached_property
    def grand_total(self) -> int:
        return int(self.counts.sum())

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape


def build_dtm(counts: TermCounts, vocab: Vocabulary) -> DocTermMatrix:
    """Select the vocabulary's columns of the counts.

    Documents whose row comes out all zero (every token out of vocabulary)
    are pruned and reported in ``pruned_rows``; vocabulary terms absent
    from every document are likewise pruned into ``pruned_terms`` so the
    matrix never carries an all-zero row or column.
    """
    if len(vocab) == 0:
        raise ValidationError("vocabulary is empty")
    column = counts.column
    kept_terms = [t for t in vocab.terms if t in column]
    matrix = counts.matrix[:, [column[t] for t in kept_terms]]
    nonempty = np.diff(matrix.indptr) > 0
    if not nonempty.any():
        raise EmptyMatrixError("every document row was pruned (all tokens OOV)")
    matrix = matrix[nonempty]
    matrix.sort_indices()
    pruned_terms = tuple(t for t in vocab.terms if t not in column)
    if pruned_terms:
        vocab = _subset_vocabulary(vocab, kept_terms)
    return DocTermMatrix(
        rows=tuple(d for d, k in zip(counts.doc_ids, nonempty) if k),
        vocabulary=vocab,
        counts=matrix,
        pruned_rows=tuple(d for d, k in zip(counts.doc_ids, nonempty) if not k),
        pruned_terms=pruned_terms,
    )


class WeightScheme(str, Enum):
    RELATIVE_FREQUENCY = "relative-frequency"
    TF_IDF = "tf-idf"
    ENTROPY = "entropy"


def weight_matrix(dtm: DocTermMatrix, scheme: WeightScheme) -> sparse.csr_matrix:
    """Apply a weighting scheme to the counts: a real-valued matrix with the
    DTM's shape, its rows (``dtm.rows``) and its columns (``dtm.terms``).

    relative-frequency : f_ij / f_i. (each row sums to 1)
    tf-idf             : (f_ij / f_i.) * ln(N / df_j)
    entropy            : ln(1 + f_ij) * (1 + sum_i(p_ij ln p_ij) / ln N)
                         with p_ij = f_ij / f_.j and 0 ln 0 = 0

    The sparsity pattern is preserved or shrunk (weights may reach zero,
    e.g. a term present in every document under tf-idf, and a zero weight
    is not stored), never grown. A
    term with the same count in all N documents has entropy exactly ln N,
    so its entropy factor is set to exactly 0 rather than left to rounding.
    """
    from scipy import sparse

    scheme = WeightScheme(scheme)
    coo = dtm.counts.tocoo()
    f = coo.data.astype(np.float64)
    ri, cj = coo.row, coo.col
    n_rows = len(dtm.rows)
    df = np.bincount(cj, minlength=len(dtm.terms))

    if scheme is WeightScheme.RELATIVE_FREQUENCY:
        vals = f / dtm.row_margins[ri]
    elif scheme is WeightScheme.TF_IDF:
        if n_rows == 1:
            raise DegenerateCorpusError("tf-idf is undefined for a single document")
        vals = (f / dtm.row_margins[ri]) * np.log(n_rows / df[cj])
    else:
        if n_rows == 1:
            raise DegenerateCorpusError("entropy weighting is undefined for a single document")
        p = f / dtm.col_margins[cj]
        ent = np.zeros(len(dtm.terms))
        np.add.at(ent, cj, p * np.log(p))
        factor = np.maximum(1.0 + ent / np.log(n_rows), 0.0)
        fmax = np.zeros(len(dtm.terms))
        np.maximum.at(fmax, cj, f)
        factor[(df == n_rows) & (dtm.col_margins == n_rows * fmax)] = 0.0
        vals = np.log1p(f) * factor[cj]

    values = sparse.csr_matrix((vals, (ri, cj)), shape=dtm.counts.shape)
    values.eliminate_zeros()
    return values


# ---------------------------------------------------------------------------
# On-disk formats (TSV, documented in the README)
# ---------------------------------------------------------------------------


_VOCABULARY_COLUMNS = (("term", str), ("total_frequency", int), ("doc_frequency", int))


def write_vocabulary_tsv(vocab: Vocabulary, dest: str | Path) -> None:
    totals, dfs = vocab.total_frequency, vocab.doc_frequency
    values = [vocab.terms, [totals[t] for t in vocab.terms], [dfs[t] for t in vocab.terms]]
    artifacts.write_tsv(dest, _VOCABULARY_COLUMNS, values)


def read_vocabulary_tsv(src: str | Path) -> Vocabulary:
    terms, totals, dfs = artifacts.read_tsv(src, _VOCABULARY_COLUMNS)
    return Vocabulary(
        terms=tuple(terms),
        doc_frequency=dict(zip(terms, dfs)),
        total_frequency=dict(zip(terms, totals)),
    )


def _counts_columns(value_name: str) -> artifacts.Columns:
    """``dtm.tsv`` holds integer counts, ``weighted.tsv`` float weights."""
    return (("doc_id", str), ("term", str), (value_name, int if value_name == "count" else float))


def write_counts_tsv(
    rows: Sequence[str],
    terms: Sequence[str],
    matrix: sparse.spmatrix,
    dest: str | Path,
    value_name: str = "count",
) -> None:
    """Sparse triplet dump (doc_id, term, value), row-major order."""
    from scipy import sparse

    csr = sparse.csr_matrix(matrix)
    csr.sort_indices()
    doc_ids = np.repeat(np.asarray(rows, dtype=object), np.diff(csr.indptr))
    cell_terms = np.asarray(terms, dtype=object)[csr.indices]
    artifacts.write_tsv(dest, _counts_columns(value_name), [doc_ids, cell_terms, csr.data])


def read_counts_tsv(src: str | Path) -> tuple[list[str], list[list]]:
    """Read a count triplet dump (``dtm.tsv``); returns (row ids in
    first-appearance order, the doc_id, term and count columns in file
    order, so triplet k is on line k + 2)."""
    triplets = artifacts.read_tsv(src, _counts_columns("count"))
    return list(dict.fromkeys(triplets[0])), triplets


def dtm_from_triplets(
    rows: Sequence[str],
    vocab: Vocabulary,
    triplets: Sequence[Sequence],
    source: str | Path = "dtm.tsv",
) -> DocTermMatrix:
    """Rebuild a DocTermMatrix from the doc_id, term and integer count
    columns of a triplet dump and its vocabulary.

    A term missing from the vocabulary raises :class:`DependencyError`
    naming ``source`` and the line of the offending triplet (triplet k is
    on line k + 2, under the header).
    """
    from scipy import sparse

    doc_ids, terms, counts = triplets
    row_index = {r: i for i, r in enumerate(rows)}
    n = len(doc_ids)
    ris = np.fromiter(map(row_index.__getitem__, doc_ids), np.int64, n)
    cjs = np.fromiter((vocab.index.get(t, -1) for t in terms), np.int64, n)
    if (cjs < 0).any():
        k = int(np.argmax(cjs < 0))
        raise DependencyError(
            f"malformed artifact {source}: line {k + 2}: "
            f"term {terms[k]!r} is not in the vocabulary"
        )
    matrix = sparse.csr_matrix(
        (np.asarray(counts, dtype=np.int64), (ris, cjs)), shape=(len(rows), len(vocab))
    )
    return DocTermMatrix(rows=tuple(rows), vocabulary=vocab, counts=matrix)


def group_sum(counts: sparse.csr_matrix, group_index: Sequence[int], n_groups: int) -> np.ndarray:
    """Dense float64 (n_groups, n_cols) sums of the rows of the CSR matrix
    ``counts``: row i is added into row ``group_index[i]``, and each cell
    adds its rows in row order. Sums of integer counts are exact."""
    n_cols = counts.shape[1]
    groups = np.repeat(np.asarray(group_index, dtype=np.int64), np.diff(counts.indptr))
    cells = np.bincount(
        groups * n_cols + counts.indices, weights=counts.data, minlength=n_groups * n_cols
    )
    return cells.reshape(n_groups, n_cols)
