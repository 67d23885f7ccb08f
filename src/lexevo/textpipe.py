"""Abstract text processing: tokens, stopwords, vocabulary and the
sparse document-term matrix, plus the pluggable weighting schemes.

``tokenize_documents`` holds no tokens: it tokenizes an abstract each time
its stream is read. The streams are counted once, by ``count_terms``: it
gives every distinct token an integer column, in order of first
appearance, and builds the per-document counts, a :class:`TermCounts`,
reading a block of streams at a time, so neither the streams nor an array
with an entry per token of the corpus is ever held. ``merge_counts`` stacks
the counts of consecutive ranges of streams into the counts of all of them.
Every later step reads those counts instead of the tokens:
``auto_stop_terms`` reads document frequencies (column nnz),
``build_vocabulary`` reads totals and document frequencies (column sums and
nnz) and skips stoplisted columns, ``build_dtm`` selects the vocabulary's
columns and prunes the rows left empty, and ``uniqueness_stats`` reads token
and distinct-term counts (row sums and row nnz). The built structures are
immutable and safe to share.

Counts and weights are held as one kind of sparse matrix from tokens to
artifacts: a :class:`Csr`, NumPy arrays in canonical compressed-sparse-row
form (int32 row pointers and column indices, int64 counts or float64
weights). Its attribute names match SciPy's ``csr_matrix``, so
``group_sum`` and ``write_counts_tsv`` take either. SciPy is imported only
to wrap those arrays, without a copy, in a ``csr_matrix`` for a caller that
asks for one: ``TermCounts.matrix``, ``DocTermMatrix.counts`` and
``weight_matrix``. Correspondence analysis does; ``lexevo ingest`` and
``lexevo periods`` never do, and start without SciPy.
"""

from __future__ import annotations

import itertools
import re
import unicodedata
from array import array
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import artifacts
from .corpus import Corpus, Document
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
    "Csr",
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
    "merge_counts",
    "auto_stop_terms",
    "remove_stopwords",
    "uniqueness_stats",
    "build_vocabulary",
    "build_dtm",
    "weight_arrays",
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
    runs = _RUN.findall(_normalize(text))
    if "".join(runs).isalpha():  # the common case: every run is all letters
        return [run for run in runs if len(run) >= min_len]
    out: list[str] = []
    for run in runs:
        if run.isalpha():
            if len(run) >= min_len:
                out.append(run)
        else:
            out.extend(f for f in _letter_fragments(run) if len(f) >= min_len)
    return out


class _Streams(Sequence[TokenStream]):
    """The token streams of documents, each tokenized when it is read: a
    slice is the streams of a slice of the documents, and no stream is
    kept."""

    def __init__(self, documents: Sequence[Document], min_len: int) -> None:
        self._documents, self._min_len = documents, min_len

    def __len__(self) -> int:
        return len(self._documents)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Streams(self._documents[i], self._min_len)
        return self._stream(self._documents[i])

    def __iter__(self) -> Iterator[TokenStream]:
        return map(self._stream, self._documents)

    def _stream(self, doc: Document) -> TokenStream:
        return TokenStream(doc.id, tuple(tokenize(doc.abstract, self._min_len)))


def tokenize_documents(
    corpus: Corpus, min_len: int = DEFAULT_MIN_TOKEN_LEN
) -> Sequence[TokenStream]:
    """The token stream of every abstract of the corpus, in corpus order.

    The streams are read, not held: each read of a stream tokenizes its
    abstract again, so iterating them holds one stream at a time."""
    return _Streams(corpus.documents, min_len)


def load_stoplist(path: str | Path) -> frozenset[str]:
    """Read a stoplist file: UTF-8, one term per line, ``#`` comments. Each
    term is normalized like a token, so an NFD entry stops the NFC token."""
    terms: set[str] = set()
    for line in artifacts.read_text(path).splitlines():
        term = line.strip()
        if term and not term.startswith("#"):
            terms.add(_normalize(term))
    return frozenset(terms)


class Csr(NamedTuple):
    """A sparse matrix as NumPy arrays in canonical CSR form: row i holds
    the columns ``indices[indptr[i]:indptr[i + 1]]``, ascending and
    distinct, and their values at the same positions of ``data``.

    ``indptr`` and ``indices`` are int32, ``data`` int64 counts or float64
    weights, the dtypes SciPy gives such a matrix, so the SciPy view of the
    arrays (``_csr_matrix``) copies none of them.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def sums(self, axis: int) -> np.ndarray:
        """Exact int64 sums of integer data down each column (``axis=0``)
        or along each row (``axis=1``), with no array as long as the data."""
        sums = np.zeros(self.shape[1 - axis], np.int64)
        if axis == 0:
            np.add.at(sums, self.indices, self.data)
        else:
            # Each non-empty row's cells run up to the next non-empty row's.
            filled = np.diff(self.indptr) > 0
            if filled.any():
                sums[filled] = np.add.reduceat(self.data, self.indptr[:-1][filled])
        return sums


def _csr_matrix(csr: Csr) -> sparse.csr_matrix:
    """A SciPy ``csr_matrix`` over the arrays of ``csr``, not a copy."""
    from scipy import sparse

    return sparse.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape, copy=False)


@dataclass(frozen=True, eq=False)
class TermCounts:
    """Per-document counts of every distinct token of a tokenized corpus.

    One row per stream (``doc_ids``), one column per distinct token
    (``column`` maps token -> column, in order of first appearance), and
    ``csr``, the int64 counts, so every column holds at least one
    occurrence.
    """

    doc_ids: tuple[str, ...]
    column: dict[str, int]
    csr: Csr

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """The counts as a SciPy matrix, built on first use."""
        return _csr_matrix(self.csr)

    @cached_property
    def totals(self) -> np.ndarray:
        """Corpus-wide count of each column (column sums)."""
        return self.csr.sums(axis=0)

    @cached_property
    def doc_frequency(self) -> np.ndarray:
        """Number of documents holding each column (column nnz)."""
        return np.bincount(self.csr.indices, minlength=len(self.column))


#: Streams that :func:`count_terms` counts at a time, and rows of their
#: counts that :func:`build_dtm` selects from at a time.
_BLOCK_STREAMS = 1024


def count_terms(streams: Iterable[TokenStream]) -> TermCounts:
    """The one counting pass over the tokens: every distinct token's column
    (in order of first appearance) and its count in each stream, one row
    per stream.

    Each stream's tokens become int32 column ids, one dict lookup each, as
    the stream is read, so no stream is held beyond its turn. The ids of
    ``_BLOCK_STREAMS`` streams at a time are sorted and summed per stream,
    so no array holds an entry per token of the corpus. The blocks'
    distinct ids, counts and row lengths are concatenated once, into the
    int32 indices, int64 data and int32 row pointers."""
    column: dict[str, int] = defaultdict(itertools.count().__next__)
    doc_ids: list[str] = []
    indices, data = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    row_nnz = [np.empty(0, np.int64)]
    streams = iter(streams)
    while True:
        ids, lengths = array("i"), []
        for stream in itertools.islice(streams, _BLOCK_STREAMS):
            doc_ids.append(stream.doc_id)
            lengths.append(len(stream.tokens))
            ids.extend(map(column.__getitem__, stream.tokens))
        if not lengths:
            break
        # One int64 key per token, its stream's row above its column, so the
        # sorted distinct keys are the block's rows in canonical CSR order.
        rows = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
        keys, counts = np.unique((rows << 32) | np.frombuffer(ids, np.intc), return_counts=True)
        indices.append((keys & 0xFFFFFFFF).astype(np.int32))
        data.append(counts.astype(np.int32))
        row_nnz.append(np.bincount(keys >> 32, minlength=len(lengths)))
    indptr = np.zeros(len(doc_ids) + 1, np.int32)
    np.cumsum(np.concatenate(row_nnz), out=indptr[1:])
    csr = Csr(
        indptr,
        np.concatenate(indices),
        np.concatenate(data, dtype=np.int64),
        (len(doc_ids), len(column)),
    )
    return TermCounts(tuple(doc_ids), dict(column), csr)


def merge_counts(parts: Sequence[TermCounts]) -> TermCounts:
    """The counts of the parts' streams taken in order, exactly as
    :func:`count_terms` gives them for all those streams at once.

    A token keeps its column when an earlier part has it and gets the next
    new column otherwise, so the columns stay in order of first appearance.
    Each part's cells are copied into the merged arrays through that map,
    and where it reorders a part's columns, the part's rows are re-sorted
    by column ``_BLOCK_STREAMS`` rows at a time."""
    column: dict[str, int] = {}
    n_rows = sum(part.csr.shape[0] for part in parts)
    indptr = np.zeros(n_rows + 1, np.int32)
    indices = np.empty(sum(part.csr.indices.size for part in parts), np.int32)
    data = np.empty(indices.size, np.int64)
    row = cell = 0
    for part in parts:
        csr = part.csr
        remap = np.fromiter(
            (column.setdefault(t, len(column)) for t in part.column), np.int32, len(part.column)
        )
        cells = slice(cell, cell + csr.indices.size)
        np.take(remap, csr.indices, out=indices[cells])
        data[cells] = csr.data
        if (remap[1:] < remap[:-1]).any():
            for start in range(0, csr.shape[0], _BLOCK_STREAMS):
                ptr = csr.indptr[start : start + _BLOCK_STREAMS + 1] + cell
                block = slice(ptr[0], ptr[-1])
                rows = np.repeat(np.arange(ptr.size - 1, dtype=np.int64), np.diff(ptr))
                order = np.argsort((rows << 32) | indices[block])
                indices[block] = indices[block][order]
                data[block] = data[block][order]
        indptr[row + 1 : row + 1 + csr.shape[0]] = csr.indptr[1:] + cell
        row, cell = row + csr.shape[0], cells.stop
    doc_ids = tuple(itertools.chain.from_iterable(part.doc_ids for part in parts))
    return TermCounts(doc_ids, column, Csr(indptr, indices, data, (n_rows, len(column))))


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
    totals = counts.csr.sums(axis=1).tolist()
    uniques = np.diff(counts.csr.indptr).tolist()
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

    ``csr`` holds the int64 counts. The marginals and the grand total are
    their sums, and ``counts`` their SciPy matrix, each computed once on
    first use. ``build_dtm`` guarantees that no row or column is all zero.
    """

    rows: tuple[str, ...]
    vocabulary: Vocabulary
    csr: Csr
    pruned_rows: tuple[str, ...] = ()
    pruned_terms: tuple[str, ...] = ()

    @property
    def terms(self) -> tuple[str, ...]:
        return self.vocabulary.terms

    @cached_property
    def counts(self) -> sparse.csr_matrix:
        """The counts as a SciPy matrix, built on first use."""
        return _csr_matrix(self.csr)

    @cached_property
    def row_margins(self) -> np.ndarray:
        return self.csr.sums(axis=1)

    @cached_property
    def col_margins(self) -> np.ndarray:
        return self.csr.sums(axis=0)

    @cached_property
    def grand_total(self) -> int:
        return int(self.csr.data.sum())

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape


def build_dtm(counts: TermCounts, vocab: Vocabulary) -> DocTermMatrix:
    """Select the vocabulary's columns of the counts.

    Documents whose row comes out all zero (every token out of vocabulary)
    are pruned and reported in ``pruned_rows``; vocabulary terms absent
    from every document are likewise pruned into ``pruned_terms`` so the
    matrix never carries an all-zero row or column.

    Each count column maps to its vocabulary position through one int64
    lookup array (-1 for a column outside the vocabulary). The rows are
    read ``_BLOCK_STREAMS`` at a time, so no temporary array is as long as
    the counts: a block's kept cells, keyed ``row << 32 | col``, are sorted
    into canonical order and copied into the matrix, whose size the kept
    columns' document frequencies give beforehand.
    """
    if len(vocab) == 0:
        raise ValidationError("vocabulary is empty")
    column, csr = counts.column, counts.csr
    kept_terms = [t for t in vocab.terms if t in column]
    kept_columns = np.fromiter(map(column.__getitem__, kept_terms), np.int64, len(kept_terms))
    position = np.full(csr.shape[1], -1, np.int64)
    position[kept_columns] = np.arange(len(kept_terms))
    indices = np.empty(int(counts.doc_frequency[kept_columns].sum()), np.int32)
    data = np.empty(indices.size, np.int64)
    row_nnz = np.zeros(csr.shape[0], np.int64)
    filled = 0
    for start in range(0, csr.shape[0], _BLOCK_STREAMS):
        ptr = csr.indptr[start : start + _BLOCK_STREAMS + 1]
        cols = position[csr.indices[ptr[0] : ptr[-1]]]
        kept = cols >= 0
        rows = np.repeat(np.arange(ptr.size - 1, dtype=np.int64), np.diff(ptr))[kept]
        cols = cols[kept]
        order = np.argsort((rows << 32) | cols)
        indices[filled : filled + order.size] = cols[order]
        data[filled : filled + order.size] = csr.data[ptr[0] : ptr[-1]][kept][order]
        filled += order.size
        row_nnz[start : start + ptr.size - 1] = np.bincount(rows, minlength=ptr.size - 1)
    nonempty = row_nnz > 0
    if not nonempty.any():
        raise EmptyMatrixError("every document row was pruned (all tokens OOV)")
    indptr = np.zeros(int(nonempty.sum()) + 1, np.int32)
    np.cumsum(row_nnz[nonempty], out=indptr[1:])
    pruned_terms = tuple(t for t in vocab.terms if t not in column)
    if pruned_terms:
        vocab = _subset_vocabulary(vocab, kept_terms)
    return DocTermMatrix(
        rows=tuple(d for d, k in zip(counts.doc_ids, nonempty) if k),
        vocabulary=vocab,
        csr=Csr(indptr, indices, data, (indptr.size - 1, len(kept_terms))),
        pruned_rows=tuple(d for d, k in zip(counts.doc_ids, nonempty) if not k),
        pruned_terms=pruned_terms,
    )


class WeightScheme(str, Enum):
    RELATIVE_FREQUENCY = "relative-frequency"
    TF_IDF = "tf-idf"
    ENTROPY = "entropy"


def weight_arrays(dtm: DocTermMatrix, scheme: WeightScheme | str) -> Csr:
    """Apply a weighting scheme to the counts: float64 weights with the
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
    scheme = WeightScheme(scheme)
    csr = dtm.csr
    f = csr.data.astype(np.float64)
    n_rows = len(dtm.rows)
    ri = np.repeat(np.arange(n_rows, dtype=np.int32), np.diff(csr.indptr))
    cj = csr.indices
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

    stored = vals != 0
    indptr = np.zeros_like(csr.indptr)
    np.cumsum(np.bincount(ri[stored], minlength=n_rows), out=indptr[1:])
    return Csr(indptr, cj[stored], vals[stored], csr.shape)


def weight_matrix(dtm: DocTermMatrix, scheme: WeightScheme | str) -> sparse.csr_matrix:
    """The weights of :func:`weight_arrays` as a SciPy matrix."""
    return _csr_matrix(weight_arrays(dtm, scheme))


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
    matrix: Csr | sparse.csr_matrix,
    dest: str | Path,
    value_name: str = "count",
) -> None:
    """Sparse triplet dump (doc_id, term, value), row-major order, of a
    CSR matrix with sorted indices: a :class:`Csr` or a SciPy one."""
    doc_ids = np.repeat(np.asarray(rows, dtype=object), np.diff(matrix.indptr))
    cell_terms = np.asarray(terms, dtype=object)[matrix.indices]
    artifacts.write_tsv(dest, _counts_columns(value_name), [doc_ids, cell_terms, matrix.data])


def _run_starts(doc_ids: Sequence[str]) -> np.ndarray:
    """Index of the first triplet of each run of equal consecutive doc ids."""
    ids = np.asarray(doc_ids, dtype=object)
    new = np.ones(len(ids), dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    return np.flatnonzero(new)


def read_counts_tsv(src: str | Path) -> tuple[list[str], list[list]]:
    """Read a count triplet dump (``dtm.tsv``); returns (row ids in
    first-appearance order, the doc_id, term and count columns in file
    order, so triplet k is on line k + 2). A row's triplets are on
    consecutive lines, so the row ids are read once per run of lines."""
    triplets = artifacts.read_tsv(src, _counts_columns("count"))
    doc_ids = triplets[0]
    return list(dict.fromkeys(doc_ids[k] for k in _run_starts(doc_ids).tolist())), triplets


def dtm_from_triplets(
    rows: Sequence[str],
    vocab: Vocabulary,
    triplets: Sequence[Sequence],
    source: str | Path = "dtm.tsv",
) -> DocTermMatrix:
    """Rebuild a DocTermMatrix from the doc_id, term and integer count
    columns of a triplet dump and its vocabulary; ``rows`` labels the
    matrix rows, in order, and may name rows without a triplet.

    Each run of consecutive triplets with one doc_id is a row. Its terms
    map to int32 columns through ``vocab.index``, and its cells are sorted
    by column. The writer never produces any of these, each a
    :class:`DependencyError` naming ``source`` and the line of the
    offending triplet (triplet k is on line k + 2, under the header):

    - a term missing from the vocabulary;
    - a row whose triplets resume after another row's;
    - a (row, term) pair on two lines (the error names the later one).
    """
    doc_ids, terms, counts = triplets
    n = len(doc_ids)
    starts = _run_starts(doc_ids).tolist()
    run_ids = [doc_ids[k] for k in starts]
    if len(set(run_ids)) < len(run_ids):
        seen: set[str] = set()
        k = next(k for k, r in zip(starts, run_ids) if r in seen or seen.add(r))
        raise DependencyError(
            f"malformed artifact {source}: line {k + 2}: "
            f"row {doc_ids[k]!r} resumes after another row's lines"
        )
    index = vocab.index
    cols = np.fromiter(map(index.get, terms, itertools.repeat(-1)), np.int32, n)
    if (cols < 0).any():
        k = int(np.argmax(cols < 0))
        raise DependencyError(
            f"malformed artifact {source}: line {k + 2}: "
            f"term {terms[k]!r} is not in the vocabulary"
        )
    row_index = {r: i for i, r in enumerate(rows)}
    run_rows = np.fromiter(map(row_index.__getitem__, run_ids), np.int64, len(run_ids))
    keys = (np.repeat(run_rows, np.diff(starts + [n])) << 32) | cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeated = np.flatnonzero(keys[1:] == keys[:-1])
    if repeated.size:
        k = int(order[repeated + 1].min())
        raise DependencyError(
            f"malformed artifact {source}: line {k + 2}: "
            f"row {doc_ids[k]!r} holds term {terms[k]!r} on an earlier line too"
        )
    indptr = np.zeros(len(rows) + 1, np.int32)
    np.cumsum(np.bincount(keys >> 32, minlength=len(rows)), out=indptr[1:])
    csr = Csr(
        indptr,
        (keys & 0xFFFFFFFF).astype(np.int32),
        np.asarray(counts, dtype=np.int64)[order],
        (len(rows), len(vocab)),
    )
    return DocTermMatrix(rows=tuple(rows), vocabulary=vocab, csr=csr)


def group_sum(
    counts: Csr | sparse.csr_matrix, group_index: Sequence[int], n_groups: int
) -> np.ndarray:
    """Dense float64 (n_groups, n_cols) sums of the rows of the CSR matrix
    ``counts``, a :class:`Csr` or a SciPy one: row i is added into row
    ``group_index[i]``, and each cell adds its rows in row order. Sums of
    integer counts are exact."""
    n_cols = counts.shape[1]
    groups = np.repeat(np.asarray(group_index, dtype=np.int64), np.diff(counts.indptr))
    cells = np.bincount(
        groups * n_cols + counts.indices, weights=counts.data, minlength=n_groups * n_cols
    )
    return cells.reshape(n_groups, n_cols)
