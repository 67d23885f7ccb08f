import itertools
import math
import tracemalloc
import unicodedata
from collections import Counter

import numpy as np
import pytest
from scipy import sparse
from hypothesis import example, given, settings, strategies as st

import oracles
from lexevo import artifacts, textpipe
from lexevo.corpus import Corpus, DocType, Document, FilterReport
from lexevo.errors import (
    ConfigError,
    DegenerateCorpusError,
    DependencyError,
    EmptyMatrixError,
    UndefinedStatisticError,
    ValidationError,
)
from lexevo.stopwords import ENGLISH_STOPWORDS
from lexevo.textpipe import (
    Csr,
    DocTermMatrix,
    TokenStream,
    UniquenessStats,
    Vocabulary,
    WeightScheme,
    auto_stop_terms,
    build_dtm,
    build_vocabulary,
    count_terms,
    dtm_from_triplets,
    group_sum,
    load_stoplist,
    merge_counts,
    read_counts_tsv,
    read_vocabulary_tsv,
    remove_stopwords,
    tokenize,
    tokenize_documents,
    uniqueness_stats,
    weight_arrays,
    weight_matrix,
    write_counts_tsv,
    write_vocabulary_tsv,
)


def _streams(*token_lists):
    return [TokenStream(f"d{i}", tuple(ts)) for i, ts in enumerate(token_lists)]


def _counts(*token_lists):
    return count_terms(_streams(*token_lists))


def _dtm(*token_lists):
    counts = _counts(*token_lists)
    return build_dtm(counts, build_vocabulary(counts, 1))


# --- tokenization -----------------------------------------------------------


def test_tokenize_lowercases_and_splits_on_non_letters():
    assert tokenize("Big Data, 2023-era (clinical)!") == [
        "big", "data", "era", "clinical",
    ]


def test_tokenize_digits_and_underscores_break_tokens():
    assert tokenize("covid19 twenty_one x2y") == ["covid", "twenty", "one"]


def test_tokenize_keeps_accented_letters_together():
    assert tokenize("salud pública año") == ["salud", "pública", "año"]


def test_tokenize_composes_decomposed_accents():
    decomposed = unicodedata.normalize("NFD", "naïve salud pública")
    assert tokenize(decomposed) == ["naïve", "salud", "pública"]


@given(st.text(alphabet=st.one_of(st.sampled_from("naïveÉcoleñüÅç \u0301\u0308"), st.characters()),
               max_size=60))
def test_tokenize_ignores_the_normalization_form(text):
    nfc, nfd = unicodedata.normalize("NFC", text), unicodedata.normalize("NFD", text)
    assert tokenize(nfc) == tokenize(nfd)


def test_tokenize_keeps_combining_marks_with_their_letter():
    # lower() turns the dotted capital I into i + U+0307, which has no
    # composed form; the mark stays in the token instead of splitting it.
    assert tokenize("İstanbul") == ["i\u0307stanbul"]
    assert tokenize("q\u0303uark x\u0301y") == ["q\u0303uark", "x\u0301y"]
    assert tokenize("\u0301ab \u0301") == ["ab"]  # a mark with no letter separates


def _scanned_tokens(text: str, min_len: int = 2) -> list[str]:
    """Reference tokenizer, one code point at a time: a letter starts or
    extends a token, a combining mark extends one, anything else ends it."""
    tokens, current = [], ""
    for ch in unicodedata.normalize("NFC", text.lower()):
        if ch.isalpha() or (current and unicodedata.category(ch).startswith("M")):
            current += ch
        else:
            tokens.append(current)
            current = ""
    tokens.append(current)
    return [token for token in tokens if len(token) >= min_len]


# Letters, marks, numeric letters and separators on both sides of U+0300,
# in General Punctuation and in CJK Symbols and Punctuation.
_TRICKY = "İaé\u0301\u0307\u00b2\u2160_1 -\u2014\u2019\u2009\u3000\u3005\u302a"


@given(st.text(alphabet=st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=80))
def test_tokenize_matches_a_code_point_scan(text):
    assert tokenize(text) == _scanned_tokens(text)


@given(st.text(alphabet=st.one_of(st.sampled_from(_TRICKY + "ab \u0301\u00b9"), st.characters()),
               max_size=80), st.integers(1, 4))
@example("İstanbul", 2)
@example(unicodedata.normalize("NFD", "naïve año"), 2)
@example("covid19 x\u00b2y \u0301ab", 1)
def test_tokenize_takes_an_all_letter_document_whole_as_the_per_run_loop_would(text, min_len):
    assert tokenize(text, min_len) == oracles.per_run_tokenize(text, min_len)


def test_tokenize_min_length():
    assert tokenize("a of the be longer", min_len=3) == ["the", "longer"]
    assert tokenize("a b c", min_len=1) == ["a", "b", "c"]


def test_tokenize_empty_input():
    assert tokenize("") == []
    assert tokenize("123 --- _") == []


@given(st.text(max_size=200))
def test_tokenize_is_idempotent_on_its_own_output(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


# A capital and a mark that do not compose, while the lowercase letter and
# the same mark do: lowercasing after NFC would leave them decomposed.
_COMPOSE_ONCE_LOWERCASED = [
    "J\u030c", "T\u0308", "W\u030a", "Y\u030a", "H\u0331", "\u03aa\u0301", "\u03ab\u0301",
    "\u03aa\u0300", "\u03ab\u0342", "\u0391\u0342", "\u03a9\u0342", "\u03a1\u0313",
    "\u0386\u0345", "\u1fbc\u0301", "\u0130\u0327",
]


@pytest.mark.parametrize("pair", _COMPOSE_ONCE_LOWERCASED)
def test_both_spellings_of_a_lowercased_composition_give_one_token(pair):
    composed = unicodedata.normalize("NFC", pair.lower())
    assert composed != pair.lower()
    once = tokenize(pair + "unta")
    assert once == tokenize(composed + "unta") == [composed + "unta"]
    assert unicodedata.is_normalized("NFC", once[0])
    assert tokenize(" ".join(once)) == once


@given(st.text(max_size=200))
def test_tokens_are_normalized(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert unicodedata.is_normalized("NFC", token)
        assert len(token) >= 2
        assert token[0].isalpha()
        assert all(c.isalpha() or unicodedata.category(c).startswith("M") for c in token)


def _abstracts_corpus(abstracts):
    docs = tuple(
        Document(f"d{i}", "", text, (), 2020, DocType.ARTICLE, 0)
        for i, text in enumerate(abstracts)
    )
    return Corpus(docs, FilterReport(len(docs), 0, 0, len(docs)))


def test_tokenize_documents_tokenizes_each_abstract_when_its_stream_is_read(monkeypatch):
    corpus = _abstracts_corpus(["Alpha beta, ALPHA.", "beta gamma alpha", "Gamma"])
    calls = []
    monkeypatch.setattr(textpipe, "tokenize", lambda text, n: calls.append(text) or tokenize(text, n))
    streams = tokenize_documents(corpus)
    assert calls == []
    expected = [
        TokenStream("d0", ("alpha", "beta", "alpha")),
        TokenStream("d1", ("beta", "gamma", "alpha")),
        TokenStream("d2", ("gamma",)),
    ]
    assert len(streams) == 3
    assert list(streams) == list(streams) == expected
    assert len(calls) == 6
    assert list(streams[1:]) == expected[1:]
    assert streams[-1] == expected[-1]
    assert list(streams[5:]) == []


def test_tokenize_documents_holds_pointers_not_a_string_per_token():
    # 600 documents of 200 tokens drawn from eight words: a string per
    # occurrence costs about 60 bytes a token, a pointer 8.
    words = ["language", "evolution", "corpus", "abstract",
             "analysis", "lexical", "trend", "period"]
    abstracts = [
        " ".join(words[(i * 7 + j * 3) % len(words)] for j in range(200))
        for i in range(600)
    ]
    corpus = _abstracts_corpus(abstracts)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        streams = tokenize_documents(corpus)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_tokens = sum(len(s.tokens) for s in streams)
    assert n_tokens == 600 * 200
    assert grown / n_tokens < 16


# --- the Windows-1252 scan ---------------------------------------------------

#: The 251 characters Windows-1252 encodes: every byte but the five it
#: leaves undefined.
_CP1252 = [bytes([b]).decode("cp1252") for b in range(256) if b not in b"\x81\x8d\x8f\x90\x9d"]


def test_a_cp1252_text_normalizes_byte_by_byte():
    assert len(_CP1252) == 251
    for a in _CP1252:
        assert unicodedata.category(a)[0] != "M"
        assert unicodedata.is_normalized("NFC", a)
        assert all(unicodedata.is_normalized("NFC", a + b) for b in _CP1252)
        lower = a.lower()
        assert len(lower) == 1 and len(lower.encode("cp1252")) == 1
        byte = a.encode("cp1252")
        want = lower.encode("cp1252") if a.isalpha() else b" "
        assert byte.translate(textpipe._TABLE) == want, a
    for undefined in b"\x81\x8d\x8f\x90\x9d":
        assert textpipe._TABLE[undefined] == ord(" ")


def _maybe_nfd(text: str, nfd: bool) -> str:
    return unicodedata.normalize("NFD", text) if nfd else text


# Characters Windows-1252 lacks: a capital that lowercases to a letter and a
# mark, final sigma, a ligature, combining marks, the C1 controls cp1252
# leaves out or maps elsewhere, superscripts, the ideographic space, and
# symbols, among them two whose NFC holds a combining mark.
_NOT_CP1252 = (
    "İΣςﬁ\u0301\u0308\u0327\u0080\u0081\u008d\u008f\u0090\u009d\u2074\u207f\u3000"
    "≥\u2212→\u2adc\U0001d15e"
)
_MOSTLY_CP1252 = st.builds(
    _maybe_nfd, st.text(alphabet=st.sampled_from(_CP1252 * 4 + list(_NOT_CP1252)), max_size=80),
    st.booleans(),
)


@settings(max_examples=300)
@given(_MOSTLY_CP1252, st.integers(1, 4))
@example("ÀÉÎÕÜ ŠŒŽŸ ƒ ªº µ ß Ÿe", 1)
@example("naïve—“Œuvre” x²y 3€uro… TM™", 2)
@example("J\u030cunta AÑO", 2)
@example("p ≥ 0.5, \u22122 °C; a\u2adcb", 1)
def test_tokenize_scans_a_cp1252_text_as_the_per_run_loop_would(text, min_len):
    assert tokenize(text, min_len) == oracles.per_run_tokenize(text, min_len)


def test_only_a_letter_or_mark_cp1252_lacks_sends_a_text_to_the_regex():
    for text in ("p ≥ 0.5, \u22122 °C", "a → b \u3000 c\u2074", "x\u2adcy", ""):
        assert isinstance(textpipe._scan(text), bytes), text
    for text in ("α-helix", "Σ", "e\u0301", "≥ ﬁn", "İ"):
        assert isinstance(textpipe._scan(text), list), text


def test_a_character_cp1252_lacks_that_is_no_letter_or_mark_only_separates():
    """What lets ``_scan`` blank such a character in a text it scans as
    bytes: lowercased and composed, it holds no letter and starts with no
    mark, so it ends a token and the marks it may hold attach to nothing."""
    for code in range(0x110000):
        ch = chr(code)
        category = unicodedata.category(ch)
        if category in ("Cn", "Co", "Cs") or category[0] in "LM" or ch in _CP1252:
            continue
        normalized = unicodedata.normalize("NFC", ch.lower())
        assert not any(c.isalpha() for c in normalized), hex(code)
        assert unicodedata.category(normalized[0])[0] != "M", hex(code)


# Words in cp1252 and out of it, some shorter than every min_len drawn, and
# gaps that keep an abstract in cp1252 or take it out.
_WORDS = ["a", "I", "ab", "AB", "Año", "año", "été", "e\u0301te\u0301", "NAÏVE", "naïve", "Œuvre",
          "ﬁn", "İz", "Σοφία", "x²y", "€uro"]
_GAPS = [" ", ", ", " — ", "1", "\u3000", "\u0081", " → ", " ≥ ", "\u2212"]
_ABSTRACTS = st.lists(
    st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_GAPS)), max_size=8).map(
        lambda parts: "".join(word + gap for word, gap in parts)
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(_ABSTRACTS, st.integers(1, 4), st.integers(1, 5), st.lists(st.integers(0, 12), max_size=3))
@example([], 2, 1, [])  # no abstracts
@example(["", "a b", ""], 2, 2, [1])  # empty abstracts, and one of tokens below min_len only
@example(["Año → I", "AÑO año été"], 2, 1, [1])  # a word first seen where cp1252 does not reach
@example(["e\u0301te\u0301 ab", "ÉTÉ"], 3, 5, [])  # an NFD word, then its cp1252 spelling
def test_counting_the_abstracts_equals_counting_their_streams(abstracts, min_len, block, cuts):
    corpus = _abstracts_corpus(abstracts)
    streams = [
        TokenStream(doc.id, tuple(oracles.per_run_tokenize(doc.abstract, min_len)))
        for doc in corpus.documents
    ]
    column, expected = oracles.one_pass_count_terms(streams)
    lazy = tokenize_documents(corpus, min_len)
    bounds = [0, *sorted(min(c, len(lazy)) for c in cuts), len(lazy)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textpipe, "_BLOCK_STREAMS", block)
        whole = count_terms(lazy)
        merged = merge_counts([count_terms(lazy[a:b]) for a, b in zip(bounds, bounds[1:])])
    for counts in (whole, merged):
        assert list(counts.column.items()) == list(column.items())
        assert type(counts.column) is dict
        assert counts.doc_ids == tuple(s.doc_id for s in streams)
        matrix = counts.matrix
        assert matrix.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(matrix, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert matrix.has_canonical_format == expected.has_canonical_format


# --- stopwords --------------------------------------------------------------


def test_remove_stopwords_preserves_order():
    stream = TokenStream("d0", ("data", "the", "mining", "of", "data"))
    out = remove_stopwords(stream, frozenset({"the", "of"}))
    assert out.tokens == ("data", "mining", "data")
    assert out.doc_id == "d0"


@given(st.lists(st.sampled_from(["data", "the", "of", "mining", "care"]), max_size=30))
def test_remove_stopwords_is_idempotent(tokens):
    stoplist = frozenset({"the", "of"})
    stream = TokenStream("d", tuple(tokens))
    once = remove_stopwords(stream, stoplist)
    assert remove_stopwords(once, stoplist) == once


def test_load_stoplist_skips_comments_and_lowercases(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# comment\nThe\n\n  of  \n#another\nAND\n", encoding="utf-8")
    assert load_stoplist(path) == frozenset({"the", "of", "and"})


def test_a_byte_order_mark_is_not_part_of_the_first_stoplist_term(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_bytes(b"\xef\xbb\xbfthe\nof\n")
    assert load_stoplist(path) == frozenset({"the", "of"})


def test_stoplist_entries_are_normalized_like_tokens(tmp_path):
    # A decomposed (NFD) entry must stop the composed token that tokenize
    # makes of the same word, whichever form either side was written in.
    path = tmp_path / "stop.txt"
    entries = [unicodedata.normalize("NFD", "Naïve"), unicodedata.normalize("NFC", "CAFÉ")]
    path.write_text("\n".join(entries) + "\n", encoding="utf-8")
    stoplist = load_stoplist(path)
    text = unicodedata.normalize("NFD", "naïve café")
    assert [token in stoplist for token in tokenize(text)] == [True, True]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "ee", "ff"]), max_size=7),
             max_size=14),
    st.integers(1, 5),
)
@example([], 1)  # an empty corpus
@example([[], [], []], 2)  # streams without a token, across a block boundary
@example([["aa"], [], ["bb", "aa", "bb"], [], ["cc"]], 2)
def test_block_counting_equals_the_one_pass_count(token_lists, block):
    streams = _streams(*token_lists)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textpipe, "_BLOCK_STREAMS", block)
        counts = count_terms(streams)
    column, expected = oracles.one_pass_count_terms(streams)
    assert list(counts.column.items()) == list(column.items())
    assert type(counts.column) is dict
    assert counts.doc_ids == tuple(s.doc_id for s in streams)
    matrix = counts.matrix
    assert matrix.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(matrix, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert matrix.has_canonical_format == expected.has_canonical_format


def _assert_same_counts(got, want):
    assert list(got.column.items()) == list(want.column.items())
    assert type(got.column) is dict
    assert got.doc_ids == want.doc_ids
    assert got.csr.shape == want.csr.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.csr, name), getattr(want.csr, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "ee", "ff"]), max_size=7),
             max_size=14),
    st.lists(st.integers(0, 14), max_size=4),
    st.integers(1, 5),
)
@example([], [], 1)  # no streams at all
@example([[], []], [0, 1, 2], 2)  # empty parts and a part with no tokens
@example([["aa", "bb"], ["cc", "aa"], ["dd"], ["bb", "dd", "ee"]], [1, 3], 1)  # later first sightings
def test_merge_counts_of_any_split_equals_counting_all_streams(token_lists, cuts, block):
    streams = _streams(*token_lists)
    bounds = [0, *sorted(min(c, len(streams)) for c in cuts), len(streams)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textpipe, "_BLOCK_STREAMS", block)
        parts = [count_terms(iter(streams[a:b])) for a, b in zip(bounds, bounds[1:])]
        merged = merge_counts(parts)
        whole = count_terms(streams)
    _assert_same_counts(merged, whole)
    column, expected = oracles.one_pass_count_terms(streams)
    assert list(merged.column.items()) == list(column.items())
    assert (merged.matrix != expected).nnz == 0


def test_merge_counts_of_no_parts_is_the_count_of_no_streams():
    _assert_same_counts(merge_counts([]), count_terms([]))


def test_auto_stop_terms_threshold():
    counts = _counts(
        ["data", "care"], ["data", "mining"], ["data"], ["care"],
    )
    # "data" appears in 3/4 documents, "care" in 2/4.
    assert auto_stop_terms(counts, 0.5) == frozenset({"data"})
    assert auto_stop_terms(counts, 0.75) == frozenset()
    assert auto_stop_terms(counts, 1.0) == frozenset()


def test_auto_stop_terms_validates_fraction():
    with pytest.raises(ValidationError):
        auto_stop_terms(_counts(["a"]), 0.0)
    with pytest.raises(ValidationError):
        auto_stop_terms(_counts(["a"]), 1.5)


# --- uniqueness -------------------------------------------------------------


def test_uniqueness_stats_hand_computed():
    stats = uniqueness_stats(_counts(["a", "b", "a", "c"], ["x", "x"]))
    assert stats.mean_tokens == 3.0
    assert stats.mean_unique == 2.0
    assert stats.unique_ratio == pytest.approx((3 / 4 + 1 / 2) / 2)
    assert stats.ratio_of_means == pytest.approx(2 / 3)


def test_uniqueness_stats_skips_empty_docs_in_the_ratio_only():
    stats = uniqueness_stats(_counts(["a", "a"], []))
    assert stats.mean_tokens == 1.0   # empty doc still counts in the means
    assert stats.unique_ratio == 0.5  # but not in the ratio mean


def test_uniqueness_stats_undefined_cases():
    with pytest.raises(UndefinedStatisticError):
        uniqueness_stats(_counts())
    with pytest.raises(UndefinedStatisticError):
        uniqueness_stats(_counts([], []))


@given(st.lists(st.lists(st.sampled_from(["aa", "bb", "cc", "dd", "ee"]), max_size=9),
                min_size=1, max_size=8))
def test_uniqueness_stats_equals_the_per_stream_formula(token_lists):
    totals = [len(tokens) for tokens in token_lists]
    uniques = [len(set(tokens)) for tokens in token_lists]
    ratios = [u / t for u, t in zip(uniques, totals) if t > 0]
    if not ratios:
        with pytest.raises(UndefinedStatisticError):
            uniqueness_stats(_counts(*token_lists))
        return
    assert uniqueness_stats(_counts(*token_lists)) == UniquenessStats(
        mean_tokens=sum(totals) / len(token_lists),
        mean_unique=sum(uniques) / len(token_lists),
        unique_ratio=sum(ratios) / len(ratios),
    )


# --- vocabulary -------------------------------------------------------------


def test_build_vocabulary_orders_by_frequency_then_term():
    counts = _counts(["bb", "bb", "aa", "cc"], ["aa", "cc", "cc"])
    vocab = build_vocabulary(counts, min_total_frequency=2)
    # cc:3, aa:2, bb:2 -> ties between aa and bb broken lexicographically
    assert vocab.terms == ("cc", "aa", "bb")
    assert vocab.total_frequency == {"cc": 3, "aa": 2, "bb": 2}
    assert vocab.doc_frequency == {"cc": 2, "aa": 2, "bb": 1}
    assert vocab.index == {"cc": 0, "aa": 1, "bb": 2}


def test_build_vocabulary_threshold_drops_rare_terms():
    vocab = build_vocabulary(_counts(["aa", "aa", "bb"]), min_total_frequency=2)
    assert vocab.terms == ("aa",)


def test_build_vocabulary_empty_result_names_the_threshold():
    with pytest.raises(ConfigError, match="min_total_frequency=9"):
        build_vocabulary(_counts(["aa"]), min_total_frequency=9)


def test_build_vocabulary_rejects_non_positive_threshold():
    with pytest.raises(ValidationError):
        build_vocabulary(_counts(["aa"]), min_total_frequency=0)


@given(
    st.lists(
        st.lists(st.sampled_from("abcdef"), max_size=12).map(
            lambda chars: [c * 2 for c in chars]
        ),
        min_size=1,
        max_size=10,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_vocabulary_threshold_monotonicity(token_lists, threshold):
    counts = _counts(*token_lists)
    try:
        low = build_vocabulary(counts, threshold)
    except ConfigError:
        return  # nothing reaches the lower threshold; nothing to compare
    try:
        high = build_vocabulary(counts, threshold + 1)
    except ConfigError:
        return
    assert set(high.terms) <= set(low.terms)


def test_vocabulary_matches_counter_oracle(mini_streams, mini_counts):
    vocab = build_vocabulary(mini_counts, min_total_frequency=5, stoplist=ENGLISH_STOPWORDS)
    totals, dfs = oracles.vocabulary_counter([s.tokens for s in mini_streams])
    for term in vocab.terms:
        assert vocab.total_frequency[term] == totals[term]
        assert vocab.doc_frequency[term] == dfs[term]
    expected_terms = sorted(
        (t for t, c in totals.items() if c >= 5),
        key=lambda t: (-totals[t], t),
    )
    assert list(vocab.terms) == expected_terms


# --- document-term matrix ---------------------------------------------------


def test_build_dtm_counts_match_counter_oracle():
    streams = _streams(
        ["aa", "the", "bb", "aa"],
        ["bb", "cc", "the"],
        ["aa", "cc", "cc", "dd"],
        ["the", "of", "the"],
    )
    stoplist = frozenset({"the", "of"})
    counts = count_terms(streams)
    vocab = build_vocabulary(counts, min_total_frequency=1, stoplist=stoplist)
    dtm = build_dtm(counts, vocab)
    assert not stoplist & set(vocab.terms)
    # The last document holds only stopwords, so its row is pruned.
    assert dtm.rows == ("d0", "d1", "d2")
    assert dtm.pruned_rows == ("d3",)
    # Vocabulary order (aa, cc, bb, dd) is not first-appearance order, yet
    # the matrix stays canonical, like a CSR built row by row.
    assert dtm.counts.has_canonical_format
    dense = dtm.counts.toarray()
    for i, stream in enumerate(streams[:3]):
        expected = Counter(t for t in stream.tokens if t not in stoplist)
        for term, j in vocab.index.items():
            assert dense[i, j] == expected[term]
    assert dtm.grand_total == dense.sum()
    assert np.array_equal(dtm.row_margins, dense.sum(axis=1))
    assert np.array_equal(dtm.col_margins, dense.sum(axis=0))


def test_build_dtm_prunes_empty_rows_and_reports_them():
    counts = _counts(["aa", "aa"], ["zz"], ["aa"])
    vocab = build_vocabulary(counts, min_total_frequency=2)  # only "aa" kept
    dtm = build_dtm(counts, vocab)
    assert dtm.rows == ("d0", "d2")
    assert dtm.pruned_rows == ("d1",)
    assert dtm.shape == (2, 1)


def test_build_dtm_prunes_all_zero_columns_and_narrows_vocabulary():
    counts = _counts(["aa", "bb"], ["aa"])
    vocab = build_vocabulary(_counts(["aa", "bb", "cc"], ["aa", "cc"]), 1)
    assert "cc" in vocab.terms
    dtm = build_dtm(counts, vocab)  # cc never occurs in these counts
    assert "cc" not in dtm.terms
    assert "cc" in dtm.pruned_terms
    assert dtm.vocabulary.index == {t: i for i, t in enumerate(dtm.terms)}


def test_build_dtm_all_rows_empty_is_an_error():
    vocab = build_vocabulary(_counts(["aa"]), 1)
    with pytest.raises(EmptyMatrixError):
        build_dtm(_counts([], []), vocab)


@given(st.permutations(range(4)))
def test_build_dtm_row_order_follows_stream_order(perm):
    base = [["aa", "bb"], ["bb"], ["aa", "aa"], ["bb", "aa"]]
    streams = _streams(*base)
    vocab = build_vocabulary(count_terms(streams), 1)
    shuffled = [streams[i] for i in perm]
    dtm = build_dtm(count_terms(shuffled), vocab)
    assert dtm.rows == tuple(f"d{i}" for i in perm)
    dense = dtm.counts.toarray()
    for pos, i in enumerate(perm):
        counts = Counter(base[i])
        for term, j in vocab.index.items():
            assert dense[pos, j] == counts[term]


# --- weighting --------------------------------------------------------------


@pytest.fixture()
def small_dtm():
    return _dtm(
        ["aa", "aa", "bb"],
        ["aa", "cc"],
        ["bb", "bb", "cc", "aa"],
    )


def test_relative_frequency_rows_sum_to_one(small_dtm):
    wm = weight_matrix(small_dtm, WeightScheme.RELATIVE_FREQUENCY)
    sums = np.asarray(wm.sum(axis=1)).ravel()
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_relative_frequency_hand_computed(small_dtm):
    wm = weight_matrix(small_dtm, WeightScheme.RELATIVE_FREQUENCY)
    dense = wm.toarray()
    j = small_dtm.vocabulary.index["aa"]
    assert dense[0, j] == pytest.approx(2 / 3)
    assert dense[1, j] == pytest.approx(1 / 2)


def test_tf_idf_hand_computed(small_dtm):
    wm = weight_matrix(small_dtm, WeightScheme.TF_IDF)
    dense = wm.toarray()
    vocab = small_dtm.vocabulary.index
    # "cc" appears in 2 of 3 documents -> idf = ln(3/2)
    assert dense[1, vocab["cc"]] == pytest.approx((1 / 2) * math.log(3 / 2))
    # "aa" appears in every document -> idf = ln(1) = 0, entry vanishes
    assert dense[:, vocab["aa"]].sum() == 0.0


def test_tf_idf_single_document_is_degenerate():
    dtm = _dtm(["aa", "bb"])
    with pytest.raises(DegenerateCorpusError):
        weight_matrix(dtm, WeightScheme.TF_IDF)
    with pytest.raises(DegenerateCorpusError):
        weight_matrix(dtm, WeightScheme.ENTROPY)


def test_entropy_hand_computed():
    # Column "uu" is uniform across both docs -> factor 0 -> weight 0.
    # Column "kk" is concentrated in one doc -> factor 1 -> weight ln(1+f).
    dtm = _dtm(["uu", "kk", "kk"], ["uu"])
    wm = weight_matrix(dtm, WeightScheme.ENTROPY)
    dense = wm.toarray()
    vocab = dtm.vocabulary.index
    assert dense[:, vocab["uu"]].sum() == pytest.approx(0.0)
    assert dense[0, vocab["kk"]] == pytest.approx(math.log(3))


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("count", [1, 3])
def test_entropy_gives_an_evenly_spread_term_exactly_zero_weight(n, count):
    # "even" has the same count in all n documents, "uneven" is in all of
    # them but twice in the first, and "kk" is only in the first.
    first = ["even"] * count + ["uneven", "uneven", "kk"]
    dtm = _dtm(first, *(["even"] * count + ["uneven"] for _ in range(n - 1)))
    values = weight_matrix(dtm, WeightScheme.ENTROPY)
    index = dtm.vocabulary.index
    assert values[:, index["even"]].sum() == 0.0
    assert values[:, index["uneven"]].nnz == n
    assert values[0, index["kk"]] > 0.0


def test_entropy_factor_never_negative(small_dtm):
    wm = weight_matrix(small_dtm, WeightScheme.ENTROPY)
    assert (wm.toarray() >= 0).all()


@pytest.mark.parametrize("scheme", list(WeightScheme))
def test_weighting_never_grows_sparsity(small_dtm, scheme):
    wm = weight_matrix(small_dtm, scheme)
    count_nnz = set(zip(*small_dtm.counts.nonzero()))
    weight_nnz = set(zip(*wm.nonzero()))
    assert weight_nnz <= count_nnz


def test_weight_matrix_accepts_scheme_strings(small_dtm):
    wm = weight_matrix(small_dtm, "tf-idf")
    assert (wm != weight_matrix(small_dtm, WeightScheme.TF_IDF)).nnz == 0


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_group_sum_equals_the_indicator_product_bit_for_bit(dtype):
    # The reference sums the rows through a sparse indicator matrix; float
    # sums agree only if each cell adds its rows in the same (row) order.
    rng = np.random.default_rng(3)
    dense = rng.lognormal(size=(300, 40)) * (rng.random((300, 40)) < 0.3)
    matrix = sparse.csr_matrix(np.ceil(dense).astype(dtype) if dtype is np.int64 else dense)
    groups = rng.integers(0, 6, size=300)  # group 6 of 7 stays empty
    indicator = sparse.csr_matrix((np.ones(300), (groups, np.arange(300))), shape=(7, 300))
    expected = (indicator @ matrix).toarray()
    got = group_sum(matrix, groups.tolist(), 7)
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


# --- TSV round-trips ---------------------------------------------------------


def test_vocabulary_tsv_round_trip(small_dtm, tmp_path):
    path = tmp_path / "vocabulary.tsv"
    write_vocabulary_tsv(small_dtm.vocabulary, path)
    again = read_vocabulary_tsv(path)
    assert again.terms == small_dtm.vocabulary.terms
    assert again.total_frequency == small_dtm.vocabulary.total_frequency
    assert again.doc_frequency == small_dtm.vocabulary.doc_frequency


def test_counts_tsv_round_trip(small_dtm, tmp_path):
    path = tmp_path / "dtm.tsv"
    write_counts_tsv(small_dtm.rows, small_dtm.terms, small_dtm.counts, path)
    rows, triplets = read_counts_tsv(path)
    rebuilt = dtm_from_triplets(rows, small_dtm.vocabulary, triplets)
    assert rebuilt.rows == small_dtm.rows
    assert (rebuilt.counts != small_dtm.counts).nnz == 0
    assert rebuilt.grand_total == small_dtm.grand_total
    assert np.array_equal(rebuilt.row_margins, small_dtm.row_margins)


def test_weights_tsv_preserves_exact_floats(small_dtm, tmp_path):
    wm = weight_matrix(small_dtm, WeightScheme.TF_IDF)
    path = tmp_path / "weighted.tsv"
    write_counts_tsv(small_dtm.rows, small_dtm.terms, wm, path, value_name="weight")
    triplets = artifacts.read_tsv(path, (("doc_id", str), ("term", str), ("weight", float)))
    dense = wm.toarray()
    index = small_dtm.vocabulary.index
    row_index = {r: i for i, r in enumerate(small_dtm.rows)}
    for doc_id, term, value in zip(*triplets):
        # repr() round-trips doubles exactly
        assert value == dense[row_index[doc_id], index[term]]


# --- NumPy CSR arrays against the SciPy references -----------------------------

_TERMS = ["aa", "bb", "cc", "dd", "ee", "ff"]


def _vocabulary(terms):
    """A vocabulary of ``terms`` in the given order; only the order matters
    to ``build_dtm``."""
    return Vocabulary(tuple(terms), dict.fromkeys(terms, 0), dict.fromkeys(terms, 0))


@st.composite
def _tokens_and_vocabulary(draw):
    """Random token lists and a vocabulary in random order that leaves some
    of their terms out (pruning rows) and holds terms they lack (pruned)."""
    token_lists = draw(st.lists(st.lists(st.sampled_from(_TERMS), max_size=8),
                                min_size=1, max_size=10))
    terms = draw(st.lists(st.sampled_from([*_TERMS, "gg", "hh"]), min_size=1, unique=True))
    return token_lists, _vocabulary(terms)


def _assert_same_csr(got: Csr, want: sparse.csr_matrix) -> None:
    assert isinstance(got, Csr)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name


# A term in every document (tf-idf weight 0) and one with the same count in
# every document (entropy factor exactly 0).
_ZERO_WEIGHTS = ([["aa", "bb", "cc"], ["aa", "bb"], ["aa", "bb", "bb"]],
                 _vocabulary(["aa", "bb", "cc"]))


@settings(max_examples=200, deadline=None)
@given(_tokens_and_vocabulary(), st.integers(1, 4))
@example(_ZERO_WEIGHTS, 1024)
@example(([["aa"], ["bb"]], _vocabulary(["cc"])), 1024)  # every row pruned
def test_build_dtm_equals_the_scipy_reference(case, block):
    token_lists, vocab = case
    counts = _counts(*token_lists)
    column, matrix = oracles.one_pass_count_terms(_streams(*token_lists))
    nonempty, kept_terms, expected = oracles.dtm_oracle(matrix, column, vocab.terms)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(textpipe, "_BLOCK_STREAMS", block)
        if not nonempty.any():
            with pytest.raises(EmptyMatrixError):
                build_dtm(counts, vocab)
            return
        dtm = build_dtm(counts, vocab)
    _assert_same_csr(dtm.csr, expected)
    assert dtm.terms == tuple(kept_terms)
    assert dtm.rows == tuple(d for d, k in zip(counts.doc_ids, nonempty) if k)
    assert dtm.pruned_rows == tuple(d for d, k in zip(counts.doc_ids, nonempty) if not k)
    assert dtm.pruned_terms == tuple(t for t in vocab.terms if t not in counts.column)
    sums = oracles.count_sums(expected)
    assert np.array_equal(dtm.row_margins, sums["row_totals"])
    assert np.array_equal(dtm.col_margins, sums["totals"])
    assert dtm.row_margins.dtype == dtm.col_margins.dtype == np.int64
    assert dtm.grand_total == int(expected.sum())


@settings(max_examples=200, deadline=None)
@given(_tokens_and_vocabulary(), st.sampled_from(list(WeightScheme)))
@example(_ZERO_WEIGHTS, WeightScheme.TF_IDF)
@example(_ZERO_WEIGHTS, WeightScheme.ENTROPY)
def test_weights_equal_the_scipy_reference(case, scheme):
    token_lists, vocab = case
    try:
        dtm = build_dtm(_counts(*token_lists), vocab)
    except EmptyMatrixError:
        return
    if len(dtm.rows) < 2 and scheme is not WeightScheme.RELATIVE_FREQUENCY:
        return
    expected = oracles.weight_oracle(dtm.counts.copy(), scheme.value)
    _assert_same_csr(weight_arrays(dtm, scheme), expected)


def test_the_zero_weights_are_dropped():
    dtm = build_dtm(_counts(*_ZERO_WEIGHTS[0]), _ZERO_WEIGHTS[1])
    # aa and bb are in all three documents; only aa has the same count in each.
    for scheme, dropped in ((WeightScheme.TF_IDF, 6), (WeightScheme.ENTROPY, 3)):
        assert dtm.csr.data.size - weight_arrays(dtm, scheme).data.size == dropped


def _shuffle_within_rows(path, rnd) -> None:
    header, *lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [list(g) for _, g in itertools.groupby(lines, key=lambda ln: ln.split("\t", 1)[0])]
    for row in rows:
        rnd.shuffle(row)
    path.write_text(header + "".join(itertools.chain.from_iterable(rows)), encoding="utf-8")


@settings(max_examples=100, deadline=None)
@given(_tokens_and_vocabulary(), st.randoms(use_true_random=False))
def test_the_dtm_reader_equals_the_scipy_reference(tmp_path_factory, case, rnd):
    token_lists, vocab = case
    try:
        dtm = build_dtm(_counts(*token_lists), vocab)
    except EmptyMatrixError:
        return
    path = tmp_path_factory.mktemp("dtm") / "dtm.tsv"
    write_counts_tsv(dtm.rows, dtm.terms, dtm.csr, path)
    _shuffle_within_rows(path, rnd)
    rows, triplets = read_counts_tsv(path)
    assert rows == list(dtm.rows)
    rebuilt = dtm_from_triplets(rows, dtm.vocabulary, triplets, path)
    expected = oracles.triplets_oracle(rows, dtm.vocabulary.index, triplets, len(dtm.terms))
    _assert_same_csr(rebuilt.csr, expected)
    _assert_same_csr(rebuilt.csr, dtm.counts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_TERMS), max_size=9), max_size=10))
def test_count_sums_equal_the_scipy_reference(token_lists):
    counts = _counts(*token_lists)
    _, expected = oracles.one_pass_count_terms(_streams(*token_lists))
    sums = oracles.count_sums(expected)
    assert counts.totals.dtype == np.int64
    assert np.array_equal(counts.totals, sums["totals"])
    assert np.array_equal(counts.doc_frequency, sums["doc_frequency"])
    if not any(token_lists):
        return
    assert uniqueness_stats(counts) == UniquenessStats(*oracles.uniqueness_oracle(expected))


def test_the_scipy_views_share_the_numpy_arrays(small_dtm):
    counts = _counts(["aa", "bb"], ["bb"])
    weights = weight_arrays(small_dtm, WeightScheme.TF_IDF)
    for csr, dtype in ((small_dtm.csr, np.int64), (counts.csr, np.int64), (weights, np.float64)):
        assert (csr.indptr.dtype, csr.indices.dtype, csr.data.dtype) == (np.int32, np.int32, dtype)
    for csr, view in ((small_dtm.csr, small_dtm.counts), (counts.csr, counts.matrix)):
        assert isinstance(view, sparse.csr_matrix)
        for name in ("indptr", "indices", "data"):
            assert np.shares_memory(getattr(view, name), getattr(csr, name)), name
    assert small_dtm.counts is small_dtm.counts
    assert weight_matrix(small_dtm, WeightScheme.TF_IDF).data.tobytes() == weights.data.tobytes()


def test_malformed_triplets_name_their_line(small_dtm):
    doc_ids, terms, counts = ["d0", "d0", "d1", "d0"], ["aa", "bb", "aa", "cc"], [1, 1, 1, 1]
    with pytest.raises(DependencyError, match="dtm.tsv: line 5: row 'd0' resumes"):
        dtm_from_triplets(small_dtm.rows, small_dtm.vocabulary, (doc_ids, terms, counts))
    doc_ids, terms = ["d0", "d0", "d0", "d1"], ["bb", "aa", "bb", "aa"]
    with pytest.raises(DependencyError, match="dtm.tsv: line 4: row 'd0' holds term 'bb'"):
        dtm_from_triplets(small_dtm.rows, small_dtm.vocabulary, (doc_ids, terms, counts))
