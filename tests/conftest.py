from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

import lexevo
from lexevo.corpus import CsvSchema, filter_corpus, load_corpus_csv
from lexevo.stopwords import ENGLISH_STOPWORDS
from lexevo.textpipe import (
    build_dtm,
    build_vocabulary,
    count_terms,
    remove_stopwords,
    tokenize_documents,
)

DATA_DIR = Path(lexevo.__file__).parent / "data"
MINI_CSV = DATA_DIR / "mini_corpus.csv"
EXPECTED_JSON = Path(__file__).parent / "data" / "mini_corpus_expected.json"

MINI_SCHEMA = CsvSchema(
    title="Title",
    abstract="Abstract",
    year="Year",
    doc_type="Document Type",
    keywords="Author Keywords",
    citations="Cited by",
)

MINI_CONFIG = """\
input = {input}
out = {out}
schema.title = Title
schema.abstract = Abstract
schema.keywords = Author Keywords
schema.year = Year
schema.doc_type = Document Type
schema.citations = Cited by
min_term_freq = 5
top_terms = 15
cloud_terms = 30
trend_horizon = 2
seed = {seed}
"""


@pytest.fixture(scope="session")
def mini_expected() -> dict:
    return json.loads(EXPECTED_JSON.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def mini_corpus():
    """The bundled corpus, parsed and filtered like the pipeline does."""
    return filter_corpus(load_corpus_csv(MINI_CSV, MINI_SCHEMA))


@pytest.fixture(scope="session")
def mini_streams(mini_corpus):
    """The stopword-free token streams: input for the brute-force oracles."""
    streams = tokenize_documents(mini_corpus, min_len=2)
    return [remove_stopwords(s, ENGLISH_STOPWORDS) for s in streams]


@pytest.fixture(scope="session")
def mini_counts(mini_corpus):
    """The term counts of the unstopped streams, as the pipeline builds them."""
    return count_terms(tokenize_documents(mini_corpus, min_len=2))


@pytest.fixture(scope="session")
def mini_dtm(mini_counts):
    vocab = build_vocabulary(mini_counts, min_total_frequency=5, stoplist=ENGLISH_STOPWORDS)
    return build_dtm(mini_counts, vocab)


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    """``lexevo`` forks counting lanes and an artifact writer; every one of
    them must have been reaped once the command returns."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def write_mini_config(tmp_path):
    """Factory: write a config for the bundled corpus into tmp_path."""

    def _write(out: Path, seed: int = 7, source: Path = MINI_CSV, **extra) -> Path:
        text = MINI_CONFIG.format(input=source, out=out, seed=seed)
        for key, value in extra.items():
            text += f"{key} = {value}\n"
        path = tmp_path / f"mini_{len(list(tmp_path.iterdir()))}.conf"
        path.write_text(text, encoding="utf-8")
        return path

    return _write


# --- acceptance reporting ---------------------------------------------------

_CRITERIA = {
    1: "published quadratic-trend forecasts reproduced exactly",
    2: "filter report arithmetic (14,162 -> 12,787)",
    3: "document share 9,525/12,787 = 0.7449 +/- 0.0001",
    4: "CA matches the eigendecomposition oracle on 100+ random matrices",
    5: "CA identities (inertia = chi2/n, centroids, transition formula)",
    6: "quadratic fit: exact recovery and normal-equations oracle",
    7: "pipeline determinism: byte-identical artifacts, full run < 5 s",
    8: "text-stage results match brute-force oracles on the bundled corpus",
    9: "word-cloud layouts overlap-free for 50 seeds",
}

_NODE_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, str] = {}
    for report in terminalreporter.stats.get("passed", ()):
        match = _NODE_RE.search(getattr(report, "nodeid", ""))
        if match and getattr(report, "when", "call") == "call":
            results[int(match.group(1))] = "PASS"
    # Failures and setup errors override, whatever phase they happened in.
    for outcome in ("failed", "error"):
        for report in terminalreporter.stats.get(outcome, ()):
            match = _NODE_RE.search(getattr(report, "nodeid", ""))
            if match:
                results[int(match.group(1))] = "FAIL"
    if not results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(results):
        terminalreporter.write_line(
            f"criterion {number}: {results[number]} - {_CRITERIA[number]}"
        )
