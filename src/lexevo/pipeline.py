"""Staged pipeline orchestration.

The run is split into five stages — ingest, stats, ca, periods, figures.
A stage gets every input through a :class:`Workspace` on the output
directory: ``ws[name]`` is the object this process stored when it wrote
that artifact, or else the artifact parsed once from disk. ``lexevo run``
threads one workspace through all five stages, so it hands each stage's
outputs forward in memory and parses nothing it wrote; a stage subcommand
starts with an empty workspace and parses what earlier stages left in the
directory. Either way the artifacts are byte-identical, and any stage can
be re-run in isolation. A missing upstream artifact raises
:class:`DependencyError` naming the subcommand that produces it, and so
does a malformed one, naming the file: bytes that are not UTF-8 (with the
offset), a table or JSON file that :mod:`lexevo.artifacts` cannot parse
(with the line), a ``corpus.csv`` record that no longer parses (with the
record), or a field a reader needs that is missing or of the wrong type.
``dtm.tsv`` holds each row's triplets on consecutive lines, one per term,
so a row whose lines resume after another row's, a (row, term) pair on two
lines and a term missing from ``vocabulary.tsv`` are malformed too (with
the line). The CLI exits 1 for all of these.

Every artifact is written through :mod:`lexevo.artifacts`, atomically: to
a temporary file in the output directory that then replaces the artifact.
A stage that crashes leaves the previous artifacts (or none), never a
half-written file for a later stage to trust.

Ingest runs on every CPU the process may use. It counts the abstracts in
lanes, one per CPU but at most one per 1,024 abstracts: this process counts
the first range of documents and a forked child each other range, and the
parts are merged in order. Then a forked writer writes the ingest
artifacts, while ``lexevo run`` goes on to the next stages; ``run`` waits
for the writer before it writes the manifest, and ``lexevo ingest`` before
it returns. A child's error is raised again here with its type, and a
writer that fails removes the artifacts it wrote.

``manifest.json`` (written by :func:`run_pipeline`) records the full
config echo, the input checksum and per-stage wall-clock timings; the
timings make it the one artifact that is not byte-reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os
import pickle
import sys
import time
from pathlib import Path
from typing import Any, Callable, Sequence, get_type_hints

import numpy as np

from . import artifacts
from . import ca as ca_mod
from . import periods as periods_mod
from . import stats as stats_mod
from . import textpipe, viz
from .config import RunConfig, to_config_text
from .corpus import (
    CANONICAL_SCHEMA,
    Corpus,
    filter_corpus,
    load_corpus_csv,
    write_corpus_csv,
    write_rejects_report,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateCorpusError,
    DependencyError,
    EncodingError,
    InsufficientDataError,
)
from .stopwords import ENGLISH_STOPWORDS

logger = logging.getLogger(__name__)

__all__ = [
    "ARTIFACTS",
    "Workspace",
    "stage_ingest",
    "stage_stats",
    "stage_ca",
    "stage_periods",
    "stage_figures",
    "run_pipeline",
]

A_CORPUS = "corpus.csv"
A_FILTER_REPORT = "filter_report.json"
A_REJECTS = "rejects.tsv"
A_VOCAB = "vocabulary.tsv"
A_DTM = "dtm.tsv"
A_WEIGHTED = "weighted.tsv"
A_TOKEN_REPORT = "token_report.json"
A_TERM_FREQS = "term_frequencies.tsv"
A_YEARLY = "yearly_counts.tsv"
A_TYPE_SHARES = "type_shares.tsv"
A_STATS = "stats.json"
A_CA_COORDS = "ca_coords.tsv"
A_CA_MODEL = "ca_model.json"
A_YEAR_COORDS = "year_coords.tsv"
A_PERIODS_JSON = "periods.json"
A_PERIODS_MD = "periods.md"
A_TERM_BARS = "term_bars.svg"
A_TYPE_BARS = "type_bars.svg"
A_TREND = "trend.svg"
A_CA_MAP = "ca_map.svg"
A_CLOUD = "word_cloud.svg"
A_CLOUD_LAYOUT = "cloud_layout.tsv"
A_MANIFEST = "manifest.json"

#: Every artifact a full run writes, keyed by the stage that owns it.
ARTIFACTS: dict[str, tuple[str, ...]] = {
    "ingest": (A_CORPUS, A_FILTER_REPORT, A_REJECTS, A_VOCAB, A_DTM, A_WEIGHTED, A_TOKEN_REPORT),
    "stats": (A_TERM_FREQS, A_YEARLY, A_TYPE_SHARES, A_STATS),
    "ca": (A_CA_COORDS, A_CA_MODEL, A_YEAR_COORDS),
    "periods": (A_PERIODS_JSON, A_PERIODS_MD),
    "figures": (A_TERM_BARS, A_TYPE_BARS, A_TREND, A_CA_MAP, A_CLOUD, A_CLOUD_LAYOUT),
    "run": (A_MANIFEST,),
}

_PRODUCER = {
    name: stage for stage, names in ARTIFACTS.items() for name in names
}


class Workspace:
    """The artifacts of one output directory, each parsed at most once.

    ``ws[name]`` returns the object this process stored with
    ``ws[name] = obj`` when it wrote the artifact; otherwise it parses the
    artifact through ``_READERS`` and keeps the result. A reader that
    meets content it cannot use (a ``KeyError``, ``IndexError``,
    ``TypeError`` or ``ValueError``, or bytes that are not UTF-8) raises
    :class:`DependencyError` naming the artifact. Only artifacts that a
    stage reads can be stored.

    ``writer`` joins the child process that is still writing artifacts
    into the directory (see :func:`stage_ingest`), if there is one;
    :meth:`join_writer` waits for it, and so does every read from disk.
    """

    def __init__(self, out: Path) -> None:
        self.out = out
        self._objects: dict[str, Any] = {}
        self.writer: Callable[[], Any] | None = None

    def join_writer(self) -> None:
        """Wait for the writer, if one runs; its error is raised here."""
        join, self.writer = self.writer, None
        if join is not None:
            _result(join())

    def path(self, name: str) -> Path:
        """The artifact's path; :class:`DependencyError` if it is missing."""
        self.join_writer()
        path = self.out / name
        if not path.is_file():
            raise DependencyError(
                f"missing artifact {name!r} in {self.out}; "
                f"run 'lexevo {_PRODUCER[name]}' first"
            )
        return path

    def __getitem__(self, name: str) -> Any:
        if name not in self._objects:
            reader = _READERS[name]
            try:
                self._objects[name] = reader(self)
            except EncodingError as exc:  # its message already names the file
                raise DependencyError(f"malformed artifact {exc}") from exc
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise DependencyError(
                    f"malformed artifact {self.out / name}: {type(exc).__name__}: {exc}"
                ) from exc
        return self._objects[name]

    def __setitem__(self, name: str, obj: Any) -> None:
        if name not in _READERS:
            raise KeyError(f"no stage reads {name!r}")
        self._objects[name] = obj


def _workspace(cfg: RunConfig, ws: Workspace | None) -> Workspace:
    try:
        cfg.out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"out is not a directory: {cfg.out} ({exc.strerror})") from None
    return Workspace(cfg.out) if ws is None else ws


def _read_corpus(ws: Workspace) -> Corpus:
    """corpus.csv holds only documents that ingest kept, so it is read back
    without a year window, and a record it rejects is a malformed artifact."""
    path = ws.path(A_CORPUS)
    corpus = load_corpus_csv(path, CANONICAL_SCHEMA, year_window=(-sys.maxsize, sys.maxsize))
    if corpus.rejects:
        bad = corpus.rejects[0]
        raise DependencyError(f"malformed artifact {path}: record {bad.row}: {bad.reason}")
    return corpus


def _read_dtm(ws: Workspace) -> textpipe.DocTermMatrix:
    vocab = ws[A_VOCAB]
    path = ws.path(A_DTM)
    rows, triplets = textpipe.read_counts_tsv(path)
    return textpipe.dtm_from_triplets(rows, vocab, triplets, path)


def _read_yearly(ws: Workspace) -> stats_mod.YearlyCounts:
    years, counts = artifacts.read_tsv(ws.path(A_YEARLY), stats_mod.YEARLY_COUNTS_COLUMNS)
    return stats_mod.YearlyCounts(years[0], tuple(counts))


def _read_stats(ws: Workspace) -> dict:
    """The trend block holds TrendFit's fields and the last year fitted."""
    stats = artifacts.read_json(ws.path(A_STATS))
    for field, kind in {**get_type_hints(stats_mod.TrendFit), "fitted_through": int}.items():
        if not isinstance(stats["trend"][field], kind):
            raise TypeError(f"trend field {field!r} is {stats['trend'][field]!r}")
    if not isinstance(stats["forecasts"], list):
        raise TypeError(f"forecasts is {stats['forecasts']!r}")
    return stats


#: The one reader of each artifact a stage reads: the object it parses to
#: is the one its producer stores. ``ca_model.json`` stands for the model
#: rebuilt from it and ``ca_coords.tsv``.
_READERS: dict[str, Callable[[Workspace], Any]] = {
    A_CORPUS: _read_corpus,
    A_FILTER_REPORT: lambda ws: artifacts.read_json(ws.path(A_FILTER_REPORT)),
    A_VOCAB: lambda ws: textpipe.read_vocabulary_tsv(ws.path(A_VOCAB)),
    A_DTM: _read_dtm,
    A_TOKEN_REPORT: lambda ws: artifacts.read_json(ws.path(A_TOKEN_REPORT)),
    A_TERM_FREQS: lambda ws: tuple(map(
        stats_mod.TermFrequencyRow,
        *artifacts.read_tsv(ws.path(A_TERM_FREQS), stats_mod.TERM_FREQUENCY_COLUMNS),
    )),
    A_YEARLY: _read_yearly,
    A_TYPE_SHARES: lambda ws: list(
        zip(*artifacts.read_tsv(ws.path(A_TYPE_SHARES), stats_mod.TYPE_SHARES_COLUMNS))
    ),
    A_STATS: _read_stats,
    A_CA_MODEL: lambda ws: ca_mod.read_model_artifacts(ws.path(A_CA_COORDS), ws.path(A_CA_MODEL)),
    A_YEAR_COORDS: lambda ws: ca_mod.read_year_coords_tsv(
        ws.path(A_YEAR_COORDS), ws[A_CA_MODEL].dims
    ),
}


def _fork(fn: Callable[..., Any], *args: Any) -> Callable[[], tuple[bool, Any]]:
    """Call ``fn(*args)`` in a forked child; return the function that waits
    for the child and returns ``(True, result)`` or ``(False, exception)``,
    which :func:`_result` turns back into the result or the raised
    exception. The child sends that pair back pickled over a pipe and
    leaves only through ``os._exit``. Where ``os.fork`` does not exist,
    ``fn`` runs here and now."""
    if not hasattr(os, "fork"):
        try:
            outcome = (True, fn(*args))
        except Exception as exc:
            outcome = (False, exc)
        return lambda: outcome
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            try:
                outcome = (True, fn(*args))
            except BaseException as exc:
                outcome = (False, exc)
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(write)

    def join() -> tuple[bool, Any]:
        try:
            with os.fdopen(read, "rb") as pipe:
                outcome = pickle.load(pipe)
        except Exception as exc:  # the child ended before it sent the pair
            outcome = (False, ChildProcessError(f"{fn.__name__} sent no outcome: {exc!r}"))
        os.waitpid(pid, 0)
        return outcome

    return join


def _result(outcome: tuple[bool, Any]) -> Any:
    ok, value = outcome
    if not ok:
        raise value
    return value


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_in_lanes(streams: Sequence[textpipe.TokenStream]) -> textpipe.TermCounts:
    """``count_terms`` of the streams on ``lanes`` = min(usable CPUs,
    blocks of ``_BLOCK_STREAMS`` streams) cores: the streams are split into
    that many consecutive ranges; this process counts the first and a
    forked child each other one, and the parts are merged in order."""
    blocks = -(-len(streams) // textpipe._BLOCK_STREAMS)
    lanes = max(1, min(_usable_cpus(), blocks))
    bounds = [len(streams) * k // lanes for k in range(lanes + 1)]
    joins = []
    try:
        for start, stop in zip(bounds[1:], bounds[2:]):
            joins.append(_fork(textpipe.count_terms, streams[start:stop]))
        first = textpipe.count_terms(streams[: bounds[1]])
    finally:
        outcomes = [join() for join in joins]
    return textpipe.merge_counts([first, *map(_result, outcomes)])


def _write_ingest(ws: Workspace, dtm: textpipe.DocTermMatrix, weighted: textpipe.Csr) -> None:
    """Write every ingest artifact from what ingest stored in ``ws``, and
    the DTM's weights. If a write fails, the artifacts already written are
    removed, so no later stage reads what a failed ingest left."""
    corpus = ws[A_CORPUS]
    writes: tuple[tuple[str, Callable[[Path], Any]], ...] = (
        (A_CORPUS, lambda path: write_corpus_csv(corpus, path)),
        (A_FILTER_REPORT, lambda path: artifacts.write_json(path, ws[A_FILTER_REPORT])),
        (A_REJECTS, lambda path: write_rejects_report(corpus.rejects, path)),
        (A_VOCAB, lambda path: textpipe.write_vocabulary_tsv(dtm.vocabulary, path)),
        (A_DTM, lambda path: textpipe.write_counts_tsv(dtm.rows, dtm.terms, dtm.csr, path)),
        (A_WEIGHTED, lambda path: textpipe.write_counts_tsv(
            dtm.rows, dtm.terms, weighted, path, "weight")),
        (A_TOKEN_REPORT, lambda path: artifacts.write_json(path, ws[A_TOKEN_REPORT])),
    )
    written: list[Path] = []
    try:
        for name, write in writes:
            write(ws.out / name)
            written.append(ws.out / name)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def stage_ingest(cfg: RunConfig, ws: Workspace | None = None) -> None:
    """Parse, filter, tokenize and count once; write the corpus, vocabulary,
    matrices and the token report (uniqueness statistics, documents pruned
    from the DTM).

    The abstracts are counted on several cores (:func:`_count_in_lanes`).
    Once the DTM and its weights exist and the counts are released, a
    forked child writes the artifacts (:func:`_write_ingest`): given a
    workspace, the stage returns while it writes, and ``ws.join_writer()``
    waits for it; otherwise the stage waits for it before it returns."""
    standalone = ws is None
    ws = _workspace(cfg, ws)

    filtered = filter_corpus(
        load_corpus_csv(cfg.input, cfg.schema, year_window=cfg.year_window), cfg.excluded_types
    )
    report = filtered.provenance
    logger.info("ingest: loaded %d rows, retained %d documents", report.loaded, report.retained)
    if report.retained == 0:
        raise DataError(
            f"{cfg.input} leaves no document to analyze: {report.loaded} rows loaded "
            f"({len(filtered.rejects)} more rejected), of which "
            f"{report.excluded_non_research} excluded as non-research and "
            f"{report.excluded_no_abstract} for want of an abstract"
        )
    counts = _count_in_lanes(textpipe.tokenize_documents(filtered, cfg.min_token_len))
    stoplist: frozenset[str] = (
        ENGLISH_STOPWORDS if cfg.builtin_stopwords else frozenset()
    )
    for path in cfg.stoplists:
        stoplist |= textpipe.load_stoplist(path)
    if cfg.auto_stop_df > 0.0:
        stoplist |= textpipe.auto_stop_terms(counts, cfg.auto_stop_df)

    vocab = textpipe.build_vocabulary(counts, cfg.min_term_freq, stoplist)
    dtm = textpipe.build_dtm(counts, vocab)
    uniq = textpipe.uniqueness_stats(counts)
    logger.info("ingest: %d of %d documents have no in-vocabulary token and are left out "
                "of the DTM", len(dtm.pruned_rows), len(counts.doc_ids))
    del counts
    weighted = textpipe.weight_arrays(dtm, cfg.weighting)

    ws[A_CORPUS] = filtered
    ws[A_FILTER_REPORT] = dataclasses.asdict(filtered.provenance)
    ws[A_VOCAB], ws[A_DTM] = dtm.vocabulary, dtm
    uniqueness = {**dataclasses.asdict(uniq), "ratio_of_means": uniq.ratio_of_means}
    ws[A_TOKEN_REPORT] = {"uniqueness": uniqueness, "pruned_documents": list(dtm.pruned_rows)}
    ws.writer = _fork(_write_ingest, ws, dtm, weighted)
    if standalone:
        ws.join_writer()


def _trend_series(cfg: RunConfig, series: stats_mod.YearlyCounts):
    """The series actually fitted: optionally drop trailing (partial) years."""
    if cfg.trend_skip_last == 0:
        return series
    keep = len(series.counts) - cfg.trend_skip_last
    if keep < 1:
        raise InsufficientDataError(
            f"trend_skip_last={cfg.trend_skip_last} leaves no years "
            f"out of {len(series.counts)}"
        )
    return stats_mod.YearlyCounts(series.first_year, series.counts[:keep])


def stage_stats(cfg: RunConfig, ws: Workspace | None = None) -> None:
    """Descriptive tables plus the fitted growth trend (stats.json)."""
    ws = _workspace(cfg, ws)
    out = ws.out
    corpus = ws[A_CORPUS]
    vocab = ws[A_VOCAB]
    filter_report = ws[A_FILTER_REPORT]
    uniqueness = ws[A_TOKEN_REPORT]["uniqueness"]

    table = stats_mod.term_frequency_table(vocab, cfg.top_terms)
    stats_mod.write_term_table_tsv(table, out / A_TERM_FREQS)
    ws[A_TERM_FREQS] = table.rows
    series = stats_mod.publications_per_year(corpus)
    stats_mod.write_yearly_counts_tsv(series, out / A_YEARLY)
    ws[A_YEARLY] = series
    shares = stats_mod.publication_type_shares(corpus)
    stats_mod.write_type_shares_tsv(shares, out / A_TYPE_SHARES)
    ws[A_TYPE_SHARES] = [(doc_type.value, share) for doc_type, share in shares]

    fitted_on = _trend_series(cfg, series)
    fit = stats_mod.fit_quadratic_trend(fitted_on)
    last_fitted = fitted_on.first_year + len(fitted_on.counts) - 1
    forecasts = [
        {"year": year, "value": fit.predict(year)}
        for year in range(last_fitted + 1, last_fitted + 1 + cfg.trend_horizon)
    ]
    ws[A_STATS] = {
        "documents": len(corpus.documents),
        "filter_report": filter_report,
        "vocabulary_size": len(vocab),
        "top_terms_share": table.selected_share,
        "uniqueness": uniqueness,
        "trend": {**dataclasses.asdict(fit), "fitted_through": last_fitted},
        "forecasts": forecasts,
    }
    artifacts.write_json(out / A_STATS, ws[A_STATS])


def _ca_input(cfg: RunConfig, dtm: textpipe.DocTermMatrix) -> ca_mod.CaInput:
    """The one matrix CA fits and projects the years from: the counts, or
    the weighted DTM. tf-idf gives a term in every document zero weight
    (idf = ln 1), and entropy does the same to a term spread evenly over
    every document. CA cannot take such an all-zero column, or a document
    left with only such terms; that is a property of the data."""
    if cfg.ca_input == "counts":
        return ca_mod.CaInput.from_counts(dtm)
    weighted = textpipe.weight_matrix(dtm, cfg.weighting)
    zero_terms = [dtm.terms[j] for j in np.flatnonzero(weighted.getnnz(axis=0) == 0)]
    zero_docs = [dtm.rows[i] for i in np.flatnonzero(weighted.getnnz(axis=1) == 0)]
    if zero_terms or zero_docs:
        spread = "" if cfg.weighting is textpipe.WeightScheme.TF_IDF else " equally often"
        raise DegenerateCorpusError(
            f"ca_input = weighted: {cfg.weighting.value} weighting gives zero weight "
            f"to term(s) {zero_terms} and document(s) {zero_docs}, because each such "
            f"term occurs{spread} in all {len(dtm.rows)} documents; "
            "use ca_input = counts or another weighting"
        )
    return ca_mod.CaInput(weighted, dtm.rows, dtm.terms)


def stage_ca(cfg: RunConfig, ws: Workspace | None = None) -> None:
    """Fit the correspondence model and project the year trajectory, both
    from the one CA input."""
    ws = _workspace(cfg, ws)
    out = ws.out
    corpus = ws[A_CORPUS]
    inp = _ca_input(cfg, ws[A_DTM])
    model = ca_mod.compute_ca(inp, cfg.ca_dims)
    ca_mod.write_coordinates_tsv(model, out / A_CA_COORDS)
    ca_mod.write_model_json(model, out / A_CA_MODEL)
    ws[A_CA_MODEL] = model

    projections = [
        ca_mod.project_supplementary(model, profile, str(year))
        for year, profile in ca_mod.aggregate_year_profiles(inp, corpus)
    ]
    ca_mod.write_year_coords_tsv(projections, out / A_YEAR_COORDS)
    ws[A_YEAR_COORDS] = projections


def stage_periods(cfg: RunConfig, ws: Workspace | None = None) -> None:
    """Per-period characteristic terms and pioneer documents."""
    ws = _workspace(cfg, ws)
    out = ws.out
    corpus = ws[A_CORPUS]
    dtm = ws[A_DTM]
    reports = periods_mod.period_report(
        corpus, dtm, cfg.periods, cfg.period_terms, cfg.top_docs
    )
    periods_mod.write_periods_json(reports, len(corpus.documents), out / A_PERIODS_JSON)
    periods_mod.write_periods_markdown(
        reports, len(corpus.documents), out / A_PERIODS_MD
    )


def stage_figures(cfg: RunConfig, ws: Workspace | None = None) -> None:
    """Render every SVG from the tabular artifacts: the term bars, trend
    and forecasts draw what ``lexevo stats`` wrote."""
    ws = _workspace(cfg, ws)
    out = ws.out

    bars = [(r.term, float(r.frequency)) for r in ws[A_TERM_FREQS]]
    artifacts.write_text(
        out / A_TERM_BARS,
        viz.render_bar_chart(
            bars,
            title="Most frequent terms",
        ),
    )

    artifacts.write_text(
        out / A_TYPE_BARS,
        viz.render_bar_chart(
            ws[A_TYPE_SHARES],
            title="Document types",
        ),
    )

    stats = ws[A_STATS]
    t = stats["trend"]
    series = ws[A_YEARLY]
    fit = stats_mod.TrendFit(**{field: t[field] for field in get_type_hints(stats_mod.TrendFit)})
    observed = stats_mod.YearlyCounts(
        series.first_year,
        series.counts[: t["fitted_through"] - series.first_year + 1],
    )
    artifacts.write_text(
        out / A_TREND,
        viz.render_trend_chart(
            observed,
            fit,
            len(stats["forecasts"]),
            title="Publications per year",
        ),
    )

    artifacts.write_text(
        out / A_CA_MAP,
        viz.render_ca_map(
            ws[A_CA_MODEL],
            ws[A_YEAR_COORDS],
            title="Term map with year trajectory",
        ),
    )

    cloud = stats_mod.term_frequency_table(ws[A_VOCAB], cfg.cloud_terms)
    weights = [(r.term, float(r.frequency)) for r in cloud.rows]
    layout = viz.layout_word_cloud(weights, seed=cfg.seed)
    artifacts.write_text(out / A_CLOUD, viz.render_word_cloud(layout))
    viz.write_cloud_layout_tsv(layout, out / A_CLOUD_LAYOUT)
    if layout.dropped:
        logger.warning(
            "word cloud dropped %d term(s): %s",
            len(layout.dropped),
            ", ".join(layout.dropped),
        )


_STAGES: tuple[tuple[str, object], ...] = (
    ("ingest", stage_ingest),
    ("stats", stage_stats),
    ("ca", stage_ca),
    ("periods", stage_periods),
    ("figures", stage_figures),
)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def run_pipeline(cfg: RunConfig) -> Path:
    """Run every stage in order and write ``manifest.json``.

    The writer that ingest leaves running is joined before the manifest is
    written, also when a stage fails; an error of the writer is ingest's.
    On stage failure the manifest is still written (status ``failed``
    plus the failing stage and message) and the exception propagates.
    Returns the output directory.
    """
    out = cfg.out
    ws = _workspace(cfg, None)
    manifest: dict = {
        "tool": "lexevo",
        "config": to_config_text(cfg),
        "input": str(cfg.input),
        "input_sha256": _sha256(cfg.input),
        "seed": cfg.seed,
        "stages": [],
        "status": "ok",
    }
    try:
        for name, fn in _STAGES:
            start = time.perf_counter()
            fn(cfg, ws)  # type: ignore[operator]
            manifest["stages"].append(
                {
                    "name": name,
                    "seconds": time.perf_counter() - start,
                    "status": "ok",
                }
            )
            logger.info("stage %s finished", name)
        name = "ingest"
        ws.join_writer()
    except Exception as exc:
        error = exc
        try:
            ws.join_writer()  # a later stage failed while the writer ran
        except Exception as writer_error:
            name, error = "ingest", writer_error
        manifest["status"] = "failed"
        manifest["failed_stage"] = name
        manifest["error"] = f"{type(error).__name__}: {error}"
        artifacts.write_json(out / A_MANIFEST, manifest)
        raise error
    finally:
        ws.join_writer()
    model = ws[A_CA_MODEL]
    manifest["summary"] = {
        "documents": ws[A_STATS]["documents"],
        "vocabulary_size": ws[A_STATS]["vocabulary_size"],
        "dims": model.dims,
        "singular_values": model.singular_values[:model.dims].tolist(),
        "inertia_shares": model.inertia_shares[:model.dims].tolist(),
    }
    artifacts.write_json(out / A_MANIFEST, manifest)
    return out
