"""Staged pipeline orchestration.

The run is split into five stages — ingest, stats, ca, periods, figures —
each of which reads its inputs from the artifacts the previous stages
left in the output directory, never from in-memory state. Running the
stages one at a time therefore produces byte-identical artifacts to a
single end-to-end run, and any stage can be re-run in isolation. A
missing upstream artifact raises :class:`DependencyError` naming the
subcommand that produces it, and so does a malformed one (a TSV row with
the wrong number of cells, JSON that does not parse), naming the file and
line; the CLI exits 1 for both.

Every artifact is written through :mod:`lexevo.artifacts`, atomically: to
a temporary file in the output directory that then replaces the artifact.
A stage that crashes leaves the previous artifacts (or none), never a
half-written file for a later stage to trust.

``manifest.json`` (written by :func:`run_pipeline`) records the full
config echo, the input checksum and per-stage wall-clock timings; the
timings make it the one artifact that is not byte-reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import time
from pathlib import Path

import numpy as np

from . import artifacts
from . import ca as ca_mod
from . import periods as periods_mod
from . import stats as stats_mod
from . import textpipe, viz
from .config import RunConfig, to_config_text
from .corpus import (
    CANONICAL_SCHEMA,
    filter_corpus,
    load_corpus_csv,
    write_corpus_csv,
    write_rejects_report,
)
from .errors import DegenerateCorpusError, DependencyError, InsufficientDataError
from .stopwords import ENGLISH_STOPWORDS

logger = logging.getLogger(__name__)

__all__ = [
    "ARTIFACTS",
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


def _require(out: Path, artifact: str) -> Path:
    path = out / artifact
    if not path.is_file():
        producer = _PRODUCER[artifact]
        raise DependencyError(
            f"missing artifact {artifact!r} in {out}; "
            f"run 'lexevo {producer}' first"
        )
    return path


def _write_svg(path: Path, svg: bytes) -> None:
    artifacts.write_text(path, svg.decode("utf-8"))


def _load_corpus_artifact(out: Path):
    return load_corpus_csv(_require(out, A_CORPUS), CANONICAL_SCHEMA)


def _load_dtm_artifact(out: Path) -> textpipe.DocTermMatrix:
    vocab = textpipe.read_vocabulary_tsv(_require(out, A_VOCAB))
    rows, triplets = textpipe.read_counts_tsv(_require(out, A_DTM))
    return textpipe.dtm_from_triplets(rows, vocab, triplets)


def stage_ingest(cfg: RunConfig) -> None:
    """Parse, filter, tokenize once; write the corpus, vocabulary, matrices
    and the token report (uniqueness statistics, documents pruned from the DTM)."""
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)

    corpus = load_corpus_csv(cfg.input, cfg.schema, year_window=cfg.year_window)
    filtered = filter_corpus(corpus, cfg.excluded_types)
    logger.info(
        "ingest: loaded %d rows, retained %d documents",
        filtered.provenance.loaded,
        filtered.provenance.retained,
    )
    write_corpus_csv(filtered, out / A_CORPUS)
    artifacts.write_json(out / A_FILTER_REPORT, dataclasses.asdict(filtered.provenance))
    write_rejects_report(filtered.rejects, out / A_REJECTS)

    tokenized = textpipe.tokenize_documents(filtered, cfg.min_token_len)
    stoplist: frozenset[str] = (
        ENGLISH_STOPWORDS if cfg.builtin_stopwords else frozenset()
    )
    for path in cfg.stoplists:
        stoplist |= textpipe.load_stoplist(path)
    if cfg.auto_stop_df > 0.0:
        stoplist |= textpipe.auto_stop_terms(tokenized, cfg.auto_stop_df)
    streams = [textpipe.remove_stopwords(s, stoplist) for s in tokenized]

    vocab = textpipe.build_vocabulary(streams, cfg.min_term_freq)
    dtm = textpipe.build_dtm(streams, vocab)
    textpipe.write_vocabulary_tsv(dtm.vocabulary, out / A_VOCAB)
    textpipe.write_counts_tsv(dtm.rows, dtm.terms, dtm.counts, out / A_DTM)
    weighted = textpipe.weight_matrix(dtm, cfg.weighting)
    textpipe.write_counts_tsv(
        weighted.rows, weighted.terms, weighted.values, out / A_WEIGHTED, "weight"
    )

    uniq = textpipe.uniqueness_stats(tokenized)
    logger.info("ingest: %d of %d documents have no in-vocabulary token and are left out "
                "of the DTM", len(dtm.pruned_rows), len(tokenized))
    uniqueness = {**dataclasses.asdict(uniq), "ratio_of_means": uniq.ratio_of_means}
    report = {"uniqueness": uniqueness, "pruned_documents": list(dtm.pruned_rows)}
    artifacts.write_json(out / A_TOKEN_REPORT, report)


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


def stage_stats(cfg: RunConfig) -> None:
    """Descriptive tables plus the fitted growth trend (stats.json)."""
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    corpus = _load_corpus_artifact(out)
    vocab = textpipe.read_vocabulary_tsv(_require(out, A_VOCAB))
    filter_report = artifacts.read_json(_require(out, A_FILTER_REPORT))
    token_report = artifacts.read_json(_require(out, A_TOKEN_REPORT))

    table = stats_mod.term_frequency_table(vocab, cfg.top_terms)
    stats_mod.write_term_table_tsv(table, out / A_TERM_FREQS)
    series = stats_mod.publications_per_year(corpus)
    stats_mod.write_yearly_counts_tsv(series, out / A_YEARLY)
    shares = stats_mod.publication_type_shares(corpus)
    stats_mod.write_type_shares_tsv(shares, out / A_TYPE_SHARES)

    fitted_on = _trend_series(cfg, series)
    fit = stats_mod.fit_quadratic_trend(fitted_on)
    last_fitted = fitted_on.first_year + len(fitted_on.counts) - 1
    forecasts = [
        {"year": year, "value": fit.predict(year)}
        for year in range(last_fitted + 1, last_fitted + 1 + cfg.trend_horizon)
    ]
    payload = {
        "documents": len(corpus.documents),
        "filter_report": filter_report,
        "vocabulary_size": len(vocab),
        "top_terms_share": table.selected_share,
        "uniqueness": token_report["uniqueness"],
        "trend": {
            "c2": fit.c2,
            "c1": fit.c1,
            "c0": fit.c0,
            "r_squared": fit.r_squared,
            "first_year": fit.first_year,
            "fitted_through": last_fitted,
        },
        "forecasts": forecasts,
    }
    artifacts.write_json(out / A_STATS, payload)


def _weighted_ca_input(
    dtm: textpipe.DocTermMatrix, scheme: textpipe.WeightScheme
) -> ca_mod.CaInput:
    """The weighted DTM as CA input. tf-idf gives a term in every document
    zero weight (idf = ln 1), and entropy does the same to a term spread
    evenly over every document. CA cannot take such an all-zero column, or
    a document left with only such terms; that is a property of the data."""
    weighted = textpipe.weight_matrix(dtm, scheme)
    col_sums = np.asarray(weighted.values.sum(axis=0)).ravel()
    row_sums = np.asarray(weighted.values.sum(axis=1)).ravel()
    zero_terms = [weighted.terms[j] for j in np.flatnonzero(col_sums == 0)]
    zero_docs = [weighted.rows[i] for i in np.flatnonzero(row_sums == 0)]
    if zero_terms or zero_docs:
        spread = "" if weighted.scheme is textpipe.WeightScheme.TF_IDF else " equally often"
        raise DegenerateCorpusError(
            f"ca_input = weighted: {weighted.scheme.value} weighting gives zero weight "
            f"to term(s) {zero_terms} and document(s) {zero_docs}, because each such "
            f"term occurs{spread} in all {len(weighted.rows)} documents; "
            "use ca_input = counts or another weighting"
        )
    return ca_mod.CaInput.from_weighted(weighted)


def stage_ca(cfg: RunConfig) -> None:
    """Fit the correspondence model and project the year trajectory."""
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    corpus = _load_corpus_artifact(out)
    dtm = _load_dtm_artifact(out)

    if cfg.ca_input == "weighted":
        inp = _weighted_ca_input(dtm, cfg.weighting)
    else:
        inp = ca_mod.CaInput.from_counts(dtm)
    model = ca_mod.compute_ca(inp, cfg.ca_dims)
    ca_mod.write_coordinates_tsv(model, out / A_CA_COORDS)
    ca_mod.write_model_json(model, out / A_CA_MODEL)

    projections = [
        ca_mod.project_supplementary(model, profile, str(year))
        for year, profile in ca_mod.aggregate_year_profiles(dtm, corpus)
    ]
    ca_mod.write_year_coords_tsv(projections, out / A_YEAR_COORDS)


def stage_periods(cfg: RunConfig) -> None:
    """Per-period characteristic terms and pioneer documents."""
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
    corpus = _load_corpus_artifact(out)
    dtm = _load_dtm_artifact(out)
    reports = periods_mod.period_report(
        corpus, dtm, cfg.periods, cfg.period_terms, cfg.top_docs
    )
    periods_mod.write_periods_json(reports, len(corpus.documents), out / A_PERIODS_JSON)
    periods_mod.write_periods_markdown(
        reports, len(corpus.documents), out / A_PERIODS_MD
    )


def stage_figures(cfg: RunConfig) -> None:
    """Render every SVG from the tabular artifacts."""
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)

    vocab = textpipe.read_vocabulary_tsv(_require(out, A_VOCAB))
    table = stats_mod.term_frequency_table(vocab, cfg.top_terms)
    bars = [(r.term, float(r.frequency)) for r in table.rows]
    _write_svg(
        out / A_TERM_BARS,
        viz.render_bar_chart(
            bars,
            viz.ChartOptions(title="Most frequent terms", height=max(240, 18 * len(bars) + 60)),
        ),
    )

    type_bars = [
        (name, float(share))
        for name, share in artifacts.read_tsv(_require(out, A_TYPE_SHARES))
    ]
    _write_svg(
        out / A_TYPE_BARS,
        viz.render_bar_chart(
            type_bars,
            viz.ChartOptions(title="Document types", height=240),
        ),
    )

    stats_payload = artifacts.read_json(_require(out, A_STATS))
    yearly = list(artifacts.read_tsv(_require(out, A_YEARLY)))
    t = stats_payload["trend"]
    fit = stats_mod.TrendFit(
        c2=t["c2"], c1=t["c1"], c0=t["c0"],
        r_squared=t["r_squared"], first_year=t["first_year"],
    )
    fitted_through = t["fitted_through"]
    first_year = int(yearly[0][0])
    observed = stats_mod.YearlyCounts(
        first_year,
        tuple(int(c) for _, c in yearly[: fitted_through - first_year + 1]),
    )
    _write_svg(
        out / A_TREND,
        viz.render_trend_chart(
            observed,
            fit,
            cfg.trend_horizon,
            viz.ChartOptions(title="Publications per year"),
        ),
    )

    model = ca_mod.read_model_artifacts(
        _require(out, A_CA_COORDS), _require(out, A_CA_MODEL)
    )
    projections = ca_mod.read_year_coords_tsv(_require(out, A_YEAR_COORDS))
    _write_svg(
        out / A_CA_MAP,
        viz.render_ca_map(
            model,
            projections,
            viz.ChartOptions(title="Term map with year trajectory"),
        ),
    )

    k = min(cfg.cloud_terms, len(vocab))
    weights = [(term, float(vocab.total_frequency[term])) for term in vocab.terms[:k]]
    layout = viz.layout_word_cloud(weights, seed=cfg.seed)
    _write_svg(out / A_CLOUD, viz.render_word_cloud(layout))
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

    On stage failure the manifest is still written (status ``failed``
    plus the failing stage and message) and the exception propagates.
    Returns the output directory.
    """
    out = cfg.out
    out.mkdir(parents=True, exist_ok=True)
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
            fn(cfg)  # type: ignore[operator]
            manifest["stages"].append(
                {
                    "name": name,
                    "seconds": time.perf_counter() - start,
                    "status": "ok",
                }
            )
            logger.info("stage %s finished", name)
    except Exception as exc:
        manifest["status"] = "failed"
        manifest["failed_stage"] = name
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        artifacts.write_json(out / A_MANIFEST, manifest)
        raise
    model_meta = artifacts.read_json(out / A_CA_MODEL)
    stats_payload = artifacts.read_json(out / A_STATS)
    manifest["summary"] = {
        "documents": stats_payload["documents"],
        "vocabulary_size": stats_payload["vocabulary_size"],
        "dims": model_meta["dims"],
        "singular_values": model_meta["singular_values"],
        "inertia_shares": model_meta["inertia_shares"],
    }
    artifacts.write_json(out / A_MANIFEST, manifest)
    return out
