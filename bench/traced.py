"""Run one ``lexevo`` subcommand with spans around calls into each module.

Usage: ``python3 bench/traced.py SPANS_JSON <lexevo arguments>``

The spans are recorded from outside the program: this script imports
``lexevo.cli`` inside a span, replaces the public functions listed in
``PATCHES`` with timing wrappers (at the name the caller looks them up
by), runs ``lexevo.cli.main`` and, when it returns, writes every span as
``[name, start, end, parent]`` plus the counters to SPANS_JSON. Nothing
is written while the program runs. The exit code is the one ``main``
returns.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(result, *args)`` returns counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                self.counts.update(count(result, *args))
            return result

        return traced


def _filter_counts(corpus, *_):
    return {
        "corpus.rows_loaded": corpus.provenance.loaded,
        "corpus.rows_rejected": len(corpus.rejects),
        "corpus.docs_retained": corpus.provenance.retained,
    }


def _dtm_counts(dtm, *_):
    return {
        "textpipe.vocab_size": len(dtm.terms),
        "textpipe.nnz": int(dtm.counts.nnz),
        "textpipe.pruned_rows": len(dtm.pruned_rows),
        "textpipe.pruned_terms": len(dtm.pruned_terms),
    }


def _ca_counts(_model, inp, *_):
    rows, cols = inp.matrix.shape
    return {"ca.dense_input_mb": rows * cols * 8 / 2**20}


# (module, attribute, counter) for every wrapped function. Each function
# is replaced where its caller looks it up: ``pipeline`` imported the
# corpus functions by name, while it calls the other modules through the
# module object; ``period_report`` calls its helpers as module globals.
PATCHES = (
    ("lexevo.cli", "load_config", None),
    ("lexevo.pipeline", "load_corpus_csv", None),
    ("lexevo.pipeline", "filter_corpus", _filter_counts),
    ("lexevo.pipeline", "write_corpus_csv", None),
    ("lexevo.pipeline", "write_rejects_report", None),
    ("lexevo.textpipe", "tokenize_documents",
     lambda streams, *_: {"textpipe.tokens": sum(len(s.tokens) for s in streams)}),
    ("lexevo.textpipe", "remove_stopwords", None),
    ("lexevo.textpipe", "build_vocabulary", None),
    ("lexevo.textpipe", "build_dtm", _dtm_counts),
    ("lexevo.textpipe", "weight_matrix", None),
    ("lexevo.textpipe", "write_counts_tsv", None),
    ("lexevo.textpipe", "read_counts_tsv", None),
    ("lexevo.textpipe", "dtm_from_triplets", None),
    ("lexevo.textpipe", "uniqueness_stats", None),
    ("lexevo.stats", "fit_quadratic_trend", None),
    ("lexevo.ca", "compute_ca", _ca_counts),
    ("lexevo.ca", "aggregate_year_profiles", None),
    ("lexevo.ca", "project_supplementary", None),
    ("lexevo.ca", "write_coordinates_tsv", None),
    ("lexevo.ca", "write_model_json", None),
    ("lexevo.ca", "write_year_coords_tsv", None),
    ("lexevo.ca", "read_model_artifacts", None),
    ("lexevo.ca", "read_year_coords_tsv", None),
    ("lexevo.periods", "period_report", None),
    ("lexevo.periods", "characteristic_terms", None),
    ("lexevo.periods", "pioneer_documents", None),
    ("lexevo.viz", "layout_word_cloud",
     lambda layout, *_: {"viz.cloud_dropped": len(layout.dropped)}),
    ("lexevo.viz", "render_bar_chart", None),
    ("lexevo.viz", "render_trend_chart", None),
    ("lexevo.viz", "render_ca_map", None),
    ("lexevo.viz", "render_word_cloud", None),
)


def span_name(fn) -> str:
    """``<module>.<function>`` without the package prefix."""
    return f"{fn.__module__.removeprefix('lexevo.')}.{fn.__qualname__}"


def install(tracer: Tracer) -> None:
    cli = sys.modules["lexevo.cli"]
    for stage, fn in list(cli._COMMANDS.items()):
        cli._COMMANDS[stage] = tracer.wrap(span_name(fn), fn)
    for module_name, attr, count in PATCHES:
        module = sys.modules[module_name]
        fn = getattr(module, attr)
        setattr(module, attr, tracer.wrap(span_name(fn), fn, count))
    ca_input = sys.modules["lexevo.ca"].CaInput
    from_counts = ca_input.from_counts
    ca_input.from_counts = staticmethod(tracer.wrap(span_name(from_counts), from_counts))


def main(argv: list[str]) -> int:
    spans_path, lexevo_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("setup.import"):
        import lexevo.cli
    install(tracer)
    code = lexevo.cli.main(lexevo_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
