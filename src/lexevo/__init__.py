"""lexevo: lexical-evolution analysis of bibliographic corpora.

Parse a bibliographic CSV export, clean and tokenize the abstracts,
build document-term matrices, fit a correspondence model with a yearly
trajectory, profile research periods, and render deterministic SVG
figures — from one config file, reproducibly.
"""

from .ca import (
    SIGN_CONVENTION,
    CaInput,
    CaModel,
    SupplementaryProjection,
    aggregate_year_profiles,
    compute_ca,
    project_supplementary,
)
from .config import RunConfig, load_config, parse_config_text, to_config_text
from .corpus import (
    CANONICAL_SCHEMA,
    Corpus,
    CsvSchema,
    DocType,
    Document,
    FilterReport,
    filter_corpus,
    load_corpus_csv,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateCorpusError,
    DependencyError,
    EmptyMatrixError,
    EmptyPeriodError,
    EncodingError,
    InsufficientDataError,
    LabelNotFoundError,
    LayoutError,
    LexevoError,
    SchemaError,
    UndefinedStatisticError,
    ValidationError,
)
from .periods import (
    DEFAULT_PERIOD_SPEC,
    Period,
    PeriodReport,
    PeriodSpec,
    assign_periods,
    characteristic_terms,
    period_report,
    pioneer_documents,
)
from .pipeline import run_pipeline
from .stats import (
    TrendFit,
    YearlyCounts,
    fit_quadratic_trend,
    publication_type_shares,
    publications_per_year,
    term_frequency_table,
)
from .textpipe import (
    DocTermMatrix,
    TermCounts,
    TokenStream,
    Vocabulary,
    WeightScheme,
    build_dtm,
    build_vocabulary,
    count_terms,
    remove_stopwords,
    tokenize,
    tokenize_documents,
    uniqueness_stats,
    weight_matrix,
)
from .viz import (
    CloudLayout,
    layout_word_cloud,
    render_bar_chart,
    render_ca_map,
    render_trend_chart,
    render_word_cloud,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "LexevoError",
    "ValidationError",
    "SchemaError",
    "ConfigError",
    "DependencyError",
    "LabelNotFoundError",
    "DataError",
    "EncodingError",
    "EmptyMatrixError",
    "DegenerateCorpusError",
    "InsufficientDataError",
    "UndefinedStatisticError",
    "EmptyPeriodError",
    "LayoutError",
    # corpus
    "DocType",
    "Document",
    "FilterReport",
    "Corpus",
    "CsvSchema",
    "CANONICAL_SCHEMA",
    "load_corpus_csv",
    "filter_corpus",
    # text
    "TokenStream",
    "TermCounts",
    "Vocabulary",
    "DocTermMatrix",
    "WeightScheme",
    "tokenize",
    "tokenize_documents",
    "count_terms",
    "remove_stopwords",
    "build_vocabulary",
    "build_dtm",
    "weight_matrix",
    "uniqueness_stats",
    # stats
    "YearlyCounts",
    "TrendFit",
    "publications_per_year",
    "publication_type_shares",
    "term_frequency_table",
    "fit_quadratic_trend",
    # ca
    "SIGN_CONVENTION",
    "CaInput",
    "CaModel",
    "SupplementaryProjection",
    "compute_ca",
    "project_supplementary",
    "aggregate_year_profiles",
    # periods
    "Period",
    "PeriodSpec",
    "PeriodReport",
    "DEFAULT_PERIOD_SPEC",
    "assign_periods",
    "characteristic_terms",
    "pioneer_documents",
    "period_report",
    # viz
    "CloudLayout",
    "layout_word_cloud",
    "render_word_cloud",
    "render_bar_chart",
    "render_trend_chart",
    "render_ca_map",
    # config / pipeline
    "RunConfig",
    "parse_config_text",
    "load_config",
    "to_config_text",
    "run_pipeline",
]
