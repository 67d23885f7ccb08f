"""Run configuration.

Every tunable for a pipeline run lives in one small UTF-8 config file of
``key = value`` lines (a leading byte-order mark is ignored), so a run is
reproducible from (config file, input CSV, seed). ``#`` starts a full-line
comment; blank lines are ignored; keys may appear at most once. List-valued
keys use commas. The keys are the fields of :class:`RunConfig`, except that
CSV column names are remapped with one dotted ``schema.*`` key per
:class:`CsvSchema` field; each field's type picks the codec that parses and
echoes its value. Relative paths are resolved against the directory
containing the config file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple, get_type_hints

from . import artifacts
from .corpus import (
    CANONICAL_SCHEMA,
    DEFAULT_EXCLUDED_TYPES,
    DEFAULT_YEAR_WINDOW,
    CsvSchema,
    DocType,
    normalize_doc_type,
)
from .errors import ConfigError, ValidationError
from .periods import DEFAULT_PERIOD_SPEC, PeriodSpec
from .textpipe import DEFAULT_MIN_TERM_FREQUENCY, DEFAULT_MIN_TOKEN_LEN, WeightScheme

__all__ = [
    "RunConfig",
    "parse_config_text",
    "load_config",
    "to_config_text",
]

_CA_INPUTS = ("counts", "weighted")

#: Smallest allowed value of each bounded integer field. The CA map plots
#: dimensions 1 and 2, so a run needs ``ca_dims`` >= 2.
_MINIMUM = {
    "min_token_len": 1, "min_term_freq": 1, "ca_dims": 2, "top_terms": 1,
    "top_docs": 1, "period_terms": 1, "cloud_terms": 1,
    "trend_horizon": 0, "trend_skip_last": 0,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one end-to-end run."""

    input: Path
    out: Path = Path("out")
    schema: CsvSchema = CANONICAL_SCHEMA
    excluded_types: frozenset[DocType] = DEFAULT_EXCLUDED_TYPES
    year_min: int = DEFAULT_YEAR_WINDOW[0]
    year_max: int = DEFAULT_YEAR_WINDOW[1]
    builtin_stopwords: bool = True
    stoplists: tuple[Path, ...] = ()
    min_token_len: int = DEFAULT_MIN_TOKEN_LEN
    min_term_freq: int = DEFAULT_MIN_TERM_FREQUENCY
    auto_stop_df: float = 0.0
    weighting: WeightScheme = WeightScheme.RELATIVE_FREQUENCY
    ca_input: str = "counts"
    ca_dims: int = 2
    periods: PeriodSpec = DEFAULT_PERIOD_SPEC
    top_terms: int = 30
    top_docs: int = 3
    period_terms: int = 10
    cloud_terms: int = 40
    trend_horizon: int = 2
    trend_skip_last: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in _MINIMUM.items():
            value = getattr(self, name)
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if not 0.0 <= self.auto_stop_df <= 1.0:
            raise ConfigError(
                f"auto_stop_df must be in [0, 1], got {self.auto_stop_df}"
            )
        if self.year_min > self.year_max:
            raise ConfigError(
                f"year_min {self.year_min} exceeds year_max {self.year_max}"
            )
        if self.ca_input not in _CA_INPUTS:
            raise ConfigError(
                f"ca_input must be one of {_CA_INPUTS}, got {self.ca_input!r}"
            )

    @property
    def year_window(self) -> tuple[int, int]:
        return (self.year_min, self.year_max)

    def check_paths(self) -> None:
        """Verify that the referenced input files exist."""
        if not self.input.is_file():
            raise ConfigError(f"input file not found: {self.input}")
        for p in self.stoplists:
            if not p.is_file():
                raise ConfigError(f"stoplist file not found: {p}")

    def with_overrides(
        self, out: str | Path | None = None, seed: int | None = None
    ) -> "RunConfig":
        """Apply the command-line ``--out`` / ``--seed`` overrides."""
        cfg = self
        if out is not None:
            cfg = replace(cfg, out=Path(out))
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        return cfg


class _Codec(NamedTuple):
    """Parser and echo of one field type; ``parse`` raises ValueError,
    KeyError or ValidationError, and the error names ``expects``."""

    parse: Callable[[str], Any]
    format: Callable[[Any], str]
    expects: str


def _codecs(base: Path) -> dict[Any, _Codec]:
    """The codec of each field type. Paths are joined to ``base``, so a
    relative path resolves against it and an absolute one replaces it."""

    def items(value: str) -> list[str]:
        return [item.strip() for item in value.split(",") if item.strip()]

    bools = {"true": True, "false": False, "yes": True, "no": False}
    return {
        Path: _Codec(base.joinpath, str, "a path"),
        int: _Codec(int, str, "an integer"),
        float: _Codec(float, repr, "a number"),
        bool: _Codec(lambda v: bools[v.lower()], lambda b: str(b).lower(), "true/false"),
        str: _Codec(str, str, "a string"),
        tuple[Path, ...]: _Codec(
            lambda v: tuple(map(base.joinpath, items(v))),
            lambda paths: ",".join(map(str, paths)),
            "comma-separated paths",
        ),
        frozenset[DocType]: _Codec(
            lambda v: frozenset(map(normalize_doc_type, items(v))),
            lambda types: ",".join(sorted(t.value for t in types)),
            "comma-separated document types",
        ),
        WeightScheme: _Codec(
            WeightScheme, lambda w: w.value, f"one of {[w.value for w in WeightScheme]}"
        ),
        PeriodSpec: _Codec(PeriodSpec.parse, PeriodSpec.format, "Name:first-last periods"),
    }


#: Field name -> resolved type (the annotations are strings here).
_FIELD_TYPES = get_type_hints(RunConfig)
_SCHEMA_COLUMNS = tuple(f.name for f in fields(CsvSchema))


def parse_config_text(text: str, base_dir: str | Path = ".") -> RunConfig:
    """Parse config-file text into a :class:`RunConfig`.

    Raises :class:`ConfigError` (naming the offending key and line) for
    syntax errors, unknown or duplicate keys, and out-of-range values.
    """
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()

    if "input" not in pairs:
        raise ConfigError("missing required key 'input'")

    codecs = _codecs(Path(base_dir))
    kwargs: dict[str, Any] = {}
    schema_over: dict[str, str | None] = {}
    for key, value in pairs.items():
        if key.startswith("schema."):
            column = key[len("schema."):]
            if column not in _SCHEMA_COLUMNS:
                raise ConfigError(f"unknown schema field {key!r}")
            schema_over[column] = value or None
            continue
        codec = codecs.get(_FIELD_TYPES.get(key))
        if codec is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = codec.parse(value)
        except (ValueError, KeyError, ValidationError) as exc:
            detail = f" ({exc})" if isinstance(exc, ValidationError) else ""
            raise ConfigError(f"{key} expects {codec.expects}, got {value!r}{detail}") from None

    if schema_over:
        # An explicit schema block replaces the canonical mapping wholesale:
        # required fields must all be named, unmentioned optional columns
        # are treated as absent rather than inheriting canonical names.
        for required in ("title", "abstract", "year", "doc_type"):
            if schema_over.get(required) is None:
                raise ConfigError(
                    f"schema.{required} is required when any schema.* key is set"
                )
        kwargs["schema"] = CsvSchema(**schema_over)  # type: ignore[arg-type]

    return RunConfig(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a config file; relative paths resolve against
    the file's own directory."""
    p = Path(path)
    try:
        text = artifacts.read_text(p)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except OSError as exc:
        raise ConfigError(f"config file not readable: {p} ({exc.strerror})") from None
    cfg = parse_config_text(text, base_dir=p.parent)
    cfg.check_paths()
    return cfg


def to_config_text(cfg: RunConfig) -> str:
    """Canonical echo of a config, parseable by :func:`parse_config_text`:
    one line per field in field order, ``schema`` as its seven columns.

    Embedded in the run manifest so any run can be repeated from its
    outputs alone.
    """
    codecs = _codecs(Path("."))
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.name == "schema":
            lines += [f"schema.{c} = {getattr(value, c) or ''}" for c in _SCHEMA_COLUMNS]
        else:
            lines.append(f"{f.name} = {codecs[_FIELD_TYPES[f.name]].format(value)}")
    return "\n".join(lines) + "\n"
