from dataclasses import fields, replace
from pathlib import Path

import pytest

from lexevo.config import RunConfig, load_config, parse_config_text, to_config_text
from lexevo.corpus import CsvSchema, DocType
from lexevo.errors import ConfigError
from lexevo.periods import PeriodSpec
from lexevo.textpipe import WeightScheme

MINIMAL = "input = corpus.csv\n"


def test_defaults():
    cfg = parse_config_text(MINIMAL, base_dir="/base")
    assert cfg.input == Path("/base/corpus.csv")
    assert cfg.out == Path("out")
    assert cfg.min_token_len == 2
    assert cfg.min_term_freq == 5
    assert cfg.weighting is WeightScheme.RELATIVE_FREQUENCY
    assert cfg.ca_input == "counts"
    assert cfg.ca_dims == 2
    assert cfg.excluded_types == frozenset({DocType.OTHER})
    assert cfg.builtin_stopwords is True
    assert cfg.stoplists == ()
    assert cfg.periods.names() == ["Surgimiento", "Crecimiento", "Auge"]
    assert cfg.seed == 0


def test_full_config_parses():
    text = """
# comment line
input = data/in.csv
out = results

schema.title = Title
schema.abstract = Abstract
schema.year = Year
schema.doc_type = Type
schema.keywords = Keywords

excluded_types = other, review
year_min = 2000
year_max = 2030
builtin_stopwords = false
stoplists = stop1.txt, stop2.txt
min_token_len = 3
min_term_freq = 2
auto_stop_df = 0.9
weighting = tf-idf
ca_input = weighted
ca_dims = 3
periods = A:2000-2010,B:2011-2030
top_terms = 20
top_docs = 5
period_terms = 7
cloud_terms = 25
trend_horizon = 1
trend_skip_last = 1
seed = 42
"""
    cfg = parse_config_text(text, base_dir="/b")
    assert cfg.input == Path("/b/data/in.csv")
    assert cfg.out == Path("/b/results")
    assert cfg.schema.title == "Title"
    assert cfg.schema.keywords == "Keywords"
    assert cfg.schema.citations is None  # unmentioned optional -> absent
    assert cfg.excluded_types == frozenset({DocType.OTHER, DocType.REVIEW})
    assert cfg.year_window == (2000, 2030)
    assert cfg.builtin_stopwords is False
    assert cfg.stoplists == (Path("/b/stop1.txt"), Path("/b/stop2.txt"))
    assert cfg.weighting is WeightScheme.TF_IDF
    assert cfg.ca_input == "weighted"
    assert cfg.periods.names() == ["A", "B"]
    assert cfg.trend_skip_last == 1
    assert cfg.seed == 42


def test_absolute_paths_stay_absolute():
    cfg = parse_config_text("input = /abs/x.csv\nout = /abs/out\n", base_dir="/b")
    assert cfg.input == Path("/abs/x.csv")
    assert cfg.out == Path("/abs/out")


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="wibble"):
        parse_config_text(MINIMAL + "wibble = 3\n")


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("input = a.csv\ninput = b.csv\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'schema.title'"):
        parse_config_text("input = a.csv\nschema.title = T\nschema.title = U\n")


def test_missing_input_is_an_error():
    with pytest.raises(ConfigError, match="input"):
        parse_config_text("seed = 3\n")


def test_syntax_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("input = a.csv\nnot a pair\n")


def test_partial_schema_block_must_name_required_fields():
    with pytest.raises(ConfigError, match="schema.abstract"):
        parse_config_text(MINIMAL + "schema.title = Title\n")


def test_unknown_schema_field():
    with pytest.raises(ConfigError, match="schema.venue"):
        parse_config_text(MINIMAL + "schema.venue = Venue\n")


@pytest.mark.parametrize(
    "line",
    [
        "min_term_freq = 0",
        "min_token_len = 0",
        "ca_dims = 0",
        "top_terms = 0",
        "trend_horizon = -1",
        "auto_stop_df = 1.5",
        "year_min = 2030\nyear_max = 2020",
        "ca_input = nonsense",
        "weighting = idf",
        "seed = often",
        "min_term_freq = 2.5",
        "periods = A:2000-2010, B:2005-2020",
    ],
)
def test_out_of_range_values_are_config_errors(line):
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + line + "\n")


def test_one_ca_dimension_is_a_config_error_not_a_failed_map(tmp_path):
    # The CA map plots dimensions 1 and 2; a run with ca_dims = 1 used to
    # fail in its last stage, after every other artifact was written.
    (tmp_path / "corpus.csv").write_text("", encoding="utf-8")
    conf = tmp_path / "run.conf"
    conf.write_text("input = corpus.csv\nca_dims = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="ca_dims must be >= 2, got 1"):
        load_config(conf)


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "often"),
        ("auto_stop_df", "half"),
        ("builtin_stopwords", "maybe"),
        ("weighting", "idf"),
        ("periods", "A:2000"),
    ],
)
def test_unparsable_value_error_names_key_and_value(key, value):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"{MINIMAL}{key} = {value}\n")
    assert str(err.value).startswith(f"{key} expects ")
    assert repr(value) in str(err.value)


def test_excluded_types_accepts_aliases():
    cfg = parse_config_text(MINIMAL + "excluded_types = Conference Paper, other\n")
    assert cfg.excluded_types == frozenset({DocType.CONFERENCE_PAPER, DocType.OTHER})


def test_config_echo_is_a_fixed_point():
    text = (
        "input = /data/in.csv\nout = /data/out\n"
        "weighting = entropy\nperiods = A:2001-2004, B:2005-2009\n"
        "auto_stop_df = 0.35\nseed = 9\ntrend_skip_last = 2\n"
    )
    cfg = parse_config_text(text)
    echo = to_config_text(cfg)
    again = parse_config_text(echo)
    assert again == cfg
    assert to_config_text(again) == echo


#: A value other than the default for every RunConfig field.
NON_DEFAULT = {
    "input": Path("/data/other.csv"),
    "out": Path("/data/elsewhere"),
    "schema": CsvSchema(
        title="Title", abstract="Abstract", year="Year", doc_type="Document Type",
        keywords=None, citations="Cited by", id="EID",
    ),
    "excluded_types": frozenset({DocType.REVIEW, DocType.BOOK_CHAPTER}),
    "year_min": 1995,
    "year_max": 2050,
    "builtin_stopwords": False,
    "stoplists": (Path("/s/one.txt"), Path("/s/two.txt")),
    "min_token_len": 4,
    "min_term_freq": 1,
    "auto_stop_df": 0.1 + 0.2,
    "weighting": WeightScheme.TF_IDF,
    "ca_input": "weighted",
    "ca_dims": 5,
    "periods": PeriodSpec.parse("Early:1995-2004, Late:2010-2050"),
    "top_terms": 12,
    "top_docs": 1,
    "period_terms": 4,
    "cloud_terms": 99,
    "trend_horizon": 0,
    "trend_skip_last": 3,
    "seed": 123,
}


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_every_field_survives_echo_and_parse(name):
    default = RunConfig(input=Path("/data/in.csv"))
    value = NON_DEFAULT[name]
    assert value != getattr(default, name)
    cfg = replace(default, **{name: value})
    again = parse_config_text(to_config_text(cfg))
    assert getattr(again, name) == value
    assert again == cfg


def test_echo_has_one_line_per_field_in_field_order():
    echo = to_config_text(replace(RunConfig(input=Path("/in.csv")), **NON_DEFAULT))
    keys = [line.split(" = ")[0] for line in echo.splitlines()]
    expected = []
    for f in fields(RunConfig):
        if f.name == "schema":
            expected += [f"schema.{c.name}" for c in fields(CsvSchema)]
        else:
            expected.append(f.name)
    assert keys == expected
    assert len(keys) == len(fields(RunConfig)) - 1 + 7


def test_load_config_checks_existence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("input = missing.csv\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="not found"):
        load_config(conf)
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(tmp_path / "nope.conf")


def test_load_config_checks_stoplists(tmp_path):
    (tmp_path / "c.csv").write_text("x\n", encoding="utf-8")
    conf = tmp_path / "run.conf"
    conf.write_text("input = c.csv\nstoplists = nope.txt\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="stoplist"):
        load_config(conf)


def test_load_config_resolves_relative_to_config_dir(tmp_path):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "c.csv").write_text(
        "title,abstract,year,doc_type\nT,A,2020,article\n", encoding="utf-8"
    )
    conf = sub / "run.conf"
    conf.write_text("input = c.csv\n", encoding="utf-8")
    cfg = load_config(conf)
    assert cfg.input == sub / "c.csv"


def test_overrides_replace_out_and_seed():
    cfg = parse_config_text(MINIMAL, base_dir="/b")
    new = cfg.with_overrides(out="/elsewhere", seed=99)
    assert new.out == Path("/elsewhere")
    assert new.seed == 99
    assert new.input == cfg.input
    # no-op overrides change nothing
    assert cfg.with_overrides() == cfg


def test_runconfig_validates_directly():
    with pytest.raises(ConfigError):
        RunConfig(input=Path("x"), ca_dims=0)
    with pytest.raises(ConfigError):
        RunConfig(input=Path("x"), ca_input="magic")
