import csv
import importlib.util
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lexevo import artifacts, pipeline, stats, textpipe
from lexevo.ca import (
    CaInput,
    compute_ca,
    read_model_artifacts,
    read_year_coords_tsv,
    write_coordinates_tsv,
    write_model_json,
)
from lexevo.cli import main
from lexevo.errors import DataError, DegenerateCorpusError, DependencyError
from lexevo.pipeline import ARTIFACTS
from lexevo.stopwords import ENGLISH_STOPWORDS
from lexevo.textpipe import tokenize_documents, uniqueness_stats, weight_matrix

ALL_STAGES = ("ingest", "stats", "ca", "periods", "figures")


def _artifact_bytes(out: Path) -> dict[str, bytes]:
    """Every artifact except the manifest, which embeds wall-clock timings."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def test_run_writes_every_artifact(tmp_path, write_mini_config):
    out = tmp_path / "out"
    config = write_mini_config(out)
    assert main(["run", "--config", str(config)]) == 0
    expected = {name for stage in ALL_STAGES for name in ARTIFACTS[stage]}
    expected.add("manifest.json")
    assert {p.name for p in out.iterdir()} == expected
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert [s["name"] for s in manifest["stages"]] == list(ALL_STAGES)
    assert all(s["status"] == "ok" for s in manifest["stages"])
    assert len(manifest["input_sha256"]) == 64


def test_manifest_summary_holds_only_the_retained_dimensions(tmp_path, write_mini_config):
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_mini_config(out))]) == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    model = json.loads((out / "ca_model.json").read_text())
    dims = summary["dims"]
    assert dims == model["dims"] < len(model["singular_values"])
    assert summary["singular_values"] == model["singular_values"][:dims]
    assert summary["inertia_shares"] == model["inertia_shares"][:dims]


def test_staged_run_equals_full_run(tmp_path, write_mini_config):
    full = tmp_path / "full"
    staged = tmp_path / "staged"
    assert main(["run", "--config", str(write_mini_config(full))]) == 0
    staged_config = write_mini_config(staged)
    for stage in ALL_STAGES:
        assert main([stage, "--config", str(staged_config)]) == 0
    assert _artifact_bytes(full) == _artifact_bytes(staged)


def test_figures_draws_the_term_table_and_forecasts_that_stats_wrote(tmp_path, write_mini_config):
    full, staged = tmp_path / "full", tmp_path / "staged"
    assert main(["run", "--config", str(write_mini_config(full))]) == 0
    config = write_mini_config(staged)
    for stage in ALL_STAGES[:-1]:
        assert main([stage, "--config", str(config)]) == 0
    text = config.read_text(encoding="utf-8")
    assert "top_terms = 15\n" in text and "trend_horizon = 2\n" in text
    mixed = tmp_path / "mixed.conf"
    text = text.replace("top_terms = 15", "top_terms = 5")
    mixed.write_text(text.replace("trend_horizon = 2", "trend_horizon = 4"), encoding="utf-8")
    assert main(["figures", "--config", str(mixed)]) == 0
    for name in ("term_bars.svg", "trend.svg"):
        assert (staged / name).read_bytes() == (full / name).read_bytes(), name


@pytest.mark.parametrize("weighting", ["relative-frequency", "tf-idf", "entropy"])
def test_weighted_ca_input_is_the_ca_of_the_weighted_dtm(
    tmp_path, write_mini_config, mini_dtm, weighting
):
    extra = {"ca_input": "weighted", "weighting": weighting}
    full, staged = tmp_path / "full", tmp_path / "staged"
    assert main(["run", "--config", str(write_mini_config(full, **extra))]) == 0
    staged_config = write_mini_config(staged, **extra)
    for stage in ALL_STAGES:
        assert main([stage, "--config", str(staged_config)]) == 0
    assert _artifact_bytes(full) == _artifact_bytes(staged)

    model = compute_ca(
        CaInput(weight_matrix(mini_dtm, weighting), mini_dtm.rows, mini_dtm.terms)
    )
    expected = tmp_path / "expected"
    expected.mkdir()
    write_coordinates_tsv(model, expected / "ca_coords.tsv")
    write_model_json(model, expected / "ca_model.json")
    for name in ("ca_coords.tsv", "ca_model.json"):
        assert (full / name).read_bytes() == (expected / name).read_bytes()


@pytest.mark.parametrize("weighting", [None, "relative-frequency", "tf-idf", "entropy"])
def test_year_points_are_the_centroids_of_their_documents(
    tmp_path, write_mini_config, mini_corpus, weighting
):
    # A year's profile sums the rows CA is fitted on, so its supplementary
    # point is the mass-weighted centroid of that year's row points.
    extra = {"ca_input": "weighted", "weighting": weighting} if weighting else {}
    out = tmp_path / "out"
    config = str(write_mini_config(out, **extra))
    assert main(["ingest", "--config", config]) == 0
    assert main(["ca", "--config", config]) == 0
    model = read_model_artifacts(out / "ca_coords.tsv", out / "ca_model.json")
    years = {doc.id: doc.year for doc in mini_corpus.documents}
    row_years = np.array([years[label] for label in model.row_labels])
    projections = read_year_coords_tsv(out / "year_coords.tsv", model.dims)
    assert [int(p.label) for p in projections] == sorted(set(row_years))
    for p in projections:
        members = row_years == int(p.label)
        mass = model.row_masses[members]
        centroid = mass @ model.row_coords_principal[members] / mass.sum()
        np.testing.assert_allclose(p.coords, centroid, rtol=0, atol=1e-12)


def test_same_seed_runs_are_byte_identical(tmp_path, write_mini_config):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(write_mini_config(a, seed=5))]) == 0
    assert main(["run", "--config", str(write_mini_config(b, seed=5))]) == 0
    assert _artifact_bytes(a) == _artifact_bytes(b)


def test_seed_changes_only_the_seeded_artifacts(tmp_path, write_mini_config):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(write_mini_config(a, seed=1))]) == 0
    assert main(["run", "--config", str(write_mini_config(b, seed=2))]) == 0
    bytes_a, bytes_b = _artifact_bytes(a), _artifact_bytes(b)
    seeded = {"word_cloud.svg", "cloud_layout.tsv"}
    for name in bytes_a:
        if name not in seeded:
            assert bytes_a[name] == bytes_b[name], name
    assert bytes_a["word_cloud.svg"] != bytes_b["word_cloud.svg"]


def test_out_and_seed_flags_override_the_config(tmp_path, write_mini_config):
    config = write_mini_config(tmp_path / "ignored", seed=1)
    elsewhere = tmp_path / "elsewhere"
    code = main(
        ["run", "--config", str(config), "--out", str(elsewhere), "--seed", "2"]
    )
    assert code == 0
    assert elsewhere.is_dir()
    assert not (tmp_path / "ignored").exists()
    manifest = json.loads((elsewhere / "manifest.json").read_text())
    assert manifest["seed"] == 2


def test_missing_upstream_artifact_names_the_producing_stage(
    tmp_path, write_mini_config, capsys
):
    config = write_mini_config(tmp_path / "out")
    assert main(["stats", "--config", str(config)]) == 1
    assert "run 'lexevo ingest' first" in capsys.readouterr().err


def test_stage_order_does_not_matter_for_satisfied_dependencies(
    tmp_path, write_mini_config
):
    config = write_mini_config(tmp_path / "out")
    assert main(["ingest", "--config", str(config)]) == 0
    # periods only needs ingest artifacts, not stats or ca
    assert main(["periods", "--config", str(config)]) == 0


def test_bad_config_exits_1(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("input = nowhere.csv\n", encoding="utf-8")
    assert main(["run", "--config", str(conf)]) == 1
    conf.write_text("inputs = typo.csv\n", encoding="utf-8")
    assert main(["run", "--config", str(conf)]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.conf")]) == 1


@pytest.mark.parametrize(
    "argv",
    [[], ["bogus"], ["run"], ["run", "--config", "x.conf", "--seed", "x"]],
    ids=["no-subcommand", "unknown-subcommand", "no-config", "bad-seed"],
)
def test_a_command_line_usage_error_exits_1_with_the_usage_on_stderr(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: lexevo" in captured.err and "error:" in captured.err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "usage: lexevo" in capsys.readouterr().out


def test_a_config_path_that_is_a_directory_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path)]) == 1
    assert f"config file not readable: {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, out",
    [("run", "a_file"), ("ingest", "a_file"), ("run", "a_file/out")],
    ids=["run", "stage", "under-a-file"],
)
def test_an_out_that_is_not_a_directory_exits_1_naming_it(
    tmp_path, write_mini_config, capsys, command, out
):
    (tmp_path / "a_file").write_text("", encoding="utf-8")
    config = write_mini_config(tmp_path / out)
    assert main([command, "--config", str(config)]) == 1
    assert f"out is not a directory: {tmp_path / out}" in capsys.readouterr().err


def test_data_error_exits_2(tmp_path, write_mini_config):
    out = tmp_path / "out"
    config = write_mini_config(out)
    assert main(["ingest", "--config", str(config)]) == 0
    # Emptying the corpus makes the yearly statistics undefined.
    header = (out / "corpus.csv").read_text(encoding="utf-8").splitlines()[0]
    (out / "corpus.csv").write_text(header + "\n", encoding="utf-8")
    assert main(["stats", "--config", str(config)]) == 2


def test_ingest_of_an_invalid_utf8_export_exits_2(tmp_path, write_mini_config, capsys):
    raw = bytearray((Path(pipeline.__file__).parent / "data" / "mini_corpus.csv").read_bytes())
    bad = raw.index(b"e", 3 * len(raw) // 4)  # past the first 8 KiB decode chunk
    raw[bad] = 0xFF
    source = tmp_path / "export.csv"
    source.write_bytes(bytes(raw))
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(write_mini_config(out, source=source))]) == 2
    assert f"{source} is not valid UTF-8 at byte {bad} (ff)" in capsys.readouterr().err
    assert not (out / "corpus.csv").exists()


def test_a_config_with_a_byte_order_mark_gives_the_same_artifacts(tmp_path, write_mini_config):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    assert main(["run", "--config", str(write_mini_config(plain))]) == 0
    config = write_mini_config(marked)
    config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
    assert main(["run", "--config", str(config)]) == 0
    assert _artifact_bytes(marked) == _artifact_bytes(plain)


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("culprit", ["config", "stoplist"])
def test_a_config_or_stoplist_that_is_not_utf8_exits_2_naming_the_file_and_byte(
    tmp_path, write_mini_config, capsys, culprit, bom
):
    stoplist = tmp_path / "stop.txt"
    stoplist.write_text("registry\n", encoding="utf-8")
    config = write_mini_config(tmp_path / "out", stoplists=stoplist)
    path = config if culprit == "config" else stoplist
    path.write_bytes(bom + b"# caf\xff\n" + path.read_bytes())
    assert main(["ingest", "--config", str(config)]) == 2
    assert f"{path} is not valid UTF-8 at byte {len(bom) + 5} (ff)" in capsys.readouterr().err


def test_a_corpus_artifact_that_is_not_utf8_is_malformed(tmp_path, write_mini_config, capsys):
    out = tmp_path / "out"
    config = write_mini_config(out)
    assert main(["ingest", "--config", str(config)]) == 0
    corpus = out / "corpus.csv"
    raw = bytearray(corpus.read_bytes())
    bad = raw.index(b"\n") + 1  # the first byte of the first record
    raw[bad] = 0xFF
    corpus.write_bytes(bytes(raw))
    assert main(["stats", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"malformed artifact {corpus} is not valid UTF-8 at byte {bad} (ff)" in err
    assert err.count(str(corpus)) == 1


def test_internal_error_exits_3(tmp_path, write_mini_config, monkeypatch):
    out = tmp_path / "out"
    config = write_mini_config(out)
    assert main(["ingest", "--config", str(config)]) == 0

    def broken(*args, **kwargs):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(stats, "term_frequency_table", broken)
    assert main(["stats", "--config", str(config)]) == 3


def _cut_mid_line(path: Path) -> int:
    """Truncate a TSV artifact just before a tab past its middle; returns
    the number of the now incomplete last line."""
    text = path.read_text(encoding="utf-8")
    kept = text[: text.index("\t", len(text) // 2)]
    path.write_text(kept, encoding="utf-8")
    return kept.count("\n") + 1


def _replace_with_garbage(path: Path) -> int:
    path.write_text("garbage\nwith\tbad columns\n", encoding="utf-8")
    return 2


def _write_unterminated_json(path: Path) -> int:
    path.write_text('{"loaded": 60,\n', encoding="utf-8")
    return 2


def _drop_last_vocabulary_term(dtm: Path) -> int:
    """Drop the last term from the vocabulary.tsv beside ``dtm``; returns
    the first dtm.tsv line that counts it."""
    vocabulary = dtm.with_name("vocabulary.tsv")
    lines = vocabulary.read_text(encoding="utf-8").splitlines(keepends=True)
    vocabulary.write_text("".join(lines[:-1]), encoding="utf-8")
    term = lines[-1].split("\t")[0]
    triplets = dtm.read_text(encoding="utf-8").splitlines()
    return next(n for n, line in enumerate(triplets, start=1) if line.split("\t")[1] == term)


def _write_fractional_count(dtm: Path) -> int:
    lines = dtm.read_text(encoding="utf-8").splitlines(keepends=True)
    doc_id, term, _ = lines[4].split("\t")
    lines[4] = f"{doc_id}\t{term}\t1.5\n"
    dtm.write_text("".join(lines), encoding="utf-8")
    return 5


def _repeat_first_triplet(dtm: Path) -> int:
    """Append a copy of line 2; returns the copy's line number."""
    lines = dtm.read_text(encoding="utf-8").splitlines(keepends=True)
    dtm.write_text("".join([*lines, lines[1]]), encoding="utf-8")
    return len(lines) + 1


def _resume_first_row_at_the_end(dtm: Path) -> int:
    """Move line 2 to the end, after the other rows' lines; the first row
    keeps line 3, so its lines resume there. Returns the moved line's number."""
    lines = dtm.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[1].split("\t")[0] == lines[2].split("\t")[0]
    dtm.write_text("".join([lines[0], *lines[2:], lines[1]]), encoding="utf-8")
    return len(lines)


def _keep_header_only(path: Path) -> int:
    """Cut a table to its header; the missing first row is line 2."""
    path.write_text(path.read_text(encoding="utf-8").splitlines(keepends=True)[0], encoding="utf-8")
    return 2


def _non_numeric(column: str):
    """A corruption that writes 'x' into ``column`` on line 2."""

    def corrupt(path: Path) -> int:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        j = lines[0].rstrip("\n").split("\t").index(column)
        cells = lines[1].rstrip("\n").split("\t")
        cells[j] = "x"
        lines[1] = "\t".join(cells) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        return 2

    corrupt.__name__ = f"_non_numeric_{column}"
    return corrupt


@pytest.mark.parametrize(
    "artifact, stage, corrupt",
    [
        ("dtm.tsv", "ca", _cut_mid_line),
        ("vocabulary.tsv", "stats", _replace_with_garbage),
        ("filter_report.json", "stats", _write_unterminated_json),
        ("dtm.tsv", "ca", _drop_last_vocabulary_term),
        ("dtm.tsv", "periods", _write_fractional_count),
        ("dtm.tsv", "periods", _repeat_first_triplet),
        ("dtm.tsv", "ca", _resume_first_row_at_the_end),
        ("vocabulary.tsv", "stats", _non_numeric("total_frequency")),
        ("type_shares.tsv", "figures", _non_numeric("share")),
        ("term_frequencies.tsv", "figures", _non_numeric("frequency")),
        ("ca_coords.tsv", "figures", _non_numeric("mass")),
        ("year_coords.tsv", "figures", _non_numeric("dim2")),
        ("dtm.tsv", "ca", _keep_header_only),
        ("dtm.tsv", "periods", _keep_header_only),
        ("term_frequencies.tsv", "figures", _keep_header_only),
        ("type_shares.tsv", "figures", _keep_header_only),
        ("ca_coords.tsv", "figures", _keep_header_only),
        ("year_coords.tsv", "figures", _keep_header_only),
    ],
)
def test_malformed_artifact_exits_1_naming_file_and_line(
    tmp_path, write_mini_config, capsys, artifact, stage, corrupt
):
    out = tmp_path / "out"
    config = write_mini_config(out)
    for upstream in ALL_STAGES[: ALL_STAGES.index(stage)]:
        assert main([upstream, "--config", str(config)]) == 0
    line = corrupt(out / artifact)
    capsys.readouterr()
    assert main([stage, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"malformed artifact {out / artifact}: line {line}" in err


def _drop_trend_c2(path: Path) -> None:
    stats_json = json.loads(path.read_text(encoding="utf-8"))
    del stats_json["trend"]["c2"]
    path.write_text(json.dumps(stats_json), encoding="utf-8")


def _set_stats_field(*keys: str, value):
    """A corruption that sets stats.json's ``keys`` path to ``value``."""

    def corrupt(path: Path) -> None:
        stats_json = json.loads(path.read_text(encoding="utf-8"))
        node = stats_json
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path.write_text(json.dumps(stats_json), encoding="utf-8")

    corrupt.__name__ = f"_set_{'_'.join(keys)}"
    return corrupt


def _drop_dims(path: Path) -> None:
    model = json.loads(path.read_text(encoding="utf-8"))
    del model["dims"]
    path.write_text(json.dumps(model), encoding="utf-8")


@pytest.mark.parametrize(
    "artifact, corrupt",
    [
        ("stats.json", _drop_trend_c2),
        ("stats.json", _set_stats_field("trend", "r_squared", value="high")),
        ("stats.json", _set_stats_field("forecasts", value={"year": 2023})),
        ("ca_model.json", _drop_dims),
        ("yearly_counts.tsv", _keep_header_only),
    ],
)
def test_artifact_missing_what_figures_reads_exits_1_naming_it(
    tmp_path, write_mini_config, capsys, artifact, corrupt
):
    out = tmp_path / "out"
    config = write_mini_config(out)
    assert main(["run", "--config", str(config)]) == 0
    corrupt(out / artifact)
    capsys.readouterr()
    assert main(["figures", "--config", str(config)]) == 1
    assert f"malformed artifact {out / artifact}: " in capsys.readouterr().err


@pytest.mark.parametrize("stage", ["stats", "figures"])
def test_a_vocabulary_without_rows_exits_1(tmp_path, write_mini_config, capsys, stage):
    out = tmp_path / "out"
    config = write_mini_config(out)
    assert main(["run", "--config", str(config)]) == 0
    _keep_header_only(out / "vocabulary.tsv")
    capsys.readouterr()
    assert main([stage, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"malformed artifact {out / 'vocabulary.tsv'}: line 2: no row under the header" in err


def test_corpus_record_that_no_longer_parses_exits_1_naming_it(
    tmp_path, write_mini_config, capsys
):
    out = tmp_path / "out"
    config = write_mini_config(out)
    assert main(["ingest", "--config", str(config)]) == 0
    path = out / "corpus.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    year = records[0].index("year")
    records[3][year] = "20x1"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(records)
    for stage in ("stats", "ca", "periods"):
        capsys.readouterr()
        assert main([stage, "--config", str(config)]) == 1
        assert (
            f"malformed artifact {path}: record 3: malformed year '20x1'"
            in capsys.readouterr().err
        )


def test_failed_run_still_writes_a_manifest(tmp_path, write_mini_config):
    out = tmp_path / "out"
    config = write_mini_config(out, **{"year_min": 2030})  # rejects every row
    assert main(["run", "--config", str(config)]) != 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "ingest"
    assert "error" in manifest


@pytest.mark.parametrize("lanes", [2, 3])
def test_counting_in_lanes_gives_the_artifacts_of_one_lane(
    tmp_path, write_mini_config, monkeypatch, lanes
):
    monkeypatch.setattr(textpipe, "_BLOCK_STREAMS", 8)  # 55 documents: 7 blocks
    forks = _count_calls(monkeypatch, pipeline, "_fork")
    outs = {}
    for cpus in (1, lanes):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        outs[cpus] = tmp_path / f"lanes-{cpus}"
        config = write_mini_config(outs[cpus], auto_stop_df=0.5)
        assert main(["run", "--config", str(config)]) == 0
    # Each run forks its writer; the second forks a child per lane beyond the first.
    forked = [fn.__name__ for fn, *_ in forks]
    assert forked == ["_write_ingest", *["count_terms"] * (lanes - 1), "_write_ingest"]
    assert _artifact_bytes(outs[lanes]) == _artifact_bytes(outs[1])


def test_without_fork_the_lanes_and_the_writer_run_in_the_process(
    tmp_path, write_mini_config, monkeypatch
):
    monkeypatch.setattr(textpipe, "_BLOCK_STREAMS", 8)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
    forked = tmp_path / "forked"
    assert main(["run", "--config", str(write_mini_config(forked))]) == 0
    monkeypatch.delattr(pipeline.os, "fork")
    inline = tmp_path / "inline"
    assert main(["run", "--config", str(write_mini_config(inline))]) == 0
    assert _artifact_bytes(inline) == _artifact_bytes(forked)


def test_a_child_that_ends_without_its_outcome_is_an_error():
    ok, error = pipeline._fork(os._exit, 1)()
    assert not ok
    assert isinstance(error, ChildProcessError)


_WRITER_ERRORS = [
    (DataError("the disk said no"), 2),
    (DependencyError("the disk said no"), 1),
    (OSError(28, "No space left on device"), 3),
]


@pytest.mark.parametrize("command", ["ingest", "run"])
@pytest.mark.parametrize(
    "error, code", _WRITER_ERRORS, ids=[type(e).__name__ for e, _ in _WRITER_ERRORS]
)
def test_a_failing_writer_gives_its_exit_code_and_leaves_no_ingest_artifact(
    tmp_path, write_mini_config, monkeypatch, command, error, code
):
    write_counts_tsv = textpipe.write_counts_tsv

    def failing(rows, terms, matrix, dest, *args):
        if Path(dest).name == "weighted.tsv":  # after corpus.csv, vocabulary.tsv and dtm.tsv
            raise error
        return write_counts_tsv(rows, terms, matrix, dest, *args)

    monkeypatch.setattr(textpipe, "write_counts_tsv", failing)
    out = tmp_path / "out"
    config = write_mini_config(out)
    assert main([command, "--config", str(config)]) == code
    assert [name for name in ARTIFACTS["ingest"] if (out / name).exists()] == []
    if command == "run":
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["failed_stage"] == "ingest"
        assert manifest["error"] == f"{type(error).__name__}: {error}"
    for stage in ALL_STAGES[1:]:
        assert main([stage, "--config", str(config)]) == 1, stage


@pytest.mark.parametrize("command", ["ingest", "run"])
def test_weighting_a_single_document_fails_ingest_with_exit_2(
    tmp_path, write_mini_config, command
):
    # tf-idf is undefined for one document: ingest stops before its writer
    # starts, and leaves no artifact.
    source = _write_export(tmp_path / "export.csv", ["alpha alpha alpha alpha alpha beta"])
    extra = {"schema.id": "EID", "weighting": "tf-idf"}
    out = tmp_path / "out"
    assert main([command, "--config", str(write_mini_config(out, source=source, **extra))]) == 2
    assert [name for name in ARTIFACTS["ingest"] if (out / name).exists()] == []
    if command == "run":
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["failed_stage"] == "ingest"
        assert manifest["error"].startswith("DegenerateCorpusError: tf-idf")


_NO_DOCUMENT_RETAINED = {
    "header-only": ([], "0 rows loaded (0 more rejected), of which 0 excluded as "
                        "non-research and 0 for want of an abstract"),
    "every-row-filtered": (
        [
            "Editorial,A note on the field.,,2015,Editorial,0",
            "Untitled,,,2016,Article,1",
            "Bad year,An abstract.,,20x6,Article,0",
        ],
        "2 rows loaded (1 more rejected), of which 1 excluded as non-research and 1 "
        "for want of an abstract",
    ),
}


@pytest.mark.parametrize("command", ["ingest", "run"])
@pytest.mark.parametrize(("rows", "counts"), _NO_DOCUMENT_RETAINED.values(),
                         ids=_NO_DOCUMENT_RETAINED)
def test_an_export_that_retains_no_document_exits_2_naming_its_counts(
    tmp_path, write_mini_config, capsys, command, rows, counts
):
    # The data leave nothing to count, which no config key can mend.
    source = tmp_path / "export.csv"
    header = "Title,Abstract,Author Keywords,Year,Document Type,Cited by"
    source.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(write_mini_config(out, source=source))]) == 2
    assert f"{source} leaves no document to analyze: {counts}" in capsys.readouterr().err
    if command == "run":
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["failed_stage"] == "ingest"
        assert manifest["error"].startswith(f"DataError: {source} leaves no document")


def test_a_stage_failing_while_the_writer_runs_still_waits_for_the_writer(
    tmp_path, write_mini_config, monkeypatch
):
    write_counts_tsv = textpipe.write_counts_tsv

    def slow(*args):
        time.sleep(0.5)
        return write_counts_tsv(*args)

    def broken(*args, **kwargs):
        raise DegenerateCorpusError("no map today")

    monkeypatch.setattr(textpipe, "write_counts_tsv", slow)
    monkeypatch.setattr(pipeline.ca_mod, "compute_ca", broken)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_mini_config(out))]) == 2
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["failed_stage"] == "ca"
    assert manifest["error"] == "DegenerateCorpusError: no map today"
    assert all((out / name).is_file() for name in ARTIFACTS["ingest"])
    # The manifest was written once the writer had written its last artifact.
    written = {name: (out / name).stat().st_mtime_ns for name in ("manifest.json", "token_report.json")}
    assert written["manifest.json"] >= written["token_report.json"]


def test_stdout_stays_clean_and_logs_go_to_stderr(tmp_path, write_mini_config):
    out = tmp_path / "out"
    config = write_mini_config(out)
    proc = subprocess.run(
        [sys.executable, "-m", "lexevo.cli", "run", "--config", str(config)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert "stage figures finished" in proc.stderr


def test_config_echo_in_manifest_reproduces_the_run(tmp_path, write_mini_config):
    first = tmp_path / "first"
    assert main(["run", "--config", str(write_mini_config(first))]) == 0
    manifest = json.loads((first / "manifest.json").read_text())

    replay_conf = tmp_path / "replay.conf"
    replay_conf.write_text(manifest["config"], encoding="utf-8")
    second = tmp_path / "second"
    assert main(["run", "--config", str(replay_conf), "--out", str(second)]) == 0
    assert _artifact_bytes(first) == _artifact_bytes(second)


def test_run_mini_corpus_script_runs_the_checked_in_config(tmp_path, capsys):
    script = Path(__file__).parent.parent / "scripts" / "run_mini_corpus.py"
    spec = importlib.util.spec_from_file_location("run_mini_corpus", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "demo"
    assert module.main(["--out", str(out), "--seed", "7"]) == 0
    digest = capsys.readouterr().out
    assert f"config   : {module.CONFIG}" in digest
    assert "corpus   : 55 documents retained" in digest
    assert "ca       : 2 dimensions retained" in digest
    assert "seed = 7\n" in json.loads((out / "manifest.json").read_text())["config"]
    assert [p.name for p in tmp_path.iterdir()] == ["demo"]


def _count_calls(monkeypatch, module, name) -> list:
    """Record the arguments of every call to ``module.name``."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _counted_once(merged: list, corpus) -> bool:
    """Whether the recorded ``merge_counts`` calls are one, whose parts
    count every document of ``corpus`` once, in order. The parts are
    counted in this process and in forked children, where a recorded call
    would not show; each part reaches the merge here."""
    ids = [d.id for d in corpus.documents]
    return len(merged) == 1 and [d for part in merged[0][0] for d in part.doc_ids] == ids


def _write_export(path: Path, abstracts: list[str], first_year: int = 2010) -> Path:
    """A small export in the bundled corpus's layout plus an ``EID`` id
    column (map it with ``schema.id = EID``); one document per year from
    ``first_year``."""
    lines = ["EID,Title,Abstract,Author Keywords,Year,Document Type,Cited by"]
    lines += [
        f"e{i},Title {i},{text},,{first_year + i},Article,{i}"
        for i, text in enumerate(abstracts)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_stoplist_and_auto_stop_df_vocabulary_matches_a_counter_oracle(
    tmp_path, write_mini_config, mini_corpus, monkeypatch
):
    stoplist = tmp_path / "stop.txt"
    stoplist.write_text("# project terms\nRegistry\nwarehouse\n", encoding="utf-8")
    extra = {"stoplists": stoplist, "auto_stop_df": 0.5}
    full, staged = tmp_path / "full", tmp_path / "staged"
    merged = _count_calls(monkeypatch, textpipe, "merge_counts")
    stopped = _count_calls(monkeypatch, textpipe, "remove_stopwords")
    assert main(["run", "--config", str(write_mini_config(full, **extra))]) == 0
    assert _counted_once(merged, mini_corpus)
    staged_config = write_mini_config(staged, **extra)
    for stage in ALL_STAGES:
        assert main([stage, "--config", str(staged_config)]) == 0
    assert _artifact_bytes(full) == _artifact_bytes(staged)
    assert _counted_once(merged[1:], mini_corpus)  # once more, by the staged ingest
    assert stopped == []

    token_lists = [s.tokens for s in tokenize_documents(mini_corpus, 2)]
    df = Counter(t for tokens in token_lists for t in set(tokens))
    frequent = {t for t, d in df.items() if d / len(token_lists) > 0.5}
    stopped = ENGLISH_STOPWORDS | {"registry", "warehouse"} | frequent
    totals = Counter(t for tokens in token_lists for t in tokens if t not in stopped)
    dfs = Counter(t for tokens in token_lists for t in set(tokens) if t not in stopped)
    kept = sorted((t for t, c in totals.items() if c >= 5), key=lambda t: (-totals[t], t))
    expected = ["term\ttotal_frequency\tdoc_frequency"]
    expected += [f"{t}\t{totals[t]}\t{dfs[t]}" for t in kept]
    assert (full / "vocabulary.tsv").read_text(encoding="utf-8").splitlines() == expected

    # Both stop sources removed terms that the default run keeps.
    default = tmp_path / "default"
    assert main(["ingest", "--config", str(write_mini_config(default))]) == 0
    vocabulary = (default / "vocabulary.tsv").read_text(encoding="utf-8").splitlines()
    default_terms = {line.split("\t")[0] for line in vocabulary}
    assert {"registry", "warehouse"} <= default_terms
    assert frequent & default_terms


def test_stats_reads_uniqueness_from_ingest_without_tokenizing(
    tmp_path, write_mini_config, mini_corpus, monkeypatch
):
    tokenize = textpipe.tokenize_documents
    calls = _count_calls(monkeypatch, textpipe, "tokenize_documents")
    merged = _count_calls(monkeypatch, textpipe, "merge_counts")
    full = tmp_path / "full"
    assert main(["run", "--config", str(write_mini_config(full))]) == 0
    assert len(calls) == 1
    assert _counted_once(merged, mini_corpus)

    staged = tmp_path / "staged"
    config = write_mini_config(staged)
    assert main(["ingest", "--config", str(config)]) == 0

    def forbidden(*args, **kwargs):
        raise AssertionError("stats must not tokenize the corpus")

    monkeypatch.setattr(textpipe, "tokenize_documents", forbidden)
    assert main(["stats", "--config", str(config)]) == 0
    assert (staged / "stats.json").read_bytes() == (full / "stats.json").read_bytes()

    uniq = uniqueness_stats(textpipe.count_terms(tokenize(mini_corpus, 2)))
    stats_json = json.loads((staged / "stats.json").read_text(encoding="utf-8"))
    token_report = json.loads((staged / "token_report.json").read_text(encoding="utf-8"))
    assert stats_json["uniqueness"] == token_report["uniqueness"] == {
        "mean_tokens": uniq.mean_tokens,
        "mean_unique": uniq.mean_unique,
        "unique_ratio": uniq.unique_ratio,
        "ratio_of_means": uniq.ratio_of_means,
    }


def test_documents_left_out_of_the_dtm_are_recorded(tmp_path, write_mini_config, capsys):
    source = _write_export(
        tmp_path / "export.csv",
        ["alpha beta alpha beta gamma"] * 3 + ["rare words only"],
    )
    out = tmp_path / "out"
    config = write_mini_config(out, source=source, **{"schema.id": "EID"})
    assert main(["ingest", "--config", str(config)]) == 0
    report = json.loads((out / "token_report.json").read_text(encoding="utf-8"))
    assert report["pruned_documents"] == ["e3"]
    assert "1 of 4 documents have no in-vocabulary token" in capsys.readouterr().err
    assert "e3\t" not in (out / "dtm.tsv").read_text(encoding="utf-8")


_COMMON_IN_ALL_4 = [
    "common common alpha alpha alpha",
    "common common alpha alpha beta",
    "common common beta beta gamma gamma gamma",
    "common common beta beta gamma gamma",
]
# In 3 documents the entropy of an evenly spread term is exactly ln 3, but
# summing p ln p in floating point does not give ln 3.
_COMMON_IN_ALL_3 = [
    "common common alpha alpha alpha beta beta",
    "common common beta beta beta gamma gamma",
    "common common gamma gamma gamma alpha alpha",
]


@pytest.mark.parametrize(
    "weighting, cause, abstracts",
    [
        ("tf-idf", "occurs in all", _COMMON_IN_ALL_4),
        ("entropy", "occurs equally often in all", _COMMON_IN_ALL_4),
        ("entropy", "occurs equally often in all", _COMMON_IN_ALL_3),
    ],
    ids=["tf-idf", "entropy", "entropy-3-documents"],
)
def test_term_weighted_zero_everywhere_is_a_data_error(
    tmp_path, write_mini_config, capsys, weighting, cause, abstracts
):
    # "common" is in every document, and equally often.
    source = _write_export(tmp_path / "export.csv", abstracts)
    extra = {"schema.id": "EID", "weighting": weighting, "ca_input": "weighted"}
    out = tmp_path / "out"
    config = write_mini_config(out, source=source, **extra)
    assert main(["ingest", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["ca", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert (
        f"{weighting} weighting gives zero weight to term(s) ['common'] and document(s) [], "
        f"because each such term {cause} {len(abstracts)} documents"
    ) in err
    assert main(["run", "--config", str(config)]) == 2


def test_documents_before_1900_survive_the_corpus_artifact(tmp_path, write_mini_config):
    source = _write_export(
        tmp_path / "export.csv",
        [
            "alpha alpha beta gamma",
            "beta beta gamma alpha",
            "gamma gamma alpha beta",
            "alpha beta gamma gamma",
        ],
        first_year=1880,
    )
    extra = {"schema.id": "EID", "year_min": 1850,
             "periods": "Early:1880-1881, Late:1882-1883"}
    full, staged = tmp_path / "full", tmp_path / "staged"
    assert main(["run", "--config", str(write_mini_config(full, source=source, **extra))]) == 0
    staged_config = write_mini_config(staged, source=source, **extra)
    for stage in ALL_STAGES:
        assert main([stage, "--config", str(staged_config)]) == 0
    assert _artifact_bytes(full) == _artifact_bytes(staged)
    assert json.loads((full / "stats.json").read_text(encoding="utf-8"))["documents"] == 4
    assert (full / "yearly_counts.tsv").read_text(encoding="utf-8").splitlines()[1] == "1880\t1"


def test_an_id_that_no_tsv_cell_can_hold_is_rejected(tmp_path, write_mini_config):
    # A tab or a line boundary in an id would split the id's rows of
    # dtm.tsv, so a stage subcommand could not read them back.
    breaks = ["\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
    abstracts = ["alpha alpha beta gamma", "beta beta gamma alpha",
                 "gamma gamma alpha beta", "alpha beta gamma gamma"]
    source = tmp_path / "export.csv"
    with open(source, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["EID", "Title", "Abstract", "Author Keywords", "Year",
                         "Document Type", "Cited by"])
        writer.writerows([f"e{i}", f"Title {i}", text, "", 2010 + i, "Article", i]
                         for i, text in enumerate(abstracts))
        writer.writerows([f"e2{brk}x", "Title", "alpha beta", "", 2011, "Article", 0]
                         for brk in breaks)
    extra = {"schema.id": "EID", "periods": "Early:2010-2011, Late:2012-2013"}
    full, staged = tmp_path / "full", tmp_path / "staged"
    assert main(["run", "--config", str(write_mini_config(full, source=source, **extra))]) == 0
    staged_config = write_mini_config(staged, source=source, **extra)
    for stage in ALL_STAGES:
        assert main([stage, "--config", str(staged_config)]) == 0
    assert _artifact_bytes(full) == _artifact_bytes(staged)
    assert (full / "rejects.tsv").read_text(encoding="utf-8").splitlines() == [
        f"{5 + k}\tid {'e2' + brk + 'x'!r} holds a tab or a line break"
        for k, brk in enumerate(breaks)
    ]
    assert json.loads((full / "filter_report.json").read_text(encoding="utf-8"))["loaded"] == 4



def test_a_carriage_return_in_a_field_survives_the_corpus_artifact(
    tmp_path, write_mini_config
):
    # A bare "\r" left unquoted in corpus.csv would end its record early,
    # so every stage subcommand after ingest would fail to read it back.
    abstracts = ["alpha alpha beta gamma", "beta beta gamma alpha",
                 "gamma gamma alpha beta", "alpha beta gamma gamma"]
    source = tmp_path / "export.csv"
    with open(source, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(["EID", "Title", "Abstract", "Author Keywords", "Year",
                         "Document Type", "Cited by"])
        writer.writerows([f"e{i}", f"Title\r{i}", text, "", 2010 + i, "Article", i]
                         for i, text in enumerate(abstracts))
    extra = {"schema.id": "EID", "periods": "Early:2010-2011, Late:2012-2013"}
    full, staged = tmp_path / "full", tmp_path / "staged"
    assert main(["run", "--config", str(write_mini_config(full, source=source, **extra))]) == 0
    staged_config = write_mini_config(staged, source=source, **extra)
    for stage in ALL_STAGES:
        assert main([stage, "--config", str(staged_config)]) == 0, stage
    assert _artifact_bytes(full) == _artifact_bytes(staged)
    assert b'"Title\r1"' in (full / "corpus.csv").read_bytes()

def test_run_parses_no_artifact_it_wrote(tmp_path, write_mini_config, monkeypatch):
    staged = tmp_path / "staged"
    staged_config = write_mini_config(staged)
    for stage in ALL_STAGES:
        assert main([stage, "--config", str(staged_config)]) == 0

    full = tmp_path / "full"

    def unreadable(*args, **kwargs):
        raise AssertionError(f"lexevo run parsed an artifact: {args}")

    def forbid(reader):
        def guarded(src, *args, **kwargs):
            if Path(src).parent == full:
                unreadable(src)
            return reader(src, *args, **kwargs)

        return guarded

    for name in pipeline._READERS:
        monkeypatch.setitem(pipeline._READERS, name, unreadable)
    for module, name in [
        (pipeline, "load_corpus_csv"),
        (textpipe, "read_counts_tsv"),
        (artifacts, "read_json"),
        (artifacts, "read_tsv"),
    ]:
        monkeypatch.setattr(module, name, forbid(getattr(module, name)))
    assert main(["run", "--config", str(write_mini_config(full))]) == 0
    assert _artifact_bytes(full) == _artifact_bytes(staged)
