"""The README's library example, the corpus generator and the benchmark's
trace hooks, run against the current code."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import lexevo
from lexevo import pipeline
from lexevo.config import RunConfig, to_config_text

ROOT = Path(__file__).parent.parent
MINI_CSV = Path(lexevo.__file__).parent / "data" / "mini_corpus.csv"
TRACED = ROOT / "bench" / "traced.py"

#: Every counter ``bench/traced.py`` records on a full run; the benchmark's
#: report reads each of them.
TRACE_COUNTERS = {
    "corpus.rows_loaded",
    "corpus.rows_rejected",
    "corpus.docs_retained",
    "textpipe.tokens",
    "textpipe.vocab_size",
    "textpipe.nnz",
    "textpipe.pruned_rows",
    "textpipe.pruned_terms",
    "ca.dense_input_mb",
    "viz.cloud_dropped",
}


def test_readme_library_example_runs_on_the_bundled_corpus(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library use") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert '"export.csv"' in code
    exec(code.replace('"export.csv"', repr(str(MINI_CSV))), {})
    assert capsys.readouterr().out.strip()


def _readme_table_names(heading: str) -> list[str]:
    """The backquoted names in the first cell of each row of the first
    table under ``heading``, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index(heading) :]
    table = re.search(r"^\|.*?(?=\n\n)", section, re.S | re.M).group(0)
    rows = table.splitlines()[2:]  # skip the header and its rule
    return [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]


def test_readme_artifact_table_names_every_artifact():
    names = _readme_table_names("## Artifacts")
    expected = [name for names in pipeline.ARTIFACTS.values() for name in names]
    assert sorted(names) == sorted(expected)


def test_readme_config_table_lists_the_echoed_keys_in_order():
    echo = to_config_text(RunConfig(input=Path("corpus.csv")))
    keys = [line.split(" = ", 1)[0] for line in echo.splitlines()]
    assert _readme_table_names("## Config file") == keys


def _python(code: str, *args: str) -> str:
    """The stdout of ``python -c code args`` run on the checkout's ``src``."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_the_command_line_imports_no_scipy_and_no_xml_sax():
    # On two cores SciPy added about 0.3 s to a process's start-up and
    # xml.sax about 0.03 s, which every stage subcommand would pay.
    loaded = _python(
        "import sys, lexevo.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m.startswith('xml.sax')))"
    )
    assert loaded == "[]"


def test_only_the_stages_that_build_a_sparse_matrix_load_scipy(tmp_path, write_mini_config):
    config = write_mini_config(tmp_path / "out")
    stage = (
        "import sys; from lexevo.cli import main; code = main(sys.argv[1:]); "
        "print(code, 'scipy' in sys.modules)"
    )
    loads = {
        name: _python(stage, name, "--config", str(config))
        for name in ("ingest", "stats", "ca", "periods", "figures")
    }
    assert loads == {
        "ingest": "0 False", "stats": "0 False", "ca": "0 True",
        "periods": "0 False", "figures": "0 False",
    }

def _patch_targets() -> list[tuple[str, str]]:
    """(module, attribute) of every entry in ``traced.PATCHES``, read
    without importing the script."""
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    patches = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "PATCHES"
    )
    return [(entry.elts[0].value, entry.elts[1].value) for entry in patches.elts]


def test_the_bundled_corpus_and_its_fixture_regenerate_byte_for_byte(tmp_path):
    # The generator writes both files; editing one of them alone fails here.
    dest, expected = tmp_path / "mini_corpus.csv", tmp_path / "mini_corpus_expected.json"
    script = ROOT / "scripts" / "make_mini_corpus.py"
    subprocess.run(
        [sys.executable, str(script), "--dest", str(dest), "--expected", str(expected)],
        check=True, capture_output=True,
    )
    assert dest.read_bytes() == MINI_CSV.read_bytes()
    assert expected.read_bytes() == (ROOT / "tests" / "data" / expected.name).read_bytes()


def test_every_traced_function_still_exists():
    targets = _patch_targets()
    assert targets
    missing = [
        f"{module}.{attr}" for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_traced_run_records_every_counter(tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(spans), "run",
         "--config", "configs/mini.conf", "--out", str(tmp_path / "out")],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(spans.read_text(encoding="utf-8"))["counts"]) == TRACE_COUNTERS
