import ast
import re
from pathlib import Path

import numpy as np
import pytest

import lexevo
from lexevo import artifacts
from lexevo.errors import DependencyError, EncodingError

SRC = Path(lexevo.__file__).parent
_N = (("n", int),)


def test_tsv_without_header_writes_only_rows(tmp_path):
    path = tmp_path / "rejects.tsv"
    columns = (("row", int), ("reason", str))
    artifacts.write_tsv(path, columns, [[3], ["malformed year 'x'"]], header=False)
    assert path.read_bytes() == b"3\tmalformed year 'x'\n"


def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "table.tsv"
    artifacts.write_tsv(path, _N, [[1, 2]])
    before = path.read_bytes()

    # The first block is written before the second one's "x" fails to convert.
    values = [3] * artifacts._BLOCK_ROWS + ["x"]
    with pytest.raises(ValueError, match="'x'"):
        artifacts.write_tsv(path, _N, [values])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.tsv"]


def test_successful_write_replaces_the_file(tmp_path):
    path = tmp_path / "model.json"
    artifacts.write_json(path, {"b": 1, "a": [1.5]})
    artifacts.write_json(path, {"b": 2})
    assert path.read_text(encoding="utf-8") == '{\n  "b": 2\n}\n'
    assert artifacts.read_json(path) == {"b": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]



def test_table_longer_than_one_block_is_written_row_by_row(tmp_path):
    n = 2 * artifacts._BLOCK_ROWS + 5
    labels = np.asarray([f"t{i}" for i in range(n)], dtype=object)
    values = np.arange(n) / 7.0
    flags = [None if i % 3 else i for i in range(n)]
    columns = (*_TYPED, ("flag", int))
    path = tmp_path / "long.tsv"
    artifacts.write_tsv(path, columns, [labels, [i * i for i in range(n)], values, flags])
    expected = "label\tcount\tvalue\tflag\n" + "".join(
        f"t{i}\t{i * i}\t{values[i].item()!r}\t{'' if i % 3 else i}\n" for i in range(n)
    )
    assert path.read_bytes() == expected.encode("utf-8")

    with pytest.raises(ValueError):
        artifacts.write_tsv(path, _TYPED, [labels, range(n), values[:-1]])
    assert path.read_bytes() == expected.encode("utf-8")

def test_each_distinct_number_of_an_array_is_formatted_as_itself(tmp_path):
    nan_payload = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
    specials = [0.0, -0.0, np.nan, -np.nan, nan_payload, np.inf, -np.inf, 5e-324, 1e16, 0.1 + 0.2]
    n = 2 * artifacts._BLOCK_ROWS + 3
    floats = np.resize(np.array(specials), n)  # repeats on both sides of each block boundary
    ints = np.resize(np.array([0, -1, 2**62, 7]), n)
    path = tmp_path / "numbers.tsv"
    artifacts.write_tsv(path, (("x", float), ("k", int)), [floats, ints])
    expected = ["x\tk"] + [f"{float(x)!r}\t{int(k)}" for x, k in zip(floats, ints)]
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == ""
    assert [(i, a, b) for i, (a, b) in enumerate(zip(lines, expected)) if a != b] == []
    assert len(lines) == len(expected)
    assert {"0.0", "-0.0", "nan", "5e-324", "1e+16", "0.30000000000000004"} <= {
        line.split("\t")[0] for line in lines
    }


@pytest.mark.parametrize("write", [artifacts.write_tsv, artifacts.write_csv])
def test_a_column_of_empty_strings_writes_one_line_break_per_row(tmp_path, write):
    path = tmp_path / "empty"
    write(path, (("note", str),), [["", "", ""]])
    assert path.read_bytes() == b"note\n\n\n\n"


def test_csv_cells_are_quoted_only_when_they_hold_a_separator_quote_or_line_break(tmp_path):
    path = tmp_path / "table.csv"
    cells = ["plain", "a,b", 'say "hi"', "cr\rlf", "two\nlines", "tab\tand \u2028", ""]
    artifacts.write_csv(path, (("text", str), ("n", int)), [cells, range(len(cells))])
    assert path.read_bytes().decode("utf-8") == (
        'text,n\nplain,0\n"a,b",1\n"say ""hi""",2\n"cr\rlf",3\n"two\nlines",4\n'
        "tab\tand \u2028,5\n,6\n"
    )


@pytest.mark.parametrize(
    "text, line, cells",
    [("a\tb\n1\t2\n3\n", 3, 1), ("a\tb\n1\t2\t3\n", 2, 3)],
)
def test_row_with_wrong_cell_count_names_file_and_line(tmp_path, text, line, cells):
    path = tmp_path / "bad.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DependencyError, match=f"{path}: line {line} has {cells} cells"):
        artifacts.read_tsv(path, (("a", int), ("b", int)))


_TYPED = (("label", str), ("count", int), ("value", float))


def test_typed_columns_round_trip_exactly(tmp_path):
    path = tmp_path / "typed.tsv"
    floats = [0.1, 1e-300, -2.5, 1 / 3]
    artifacts.write_tsv(path, _TYPED, [["a", "b", "c", "d"], np.arange(4), np.array(floats)])
    assert path.read_text(encoding="utf-8").splitlines()[1:3] == ["a\t0\t0.1", "b\t1\t1e-300"]
    labels, counts, values = artifacts.read_tsv(path, _TYPED)
    assert (labels, counts, values) == (["a", "b", "c", "d"], [0, 1, 2, 3], floats)
    assert [type(c) for c in counts] == [int] * 4


def test_none_is_written_as_an_empty_cell(tmp_path):
    path = tmp_path / "layout.tsv"
    artifacts.write_tsv(path, _TYPED, [["a", "b"], [1, None], [0.5, None]])
    assert path.read_text(encoding="utf-8") == "label\tcount\tvalue\na\t1\t0.5\nb\t\t\n"


@pytest.mark.parametrize(
    "row, problem",
    [("a\t1.5\t0.5", "count '1.5' is not an integer"), ("a\t1\tone", "value 'one' is not a number")],
)
def test_unparsable_cell_names_file_line_and_column(tmp_path, row, problem):
    path = tmp_path / "bad.tsv"
    path.write_text(f"label\tcount\tvalue\nz\t0\t0.0\n{row}\n", encoding="utf-8")
    with pytest.raises(DependencyError, match=f"{path}: line 3: {problem}"):
        artifacts.read_tsv(path, _TYPED)


def test_header_other_than_the_declaration_is_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("label\tcount\tweight\n", encoding="utf-8")
    with pytest.raises(DependencyError, match=f"{path}: line 1: header"):
        artifacts.read_tsv(path, _TYPED)


def test_empty_tsv_and_bad_json_are_malformed(tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DependencyError, match="empty.tsv: no header line"):
        artifacts.read_tsv(empty, _N)
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  oops\n", encoding="utf-8")
    with pytest.raises(DependencyError, match="bad.json: line 2"):
        artifacts.read_json(bad)


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_read_text_drops_a_bom_and_names_a_bad_byte_by_its_offset_in_the_file(tmp_path, bom):
    path = tmp_path / "notes.txt"
    path.write_bytes(bom + "caf\u00e9\n".encode("utf-8"))
    assert artifacts.read_text(path) == "caf\u00e9\n"
    path.write_bytes(bom + b"ab\xff")
    message = f"{path} is not valid UTF-8 at byte {len(bom) + 2} (ff): invalid start byte"
    with pytest.raises(EncodingError, match=f"^{re.escape(message)}$"):
        artifacts.read_text(path)


# --- one writer ----------------------------------------------------------------

_WRITE_METHODS = {"write_text", "write_bytes"}


def _is_write_open(call: ast.Call) -> bool:
    """``open(...)`` or ``x.open(...)`` whose mode is not a read-only literal."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name != "open":
        return False
    mode_args = [kw.value for kw in call.keywords if kw.arg == "mode"]
    if isinstance(func, ast.Name) and len(call.args) > 1:
        mode_args.append(call.args[1])
    elif isinstance(func, ast.Attribute) and call.args:
        mode_args.append(call.args[0])
    if not mode_args:
        return False  # default mode "r"
    mode = mode_args[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # cannot tell: treat as a write
    return any(flag in mode.value for flag in "wax+")


def _violations(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _WRITE_METHODS
                and not (isinstance(func.value, ast.Name) and func.value.id == "artifacts")
            ):
                found.append(f"{path.name}:{node.lineno} calls .{func.attr}(")
            elif _is_write_open(node):
                found.append(f"{path.name}:{node.lineno} opens a file for writing")
        elif isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").startswith("lexevo")
            private = [a.name for a in node.names if a.name.startswith("_")]
            if internal and private:
                found.append(f"{path.name}:{node.lineno} imports private {private}")
    return found


def test_only_the_artifacts_module_writes_files():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "artifacts.py")
    assert modules, SRC
    violations = [v for p in modules for v in _violations(p)]
    assert violations == []


def test_guard_detects_writes_and_private_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .textpipe import _write_text\n"
        "open(p, 'w')\n"
        "open(p, mode='ab')\n"
        "Path(p).open('w')\n"
        "Path(p).write_text('x')\n"
        "Path(p).write_bytes(b'x')\n"
        "open(p, 'rb')\n"
        "open(p)\n"
        "artifacts.write_text(p, 'x')\n",
        encoding="utf-8",
    )
    assert sorted(v.split(" ")[0] for v in _violations(sample)) == [
        f"sample.py:{n}" for n in (1, 2, 3, 4, 5, 6)
    ]


# --- one decoder ---------------------------------------------------------------

_CODEC_METHODS = {"encode", "decode", "read_text"}


def _codec_calls(path: Path) -> list[str]:
    """Calls that turn bytes into text or text into bytes: ``.encode(``,
    ``.decode(``, ``TextIOWrapper(``, ``.read_text(`` on anything but
    ``artifacts``, and any call that passes ``encoding=``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        on_artifacts = isinstance(func, ast.Attribute) and (
            isinstance(func.value, ast.Name) and func.value.id == "artifacts"
        )
        if name == "TextIOWrapper" or (
            isinstance(func, ast.Attribute) and name in _CODEC_METHODS and not on_artifacts
        ):
            found.append(f"{path.name}:{node.lineno} calls {name}(")
        elif any(kw.arg == "encoding" for kw in node.keywords):
            found.append(f"{path.name}:{node.lineno} passes encoding=")
    return found


def test_only_the_artifacts_module_encodes_or_decodes_text():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "artifacts.py")
    assert modules, SRC
    assert [v for p in modules for v in _codec_calls(p)] == []


def test_codec_guard_detects_encoding_and_decoding(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "text = Path(p).read_text()\n"
        "data = text.encode('utf-8')\n"
        "text = data.decode()\n"
        "fh = open(p, encoding='latin-1')\n"
        "fh = io.TextIOWrapper(buf)\n"
        "fh = TextIOWrapper(buf)\n"
        "text = artifacts.read_text(p)\n"
        "rows = artifacts.text_lines(data, 'input')\n"
        "raw = Path(p).read_bytes()\n",
        encoding="utf-8",
    )
    assert [v.split(" ")[0] for v in _codec_calls(sample)] == [
        f"sample.py:{n}" for n in (1, 2, 3, 4, 5, 6)
    ]


# --- no dense copy of a sparse matrix ------------------------------------------

#: (module, function) allowed to densify: ``compute_ca`` densifies only the
#: min(rows, cols) square Gram matrix of the shorter side, never the table.
_DENSE_ALLOWED = {("ca", "compute_ca")}


def _dense_calls(path: Path) -> list[str]:
    """``.toarray()`` / ``.todense()`` calls as ``module.function:line``."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) in (
                "toarray",
                "todense",
            ):
                if (path.stem, function) not in _DENSE_ALLOWED:
                    found.append(f"{path.stem}.{function}:{child.lineno}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_compute_ca_densifies_a_sparse_matrix():
    modules = sorted(SRC.glob("*.py"))
    assert modules, SRC
    assert [v for p in modules for v in _dense_calls(p)] == []


def test_dense_guard_detects_calls_outside_the_allowed_functions(tmp_path):
    sample = tmp_path / "ca.py"
    sample.write_text(
        "x = m.toarray()\n"
        "class CaInput:\n"
        "    def from_counts(cls, dtm):\n"
        "        return cls(dtm.counts.toarray())\n"
        "def compute_ca(inp):\n"
        "    s = inp.matrix.toarray()\n"
        "    def inner():\n"
        "        return np.asarray(s.todense())\n"
        "    return s\n"
        "def group_sum(m):\n"
        "    return m.toarray()\n",
        encoding="utf-8",
    )
    assert _dense_calls(sample) == [
        "ca.None:1",
        "ca.from_counts:4",
        "ca.inner:8",
        "ca.group_sum:11",
    ]


# --- stages read artifacts only through the workspace ---------------------------

_READER_CALLS = {
    "read_json", "read_tsv", "load_corpus_csv", "read_counts_tsv",
    "read_vocabulary_tsv", "read_model_artifacts", "read_year_coords_tsv",
}


def _direct_reads(path: Path) -> list[str]:
    """Reader calls inside a ``stage_*`` or ``run_pipeline`` body, as
    ``function:line``. ``load_corpus_csv(cfg.input, ...)`` reads the run's
    input, not an artifact, and is allowed."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, ast.FunctionDef) or not (
            fn.name.startswith("stage_") or fn.name == "run_pipeline"
        ):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            reads_input = node.args and ast.unparse(node.args[0]) == "cfg.input"
            if name in _READER_CALLS and not (name == "load_corpus_csv" and reads_input):
                found.append(f"{fn.name}:{node.lineno}")
    return found


def test_stages_read_artifacts_only_through_the_reader_table():
    modules = sorted(SRC.glob("*.py"))
    assert modules, SRC
    assert [v for p in modules for v in _direct_reads(p)] == []


def test_read_guard_detects_reader_calls_in_stage_bodies(tmp_path):
    sample = tmp_path / "pipeline.py"
    sample.write_text(
        "def stage_x(cfg, ws=None):\n"
        "    corpus = ws['corpus.csv']\n"
        "    a = artifacts.read_json(p)\n"
        "    b = load_corpus_csv(cfg.input, schema)\n"
        "    c = load_corpus_csv(out / 'corpus.csv', schema)\n"
        "    d = [textpipe.read_counts_tsv(p) for p in paths]\n"
        "def run_pipeline(cfg):\n"
        "    model = read_model_artifacts(a, b)\n"
        "_READERS = {'x': lambda ws: artifacts.read_tsv(ws.path('x'))}\n"
        "def _read_dtm(ws):\n"
        "    return textpipe.read_counts_tsv(ws.path('dtm.tsv'))\n",
        encoding="utf-8",
    )
    assert _direct_reads(sample) == ["stage_x:3", "stage_x:5", "stage_x:6", "run_pipeline:8"]
