"""The one module that reads and writes artifact files: text, TSV, CSV and JSON.

It is also the one module that turns bytes into text and text into bytes,
for every file the package reads: the export, the config, stoplists and
the artifacts, and for the tokenizer, which scans an abstract whose
letters Windows-1252 encodes as its bytes (:func:`cp1252_bytes`,
:func:`cp1252_text`). Text is UTF-8 with ``\\n`` line endings; a leading
byte-order mark is not text. Bytes that are not UTF-8 raise
:class:`EncodingError` naming the file and the offset of the first bad
byte. A write goes to a temporary file beside the destination, which
:func:`os.replace` then moves into place, so a crash never leaves a
half-written artifact.

A table is typed columns, declared once by the module that owns the table
as ``(name, type)`` pairs (``str``, ``int`` or ``float``), and given to a
writer as one sequence (list, tuple, range or array) per column. Only this
module turns values into cells and back: ``str`` of an ``int``, ``repr`` of
a ``float`` (the shortest text that parses back to the same double), an
empty cell for ``None``. :func:`write_tsv` and :func:`read_tsv` handle the
TSV artifacts; :func:`write_csv` writes the one CSV artifact, ``corpus.csv``,
which the export's reader reads back. A header other than the declared
names, a header with no row under it, a row whose cell count differs from
the header's, a cell that does not parse as its column's type, or JSON that
does not parse raises :class:`DependencyError` naming the file and line.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import DependencyError, EncodingError

#: A table's declaration: each column's name and the type of its values.
Columns = Sequence[tuple[str, type]]

#: Rows that :func:`write_tsv` and :func:`write_csv` convert at a time, and
#: lines they write at once.
_BLOCK_ROWS = 2048
_WRITE_ROWS = 128


def read_text(src: str | Path) -> str:
    """The text of a UTF-8 file."""
    data = Path(src).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _not_utf8(src, len(data), exc) from None


def cp1252_bytes(text: str, errors: str = "strict") -> bytes | None:
    """The Windows-1252 (cp1252) bytes of ``text``, or ``None`` if it holds
    a character that code page lacks and the encoding error handler named
    ``errors`` raises for it."""
    try:
        return text.encode("cp1252", errors)
    except UnicodeEncodeError:
        return None


def cp1252_text(data: bytes) -> str:
    """The text of Windows-1252 bytes; :class:`UnicodeDecodeError` for the
    five bytes that code page leaves undefined."""
    return data.decode("cp1252")


def text_lines(source: IO[bytes], name: str | Path) -> Iterator[str]:
    """The lines of a binary stream of UTF-8, read and decoded a chunk at a
    time as the caller asks for them, so neither the bytes nor the decoded
    text is ever held whole. Line endings are kept and not translated, as
    a CSV reader wants; ``name`` names ``source`` in an error. ``source``
    is closed once its lines end, on an error, or when the iteration is
    dropped."""
    with io.TextIOWrapper(source, encoding="utf-8-sig", newline="") as text:
        try:
            yield from text
        except UnicodeDecodeError as exc:
            raise _not_utf8(name, text.buffer.tell(), exc) from None


def _not_utf8(name: str | Path, consumed: int, exc: UnicodeDecodeError) -> EncodingError:
    """The error for ``exc``, raised after ``consumed`` bytes went to the
    decoder. The decoder saw only its pending bytes (after any byte-order
    mark), which end there, so the bad byte's offset in the file is
    ``consumed - len(exc.object) + exc.start``."""
    offset = consumed - len(exc.object) + exc.start
    bad = exc.object[exc.start:exc.end].hex(" ")
    return EncodingError(f"{name} is not valid UTF-8 at byte {offset} ({bad}): {exc.reason}")


@contextmanager
def _open_writer(dest: str | Path) -> Iterator[IO[str]]:
    """A text handle on a temporary file that replaces ``dest`` if the block succeeds."""
    tmp = Path(dest).with_name(f".{Path(dest).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, dest)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(dest: str | Path, text: str) -> None:
    with _open_writer(dest) as fh:
        fh.write(text)


def write_tsv(
    dest: str | Path, columns: Columns, values: Sequence[Sequence], *, header: bool = True
) -> None:
    """``values`` holds one sequence (list, tuple, range or array) per declared
    column, all of one length, under the line of column names if ``header``."""
    _write_table(dest, columns, values, "\t", None, header)


def write_csv(dest: str | Path, columns: Columns, values: Sequence[Sequence]) -> None:
    """The table of :func:`write_tsv` as RFC 4180 CSV with a header line: a cell
    holding ``,``, ``"``, ``\\r`` or ``\\n`` is quoted, its quotes doubled."""
    _write_table(dest, columns, values, ",", re.compile('[,"\r\n]'), True)


def _write_table(
    dest: str | Path, columns: Columns, values: Sequence[Sequence], sep: str,
    quoted: re.Pattern | None, header: bool
) -> None:
    """Converts ``_BLOCK_ROWS`` rows at a time and writes ``_WRITE_ROWS`` lines at
    once, so no column is ever held as text whole and no write holds more
    than a few lines; a cell that ``quoted`` matches is quoted."""
    if len(values) != len(columns) or len({len(v) for v in values}) > 1:
        raise ValueError(f"{dest}: values are not {len(columns)} columns of one length")

    def quote(cell: str) -> str:
        return '"%s"' % cell.replace('"', '""') if quoted.search(cell) else cell

    with _open_writer(dest) as fh:
        if header:
            fh.write(sep.join(name for name, _ in columns) + "\n")
        for start in range(0, max(map(len, values), default=0), _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            block = [_to_cells(kind, v[start:stop]) for (_, kind), v in zip(columns, values)]
            if quoted is not None:
                block = [map(quote, cells) for cells in block]
            lines = map(sep.join, zip(*block))
            while chunk := list(itertools.islice(lines, _WRITE_ROWS)):
                fh.write("\n".join(chunk) + "\n")


def _to_cells(kind: type, values: Sequence) -> Iterable[str]:
    """An array's values already have their column's type, and a numeric
    array's distinct values (told apart by their bits, so ``-0.0`` is not
    ``0.0``) are formatted once each; others are converted."""
    to_text = repr if kind is float else str
    if isinstance(values, np.ndarray):
        if kind is str:
            return values.tolist()
        _, first, inverse = np.unique(
            values.view(f"i{values.itemsize}"), return_index=True, return_inverse=True
        )
        return np.array([to_text(v) for v in values[first].tolist()], dtype=object)[inverse]
    return ("" if v is None else to_text(kind(v)) for v in values)


def read_tsv(src: str | Path, columns: Columns) -> list[list]:
    """The declared columns under the header, each a list in file order.
    Every table the package reads back holds at least one row, so a header
    alone is malformed."""
    lines = read_text(src).splitlines()
    if not lines:
        raise DependencyError(f"malformed artifact {src}: no header line")
    width = lines[0].count("\t") + 1
    for lineno, line in enumerate(lines, start=1):
        if (n_cells := line.count("\t") + 1) != width:
            raise DependencyError(
                f"malformed artifact {src}: line {lineno} has {n_cells} cells, "
                f"the header has {width}"
            )
    names = [name for name, _ in columns]
    if lines[0].split("\t") != names:
        raise DependencyError(f"malformed artifact {src}: line 1: header is not {names}")
    if len(lines) == 1:
        raise DependencyError(f"malformed artifact {src}: line 2: no row under the header")
    cells = "\t".join(lines[1:]).split("\t")
    return [_parse(src, name, kind, cells[j::width]) for j, (name, kind) in enumerate(columns)]


def _parse(src: str | Path, name: str, kind: type, texts: list[str]) -> list:
    if kind is str:
        return texts
    parsed: list = []
    try:
        parsed.extend(map(kind, texts))  # keeps the values parsed before a failure
    except ValueError:
        raise DependencyError(
            f"malformed artifact {src}: line {len(parsed) + 2}: {name} "
            f"{texts[len(parsed)]!r} is not {'an integer' if kind is int else 'a number'}"
        ) from None
    return parsed


def write_json(dest: str | Path, payload: Any) -> None:
    write_text(dest, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(src: str | Path) -> Any:
    try:
        return json.loads(read_text(src))
    except json.JSONDecodeError as exc:
        raise DependencyError(f"malformed artifact {src}: line {exc.lineno}: {exc.msg}") from None
