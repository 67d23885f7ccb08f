"""The one module that reads and writes artifact files: text, TSV and JSON.

Each function takes a path or an open text handle, which is used as given.
Text is UTF-8 with ``\\n`` line endings. A write to a path is atomic: it goes
to a temporary file beside the destination, which :func:`os.replace` then
moves into place, so a crash never leaves a half-written artifact behind.
TSV files have one header line (``rejects.tsv`` has none); a row whose cell
count differs from the header's, like JSON that does not parse, raises
:class:`DependencyError` naming the file and line.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Sequence

from .errors import DependencyError


@contextmanager
def open_writer(dest: str | Path | IO[str]) -> Iterator[IO[str]]:
    """A text handle on ``dest``; a path is replaced only if the block succeeds."""
    if not isinstance(dest, (str, Path)):
        yield dest
        return
    tmp = Path(dest).with_name(f".{Path(dest).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, dest)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(dest: str | Path | IO[str], text: str) -> None:
    with open_writer(dest) as fh:
        fh.write(text)


def read_text(src: str | Path | IO[str]) -> str:
    if isinstance(src, (str, Path)):
        return Path(src).read_text(encoding="utf-8")
    return src.read()


def write_tsv(
    dest: str | Path | IO[str], header: Sequence[str] | None, rows: Iterable[Sequence[str]]
) -> None:
    """Tab-joined lines, ``header`` first unless None; ``rows`` is consumed
    while writing, so it may be a generator."""
    with open_writer(dest) as fh:
        if header is not None:
            fh.write("\t".join(header) + "\n")
        fh.writelines("\t".join(cells) + "\n" for cells in rows)


def read_tsv(src: str | Path | IO[str]) -> Iterator[list[str]]:
    """The cells of each line under the header, lazily: a malformed row
    raises when the iteration reaches it."""
    lines = read_text(src).splitlines()
    if not lines:
        raise DependencyError(f"malformed artifact {_name(src)}: no header line")
    width = lines[0].count("\t") + 1
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != width:
            raise DependencyError(
                f"malformed artifact {_name(src)}: line {lineno} has "
                f"{len(cells)} cells, the header has {width}"
            )
        yield cells


def write_json(dest: str | Path | IO[str], payload: Any) -> None:
    write_text(dest, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(src: str | Path | IO[str]) -> Any:
    text = read_text(src)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DependencyError(
            f"malformed artifact {_name(src)}: line {exc.lineno}: {exc.msg}"
        ) from None


def _name(src: str | Path | IO[str]) -> str:
    return str(src) if isinstance(src, (str, Path)) else getattr(src, "name", "<stream>")
