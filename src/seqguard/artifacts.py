"""The three on-disk formats that stages hand their outputs over in; no
other module reads or writes a file through ``csv`` or ``json``.

- Tables (``.csv``): UTF-8, one header row, ``\\n`` line ends.
- Records (``.jsonl``): one JSON object per line, keys sorted.
- Documents (``.json``): keys sorted, a two-space indent (none when
  ``compact``) and a trailing newline, so re-emitting a loaded document
  reproduces it byte for byte.

NaN and infinities are refused in JSON: they are not JSON (RFC 8259).
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
import tempfile
from typing import Any, Iterable, Iterator, Sequence, TextIO


def write_table_to(out: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def write_table(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write_table_to(handle, header, rows)


def read_table(path: str) -> Iterator[dict[str, str]]:
    """The rows of a table, streamed, each keyed by the header; every field
    reads back as ``write_table`` wrote it."""
    # A template field is as long as its log message, and csv refuses
    # fields over 131,072 characters unless told otherwise.
    csv.field_size_limit(sys.maxsize)
    if not _holds_carriage_return(path):
        with open(path, "r", encoding="utf-8", newline="") as handle:
            yield from csv.DictReader(handle)
        return
    # csv.writer quotes a field that holds the line end, "\n", but not one
    # that holds a bare "\r", where csv.reader would end the row. So each
    # "\r" is read as a character the table does not hold, then put back.
    with open(path, "r", encoding="utf-8", newline="") as handle:
        text = handle.read()
    stand_in = next(c for c in map(chr, range(0xE000, 0x110000)) if c not in text)
    lines = io.StringIO(text.replace("\r", stand_in), newline="")
    for row in csv.DictReader(lines):
        yield {k.replace(stand_in, "\r"): v.replace(stand_in, "\r") for k, v in row.items()}


def _holds_carriage_return(path: str) -> bool:
    with open(path, "rb") as handle:
        return any(b"\r" in chunk for chunk in iter(lambda: handle.read(65536), b""))


def write_records(path: str, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")


def read_records(path: str) -> Iterator[Any]:
    """The records of a JSON Lines file, streamed; blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)


def dump_json_file(path: str, payload: Any, compact: bool = False, atomic: bool = False) -> None:
    """Write one document, or no file when the write fails. ``compact`` drops
    the indent and the spaces after separators. ``atomic`` writes a private
    temporary file beside ``path`` and renames it over ``path``, so a reader
    never sees half a document."""
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    if atomic:
        fd, target = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
        handle = os.fdopen(fd, "w", encoding="utf-8")
    else:
        target, handle = path, open(path, "w", encoding="utf-8")
    try:
        with handle:
            # Streamed: building the text first costs megabytes on a large manifest.
            json.dump(payload, handle, sort_keys=True, allow_nan=False, **layout)
            handle.write("\n")
        if atomic:
            os.replace(target, path)
    except BaseException:
        # A refused document leaves no file; opening ``path`` has already
        # truncated any earlier version, so nothing more is lost.
        os.unlink(target)
        raise


def load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
