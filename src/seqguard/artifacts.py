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
import json
import os
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
    """The rows of a table, streamed, each keyed by the header."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        yield from csv.DictReader(handle)


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
