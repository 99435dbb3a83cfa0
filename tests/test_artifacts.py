"""The artifact formats: one module owns them, and each writes what it
promises. The ownership check walks the syntax tree of every package
module, as ``test_public_api.py`` does."""

from __future__ import annotations

import ast
import io
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqguard
from seqguard.artifacts import (
    dump_json_file,
    load_json_file,
    read_records,
    read_table,
    write_records,
    write_table,
    write_table_to,
)

PACKAGE = os.path.dirname(seqguard.__file__)


def _file_format_uses(tree):
    """Each ``csv`` import and each ``json.dump``/``json.load`` in a module;
    ``json.dumps`` and ``json.loads`` on strings are not file formats."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (f"import {a.name}" for a in node.names if a.name.split(".")[0] == "csv")
        elif isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
            for alias in node.names:
                if node.module == "csv" or alias.name in ("dump", "load"):
                    yield f"from {node.module} import {alias.name}"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("dump", "load")
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        ):
            yield f"json.{node.attr}"


def test_only_artifacts_module_reads_or_writes_csv_or_json_files():
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py") and name != "artifacts.py":
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as handle:
                uses = list(_file_format_uses(ast.parse(handle.read(), filename=path)))
            if uses:
                found[name] = uses
    assert found == {}, f"file formats outside seqguard/artifacts.py: {found}"


def test_table_round_trip_quotes_commas_and_quotes(tmp_path):
    path = str(tmp_path / "t.csv")
    write_table(path, ["id", "text"], [[1, 'a, "b"'], [2, ""]])
    with open(path, "rb") as handle:
        assert handle.read() == b'id,text\n1,"a, ""b"""\n2,\n'
    assert list(read_table(path)) == [{"id": "1", "text": 'a, "b"'}, {"id": "2", "text": ""}]


def test_table_to_handle_matches_table_to_path(tmp_path):
    path = str(tmp_path / "t.csv")
    write_table(path, ["x"], [[0.5], [3]])
    buf = io.StringIO()
    write_table_to(buf, ["x"], [[0.5], [3]])
    with open(path, encoding="utf-8", newline="") as handle:
        assert handle.read() == buf.getvalue() == "x\n0.5\n3\n"


# Text that csv and JSON both make special: quotes, separators, line ends,
# a bare "\r", NUL, non-ASCII, and fields past csv's default size limit.
_special = st.sampled_from(['"', ",", "\n", "\r", "\r\n", "\x00", " ", "\u2028", "é", "\ue000"])
_short = st.lists(st.one_of(_special, st.text(max_size=4)), max_size=6).map("".join)
_long = st.builds(lambda head, n: head * n, st.sampled_from(["a", '"', "\r", "ab,"]),
                  st.integers(131_000, 140_000))
_field = st.one_of(_short, _short, _short, _long)


@settings(max_examples=60, deadline=None)
@given(
    header=st.lists(_short, min_size=1, max_size=3, unique=True),
    cells=st.lists(st.lists(_field, min_size=3, max_size=3), max_size=4),
)
def test_table_round_trip(tmp_path_factory, header, cells):
    path = str(tmp_path_factory.mktemp("table") / "t.csv")
    rows = [row[: len(header)] for row in cells]
    write_table(path, header, rows)
    assert list(read_table(path)) == [dict(zip(header, row)) for row in rows]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(_short, st.one_of(_field, st.integers())), max_size=4))
def test_records_round_trip(tmp_path_factory, records):
    path = str(tmp_path_factory.mktemp("records") / "r.jsonl")
    write_records(path, records)
    assert list(read_records(path)) == records


def test_records_are_sorted_one_per_line(tmp_path):
    path = str(tmp_path / "r.jsonl")
    write_records(path, [{"b": 1, "a": [2]}, {"a": None}])
    with open(path, "rb") as handle:
        assert handle.read() == b'{"a": [2], "b": 1}\n{"a": null}\n'
    assert list(read_records(path)) == [{"a": [2], "b": 1}, {"a": None}]


@pytest.mark.parametrize("compact", [False, True])
def test_document_layout(tmp_path, compact):
    path = str(tmp_path / "d.json")
    dump_json_file(path, {"b": [1], "a": 0.5}, compact=compact)
    expected = '{"a":0.5,"b":[1]}\n' if compact else '{\n  "a": 0.5,\n  "b": [\n    1\n  ]\n}\n'
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == expected
    assert load_json_file(path) == {"a": 0.5, "b": [1]}


@pytest.mark.parametrize("atomic", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_document_refuses_non_finite_numbers(tmp_path, atomic, bad):
    with pytest.raises(ValueError):
        dump_json_file(str(tmp_path / "d.json"), {"auc": bad}, atomic=atomic)
    assert os.listdir(tmp_path) == []


def test_atomic_document_replaces_the_old_one(tmp_path):
    path = str(tmp_path / "d.json")
    dump_json_file(path, {"v": 1})
    dump_json_file(path, {"v": 2}, atomic=True)
    assert load_json_file(path) == {"v": 2}
    assert os.listdir(tmp_path) == ["d.json"]


def test_unreadable_document_names_its_path(tmp_path):
    path = str(tmp_path / "absent.json")
    with pytest.raises(OSError, match="absent.json"):
        load_json_file(path)
