"""The package imports only the standard library, itself, and what
``pyproject.toml`` declares, and it uses everything it declares. The HTTP
client is imported only when the judge makes a live call."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys

import pytest

import seqguard

PACKAGE = os.path.dirname(seqguard.__file__)
SRC = os.path.dirname(PACKAGE)
PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")


def _imported_top_level_modules():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    yield from (alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    yield node.module.split(".")[0]


def _declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(PYPROJECT, "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}


def test_imports_are_stdlib_or_declared():
    imported = set(_imported_top_level_modules())
    declared = _declared_dependencies()
    undeclared = imported - set(sys.stdlib_module_names) - declared - {"seqguard"}
    assert undeclared == set()
    assert declared - imported == set(), "declared but never imported"


def test_http_client_loads_only_for_a_live_call():
    # http.client loads ssl: about 3 MiB of resident memory in every run,
    # with live calls or without.
    script = "import sys, seqguard.cli; print(sorted({'http.client', 'ssl'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
