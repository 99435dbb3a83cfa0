"""Every public name in the package has a caller in the package or the
benchmark; the few that only the tests call are listed with a reason.

References are counted on the syntax tree (``Name`` and ``Attribute``
loads), so a string or an error message that spells a name is no caller.
"""

from __future__ import annotations

import ast
import os

import seqguard

PACKAGE = os.path.dirname(seqguard.__file__)
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(PACKAGE)), "seqbench")

ALLOWED = {
    "focal_loss": "acceptance criterion 01 checks it against hand-computed values",
    "cross_entropy": "acceptance criterion 02 checks it against hand-computed values",
    "position_logits": "acceptance criterion 04 checks causality through it",
    "finite_difference_check": "acceptance criterion 03 checks gradients with it",
    "Tape.sum_all": "acceptance criterion 03 reduces outputs to a scalar with it",
    "sequence_log_prob": "LM pretraining is to be kept or deleted as a whole (ROADMAP item 3)",
    "load_checkpoint": "eval is to score a test split from the checkpoint (ROADMAP item 1)",
}


def _trees(directory):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                yield ast.parse(handle.read(), filename=path)


def _definitions(trees):
    """(qualified name, identifier, defining node) for every public
    module-level function, class and constant, and every public method of
    a public class. A constant has no defining node."""
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        yield target.id, target.id, None
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    continue
                yield node.name, node.name, node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item


def _references(trees):
    """(identifier, ids of the enclosing nodes) for every load of a name or
    an attribute."""
    for tree in trees:
        parents = {
            child: parent for parent in ast.walk(tree) for child in ast.iter_child_nodes(parent)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                ident = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                ident = node.attr
            else:
                continue
            enclosing = set()
            while node in parents:
                node = parents[node]
                enclosing.add(id(node))
            yield ident, enclosing


def test_every_public_name_has_a_caller_outside_tests():
    package = list(_trees(PACKAGE))
    definitions = list(_definitions(package))
    references = list(_references(package + list(_trees(BENCHMARK))))
    uncalled = [
        qualified
        for qualified, ident, defining in definitions
        if qualified not in ALLOWED
        and not any(
            name == ident and (defining is None or id(defining) not in enclosing)
            for name, enclosing in references
        )
    ]
    assert uncalled == [], f"public names that only the tests use: {uncalled}"


def test_allow_list_names_exist():
    defined = {qualified for qualified, _, _ in _definitions(_trees(PACKAGE))}
    assert sorted(set(ALLOWED) - defined) == []
