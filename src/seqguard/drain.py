"""Streaming log template mining with a fixed-depth parse tree.

Raw lines are split into a header and a free-form message, the message is
tokenized on whitespace, numeric-looking tokens are masked, and each token
list is routed through a prefix tree whose leaves hold template groups.
A line either merges into the best-matching template (similar positions
kept, mismatches widened to the wildcard) or founds a new template with
the next dense event ID.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO

from .artifacts import read_table, write_table_to

WILDCARD = "<*>"

# Header layout of the HDFS corpus: date, time, pid, level, component, message.
DEFAULT_HEADER_PATTERN = r"^(?P<date>\d+)\s+(?P<time>\d+)\s+(?P<pid>\d+)\s+(?P<level>\S+)\s+(?P<component>\S+):\s*(?P<content>.*)$"

_ADJACENT_OK = set("0123456789_-.")
_HAS_DIGIT = re.compile(r"[0-9]")
_DIGIT_TOUCHES_OTHER = re.compile(r"[0-9][^0-9_.\-]|[^0-9_.\-][0-9]")

# Entries at which parse_stream's token mask memo and a tree's exact-repeat
# memo are cleared, to bound their memory.
MASK_MEMO_LIMIT = 4096
MATCH_MEMO_LIMIT = 4096


class LengthMismatch(ValueError):
    """Raised when two token lists of different lengths are compared."""


def mask_numeric_tokens(tokens: list[str], memo: Optional[dict[str, str]] = None) -> list[str]:
    """Replace numeric-bearing tokens with the wildcard.

    A token is masked when it contains at least one digit and every
    character adjacent to a digit is itself a digit, ``_``, ``-`` or ``.``.
    This catches counters, sizes, block ids and dotted numbers while
    leaving mixed identifiers (``/10.1.2.3``, ``attempt7a``) alone.

    ``memo``, when given, maps tokens already seen to their masked form; it
    is cleared whenever it reaches ``MASK_MEMO_LIMIT`` entries, since block
    ids, addresses and sizes rarely repeat.
    """
    if memo is None:
        return [WILDCARD if _is_numeric(tok) else tok for tok in tokens]
    out = []
    for tok in tokens:
        masked = memo.get(tok)
        if masked is None:
            if len(memo) >= MASK_MEMO_LIMIT:
                memo.clear()
            masked = memo[tok] = WILDCARD if _is_numeric(tok) else tok
        out.append(masked)
    return out


def _is_numeric(tok: str) -> bool:
    # For an ASCII character str.isdigit() holds only for 0-9, so the two
    # regexes decide exactly what _is_numeric_token does. Not \d: it would
    # differ from isdigit() on characters such as '²'.
    if tok.isascii():
        return _HAS_DIGIT.search(tok) is not None and _DIGIT_TOUCHES_OTHER.search(tok) is None
    return _is_numeric_token(tok)


def _is_numeric_token(tok: str) -> bool:
    has_digit = False
    last = len(tok) - 1
    for i, ch in enumerate(tok):
        if not ch.isdigit():
            continue
        has_digit = True
        if i > 0 and tok[i - 1] not in _ADJACENT_OK:
            return False
        if i < last and tok[i + 1] not in _ADJACENT_OK:
            return False
    return has_digit


def seq_similarity(content_tokens: list[str], template_tokens: list[str]) -> float:
    """Fraction of positions where tokens agree or the template holds a wildcard."""
    if len(content_tokens) != len(template_tokens):
        raise LengthMismatch(
            f"token lists differ in length: {len(content_tokens)} vs {len(template_tokens)}"
        )
    if not content_tokens:
        return 1.0
    hits = 0
    for tok, tmpl in zip(content_tokens, template_tokens):
        if tmpl == WILDCARD or tok == tmpl:
            hits += 1
    return hits / len(content_tokens)


@dataclass
class EventTemplate:
    """A mined template: dense id, token skeleton, and how many lines it absorbed."""

    event_id: int
    tokens: list[str]
    match_count: int = 1

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


class _Node:
    __slots__ = ("children", "templates")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        self.templates: list[EventTemplate] = []


def compile_header_pattern(pattern: str) -> re.Pattern:
    """The header regex, which must capture the message as ``content``."""
    try:
        compiled = re.compile(pattern)
    except re.error as exc:
        raise ValueError(f"header_pattern does not compile: {exc}") from exc
    if "content" not in compiled.groupindex:
        raise ValueError("header_pattern needs a (?P<content>...) group")
    return compiled


def check_tree(depth: int, sim_threshold: float, max_children: int) -> None:
    if depth < 3:
        raise ValueError("tree depth must be at least 3")
    if not 0.0 < sim_threshold < 1.0:
        raise ValueError("similarity threshold must be in (0, 1)")
    if max_children < 1:
        raise ValueError("max_children must be positive")


@dataclass
class ParseTree:
    """Fixed-depth parse tree assigning dense event ids to log lines.

    The first level partitions by token count; the next ``depth - 2``
    levels key on leading tokens; leaves hold template groups. Internal
    nodes cap their fan-out at ``max_children``; overflow keys share a
    wildcard child.
    """

    depth: int = 4
    sim_threshold: float = 0.4
    max_children: int = 100
    _root: _Node = field(default_factory=_Node, repr=False)
    _templates: list[EventTemplate] = field(default_factory=list, repr=False)
    # Token tuple -> the template parse_line last chose for it. The choice
    # depends only on the tokens and on every template's tokens and order,
    # so an entry stays right until a template is inserted or a merge
    # changes a template's tokens; both clear the whole memo.
    _matches: dict[tuple[str, ...], EventTemplate] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_tree(self.depth, self.sim_threshold, self.max_children)

    @property
    def templates(self) -> list[EventTemplate]:
        return self._templates

    # Number of token-keyed levels between the length level and the leaves.
    @property
    def _token_levels(self) -> int:
        return self.depth - 2

    def parse_line(self, content_tokens: list[str]) -> int:
        """Route one masked token list through the tree; returns its event id."""
        key = tuple(content_tokens)
        best = self._matches.get(key)
        if best is not None:
            # Merging the same tokens into the same template again changes
            # nothing but the count.
            best.match_count += 1
            return best.event_id
        leaf = self._search_leaf(content_tokens)
        best = self._best_match(leaf, content_tokens) if leaf is not None else None
        if best is None:
            template = EventTemplate(event_id=len(self._templates), tokens=list(content_tokens))
            self._templates.append(template)
            self._insert(template)
            self._matches.clear()
            return template.event_id
        if self._merge(best, content_tokens) or len(self._matches) >= MATCH_MEMO_LIMIT:
            self._matches.clear()
        self._matches[key] = best
        return best.event_id

    def _search_leaf(self, tokens: list[str]) -> Optional[_Node]:
        node = self._root.children.get(str(len(tokens)))
        if node is None:
            return None
        for level in range(self._token_levels):
            if level >= len(tokens):
                break
            child = node.children.get(tokens[level])
            if child is None:
                child = node.children.get(WILDCARD)
            if child is None:
                return None
            node = child
        return node

    def _best_match(self, leaf: _Node, tokens: list[str]) -> Optional[EventTemplate]:
        best: Optional[EventTemplate] = None
        best_sim = -1.0
        for template in leaf.templates:
            sim = seq_similarity(tokens, template.tokens)
            if sim > best_sim:
                best, best_sim = template, sim
        if best is not None and best_sim >= self.sim_threshold:
            return best
        return None

    def _insert(self, template: EventTemplate) -> None:
        tokens = template.tokens
        key = str(len(tokens))
        node = self._root.children.setdefault(key, _Node())
        for level in range(self._token_levels):
            if level >= len(tokens):
                break
            tok = tokens[level]
            child = node.children.get(tok)
            if child is None:
                if self._may_add_child(node, tok):
                    child = node.children.setdefault(tok, _Node())
                else:
                    child = node.children.setdefault(WILDCARD, _Node())
            node = child
        node.templates.append(template)

    def _may_add_child(self, node: _Node, tok: str) -> bool:
        if tok == WILDCARD:
            return True
        if len(node.children) + 1 < self.max_children:
            return True
        # The last slot is reserved for the shared wildcard child.
        return len(node.children) + 1 == self.max_children and WILDCARD in node.children

    @staticmethod
    def _merge(template: EventTemplate, tokens: list[str]) -> bool:
        """Widen the template to cover ``tokens``; True when its tokens changed."""
        merged = [
            t if t == tok or t == WILDCARD else WILDCARD
            for t, tok in zip(template.tokens, tokens)
        ]
        changed = merged != template.tokens
        template.tokens = merged
        template.match_count += 1
        return changed


@dataclass(slots=True)
class StructuredLine:
    line_number: int
    event_id: int
    block_id: str


@dataclass
class ParseResult:
    """Outcome of parsing one corpus: templates, per-line rows, rejects."""

    tree: ParseTree
    lines: list[StructuredLine]
    rejects: list[tuple[int, str]]

    @property
    def templates(self) -> list[EventTemplate]:
        return self.tree.templates


def parse_stream(
    stream: Iterable[str],
    tree: ParseTree,
    header_pattern: str = DEFAULT_HEADER_PATTERN,
    block_id_extractor=None,
) -> ParseResult:
    """Parse raw lines into structured rows, collecting rejects instead of failing.

    ``block_id_extractor`` runs on the unmasked message body so that ids
    the masking step would wipe out are still captured.
    """
    pattern = compile_header_pattern(header_pattern)
    lines: list[StructuredLine] = []
    rejects: list[tuple[int, str]] = []
    masks: dict[str, str] = {}
    for line_number, raw in enumerate(stream, start=1):
        raw = raw.rstrip("\n")
        m = pattern.match(raw)
        # An optional content group that took no part in the match is None.
        content = m.group("content") if m is not None else None
        words = content.split() if content else None
        if not words:
            rejects.append((line_number, raw))
            continue
        block_id = block_id_extractor(content) if block_id_extractor else None
        event_id = tree.parse_line(mask_numeric_tokens(words, masks))
        lines.append(StructuredLine(line_number, event_id, block_id or ""))
    return ParseResult(tree=tree, lines=lines, rejects=rejects)


def parse_file(
    log_path: str,
    tree: ParseTree,
    header_pattern: str = DEFAULT_HEADER_PATTERN,
    block_id_extractor=None,
) -> ParseResult:
    try:
        # utf-8-sig: a leading byte-order mark is not part of line 1.
        with open(log_path, "r", encoding="utf-8-sig") as handle:
            return parse_stream(handle, tree, header_pattern, block_id_extractor)
    except OSError as exc:
        raise OSError(f"cannot read log file {log_path}: {exc}") from exc


def export_templates(tree: ParseTree, out: TextIO) -> None:
    """Write ``event_id,template_text,match_count`` rows sorted by event id."""
    templates = sorted(tree.templates, key=lambda t: t.event_id)
    rows = ([t.event_id, t.text, t.match_count] for t in templates)
    write_table_to(out, ["event_id", "template_text", "match_count"], rows)


def export_structured(lines: list[StructuredLine], out: TextIO) -> None:
    rows = ([row.line_number, row.event_id, row.block_id] for row in lines)
    write_table_to(out, ["line_number", "event_id", "block_id"], rows)


def export_rejects(rejects: list[tuple[int, str]], out: TextIO) -> None:
    for line_number, raw in rejects:
        out.write(f"{line_number}\t{raw}\n")


def load_templates(path: str) -> list[EventTemplate]:
    try:
        return [
            EventTemplate(
                event_id=int(row["event_id"]),
                tokens=row["template_text"].split(),
                match_count=int(row["match_count"]),
            )
            for row in read_table(path)
        ]
    except OSError as exc:
        raise OSError(f"cannot read template table {path}: {exc}") from exc


def load_structured(path: str) -> list[StructuredLine]:
    try:
        return [
            StructuredLine(
                line_number=int(row["line_number"]),
                event_id=int(row["event_id"]),
                block_id=row["block_id"],
            )
            for row in read_table(path)
        ]
    except OSError as exc:
        raise OSError(f"cannot read structured table {path}: {exc}") from exc
