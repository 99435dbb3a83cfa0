"""Template mining: masking, similarity, tree behavior, golden corpus."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqguard import drain
from seqguard.drain import (
    WILDCARD,
    ParseTree,
    _is_numeric,
    _is_numeric_token,
    export_structured,
    export_templates,
    load_structured,
    load_templates,
    mask_numeric_tokens,
    parse_file,
    parse_stream,
    seq_similarity,
)
from seqguard.sessions import extract_block_id

from conftest import GOLDEN_TEMPLATES, SAMPLE_LOG


class TestMasking:
    @pytest.mark.parametrize(
        "token,masked",
        [
            ("blk_1001", True),
            ("blk_-3544583377289625738", True),
            ("10.0.0.5", True),
            ("10.250.19.102:54106", False),  # ':' adjacent to digits
            ("/data/current/blk_1001", True),
            ("/10.0.0.1", False),  # leading slash touches the first digit
            ("terminating", False),
            ("size", False),
            ("67108864", True),
            ("x2y", False),  # letters adjacent to the digit
            ("v2", False),
            ("_42_", True),
            ("3.14", True),
            ("-7", True),
            ("", False),
        ],
    )
    def test_token_masking(self, token, masked):
        out = mask_numeric_tokens([token])
        assert (out[0] == WILDCARD) == masked

    def test_no_digit_never_masked(self):
        tokens = ["alpha", "beta_gamma", "...", "-", "_"]
        assert mask_numeric_tokens(tokens) == tokens

    def test_masking_is_idempotent(self):
        tokens = "Receiving block blk_99 src 10.0.0.2 dest 10.0.0.3".split()
        once = mask_numeric_tokens(tokens)
        assert mask_numeric_tokens(once) == once


# Digits of several scripts next to the characters the mask treats as
# separators: '²' and Arabic-Indic digits are isdigit() but not [0-9].
_MASK_ALPHABET = list("0123456789_.-ax/:") + ["²", "٣", "٤", "é", "\u00a0"]
_mask_tokens = st.one_of(
    st.text(alphabet=_MASK_ALPHABET, max_size=12),
    st.text(max_size=12),
)


class TestMaskMemo:
    @settings(max_examples=400, deadline=None)
    @given(_mask_tokens)
    def test_fast_test_equals_character_scan(self, tok):
        assert _is_numeric(tok) == _is_numeric_token(tok)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(_mask_tokens, max_size=6), max_size=20))
    def test_memoized_mask_equals_plain_mask(self, lines):
        # A tiny limit, so the memo is cleared between and within lines.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(drain, "MASK_MEMO_LIMIT", 3)
            memo: dict[str, str] = {}
            for tokens in lines:
                expected = [WILDCARD if _is_numeric_token(t) else t for t in tokens]
                assert mask_numeric_tokens(tokens, memo) == expected
                assert mask_numeric_tokens(tokens) == expected
                assert len(memo) <= 3

    @pytest.mark.parametrize("tok", ["²", "1²", "٣", "٣.٤", "x٣", "1_٣"])
    def test_unicode_digits_follow_isdigit(self, tok):
        assert _is_numeric(tok) == _is_numeric_token(tok)


class TestSimilarity:
    def test_exact_match(self):
        toks = ["a", "b", "c"]
        assert seq_similarity(toks, toks) == 1.0

    def test_wildcard_counts_as_match(self):
        assert seq_similarity(["a", "b", "c"], ["a", WILDCARD, "c"]) == 1.0

    def test_partial(self):
        assert seq_similarity(["a", "x", "c", "d"], ["a", "b", "c", "e"]) == 0.5

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            seq_similarity(["a"], ["a", "b"])


class TestTree:
    def test_identical_lines_share_template(self):
        tree = ParseTree()
        a = tree.parse_line(["send", "done"])
        b = tree.parse_line(["send", "done"])
        assert a == b == 0
        assert len(tree.templates) == 1

    def test_merge_generalizes_differing_positions(self):
        tree = ParseTree()
        tree.parse_line(["open", "file", "alpha"])
        eid = tree.parse_line(["open", "file", "beta"])
        assert eid == 0
        assert tree.templates[0].tokens == ["open", "file", WILDCARD]

    def test_below_threshold_starts_new_template_in_same_leaf(self):
        tree = ParseTree(sim_threshold=0.4)
        first = tree.parse_line(["io", "error", "a", "b", "c", "d"])
        second = tree.parse_line(["io", "error", "w", "x", "y", "z"])  # sim 2/6
        assert first == 0 and second == 1
        assert len(tree.templates) == 2

    def test_threshold_boundary_merges(self):
        # Similarity exactly at the threshold counts as a match.
        tree = ParseTree(sim_threshold=0.4)
        tree.parse_line(["io", "error", "a", "b", "c"])
        eid = tree.parse_line(["io", "error", "x", "y", "z"])  # sim 2/5 = 0.4
        assert eid == 0
        assert tree.templates[0].tokens == ["io", "error", WILDCARD, WILDCARD, WILDCARD]

    def test_wildcards_never_unwiden(self):
        tree = ParseTree()
        tree.parse_line(["get", WILDCARD, "done"])
        tree.parse_line(["get", "item", "done"])
        assert tree.templates[0].tokens == ["get", WILDCARD, "done"]

    def test_event_ids_dense_from_zero(self):
        tree = ParseTree()
        seen = set()
        for tok in ("aa", "bb", "cc", "dd"):
            seen.add(tree.parse_line([tok, "x", "y"]))
        assert seen == {0, 1, 2, 3}

    def test_token_count_partitions_templates(self):
        tree = ParseTree()
        short = tree.parse_line(["report", "ok"])
        longer = tree.parse_line(["report", "ok", "today"])
        assert short != longer

    def test_max_children_overflow_reroutes_to_wildcard(self):
        # Capacity 2 leaves room for one concrete child plus the shared
        # overflow bucket; overflow lines merge on their common tail
        # instead of fragmenting into singleton templates.
        tree = ParseTree(max_children=2)
        for head in ("aa", "bb", "cc", "dd"):
            tree.parse_line([head, "same", "tail"])
        assert len(tree.templates) == 2
        assert tree.templates[0].tokens == ["aa", "same", "tail"]
        assert tree.templates[1].tokens == [WILDCARD, "same", "tail"]
        assert tree.templates[1].match_count == 3

    def test_counts_accumulate(self):
        tree = ParseTree()
        for _ in range(5):
            tree.parse_line(["tick", "tock"])
        assert tree.templates[0].match_count == 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParseTree(depth=2)
        with pytest.raises(ValueError):
            ParseTree(sim_threshold=1.5)
        with pytest.raises(ValueError):
            ParseTree(max_children=0)


class _ReferenceTree(ParseTree):
    """The tree without the exact-repeat memo: every line searches and merges."""

    def parse_line(self, content_tokens):
        leaf = self._search_leaf(content_tokens)
        best = self._best_match(leaf, content_tokens) if leaf is not None else None
        if best is None:
            template = drain.EventTemplate(
                event_id=len(self._templates), tokens=list(content_tokens)
            )
            self._templates.append(template)
            self._insert(template)
            return template.event_id
        self._merge(best, content_tokens)
        return best.event_id


# Three words and the wildcard over one to four positions: lines often tie at
# similarity 1.0, merge, differ in length and overflow a small fan-out.
_tiny_lines = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", WILDCARD]), min_size=1, max_size=4),
    max_size=60,
)


class TestExactRepeatMemo:
    @settings(max_examples=300, deadline=None)
    @given(
        _tiny_lines,
        st.sampled_from([3, 4, 5]),
        st.sampled_from([0.2, 0.5, 0.75, 0.9]),
        st.sampled_from([1, 2, 3, 100]),
        st.sampled_from([1, 2, 4096]),
    )
    def test_memo_matches_reference(self, lines, depth, sim, max_children, limit):
        settings_ = dict(depth=depth, sim_threshold=sim, max_children=max_children)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(drain, "MATCH_MEMO_LIMIT", limit)
            fast, slow = ParseTree(**settings_), _ReferenceTree(**settings_)
            assert [fast.parse_line(t) for t in lines] == [slow.parse_line(t) for t in lines]
            assert len(fast._matches) <= limit
        assert [(t.event_id, t.tokens, t.match_count) for t in fast.templates] == [
            (t.event_id, t.tokens, t.match_count) for t in slow.templates
        ]

    def test_earlier_template_widened_to_a_tie_wins(self):
        # "a b b" is remembered as template 1. Then "a z z" widens template 0
        # to "a <*> <*>", which ties template 1 at similarity 1.0 and, being
        # first in the leaf, takes the next "a b b".
        lines = [s.split() for s in ("a x y", "a b b", "a b b", "a b y", "a b b", "a z z", "a b b")]
        fast, slow = (cls(depth=3, sim_threshold=0.6) for cls in (ParseTree, _ReferenceTree))
        ids = [fast.parse_line(t) for t in lines]
        assert ids == [slow.parse_line(t) for t in lines] == [0, 1, 1, 0, 1, 0, 0]
        assert [t.tokens for t in fast.templates] == [t.tokens for t in slow.templates]

    def test_new_child_reroutes_a_remembered_line(self):
        # "x q" first reaches template 0 through the leading wildcard child.
        # Inserting "x z" adds an "x" child, so the next "x q" goes there
        # and, below the threshold against "x z", founds template 2.
        lines = [s.split() for s in ("<*> q", "x q", "x q", "x z", "x q")]
        fast, slow = (cls(depth=3, sim_threshold=0.9) for cls in (ParseTree, _ReferenceTree))
        ids = [fast.parse_line(t) for t in lines]
        assert ids == [slow.parse_line(t) for t in lines] == [0, 0, 0, 1, 2]

    def test_lines_identical_after_masking_search_once(self, monkeypatch):
        calls = []
        best_match = ParseTree._best_match

        def counted(self, leaf, tokens):
            calls.append(tokens)
            return best_match(self, leaf, tokens)

        monkeypatch.setattr(ParseTree, "_best_match", counted)
        stream = [
            f"081109 203615 {i} INFO dfs.DataNode: Received block blk_{i} of size {7 * i}\n"
            for i in range(50)
        ]
        result = parse_stream(stream, ParseTree())
        assert [row.event_id for row in result.lines] == [0] * 50
        assert result.templates[0].match_count == 50
        # The first line founds the template; the second searches and is
        # remembered; the other 48 are memo hits.
        assert len(calls) == 1


class TestGoldenCorpus:
    def test_fixture_parse_matches_golden_table(self):
        result = parse_file(str(SAMPLE_LOG), ParseTree())
        golden = load_templates(str(GOLDEN_TEMPLATES))
        assert [(t.event_id, t.match_count, t.text) for t in result.templates] == [
            (t.event_id, t.match_count, t.text) for t in golden
        ]

    def test_fixture_rejects_malformed_lines(self):
        result = parse_file(str(SAMPLE_LOG), ParseTree())
        assert [lineno for lineno, _ in result.rejects] == [26, 37]
        assert len(result.lines) == 50

    def test_fixture_block_ids_all_present(self):
        result = parse_file(str(SAMPLE_LOG), ParseTree(), block_id_extractor=extract_block_id)
        assert all(row.block_id.startswith("blk_") for row in result.lines)

    def test_fixture_reparse_byte_identical(self):
        outputs = []
        for _ in range(2):
            result = parse_file(str(SAMPLE_LOG), ParseTree(), block_id_extractor=extract_block_id)
            t_buf, s_buf = io.StringIO(), io.StringIO()
            export_templates(result.tree, t_buf)
            export_structured(result.lines, s_buf)
            outputs.append((t_buf.getvalue(), s_buf.getvalue()))
        assert outputs[0] == outputs[1]

    def test_structured_round_trip(self, tmp_path):
        result = parse_file(str(SAMPLE_LOG), ParseTree(), block_id_extractor=extract_block_id)
        path = tmp_path / "structured.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            export_structured(result.lines, handle)
        loaded = load_structured(str(path))
        assert [(r.line_number, r.event_id, r.block_id) for r in loaded] == [
            (r.line_number, r.event_id, r.block_id) for r in result.lines
        ]

    def test_templates_round_trip(self, tmp_path):
        result = parse_file(str(SAMPLE_LOG), ParseTree())
        path = tmp_path / "templates.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            export_templates(result.tree, handle)
        loaded = load_templates(str(path))
        assert [(t.event_id, t.match_count, t.tokens) for t in loaded] == [
            (t.event_id, t.match_count, t.tokens) for t in result.templates
        ]

    def test_byte_order_mark_is_not_part_of_line_one(self, tmp_path):
        path = tmp_path / "bom.log"
        path.write_bytes(b"\xef\xbb\xbf" + SAMPLE_LOG.read_bytes())
        plain = parse_file(str(SAMPLE_LOG), ParseTree(), block_id_extractor=extract_block_id)
        marked = parse_file(str(path), ParseTree(), block_id_extractor=extract_block_id)
        assert marked.lines[0].line_number == 1
        assert marked.lines == plain.lines and marked.rejects == plain.rejects
        assert [t.tokens for t in marked.templates] == [t.tokens for t in plain.templates]

    def test_message_absent_from_match_is_rejected(self):
        # The optional content group takes no part in matching "" or "42".
        stream = ["\n", "42\n", "42 send ok\n"]
        result = parse_stream(stream, ParseTree(), header_pattern=r"^\d+(?: (?P<content>.+))?$")
        assert result.rejects == [(1, ""), (2, "42")]
        assert [row.line_number for row in result.lines] == [3]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_file(str(tmp_path / "absent.log"), ParseTree())


def _random_lines(rng: np.random.Generator, n: int) -> list[list[str]]:
    words = ["recv", "send", "open", "close", "block", "file", "node", "peer", "ok", "fail"]
    lines = []
    for _ in range(n):
        length = int(rng.integers(1, 12))
        toks = []
        for _ in range(length):
            if rng.random() < 0.3:
                toks.append(str(rng.integers(0, 10_000)))
            else:
                toks.append(words[rng.integers(0, len(words))])
        lines.append(toks)
    return lines


class TestProperties:
    def test_differing_token_counts_never_share_event_id(self):
        rng = np.random.default_rng(2026)
        tree = ParseTree()
        by_event: dict[int, int] = {}
        for toks in _random_lines(rng, 1000):
            eid = tree.parse_line(mask_numeric_tokens(toks))
            if eid in by_event:
                assert by_event[eid] == len(toks)
            else:
                by_event[eid] = len(toks)

    def test_same_stream_same_table(self):
        rng = np.random.default_rng(7)
        lines = [mask_numeric_tokens(t) for t in _random_lines(rng, 400)]
        tables = []
        for _ in range(2):
            tree = ParseTree()
            ids = [tree.parse_line(t) for t in lines]
            tables.append((ids, [(t.event_id, t.match_count, t.text) for t in tree.templates]))
        assert tables[0] == tables[1]

    def test_template_length_tracks_line_length(self):
        # Wildcard growth never changes a template's token count.
        rng = np.random.default_rng(99)
        tree = ParseTree()
        for toks in _random_lines(rng, 500):
            masked = mask_numeric_tokens(toks)
            eid = tree.parse_line(masked)
            assert len(tree.templates[eid].tokens) == len(masked)
