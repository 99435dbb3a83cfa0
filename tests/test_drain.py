"""Template mining: masking, similarity, tree behavior, golden corpus."""

from __future__ import annotations

import io

import numpy as np
import pytest

from seqguard.drain import (
    WILDCARD,
    ParseTree,
    export_structured,
    export_templates,
    load_structured,
    load_templates,
    mask_numeric_tokens,
    parse_file,
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
