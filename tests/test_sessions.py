"""Sessionization, windowing, stratified sampling, and split arithmetic."""

from __future__ import annotations

import pytest

from seqguard.drain import StructuredLine
from seqguard.sessions import (
    LABEL_ANOMALY,
    LABEL_NORMAL,
    PAD_ID,
    ClassVanished,
    LabeledWindow,
    Session,
    UnlabeledSession,
    build_sessions,
    extract_block_id,
    load_label_table,
    read_windows_jsonl,
    split,
    stratified_sample,
    windowize,
    write_windows_jsonl,
)

from conftest import SAMPLE_LABELS


class TestBlockIds:
    def test_extracts_first_id(self):
        content = "Deleting block blk_1001 file /data/current/blk_1001"
        assert extract_block_id(content) == "blk_1001"

    def test_negative_ids(self):
        assert extract_block_id("got blk_-35445833772896 done") == "blk_-35445833772896"

    def test_absent(self):
        assert extract_block_id("Verification succeeded") is None


def _rows(spec):
    # spec: list of (line_number, event_id, block_id)
    return [StructuredLine(*s) for s in spec]


class TestBuildSessions:
    def test_groups_by_block_in_first_seen_order(self):
        rows = _rows([(1, 0, "blk_2"), (2, 1, "blk_1"), (3, 2, "blk_2")])
        sessions, stats = build_sessions(rows, {"blk_1": 0, "blk_2": 1})
        assert [s.session_id for s in sessions] == ["blk_2", "blk_1"]
        assert sessions[0].event_ids == [0, 2]
        assert sessions[0].line_numbers == [1, 3]
        assert sessions[0].label == LABEL_ANOMALY
        assert stats.rows_without_block == 0

    def test_rows_without_block_are_counted_out(self):
        rows = _rows([(1, 0, ""), (2, 1, "blk_1")])
        sessions, stats = build_sessions(rows, {"blk_1": 0})
        assert len(sessions) == 1
        assert stats.rows_without_block == 1

    def test_unlabeled_block_quarantined(self):
        rows = _rows([(1, 0, "blk_1"), (2, 1, "blk_9")])
        sessions, stats = build_sessions(rows, {"blk_1": 0})
        assert [s.session_id for s in sessions] == ["blk_1"]
        assert stats.quarantined_sessions == 1
        assert stats.quarantined_block_ids == ["blk_9"]

    def test_unlabeled_block_strict_raises(self):
        rows = _rows([(1, 0, "blk_9")])
        with pytest.raises(UnlabeledSession):
            build_sessions(rows, {}, strict=True)

    def test_label_table_parses_fixture(self):
        table = load_label_table(str(SAMPLE_LABELS))
        assert len(table) == 10
        assert table["blk_1003"] == LABEL_ANOMALY
        assert table["blk_1001"] == LABEL_NORMAL

    def test_label_table_skips_byte_order_mark(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_bytes(b"\xef\xbb\xbf" + SAMPLE_LABELS.read_bytes())
        assert load_label_table(str(path)) == load_label_table(str(SAMPLE_LABELS))

    def test_label_table_bad_label_raises(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("BlockId,Label\nblk_1,Maybe\n")
        with pytest.raises(ValueError):
            load_label_table(str(path))

    def test_label_table_bad_header_raises(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("Block,Tag\n")
        with pytest.raises(ValueError):
            load_label_table(str(path))


class TestWindowize:
    def _session(self, events, label=LABEL_NORMAL):
        return Session("blk_7", list(events), label, list(range(1, len(events) + 1)))

    def test_exact_multiple_no_padding(self):
        ws = windowize(self._session([3, 4, 5, 6]), window_length=2, stride=2)
        assert [w.event_ids for w in ws] == [[3, 4], [5, 6]]
        assert [w.pad_len for w in ws] == [0, 0]
        assert [w.window_id for w in ws] == ["blk_7#0", "blk_7#1"]

    def test_short_session_single_padded_window(self):
        ws = windowize(self._session([3, 4, 5]), window_length=5, stride=5)
        assert len(ws) == 1
        assert ws[0].event_ids == [3, 4, 5, PAD_ID, PAD_ID]
        assert ws[0].pad_len == 2

    def test_tail_window_starts_at_stride_multiple(self):
        # length 5, window 2, stride 2: third window covers only index 4.
        ws = windowize(self._session([3, 4, 5, 6, 7]), window_length=2, stride=2)
        assert [w.event_ids for w in ws] == [[3, 4], [5, 6], [7, PAD_ID]]

    def test_overlapping_stride(self):
        ws = windowize(self._session([3, 4, 5, 6]), window_length=3, stride=1)
        assert [w.event_ids for w in ws] == [[3, 4, 5], [4, 5, 6]]

    def test_label_inherited(self):
        ws = windowize(self._session([3, 4], LABEL_ANOMALY), window_length=2, stride=2)
        assert all(w.label == LABEL_ANOMALY for w in ws)

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            windowize(self._session([3]), window_length=2, stride=3)
        with pytest.raises(ValueError):
            windowize(self._session([3]), window_length=2, stride=0)

    def test_full_coverage_when_stride_equals_window(self):
        for n in range(1, 23):
            ws = windowize(self._session(list(range(3, 3 + n))), window_length=4, stride=4)
            flat = [e for w in ws for e in w.event_ids if e != PAD_ID]
            assert flat == list(range(3, 3 + n))


def _pool(n_normal, n_anomalous):
    pool = [
        LabeledWindow(f"n{i}#0", [3, 4], LABEL_NORMAL, 0) for i in range(n_normal)
    ]
    pool += [
        LabeledWindow(f"a{i}#0", [3, 9], LABEL_ANOMALY, 0) for i in range(n_anomalous)
    ]
    return pool


class TestStratifiedSample:
    def test_proportions_rounded_half_up(self):
        # 2.93% of 3000 is 87.9, so 88 anomalous on every seed.
        pool = _pool(9707, 293)
        for seed in range(10):
            sample = stratified_sample(pool, 3000, seed=seed)
            anom = sum(1 for w in sample if w.label == LABEL_ANOMALY)
            assert (len(sample), anom) == (3000, 88)

    def test_minority_floor_of_one(self):
        pool = _pool(999, 1)
        sample = stratified_sample(pool, 100, seed=0)
        anom = sum(1 for w in sample if w.label == LABEL_ANOMALY)
        assert anom == 1

    def test_no_duplicates(self):
        pool = _pool(50, 10)
        sample = stratified_sample(pool, 30, seed=3)
        ids = [w.window_id for w in sample]
        assert len(set(ids)) == len(ids)

    def test_oversample_raises(self):
        with pytest.raises(ValueError):
            stratified_sample(_pool(5, 5), 11, seed=0)

    def test_single_class_pool_raises(self):
        with pytest.raises(ClassVanished):
            stratified_sample(_pool(10, 0), 5, seed=0)

    def test_seed_changes_membership_not_counts(self):
        pool = _pool(200, 20)
        a = stratified_sample(pool, 110, seed=1)
        b = stratified_sample(pool, 110, seed=2)
        assert len(a) == len(b) == 110
        assert [w.window_id for w in a] != [w.window_id for w in b]

    def test_same_seed_same_sample(self):
        pool = _pool(200, 20)
        a = stratified_sample(pool, 110, seed=5)
        b = stratified_sample(pool, 110, seed=5)
        assert [w.window_id for w in a] == [w.window_id for w in b]


class TestSplit:
    def test_per_class_round_half_up(self):
        pool = _pool(2912, 88)
        result = split(pool, train_fraction=0.9, seed=0)
        counts = result.counts()
        assert counts["train"] == {"total": 2700, "anomalous": 79, "normal": 2621}
        assert counts["val"] == {"total": 300, "anomalous": 9, "normal": 291}

    def test_both_splits_keep_both_classes(self):
        pool = _pool(8, 2)
        result = split(pool, train_fraction=0.9, seed=1)
        counts = result.counts()
        assert counts["train"]["anomalous"] >= 1
        assert counts["val"]["anomalous"] >= 1

    def test_partition_is_exact(self):
        pool = _pool(37, 13)
        result = split(pool, train_fraction=0.8, seed=4)
        seen = sorted(w.window_id for w in result.train + result.val)
        assert seen == sorted(w.window_id for w in pool)

    def test_single_member_class_raises(self):
        with pytest.raises(ClassVanished):
            split(_pool(10, 1), train_fraction=0.9, seed=0)

    def test_degenerate_fraction_raises(self):
        with pytest.raises(ClassVanished):
            split(_pool(5, 5), train_fraction=1.0, seed=0)

    def test_same_seed_reproduces(self):
        pool = _pool(40, 10)
        a = split(pool, 0.8, seed=9)
        b = split(pool, 0.8, seed=9)
        assert [w.window_id for w in a.train] == [w.window_id for w in b.train]
        assert [w.window_id for w in a.val] == [w.window_id for w in b.val]


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        windows = [
            LabeledWindow("blk_1#0", [3, 4, 0, 0], LABEL_NORMAL, 2),
            LabeledWindow("blk_2#0", [5, 6, 7, 8], LABEL_ANOMALY, 0),
        ]
        path = tmp_path / "w.jsonl"
        write_windows_jsonl(windows, str(path))
        loaded = read_windows_jsonl(str(path))
        assert loaded == windows

    def test_length_check_on_read(self, tmp_path):
        windows = [LabeledWindow("blk_1#0", [3, 4], LABEL_NORMAL, 0)]
        path = tmp_path / "w.jsonl"
        write_windows_jsonl(windows, str(path))
        with pytest.raises(ValueError):
            read_windows_jsonl(str(path), window_length=3)
