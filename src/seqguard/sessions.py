"""Block-id sessions, fixed-length labeled windows, stratified samples and splits.

Structured rows are grouped by block id in first-appearance order, joined
with the label table, cut into fixed-length windows with right padding,
then sampled and split per class with deterministic rounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .artifacts import dump_json_file, read_records, write_records
from .drain import StructuredLine

# Reserved vocabulary slots; mined event ids are shifted past these when
# windows are assembled into model inputs.
PAD_ID = 0
UNK_ID = 1
# Slot 2 (``<cls>``) is reserved but never emitted.
NUM_SPECIALS = 3

_BLOCK_RE = re.compile(r"blk_-?\d+")

LABEL_NORMAL = 0
LABEL_ANOMALY = 1


class UnlabeledSession(ValueError):
    """Raised when a block id has no entry in the label table."""


class ClassVanished(ValueError):
    """Raised when a sample or split would leave a class empty."""


def extract_block_id(content: str) -> Optional[str]:
    """First ``blk_`` id in an unmasked message body, or None."""
    m = _BLOCK_RE.search(content)
    return m.group(0) if m else None


@dataclass
class Session:
    """All events of one block, in source line order, with its binary label."""

    session_id: str
    event_ids: list[int]
    label: int
    line_numbers: list[int] = field(default_factory=list)


@dataclass
class SessionBuildStats:
    rows_without_block: int = 0
    quarantined_sessions: int = 0
    quarantined_block_ids: list[str] = field(default_factory=list)


def build_sessions(
    rows: Sequence[StructuredLine],
    label_table: dict[str, int],
    strict: bool = False,
) -> tuple[list[Session], SessionBuildStats]:
    """Group structured rows into labeled sessions keyed by block id.

    Rows without a block id are excluded and counted. Block ids missing
    from the label table are quarantined (or raise UnlabeledSession when
    ``strict``); the pipeline proceeds on what remains.
    """
    stats = SessionBuildStats()
    order: list[str] = []
    grouped: dict[str, Session] = {}
    for row in rows:
        if not row.block_id:
            stats.rows_without_block += 1
            continue
        session = grouped.get(row.block_id)
        if session is None:
            session = Session(session_id=row.block_id, event_ids=[], label=LABEL_NORMAL)
            grouped[row.block_id] = session
            order.append(row.block_id)
        session.event_ids.append(row.event_id)
        session.line_numbers.append(row.line_number)

    sessions: list[Session] = []
    for block_id in order:
        session = grouped[block_id]
        label = label_table.get(block_id)
        if label is None:
            if strict:
                raise UnlabeledSession(f"block id {block_id} missing from label table")
            stats.quarantined_sessions += 1
            stats.quarantined_block_ids.append(block_id)
            continue
        session.label = label
        sessions.append(session)
    return sessions, stats


def load_label_table(path: str) -> dict[str, int]:
    """Read ``BlockId,Label`` CSV with Label in {Normal, Anomaly}."""
    table: dict[str, int] = {}
    try:
        # utf-8-sig: a leading byte-order mark is not part of the header.
        with open(path, "r", encoding="utf-8-sig") as handle:
            header = handle.readline().strip()
            if header.replace(" ", "") != "BlockId,Label":
                raise ValueError(f"unexpected label file header in {path}: {header!r}")
            for lineno, line in enumerate(handle, start=2):
                line = line.strip()
                if not line:
                    continue
                block_id, _, label = line.partition(",")
                label = label.strip()
                if label == "Normal":
                    table[block_id.strip()] = LABEL_NORMAL
                elif label == "Anomaly":
                    table[block_id.strip()] = LABEL_ANOMALY
                else:
                    raise ValueError(f"bad label {label!r} at {path}:{lineno}")
    except OSError as exc:
        raise OSError(f"cannot read label file {path}: {exc}") from exc
    return table


@dataclass
class LabeledWindow:
    """Fixed-length event-id slice of a session, padded on the right."""

    window_id: str
    event_ids: list[int]
    label: int
    pad_len: int = 0


def check_window(window_length: int, stride: int) -> None:
    if window_length < 1:
        raise ValueError("window_length must be >= 1")
    if not 1 <= stride <= window_length:
        raise ValueError("stride must satisfy 1 <= stride <= window_length")


def windowize(session: Session, window_length: int, stride: int) -> list[LabeledWindow]:
    """Cut a session into fixed-length windows inheriting its label.

    Windows start at multiples of ``stride``; the final short window is
    right-padded with PAD_ID. A session shorter than the window yields a
    single padded window.
    """
    check_window(window_length, stride)
    events = session.event_ids
    n = len(events)
    windows: list[LabeledWindow] = []

    def emit(chunk: list[int]) -> None:
        pad_len = window_length - len(chunk)
        windows.append(
            LabeledWindow(
                window_id=f"{session.session_id}#{len(windows)}",
                event_ids=list(chunk) + [PAD_ID] * pad_len,
                label=session.label,
                pad_len=pad_len,
            )
        )

    start = 0
    while True:
        emit(events[start : start + window_length])
        nxt = start + stride
        if nxt + window_length <= n:
            start = nxt
            continue
        if start + window_length < n:
            # Uncovered tail; shorter than a full window by the loop condition.
            emit(events[nxt:])
        break
    return windows


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _class_pools(windows: Sequence[LabeledWindow]) -> tuple[list[int], list[int]]:
    normal = [i for i, w in enumerate(windows) if w.label == LABEL_NORMAL]
    anomalous = [i for i, w in enumerate(windows) if w.label == LABEL_ANOMALY]
    return normal, anomalous


def stratified_sample(
    windows: Sequence[LabeledWindow], n: int, seed: int
) -> list[LabeledWindow]:
    """Draw n windows preserving the pool's class fractions exactly.

    Per-class counts are round-half-up of the ideal share; the majority
    class absorbs the rounding remainder so the counts sum to n. Each
    class must end up with at least one member.
    """
    if n > len(windows):
        raise ValueError(f"cannot sample {n} from pool of {len(windows)}")
    normal, anomalous = _class_pools(windows)
    if not normal or not anomalous:
        raise ClassVanished("pool must contain both classes")
    frac_anom = len(anomalous) / len(windows)
    n_anom = _round_half_up(n * frac_anom)
    n_anom = min(max(n_anom, 1), len(anomalous), n - 1)
    n_norm = n - n_anom
    if n_norm < 1 or n_norm > len(normal):
        raise ClassVanished(
            f"sample of {n} cannot keep both classes (pool {len(normal)}/{len(anomalous)})"
        )
    rng = np.random.default_rng(seed)
    picked_norm = rng.choice(len(normal), size=n_norm, replace=False)
    picked_anom = rng.choice(len(anomalous), size=n_anom, replace=False)
    indices = [normal[i] for i in picked_norm] + [anomalous[i] for i in picked_anom]
    order = rng.permutation(len(indices))
    return [windows[indices[i]] for i in order]


@dataclass
class DatasetSplit:
    train: list[LabeledWindow]
    val: list[LabeledWindow]
    test: list[LabeledWindow]
    seed: int
    train_fraction: float

    def counts(self) -> dict:
        def block(ws):
            anom = sum(1 for w in ws if w.label == LABEL_ANOMALY)
            return {"total": len(ws), "anomalous": anom, "normal": len(ws) - anom}

        return {"train": block(self.train), "val": block(self.val), "test": block(self.test)}


def split(
    windows: Sequence[LabeledWindow],
    train_fraction: float = 0.9,
    seed: int = 0,
) -> DatasetSplit:
    """Per-class train/val partition at the given fraction.

    Rounding is half-up per class, then clamped so both splits keep at
    least one member of each class; a single-member class cannot satisfy
    that and raises ClassVanished.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ClassVanished(f"train fraction {train_fraction} leaves an empty split")
    normal, anomalous = _class_pools(windows)
    if not normal or not anomalous:
        raise ClassVanished("split requires both classes present")
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    val_idx: list[int] = []
    for pool in (normal, anomalous):
        if len(pool) < 2:
            raise ClassVanished("a class with a single window cannot be split")
        k = _round_half_up(len(pool) * train_fraction)
        k = min(max(k, 1), len(pool) - 1)
        order = rng.permutation(len(pool))
        train_idx.extend(pool[i] for i in order[:k])
        val_idx.extend(pool[i] for i in order[k:])
    train_order = rng.permutation(len(train_idx))
    val_order = rng.permutation(len(val_idx))
    return DatasetSplit(
        train=[windows[train_idx[i]] for i in train_order],
        val=[windows[val_idx[i]] for i in val_order],
        test=[],
        seed=seed,
        train_fraction=train_fraction,
    )


def write_windows_jsonl(windows: Sequence[LabeledWindow], path: str) -> None:
    write_records(path, (
        {"window_id": w.window_id, "event_ids": w.event_ids, "label": w.label} for w in windows
    ))


def read_windows_jsonl(path: str, window_length: Optional[int] = None) -> list[LabeledWindow]:
    windows = []
    try:
        for obj in read_records(path):
            ids = list(obj["event_ids"])
            pad_len = 0
            for eid in reversed(ids):
                if eid != PAD_ID:
                    break
                pad_len += 1
            if window_length is not None and len(ids) != window_length:
                raise ValueError(
                    f"window {obj['window_id']} has length {len(ids)}, expected {window_length}"
                )
            windows.append(
                LabeledWindow(
                    window_id=obj["window_id"],
                    event_ids=ids,
                    label=int(obj["label"]),
                    pad_len=pad_len,
                )
            )
    except OSError as exc:
        raise OSError(f"cannot read dataset {path}: {exc}") from exc
    return windows


def write_split_manifest(split_result: DatasetSplit, path: str) -> None:
    manifest = {
        "seed": split_result.seed,
        "train_fraction": split_result.train_fraction,
        "counts": split_result.counts(),
        "train": [w.window_id for w in split_result.train],
        "val": [w.window_id for w in split_result.val],
        "test": [w.window_id for w in split_result.test],
    }
    dump_json_file(path, manifest)
