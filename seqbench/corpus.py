"""Seeded HDFS-style corpus generator with its own ground truth.

Each session is one block: an opener line, a PacketResponder line, a few
filler lines and a closer line, in that order. Anomalous blocks carry one
or two corrupt-replica lines, never in the first two positions. Every
message kind starts with its own leading word, so a Drain-style miner
must find exactly one template per kind that occurs in the corpus.

The ground truth written next to the log names, per block, its label and
the kind of each of its lines in order, so windows can be labelled and
judged without running any program code.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


def _ip(rng: random.Random) -> str:
    return f"10.0.{rng.randrange(0, 4)}.{rng.randrange(1, 250)}"


# kind name -> content formatter. The first word is the kind's leading token.
KIND_TEXT = {
    "receiving": lambda rng, blk: f"Receiving block {blk} src {_ip(rng)} dest {_ip(rng)}",
    "replicating": lambda rng, blk: f"Replicating block {blk} from {_ip(rng)} to {_ip(rng)}",
    "responder": lambda rng, blk: f"PacketResponder {rng.randrange(0, 3)} for block {blk} terminating",
    "served": lambda rng, blk: f"Served block {blk} to {_ip(rng)}",
    "verification": lambda rng, blk: f"Verification succeeded for {blk}",
    "checksum": lambda rng, blk: f"Checksum ok for block {blk} length {rng.randrange(1, 1 << 20)}",
    "deleting": lambda rng, blk: f"Deleting block {blk} file /data/current/{blk}",
    "archiving": lambda rng, blk: f"Archiving block {blk} to cold tier {rng.randrange(0, 4)}",
    "corrupt": lambda rng, blk: f"Corrupt replica detected for block {blk}",
}

CORRUPT = "corrupt"
MIN_LEN = 5
# Sessions open at a time while lines are interleaved.
CONCURRENT = 4

# The six kinds of the test corpus, and a second palette of three more kinds.
STANDARD = ("receiving", ("responder", "served", "verification"), "deleting")
REPLICA = ("replicating", ("responder", "checksum", "verification"), "archiving")


@dataclass(frozen=True)
class CorpusShape:
    """Sizes and message kinds of one generated corpus."""

    sessions: int
    anomalous: int
    max_len: int
    # Each session draws one palette: (opener, filler kinds, closer).
    palettes: tuple[tuple[str, tuple[str, ...], str], ...] = (STANDARD,)


def _session_kinds(rng: random.Random, shape: CorpusShape, anomalous: bool) -> list[str]:
    hits = rng.randrange(1, 3) if anomalous else 0
    # Leave room for the corrupt lines so none is cut off by max_len.
    body_len = rng.randint(MIN_LEN, shape.max_len - hits)
    opener, fillers, closer = rng.choice(shape.palettes)
    kinds = [opener, "responder"]
    while len(kinds) < body_len - 1:
        kinds.append(rng.choice(fillers))
    kinds.append(closer)
    for _ in range(hits):
        kinds.insert(rng.randrange(2, len(kinds)), CORRUPT)
    return kinds


def write_corpus(log_path: str, labels_path: str, truth_path: str, shape: CorpusShape,
                 seed: int) -> dict:
    """Write the log, its block label table and the ground truth; return the truth."""
    rng = random.Random(seed)
    anomalous = set(rng.sample(range(shape.sessions), shape.anomalous))
    blocks: dict[str, dict] = {}
    pending: list[list[str]] = []
    for i in range(shape.sessions):
        blk = f"blk_{1000 + i}"
        kinds = _session_kinds(rng, shape, i in anomalous)
        blocks[blk] = {"label": int(i in anomalous), "kinds": kinds}
        pending.append([KIND_TEXT[k](rng, blk) for k in kinds])

    # Interleave a bounded set of concurrent sessions; each keeps its line order.
    lines: list[str] = []
    active: list[list[str]] = []
    next_session = 0
    while active or next_session < len(pending):
        while len(active) < CONCURRENT and next_session < len(pending):
            active.append(pending[next_session])
            next_session += 1
        pick = rng.randrange(len(active))
        lines.append(active[pick].pop(0))
        if not active[pick]:
            active.pop(pick)

    with open(log_path, "w", encoding="utf-8") as handle:
        for k, content in enumerate(lines):
            handle.write(f"081109 203615 {140 + k % 9} INFO dfs.DataNode$DataXceiver: {content}\n")
    with open(labels_path, "w", encoding="utf-8") as handle:
        handle.write("BlockId,Label\n")
        for blk, info in blocks.items():
            handle.write(f"{blk},{'Anomaly' if info['label'] else 'Normal'}\n")

    used = sorted({k for info in blocks.values() for k in info["kinds"]})
    truth = {
        "seed": seed,
        "lines": len(lines),
        "sessions": shape.sessions,
        "anomalous": shape.anomalous,
        "kinds": used,
        "blocks": blocks,
    }
    with open(truth_path, "w", encoding="utf-8") as handle:
        json.dump(truth, handle)
    return truth
