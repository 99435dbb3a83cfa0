"""Acceptance gate: eleven numbered checks, each printing one PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check states its tolerance inline and fails loudly when the
implementation drifts.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from seqguard.config import config_from_dict
from seqguard.drain import (
    ParseTree,
    export_structured,
    export_templates,
    load_templates,
    mask_numeric_tokens,
    parse_file,
)
from seqguard.judge import build_prompt, prompt_hash, vocab_template_table
from seqguard.losses import FocalParams, classification_loss, cross_entropy, focal_loss
from seqguard.metrics import ConfusionCounts, confusion, roc_auc, scalar_metrics
from seqguard.model import ModelConfig, ModelParams, classifier_logits, position_logits
from seqguard.pipeline import artifact_paths, run_ablation, run_pipeline, run_stage
from seqguard.sessions import LabeledWindow, read_windows_jsonl, split, stratified_sample
from seqguard.tensor import Tape, Tensor, finite_difference_check

from conftest import GOLDEN_TEMPLATES, SAMPLE_LOG, write_corpus

import io


def _ok(number: int, message: str) -> None:
    print(f"CRITERION {number:02d} PASS: {message}")


# ---------------------------------------------------------------------------
# 1. Focal loss with alpha=1, gamma=0 is exactly cross entropy.


def test_criterion_01_focal_reduces_to_cross_entropy():
    """1000 random (p, y) pairs agree within 1e-12, in under a second."""
    rng = np.random.default_rng(0)
    neutral = FocalParams(alpha=1.0, gamma=0.0)
    started = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        p = float(rng.uniform(1e-9, 1 - 1e-9))
        y = int(rng.integers(0, 2))
        p_true = p if y == 1 else 1.0 - p
        worst = max(worst, abs(focal_loss(p_true, neutral) - cross_entropy(p_true)))
    elapsed = time.monotonic() - started
    assert worst < 1e-12
    assert elapsed < 1.0
    _ok(1, f"focal(a=1,g=0) == cross entropy, max gap {worst:.2e} in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Focal loss point value against an independent direct evaluation.


def test_criterion_02_focal_point_value():
    """focal(0.9; a=0.25, g=2) matches 0.25 * 0.1^2 * -ln(0.9) within 1e-9."""
    direct = 0.25 * (1.0 - 0.9) ** 2 * (-math.log(0.9))
    value = focal_loss(0.9, FocalParams(alpha=0.25, gamma=2.0))
    assert abs(value - direct) < 1e-9
    # The four-significant-figure form of the same number.
    assert abs(value - 2.634e-4) < 5e-8
    _ok(2, f"focal(0.9; 0.25, 2) = {value:.10e} (direct {direct:.10e})")


# ---------------------------------------------------------------------------
# 3. Finite-difference gradient checks: every op and the full classifier.


def _fd_op_cases():
    """Closure builders per differentiable op.

    Every auxiliary matrix is drawn from the trial rng once, up front, so
    the closures stay pure across repeated evaluation and no gradient
    component is structurally zero (which would turn relative error into
    roundoff noise)."""

    def weighted(tape, t, w):
        return tape.mean_all(tape.hadamard(t, Tensor(w)))

    def case(x_shape, aux_shapes, build, positive=False):
        def make(rng):
            data = rng.normal(size=x_shape)
            if positive:
                data = np.abs(data) + 0.5
            x = Tensor(data, requires_grad=True)
            aux = [rng.normal(size=shape) for shape in aux_shapes]
            return (lambda tape: build(tape, x, *aux)), x

        return make

    sq = (4, 4)
    qkv = (6, 4)
    return {
        "matmul_left": case((4, 5), [(5, 3), (4, 3)], lambda tp, x, m, w: weighted(
            tp, tp.matmul(x, Tensor(m)), w)),
        "matmul_right": case((5, 3), [(4, 5), (4, 3)], lambda tp, x, m, w: weighted(
            tp, tp.matmul(Tensor(m), x), w)),
        "transpose": case((4, 5), [(5, 4)], lambda tp, x, w: weighted(
            tp, tp.transpose(x), w)),
        "add": case((4, 5), [(4, 5), (4, 5)], lambda tp, x, b, w: weighted(
            tp, tp.add(x, Tensor(b)), w)),
        "add_bias": case((4, 5), [(1, 5), (4, 5)], lambda tp, x, b, w: weighted(
            tp, tp.add_bias(x, Tensor(b)), w)),
        "scale": case((4, 5), [(4, 5)], lambda tp, x, w: weighted(
            tp, tp.scale(x, 1.7), w)),
        "hadamard": case((4, 5), [(4, 5), (4, 5)], lambda tp, x, b, w: weighted(
            tp, tp.hadamard(x, Tensor(b)), w)),
        "log": case((4, 5), [(4, 5)], lambda tp, x, w: weighted(
            tp, tp.log(x), w), positive=True),
        "pow_const": case((4, 5), [(4, 5)], lambda tp, x, w: weighted(
            tp, tp.pow_const(x, 3.0), w), positive=True),
        "const_minus": case((4, 5), [(4, 5)], lambda tp, x, w: weighted(
            tp, tp.const_minus(2.5, x), w)),
        # Threshold far below the data keeps the check away from the kink.
        "clamp_min": case((4, 5), [(4, 5)], lambda tp, x, w: weighted(
            tp, tp.clamp_min(x, -100.0), w)),
        # Softmax rows sum to one, so an unweighted mean has a zero true
        # gradient; weight the output to get a meaningful check.
        "softmax_rows": case(sq, [sq], lambda tp, x, w: weighted(
            tp, tp.softmax_rows(x), w)),
        # Two windows of three positions, two heads; one case per input.
        "causal_attention_q": case(qkv, [qkv, qkv, qkv], lambda tp, x, k, v, w: weighted(
            tp, tp.causal_attention(x, Tensor(k), Tensor(v), 3, 2), w)),
        "causal_attention_k": case(qkv, [qkv, qkv, qkv], lambda tp, x, q, v, w: weighted(
            tp, tp.causal_attention(Tensor(q), x, Tensor(v), 3, 2), w)),
        "causal_attention_v": case(qkv, [qkv, qkv, qkv], lambda tp, x, q, k, w: weighted(
            tp, tp.causal_attention(Tensor(q), Tensor(k), x, 3, 2), w)),
        "layer_norm_x": case((4, 6), [(1, 6), (1, 6), (4, 6)],
                             lambda tp, x, g, b, w: weighted(
            tp, tp.layer_norm(x, Tensor(g), Tensor(b)), w)),
        "layer_norm_gain": case((1, 6), [(4, 6), (1, 6), (4, 6)],
                                lambda tp, x, inp, b, w: weighted(
            tp, tp.layer_norm(Tensor(inp), x, Tensor(b)), w)),
        "gelu": case((4, 5), [(4, 5)], lambda tp, x, w: weighted(tp, tp.gelu(x), w)),
        "gather_rows": case((6, 5), [(5, 5)], lambda tp, x, w: weighted(
            tp, tp.gather_rows(x, [0, 2, 2, 5, 1]), w)),
        # One column picked per row, giving a (rows, 1) result.
        "select_cols": case((4, 6), [(4, 1)], lambda tp, x, w: weighted(
            tp, tp.select_cols(x, [0, 3, 3, 5]), w)),
        "sum_all": case((4, 5), [], lambda tp, x: tp.sum_all(x)),
        "mean_all": case((4, 5), [], lambda tp, x: tp.mean_all(x)),
        "dropout": case((4, 5), [(4, 5)], lambda tp, x, w: weighted(
            tp, tp.dropout(x, 0.3, np.random.default_rng(1234)), w)),
    }


def test_criterion_03_gradient_checks_every_op_and_full_model():
    """All op gradients and the full classifier loss pass finite differences
    (relative error < 1e-4) across at least 50 random seeds, in under two
    minutes."""
    started = time.monotonic()
    seeds_used = 0
    worst = 0.0

    for op_index, (name, make) in enumerate(sorted(_fd_op_cases().items())):
        for trial in range(2):
            rng = np.random.default_rng(1000 * op_index + trial)
            f, x = make(rng)
            err = finite_difference_check(f, x)
            assert err < 1e-4, f"{name} trial {trial}: {err:.3e}"
            worst = max(worst, err)
            seeds_used += 1

    config = ModelConfig(
        vocab_size=12, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=8
    )
    for seed in range(5):
        params = ModelParams(config, seed=seed)
        rng = np.random.default_rng(seed + 500)
        ids = rng.integers(3, 12, size=(2, 6))
        last = [5, 5]
        labels = [1, 0]

        def f(tape):
            logits = classifier_logits(tape, params, ids, last)
            return classification_loss(tape, logits, labels, "focal", FocalParams())

        for tensor in params.parameters():
            err = finite_difference_check(f, tensor)
            assert err < 1e-4, f"classifier seed {seed} {tensor.name}: {err:.3e}"
            worst = max(worst, err)
        seeds_used += 1

    elapsed = time.monotonic() - started
    assert seeds_used >= 50
    assert elapsed < 120.0
    _ok(3, f"{seeds_used} seeded checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Causal masking: past logits never depend on future tokens.


def test_criterion_04_causality_is_bitwise():
    """Over 100 random windows, logits up to position t are bit-identical
    after the suffix is rewritten."""
    config = ModelConfig(
        vocab_size=12, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=8
    )
    params = ModelParams(config, seed=5)
    rng = np.random.default_rng(42)
    for _ in range(100):
        ids = rng.integers(3, 12, size=8)
        t = int(rng.integers(0, 7))
        mutated = ids.copy()
        # Shift every future token to a different id in vocabulary range.
        mutated[t + 1 :] = 3 + (mutated[t + 1 :] - 3 + 1) % 9
        assert np.any(mutated != ids)
        before = position_logits(params, [list(ids)])[0]
        after = position_logits(params, [list(mutated)])[0]
        assert np.array_equal(before[: t + 1], after[: t + 1])
    _ok(4, "100 windows, prefix logits bitwise stable under suffix rewrites")


# ---------------------------------------------------------------------------
# 5. Scalar metrics on two fixed confusion tables.


def test_criterion_05_metric_values():
    """(6,0,3,291) gives 0.990/1.000/0.667/0.800 within 5e-4; the
    all-negative predictor on a 9/291 split gives 0.970/0/0/0 exactly."""
    m = scalar_metrics(ConfusionCounts(tp=6, fp=0, fn=3, tn=291))
    for key, expected in (
        ("accuracy", 0.990),
        ("precision", 1.000),
        ("recall", 0.667),
        ("f1", 0.800),
    ):
        assert abs(m[key] - expected) < 5e-4, (key, m[key])

    labels = [1] * 9 + [0] * 291
    scores = [0.0] * 300
    counts = confusion(scores, labels, threshold=0.5)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (0, 0, 9, 291)
    m0 = scalar_metrics(counts)
    assert m0["accuracy"] == 0.97
    assert m0["precision"] == 0.0
    assert m0["recall"] == 0.0
    assert m0["f1"] == 0.0
    _ok(5, "fixed confusion tables reproduce the expected metric values")


# ---------------------------------------------------------------------------
# 6. AUC against brute-force pairwise counting.


def _brute_auc(scores, labels):
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_criterion_06_auc_matches_brute_force():
    """200 random score sets (up to n=500, a third of them tie-heavy) agree
    with O(P*N) pairwise counting within 1e-12."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 501))
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 1, 0  # both classes always present
        if trial % 3 == 0:
            scores = rng.integers(0, 5, size=n) / 4.0
        else:
            scores = rng.normal(size=n)
        gap = abs(roc_auc(list(scores), list(labels)) - _brute_auc(scores, labels))
        worst = max(worst, gap)
        assert gap <= 1e-12
    _ok(6, f"200 trials, max |fast - brute| = {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. Stratified sampling and splitting at the reference class balance.


def test_criterion_07_sampler_and_split_counts():
    """A 10000-window pool at 2.93% anomalous sampled to 3000 keeps exactly
    88 anomalous windows for every seed; a 9:1 split of the sample puts
    79 anomalous in train (2700) and 9 in val (300)."""
    pool = [
        LabeledWindow(f"w{i}", [3], 1 if i < 293 else 0, 0) for i in range(10000)
    ]
    for seed in range(20):
        sample = stratified_sample(pool, 3000, seed)
        anomalous = sum(w.label for w in sample)
        assert len(sample) == 3000
        assert anomalous == 88, f"seed {seed}: {anomalous}"

        result = split(sample, 0.9, seed)
        train_anom = sum(w.label for w in result.train)
        val_anom = sum(w.label for w in result.val)
        assert (len(result.train), train_anom) == (2700, 79), f"seed {seed}"
        assert (len(result.val), val_anom) == (300, 9), f"seed {seed}"
    _ok(7, "20 seeds: sample 88/2912 and split 2700(79)/300(9) every time")


# ---------------------------------------------------------------------------
# 8. Template mining is reproducible and length-partitioned.


def test_criterion_08_template_mining_reproducible():
    """Reparsing the fixture corpus is byte-identical, matches the frozen
    template table, and 1000 random lines with differing token counts never
    share a template."""
    exports = []
    for _ in range(2):
        result = parse_file(str(SAMPLE_LOG), ParseTree())
        template_buf = io.StringIO()
        structured_buf = io.StringIO()
        export_templates(result.tree, template_buf)
        export_structured(result.lines, structured_buf)
        exports.append((template_buf.getvalue(), structured_buf.getvalue()))
    assert exports[0] == exports[1]

    parsed = {
        (t.event_id, t.text, t.match_count)
        for t in parse_file(str(SAMPLE_LOG), ParseTree()).templates
    }
    with open(GOLDEN_TEMPLATES, newline="") as handle:
        golden = {
            (int(row["event_id"]), row["template_text"], int(row["match_count"]))
            for row in csv.DictReader(handle)
        }
    assert parsed == golden

    rng = np.random.default_rng(314)
    words = ["recv", "send", "open", "close", "block", "file", "node", "peer"]
    tree = ParseTree()
    length_of: dict[int, int] = {}
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        toks = [
            str(rng.integers(0, 10_000)) if rng.random() < 0.3
            else words[rng.integers(0, len(words))]
            for _ in range(n)
        ]
        eid = tree.parse_line(mask_numeric_tokens(toks))
        assert length_of.setdefault(eid, n) == n
    _ok(8, f"byte-stable reparse, golden match, {len(length_of)} templates partitioned by length")


# ---------------------------------------------------------------------------
# Shared synthetic corpus for the end-to-end criteria.


@pytest.fixture(scope="module")
def big_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    logs = root / "hdfs.log"
    labels = root / "labels.csv"
    write_corpus(logs, labels, n_sessions=3600, n_anomalous=105, seed=11)
    return str(logs), str(labels)


def _e2e_payload(logs, labels, out_dir, seed=0):
    return {
        "logs": logs,
        "labels": labels,
        "out_dir": out_dir,
        "seed": seed,
        "sample_size": 3000,
        "window": {"window_length": 8, "stride": 8},
        "model": {"d_model": 32, "n_heads": 2, "n_layers": 1, "d_ff": 64, "max_seq_len": 9},
        "train": {
            "epochs": 3,
            "batch_size": 16,
            "grad_accum_steps": 1,
            "learning_rate": 1e-2,
        },
    }


# ---------------------------------------------------------------------------
# 9. The three-arm comparison learns and orders as expected.


def test_criterion_09_ablation_learns_and_orders(big_corpus, tmp_path):
    """On a separable 3000-window corpus (~3% anomalous) the focal arm
    reaches val F1 >= 0.95 within three epochs, and over five seeds the
    median F1 ordering is C >= B >= A, all inside five minutes."""
    logs, labels = big_corpus
    started = time.monotonic()
    f1 = {"A": [], "B": [], "C": []}
    for seed in range(5):
        out = str(tmp_path / f"seed{seed}")
        config = config_from_dict(_e2e_payload(logs, labels, out, seed=seed))
        summary = run_ablation(config)
        for row in summary["rows"]:
            f1[row["arm"]].append(row["f1"])
    elapsed = time.monotonic() - started

    assert f1["C"][0] >= 0.95, f"seed-0 focal arm F1 {f1['C'][0]:.3f}"
    med = {arm: statistics.median(values) for arm, values in f1.items()}
    assert med["C"] >= 0.95
    assert med["C"] >= med["B"] >= med["A"], med
    assert elapsed < 300.0
    _ok(
        9,
        "median F1 C={:.3f} B={:.3f} A={:.3f} over 5 seeds in {:.0f}s".format(
            med["C"], med["B"], med["A"], elapsed
        ),
    )


# ---------------------------------------------------------------------------
# 10. The judge harness runs offline and reports the engineered confusion.


def test_criterion_10_judge_fixture_confusion(big_corpus, tmp_path):
    """A fixture directory answering ANOMALY for all 9 true anomalies plus 9
    chosen normals yields (tp=9, fp=9, fn=0, tn=282): recall 1.0, precision
    0.5, with zero network access."""
    logs, labels = big_corpus
    out = str(tmp_path / "out")
    config = config_from_dict(_e2e_payload(logs, labels, out))
    os.makedirs(out, exist_ok=True)
    for stage in ("parse", "sessionize", "dataset"):
        run_stage(stage, config)

    paths = artifact_paths(out)
    windows = read_windows_jsonl(paths["val_windows"], 8)
    assert len(windows) == 300
    assert sum(w.label for w in windows) == 9

    # Local scores are an input to the comparison, not under test here.
    with open(paths["scores"], "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["window_id", "score", "label"])
        for w in windows:
            writer.writerow([w.window_id, "0.9" if w.label else "0.1", w.label])

    # Windows with identical event sequences share one prompt and therefore
    # one fixture answer, so the engineered false positives must come from
    # windows whose prompt is unique in the validation set.
    table = vocab_template_table(load_templates(paths["templates"]))
    prompts = {w.window_id: build_prompt(w, table) for w in windows}
    multiplicity: dict[str, int] = {}
    for prompt in prompts.values():
        multiplicity[prompt] = multiplicity.get(prompt, 0) + 1
    candidates = sorted(
        w.window_id
        for w in windows
        if w.label == 0 and multiplicity[prompts[w.window_id]] == 1
    )
    assert len(candidates) >= 9
    false_positives = set(candidates[:9])

    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    for w in windows:
        answer = "ANOMALY" if (w.label == 1 or w.window_id in false_positives) else "NORMAL"
        body = {"choices": [{"message": {"content": answer}}]}
        (fixtures / f"{prompt_hash(prompts[w.window_id])}.json").write_text(json.dumps(body))

    judged = replace(
        config, judge=replace(config.judge, enabled=True, fixtures=str(fixtures))
    )

    def transport(payload):
        raise AssertionError("no network in fixture mode")

    stats = run_stage("judge", judged, transport=transport)
    assert stats == {"verdicts": 300, "unparseable": 0, "sources": {"fixture": 300}}

    from seqguard.judge import read_verdicts_jsonl, verdict_scores

    verdicts = read_verdicts_jsonl(paths["verdicts"])
    scores, unparseable = verdict_scores(verdicts, windows)
    counts = confusion(scores, [w.label for w in windows], 0.5)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (9, 9, 0, 282)
    assert unparseable == 0

    run_stage("compare", judged)
    with open(paths["comparison"], newline="") as handle:
        rows = {r["model"]: r for r in csv.DictReader(handle)}
    judge_row = rows[judged.judge.model]
    assert float(judge_row["recall"]) == 1.0
    assert float(judge_row["precision"]) == 0.5
    _ok(10, "fixture judge: tp=9 fp=9 fn=0 tn=282, recall 1.0, precision 0.5")


# ---------------------------------------------------------------------------
# 11. The pipeline is reproducible byte for byte.


def test_criterion_11_pipeline_reproducible(tmp_path):
    """Two runs from the same config produce byte-identical split manifests,
    loss curves, and checkpoints."""
    logs = tmp_path / "hdfs.log"
    labels = tmp_path / "labels.csv"
    write_corpus(logs, labels, n_sessions=120, n_anomalous=8, seed=3)
    blobs = []
    for run in range(2):
        out = str(tmp_path / f"run{run}")
        payload = {
            "logs": str(logs),
            "labels": str(labels),
            "out_dir": out,
            "seed": 0,
            "sample_size": 0,
            "window": {"window_length": 8, "stride": 8},
            "model": {"d_model": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16, "max_seq_len": 9},
            "train": {"epochs": 1, "batch_size": 8, "grad_accum_steps": 1,
                      "learning_rate": 1e-2},
        }
        run_pipeline(config_from_dict(payload))
        paths = artifact_paths(out)
        blobs.append(
            {
                key: open(paths[key], "rb").read()
                for key in ("split_manifest", "curve", "checkpoint")
            }
        )
    assert blobs[0] == blobs[1]
    _ok(11, "split manifest, curve, and checkpoint identical across runs")
