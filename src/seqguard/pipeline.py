"""Pipeline stages wiring parse -> sessionize -> dataset -> train -> eval
-> judge -> compare -> report, plus the three-arm ablation.

Every stage reads only input files and artifacts written by earlier
stages, so each is independently re-runnable. The model runs only in
``train``, which writes the val scores of the epoch it selects; ``eval``
turns those scores into metrics. All artifacts live under the configured
output directory. ``GRAPH`` lists each stage with the config it reads
and the files it reads and writes; a stage's key hashes
that config slice and the contents of its input files. ``run_stage``
records the key of every stage that succeeds in ``stage_keys.json``, and
``run_pipeline`` skips a stage whose recorded key still matches and whose
outputs all exist, so a rerun repeats only what its changes touch. The
ablation arms share their upstream stages the same way.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import shutil
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

from .config import ExperimentConfig, derive_seed, dump_json_file, load_json_file
from .drain import (
    ParseTree,
    export_rejects,
    export_structured,
    export_templates,
    load_structured,
    load_templates,
    parse_file,
)
from .judge import (
    JudgeConfig,
    build_prompt,
    classify_remote,
    compare,
    read_verdicts_jsonl,
    vocab_template_table,
    write_comparison_csv,
    write_verdicts_jsonl,
)
from .losses import LOSS_CROSS_ENTROPY, LOSS_FOCAL, FocalParams
from .metrics import format_confusion, full_report, roc_curve, write_roc_csv
from .model import (
    ModelConfig,
    ModelParams,
    pretrain_lm,
    save_checkpoint,
    vocab_manifest_hash,
)
from .sessions import (
    NUM_SPECIALS,
    PAD_ID,
    UNK_ID,
    DatasetSplit,
    LabeledWindow,
    Session,
    build_sessions,
    extract_block_id,
    load_label_table,
    read_windows_jsonl,
    split,
    stratified_sample,
    windowize,
    write_split_manifest,
    write_windows_jsonl,
)
# No stage calls evaluate; it stays importable because the traced benchmark wraps it by name.
from .training import TrainConfig, evaluate, train, write_curve_csv, write_epochs_csv

SPECIAL_VOCAB_ENTRIES = ["<pad>", "<unk>", "<cls>"]

LOCAL_MODEL_NAME = "local_decoder"

# Model inputs per ablation arm: whitespace tokens of the unparsed messages,
# or mined template (event) ids.
RAW_TOKENS = "raw_tokens"
TEMPLATES = "templates"
ARM_ENCODING = {"A": RAW_TOKENS, "B": TEMPLATES, "C": TEMPLATES}


class StageError(RuntimeError):
    """Wraps a failure with the stage it happened in; the cause is kept."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage} failed: {cause}")
        self.stage = stage
        self.cause = cause


def artifact_paths(out_dir: str) -> dict[str, str]:
    names = {
        "config": "config_resolved.json",
        "templates": "templates.csv",
        "structured": "structured.csv",
        "rejects": "rejects.txt",
        "parse_stats": "parse_stats.json",
        "sessions": "sessions.jsonl",
        "sessionize_stats": "sessionize_stats.json",
        "vocab": "vocab.json",
        "train_windows": "train.jsonl",
        "val_windows": "val.jsonl",
        "split_manifest": "split_manifest.json",
        "checkpoint": "checkpoint.json",
        "curve": "curve.csv",
        "epochs": "epochs.csv",
        "train_summary": "train_summary.json",
        "eval_metrics": "eval_metrics.json",
        "scores": "scores.csv",
        "roc": "roc.csv",
        "confusion": "confusion.txt",
        "verdicts": "judge_verdicts.jsonl",
        "comparison": "comparison.csv",
        "report": "report.json",
        "summary": "summary.txt",
        "stage_keys": "stage_keys.json",
    }
    return {key: os.path.join(out_dir, name) for key, name in names.items()}


def _read_sessions_jsonl(path: str) -> list[Session]:
    sessions = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                obj = json.loads(line)
                sessions.append(
                    Session(
                        session_id=obj["session_id"],
                        event_ids=list(obj["event_ids"]),
                        label=int(obj["label"]),
                        line_numbers=list(obj["line_numbers"]),
                    )
                )
    return sessions


def _write_sessions_jsonl(path: str, sessions: list[Session]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for s in sessions:
            record = {"event_ids": s.event_ids, "label": s.label,
                      "line_numbers": s.line_numbers, "session_id": s.session_id}
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def stage_parse(config: ExperimentConfig) -> dict:
    paths = artifact_paths(config.out_dir)
    os.makedirs(config.out_dir, exist_ok=True)
    tree = ParseTree(
        depth=config.drain.depth,
        sim_threshold=config.drain.sim_threshold,
        max_children=config.drain.max_children,
    )
    result = parse_file(
        config.logs,
        tree,
        header_pattern=config.drain.header_pattern,
        block_id_extractor=extract_block_id,
    )
    with open(paths["templates"], "w", encoding="utf-8", newline="") as handle:
        export_templates(result.tree, handle)
    with open(paths["structured"], "w", encoding="utf-8", newline="") as handle:
        export_structured(result.lines, handle)
    with open(paths["rejects"], "w", encoding="utf-8") as handle:
        export_rejects(result.rejects, handle)
    stats = {
        "lines_parsed": len(result.lines),
        "lines_rejected": len(result.rejects),
        "templates": len(result.templates),
    }
    dump_json_file(paths["parse_stats"], stats)
    return stats


def stage_sessionize(config: ExperimentConfig) -> dict:
    paths = artifact_paths(config.out_dir)
    rows = load_structured(paths["structured"])
    table = load_label_table(config.labels)
    sessions, stats = build_sessions(rows, table, strict=False)
    _write_sessions_jsonl(paths["sessions"], sessions)
    payload = {
        "sessions": len(sessions),
        "rows_without_block": stats.rows_without_block,
        "quarantined_sessions": stats.quarantined_sessions,
    }
    dump_json_file(paths["sessionize_stats"], payload)
    return payload


def _load_line_contents(logs_path: str, header_pattern: str) -> dict[int, str]:
    """Pre-masking message text per accepted line number, for raw-token inputs."""
    pattern = re.compile(header_pattern)
    contents: dict[int, str] = {}
    with open(logs_path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            m = pattern.match(raw.rstrip("\n"))
            if m is not None and m.group("content").split():
                contents[line_number] = m.group("content")
    return contents


def _window_line_span(
    window: LabeledWindow, sessions_by_id: dict[str, Session], window_length: int, stride: int
) -> list[int]:
    session_id, _, index = window.window_id.rpartition("#")
    session = sessions_by_id[session_id]
    start = int(index) * stride
    return session.line_numbers[start : start + window_length]


def _raw_tokens_for_window(
    window: LabeledWindow,
    sessions_by_id: dict[str, Session],
    contents: dict[int, str],
    window_length: int,
    stride: int,
) -> list[str]:
    tokens: list[str] = []
    for ln in _window_line_span(window, sessions_by_id, window_length, stride):
        tokens.extend(contents[ln].split())
        if len(tokens) >= window_length:
            break
    return tokens[:window_length]


def _rebuild_raw_windows(
    config: ExperimentConfig, split_result: DatasetSplit, sessions: list[Session]
) -> tuple[DatasetSplit, list[str]]:
    """Arm A inputs: whitespace tokens of the unparsed messages, one shared
    frequency-capped vocabulary built from the training split."""
    contents = _load_line_contents(config.logs, config.drain.header_pattern)
    sessions_by_id = {s.session_id: s for s in sessions}
    window_length = config.window.window_length
    stride = config.window.stride

    counts: Counter[str] = Counter()
    for w in split_result.train:
        counts.update(
            _raw_tokens_for_window(w, sessions_by_id, contents, window_length, stride)
        )
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [token for token, _ in ranked[: config.raw_vocab_size]]
    entries = SPECIAL_VOCAB_ENTRIES + kept
    mapping = {token: i + NUM_SPECIALS for i, token in enumerate(kept)}

    def convert(windows: list[LabeledWindow]) -> list[LabeledWindow]:
        out = []
        for w in windows:
            tokens = _raw_tokens_for_window(
                w, sessions_by_id, contents, window_length, stride
            )
            ids = [mapping.get(t, UNK_ID) for t in tokens]
            pad_len = window_length - len(ids)
            out.append(
                LabeledWindow(
                    window_id=w.window_id,
                    event_ids=ids + [PAD_ID] * pad_len,
                    label=w.label,
                    pad_len=pad_len,
                )
            )
        return out

    converted = DatasetSplit(
        train=convert(split_result.train),
        val=convert(split_result.val),
        test=[],
        seed=split_result.seed,
        train_fraction=split_result.train_fraction,
    )
    return converted, entries


def stage_dataset(config: ExperimentConfig) -> dict:
    paths = artifact_paths(config.out_dir)
    sessions = _read_sessions_jsonl(paths["sessions"])
    window_length = config.window.window_length
    stride = config.window.stride

    windows: list[LabeledWindow] = []
    for s in sessions:
        shifted = Session(
            session_id=s.session_id,
            event_ids=[e + NUM_SPECIALS for e in s.event_ids],
            label=s.label,
            line_numbers=s.line_numbers,
        )
        windows.extend(windowize(shifted, window_length, stride))

    pool_size = len(windows)
    if config.sample_size and config.sample_size < pool_size:
        windows = stratified_sample(
            windows, config.sample_size, derive_seed(config.seed, "sample")
        )
    split_result = split(
        windows, config.train_fraction, derive_seed(config.seed, "split")
    )

    encoding = ARM_ENCODING[config.arm]
    if encoding == RAW_TOKENS:
        split_result, entries = _rebuild_raw_windows(config, split_result, sessions)
    else:
        templates = load_templates(paths["templates"])
        entries = SPECIAL_VOCAB_ENTRIES + [t.text for t in templates]

    dump_json_file(
        paths["vocab"],
        {"encoding": encoding, "entries": entries, "window_length": window_length},
    )
    write_windows_jsonl(split_result.train, paths["train_windows"])
    write_windows_jsonl(split_result.val, paths["val_windows"])
    write_split_manifest(split_result, paths["split_manifest"])
    counts = split_result.counts()
    return {"pool_windows": pool_size, "vocab_size": len(entries), "counts": counts}


def _model_config(config: ExperimentConfig, vocab_size: int) -> ModelConfig:
    if config.model.max_seq_len < config.window.window_length + 1:
        raise ValueError(
            f"max_seq_len {config.model.max_seq_len} must be at least "
            f"window_length + 1 = {config.window.window_length + 1}"
        )
    return ModelConfig(
        vocab_size=vocab_size,
        d_model=config.model.d_model,
        n_heads=config.model.n_heads,
        n_layers=config.model.n_layers,
        d_ff=config.model.d_ff,
        max_seq_len=config.model.max_seq_len,
        dropout=config.model.dropout,
    )


def _train_config(config: ExperimentConfig) -> TrainConfig:
    t = config.train
    return TrainConfig(
        learning_rate=t.learning_rate,
        epochs=t.epochs,
        batch_size=t.batch_size,
        grad_accum_steps=t.grad_accum_steps,
        max_grad_norm=t.max_grad_norm,
        warmup_fraction=t.warmup_fraction,
        weight_decay=t.weight_decay,
        beta1=t.beta1,
        beta2=t.beta2,
        eps=t.eps,
        seed=derive_seed(config.seed, "train"),
        loss=t.loss,
        focal=FocalParams(alpha=t.alpha, gamma=t.gamma),
        threshold=t.threshold,
    )


def stage_train(config: ExperimentConfig) -> dict:
    paths = artifact_paths(config.out_dir)
    vocab = load_json_file(paths["vocab"])
    entries = vocab["entries"]
    window_length = vocab["window_length"]
    train_windows = read_windows_jsonl(paths["train_windows"], window_length)
    val_windows = read_windows_jsonl(paths["val_windows"], window_length)

    mconfig = _model_config(config, len(entries))
    init_seed = derive_seed(config.seed, "model_init")
    params = ModelParams(mconfig, seed=init_seed)

    pretrain_info = None
    if config.train.pretrain_steps > 0:
        result = pretrain_lm(
            params,
            [w.event_ids for w in train_windows],
            steps=config.train.pretrain_steps,
            seed=derive_seed(config.seed, "pretrain"),
        )
        pretrain_info = {
            "steps": result.steps,
            "initial_holdout_loss": result.initial_holdout_loss,
            "final_holdout_loss": result.final_holdout_loss,
        }

    tconfig = _train_config(config)
    split_result = DatasetSplit(
        train=train_windows,
        val=val_windows,
        test=[],
        seed=derive_seed(config.seed, "split"),
        train_fraction=config.train_fraction,
    )
    result = train(params, split_result, tconfig)

    params.load_state(result.best_state)
    save_checkpoint(
        paths["checkpoint"], params, vocab_manifest_hash(entries), seed=init_seed
    )
    write_curve_csv(paths["curve"], result.curve)
    write_epochs_csv(paths["epochs"], result.epoch_rows)
    with open(paths["scores"], "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["window_id", "score", "label"])
        for w, s in zip(val_windows, result.best_scores):
            writer.writerow([w.window_id, str(float(s)), w.label])
    summary = {
        "best_epoch": result.best_epoch,
        "best_f1": result.best_f1,
        "best_val_loss": result.best_val_loss,
        "executed_steps": len(result.curve),
        "planned_steps": result.total_steps,
        "skipped_step_events": result.events,
        "pretrain": pretrain_info,
    }
    dump_json_file(paths["train_summary"], summary)
    return summary


def _read_scores(path: str, windows: list[LabeledWindow]) -> list[float]:
    """The local model's score of each window in ``windows``, in order."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        by_id = {row["window_id"]: float(row["score"]) for row in csv.DictReader(handle)}
    return [by_id[w.window_id] for w in windows]


def stage_eval(config: ExperimentConfig) -> dict:
    """Metrics of the best epoch's val scores, as ``train`` wrote them; the
    model does not run here."""
    paths = artifact_paths(config.out_dir)
    vocab = load_json_file(paths["vocab"])
    val_windows = read_windows_jsonl(paths["val_windows"], vocab["window_length"])
    scores = _read_scores(paths["scores"], val_windows)
    labels = [w.label for w in val_windows]
    report = full_report(scores, labels, config.train.threshold)
    val_loss = load_json_file(paths["train_summary"])["best_val_loss"]
    payload = dict(report.to_dict(), val_loss=val_loss)
    dump_json_file(paths["eval_metrics"], payload)
    write_roc_csv(paths["roc"], roc_curve(scores, labels))
    with open(paths["confusion"], "w", encoding="utf-8") as handle:
        handle.write(format_confusion(report.counts))
    return payload


def _judge_config(config: ExperimentConfig) -> JudgeConfig:
    j = config.judge
    kwargs = {
        "endpoint": j.endpoint,
        "model": j.model,
        "timeout": j.timeout,
        "max_retries": j.max_retries,
        "rate_limit": j.rate_limit,
        "cache_dir": j.cache_dir or os.path.join(config.out_dir, "judge_cache"),
        "fixtures_dir": j.fixtures,
    }
    if j.prompt_template is not None:
        kwargs["prompt_template"] = j.prompt_template
    return JudgeConfig(**kwargs)


def stage_judge(config: ExperimentConfig, transport=None) -> dict:
    paths = artifact_paths(config.out_dir)
    vocab = load_json_file(paths["vocab"])
    if vocab["encoding"] != TEMPLATES:
        raise ValueError(
            "judge stage needs event-id windows; this dataset holds raw tokens (arm A)"
        )
    templates = load_templates(paths["templates"])
    table = vocab_template_table(templates)
    val_windows = read_windows_jsonl(paths["val_windows"], vocab["window_length"])
    jconfig = _judge_config(config)
    prompts = [
        (w.window_id, build_prompt(w, table, jconfig.prompt_template))
        for w in val_windows
    ]
    verdicts = classify_remote(jconfig, prompts, transport=transport)
    write_verdicts_jsonl(paths["verdicts"], verdicts)
    sources = Counter(v.source for v in verdicts)
    return {
        "verdicts": len(verdicts),
        "unparseable": sum(1 for v in verdicts if v.label is None),
        "sources": dict(sources),
    }


def stage_compare(config: ExperimentConfig) -> dict:
    paths = artifact_paths(config.out_dir)
    vocab = load_json_file(paths["vocab"])
    val_windows = read_windows_jsonl(paths["val_windows"], vocab["window_length"])
    scores = _read_scores(paths["scores"], val_windows)
    judges = {}
    if os.path.exists(paths["verdicts"]):
        judges[config.judge.model] = read_verdicts_jsonl(paths["verdicts"])
    rows = compare(
        {LOCAL_MODEL_NAME: scores}, judges, val_windows, config.train.threshold
    )
    write_comparison_csv(paths["comparison"], rows)
    return {"rows": [r.model for r in rows]}


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def stage_report(
    config: ExperimentConfig,
    wall_clock_seconds: float = 0.0,
    stages_run: Optional[list[str]] = None,
) -> dict:
    """Write report.json and summary.txt from the artifacts of the earlier
    stages, which must already exist."""
    paths = artifact_paths(config.out_dir)
    for key in ("comparison", "curve", "roc", "confusion"):
        if not os.path.exists(paths[key]):
            raise FileNotFoundError(
                f"report needs {paths[key]}; run the producing stage first"
            )
    manifest = load_json_file(paths["split_manifest"])
    report = {
        "arm": config.arm,
        "config": config.to_dict(),
        "seeds": {"root": config.seed, **config.stage_seeds()},
        "dataset": {
            "counts": manifest["counts"],
            "split_manifest_sha256": _file_sha256(paths["split_manifest"]),
        },
        "train": load_json_file(paths["train_summary"]),
        "metrics": load_json_file(paths["eval_metrics"]),
        "files": {
            key: os.path.basename(paths[key])
            for key in ("curve", "epochs", "roc", "comparison", "confusion", "checkpoint")
        },
        "artifacts": sorted(
            name
            for name in os.listdir(config.out_dir)
            if os.path.isfile(os.path.join(config.out_dir, name))
        ),
        "stages_run": stages_run or ["report"],
        "wall_clock_seconds": wall_clock_seconds,
    }
    dump_json_file(paths["report"], report)
    metrics = report["metrics"]
    counts = metrics["counts"]
    lines = [
        f"arm: {report['arm']}",
        f"dataset: train={report['dataset']['counts']['train']['total']} "
        f"val={report['dataset']['counts']['val']['total']} "
        f"(anomalous {report['dataset']['counts']['train']['anomalous']}"
        f"/{report['dataset']['counts']['val']['anomalous']})",
        f"best epoch: {report['train']['best_epoch']} "
        f"(val F1 {report['train']['best_f1']:.4f})",
        f"accuracy:  {metrics['accuracy']:.4f}",
        f"precision: {metrics['precision']:.4f}",
        f"recall:    {metrics['recall']:.4f}",
        f"f1:        {metrics['f1']:.4f}",
        f"auc:       {metrics['auc']:.4f}",
        "confusion:",
        f"  TP={counts['tp']} FP={counts['fp']}",
        f"  FN={counts['fn']} TN={counts['tn']}",
        f"wall clock: {report['wall_clock_seconds']:.2f} s",
    ]
    with open(paths["summary"], "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return report


@dataclass(frozen=True)
class Stage:
    """One node of the stage graph. ``reads`` returns the config slice the
    stage depends on (never ``out_dir``); ``inputs`` and ``outputs`` name
    files by their ``artifact_paths`` key, and ``logs``/``labels`` name the
    input files. A stage without ``reads`` has no key and always runs."""

    name: str
    func: Callable[..., dict]
    reads: Optional[Callable[[ExperimentConfig], object]]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


GRAPH = (
    Stage("parse", stage_parse, lambda c: c.drain, ("logs",),
          ("templates", "structured", "rejects", "parse_stats")),
    Stage("sessionize", stage_sessionize, lambda c: None, ("structured", "labels"),
          ("sessions", "sessionize_stats")),
    # Raw tokens come from the logs, event ids from the templates; the key
    # covers both, so it may rerun more than needed but never less.
    Stage("dataset", stage_dataset,
          lambda c: [ARM_ENCODING[c.arm], c.seed, c.sample_size, c.train_fraction, c.window,
                     c.raw_vocab_size, c.drain.header_pattern],
          ("sessions", "templates", "logs"),
          ("vocab", "train_windows", "val_windows", "split_manifest")),
    Stage("train", stage_train,
          lambda c: [c.seed, c.train_fraction, c.window.window_length, c.model, c.train],
          ("vocab", "train_windows", "val_windows"),
          ("checkpoint", "curve", "epochs", "train_summary", "scores")),
    Stage("eval", stage_eval, lambda c: c.train.threshold,
          ("vocab", "val_windows", "scores", "train_summary"),
          ("eval_metrics", "roc", "confusion")),
    Stage("judge", stage_judge, lambda c: c.judge, ("vocab", "templates", "val_windows"),
          ("verdicts",)),
    Stage("compare", stage_compare, lambda c: [c.judge.model, c.train.threshold],
          ("vocab", "val_windows", "scores", "verdicts"), ("comparison",)),
    Stage("report", stage_report, None,
          ("split_manifest", "train_summary", "eval_metrics", "comparison", "curve", "roc",
           "confusion"),
          ("report", "summary")),
)

_BY_NAME = {stage.name: stage for stage in GRAPH}
STAGES = tuple(_BY_NAME)


def _stage_key(stage: Stage, config: ExperimentConfig) -> str:
    """sha256 of the stage's config slice and of its input files' contents;
    an absent input (say, verdicts with the judge off) hashes as absent."""
    files = dict(artifact_paths(config.out_dir), logs=config.logs, labels=config.labels)
    config_slice = json.dumps(stage.reads(config), sort_keys=True, default=asdict)
    digest = hashlib.sha256(config_slice.encode("utf-8"))
    for name in stage.inputs:
        path = files[name]
        content = _file_sha256(path) if os.path.exists(path) else "absent"
        digest.update(f"\n{name}:{content}".encode("utf-8"))
    return digest.hexdigest()


def _recorded_keys(out_dir: str) -> dict[str, str]:
    path = artifact_paths(out_dir)["stage_keys"]
    return load_json_file(path) if os.path.exists(path) else {}


def _record_key(out_dir: str, name: str, key: Optional[str]) -> None:
    """Record one stage's key; None marks its outputs as not current."""
    keys = _recorded_keys(out_dir)
    if keys.get(name) != key:
        keys[name] = key
        dump_json_file(artifact_paths(out_dir)["stage_keys"], keys)


def _is_current(stage: Stage, config: ExperimentConfig, recorded: dict) -> bool:
    paths = artifact_paths(config.out_dir)
    return (
        stage.name in recorded
        and all(os.path.exists(paths[name]) for name in stage.outputs)
        and recorded[stage.name] == _stage_key(stage, config)
    )


def run_stage(name: str, config: ExperimentConfig, **kwargs) -> dict:
    """Run one stage and record its key once it succeeds. The old key is
    cleared first, so outputs a failing stage left half written are never
    taken as current."""
    try:
        stage = _BY_NAME[name]
        if stage.reads is None:
            return stage.func(config, **kwargs)
        key = _stage_key(stage, config)
        _record_key(config.out_dir, name, None)
        result = stage.func(config, **kwargs)
        _record_key(config.out_dir, name, key)
        return result
    except StageError:
        raise
    except BaseException as exc:
        raise StageError(name, exc) from exc


def run_pipeline(config: ExperimentConfig, judge_transport=None) -> dict:
    """Run every stage that is not current, then the report; artifacts
    written so far survive a failing stage. The judge stage runs only when
    enabled in config, and never on raw-token datasets."""
    started = time.monotonic()
    os.makedirs(config.out_dir, exist_ok=True)
    dump_json_file(artifact_paths(config.out_dir)["config"], config.to_dict())
    run_judge = config.judge.enabled and ARM_ENCODING[config.arm] == TEMPLATES
    recorded = _recorded_keys(config.out_dir)

    stages_run: list[str] = []
    for stage in GRAPH[:-1]:  # the report always runs, last
        if stage.name == "judge" and not run_judge:
            continue
        if _is_current(stage, config, recorded):
            continue
        kwargs = {"transport": judge_transport} if stage.name == "judge" else {}
        run_stage(stage.name, config, **kwargs)
        stages_run.append(stage.name)

    wall = time.monotonic() - started
    return run_stage(
        "report", config, wall_clock_seconds=wall, stages_run=stages_run + ["report"]
    )


ARM_LOSS = {"A": LOSS_CROSS_ENTROPY, "B": LOSS_CROSS_ENTROPY, "C": LOSS_FOCAL}


def arm_config(config: ExperimentConfig, arm: str) -> ExperimentConfig:
    """Same data, seeds, and hyperparameters; only input encoding and loss
    vary across arms."""
    return replace(
        config,
        arm=arm,
        out_dir=os.path.join(config.out_dir, f"arm_{arm}"),
        train=replace(config.train, loss=ARM_LOSS[arm]),
    )


def run_ablation(config: ExperimentConfig, judge_transport=None) -> dict:
    """Run arms A (raw tokens + CE), B (event ids + CE), C (event ids +
    Focal) on the identical sampled split; emit a per-arm summary table.

    A new arm directory starts as a copy of the previous arm's, so the
    stage keys let B reuse A's parse and sessionize, and C reuse B's
    dataset and judge."""
    os.makedirs(config.out_dir, exist_ok=True)
    arms = {}
    manifest_hashes = {}
    previous = None
    for arm in ("A", "B", "C"):
        cfg = arm_config(config, arm)
        if previous is not None and not os.path.exists(cfg.out_dir):
            # A copy, not hard links: stages rewrite their outputs in place.
            shutil.copytree(previous, cfg.out_dir)
        previous = cfg.out_dir
        report = run_pipeline(cfg, judge_transport=judge_transport)
        arms[arm] = report
        manifest_hashes[arm] = report["dataset"]["split_manifest_sha256"]

    if len(set(manifest_hashes.values())) != 1:
        raise StageError(
            "ablate",
            AssertionError(f"arms disagree on the split manifest: {manifest_hashes}"),
        )

    columns = ["arm", "loss", "accuracy", "precision", "recall", "f1", "auc"]
    summary_rows = [
        {"arm": arm, "loss": ARM_LOSS[arm], **{k: arms[arm]["metrics"][k] for k in columns[2:]}}
        for arm in ("A", "B", "C")
    ]
    csv_path = os.path.join(config.out_dir, "ablation.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row[k] for k in columns] for row in summary_rows)
    summary = {"split_manifest_sha256": manifest_hashes["C"], "rows": summary_rows}
    dump_json_file(os.path.join(config.out_dir, "ablation_summary.json"), summary)
    return summary
