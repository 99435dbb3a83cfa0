"""End-to-end pipeline stages, the three-arm ablation, and the CLI."""

from __future__ import annotations

import csv
import json
import os
import shutil
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from seqguard import pipeline
from seqguard.cli import _exit_code_for, main
from seqguard.config import config_from_dict, dump_json_file, load_json_file
from seqguard.drain import load_templates
from seqguard.judge import EndpointUnavailable, build_prompt, prompt_hash, vocab_template_table
from seqguard.losses import FocalParams
from seqguard.model import load_checkpoint, vocab_manifest_hash
from seqguard.optim import Diverged
from seqguard.pipeline import (
    ARM_LOSS,
    GRAPH,
    LOCAL_MODEL_NAME,
    STAGES,
    StageError,
    arm_config,
    artifact_paths,
    run_ablation,
    run_pipeline,
    run_stage,
    stage_judge,
)
from seqguard.sessions import UNK_ID, read_windows_jsonl
from seqguard.tensor import ShapeMismatch
from seqguard.training import evaluate

from conftest import write_corpus


def _payload(tmp_path, n_sessions=120, n_anomalous=8, corpus_seed=3, **overrides):
    logs = tmp_path / "hdfs.log"
    labels = tmp_path / "labels.csv"
    write_corpus(logs, labels, n_sessions=n_sessions, n_anomalous=n_anomalous, seed=corpus_seed)
    payload = {
        "logs": str(logs),
        "labels": str(labels),
        "out_dir": str(tmp_path / "out"),
        "seed": 0,
        "sample_size": 0,
        "window": {"window_length": 8, "stride": 8},
        "model": {"d_model": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16, "max_seq_len": 9},
        "train": {
            "epochs": 1,
            "batch_size": 8,
            "grad_accum_steps": 1,
            "learning_rate": 1e-2,
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            payload.setdefault(key, {}).update(value)
        else:
            payload[key] = value
    return payload


def _staged(tmp_path, through="dataset", **overrides):
    """Run the artifact-producing stages up to and including ``through``."""
    config = config_from_dict(_payload(tmp_path, **overrides))
    os.makedirs(config.out_dir, exist_ok=True)
    for name in STAGES:
        run_stage(name, config)
        if name == through:
            break
    return config


def _write_fixtures(config, fixtures_dir, oracle):
    """One judge fixture per val window prompt of ``config``'s dataset."""
    paths = artifact_paths(config.out_dir)
    table = vocab_template_table(load_templates(paths["templates"]))
    vocab = load_json_file(paths["vocab"])
    windows = read_windows_jsonl(paths["val_windows"], vocab["window_length"])
    os.makedirs(fixtures_dir, exist_ok=True)
    for w in windows:
        prompt = build_prompt(w, table)
        body = {"choices": [{"message": {"content": oracle(w)}}]}
        with open(os.path.join(fixtures_dir, f"{prompt_hash(prompt)}.json"), "w") as handle:
            json.dump(body, handle)
    return len(windows)


@pytest.fixture
def stage_calls(monkeypatch):
    """Counts the stages that run_pipeline executes, by name."""
    calls = Counter()
    real = pipeline.run_stage

    def counting(name, config, **kwargs):
        calls[name] += 1
        return real(name, config, **kwargs)

    monkeypatch.setattr(pipeline, "run_stage", counting)
    return calls


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    config = config_from_dict(_payload(tmp_path))
    report = run_pipeline(config)
    return config, report


class TestFullRun:
    def test_all_artifacts_written(self, full_run):
        config, _ = full_run
        paths = artifact_paths(config.out_dir)
        expected = set(paths) - {"verdicts"}  # judge disabled by default
        for key in expected:
            assert os.path.exists(paths[key]), key
        assert not os.path.exists(paths["verdicts"])

    def test_report_shape(self, full_run):
        config, report = full_run
        assert report["arm"] == "C"
        assert set(report["seeds"]) == {
            "root",
            "sample",
            "split",
            "model_init",
            "pretrain",
            "train",
        }
        assert report["stages_run"] == [
            "parse",
            "sessionize",
            "dataset",
            "train",
            "eval",
            "compare",
            "report",
        ]
        for key in ("accuracy", "precision", "recall", "f1", "auc", "counts"):
            assert key in report["metrics"]
        assert report["wall_clock_seconds"] > 0

    def test_split_counts(self, full_run):
        # 120 one-window sessions, 8 anomalous: per-class 90% rounding gives
        # 7+101 train and 1+11 val.
        config, report = full_run
        counts = report["dataset"]["counts"]
        assert counts["train"] == {"total": 108, "anomalous": 7, "normal": 101}
        assert counts["val"] == {"total": 12, "anomalous": 1, "normal": 11}

    def test_report_json_matches_return(self, full_run):
        config, report = full_run
        on_disk = load_json_file(artifact_paths(config.out_dir)["report"])
        assert on_disk == report

    def test_summary_text(self, full_run):
        config, _ = full_run
        text = open(artifact_paths(config.out_dir)["summary"]).read()
        assert text.startswith("arm: C\n")
        assert "dataset: train=108 val=12 (anomalous 7/1)" in text
        assert "TP=" in text and "TN=" in text

    def test_comparison_has_local_row(self, full_run):
        config, _ = full_run
        with open(artifact_paths(config.out_dir)["comparison"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["model"] for r in rows] == [LOCAL_MODEL_NAME]

    def test_sessions_jsonl_is_sorted_json(self, full_run):
        config, _ = full_run
        with open(artifact_paths(config.out_dir)["sessions"]) as handle:
            first = handle.readline()
        obj = json.loads(first)
        assert list(obj) == sorted(obj)
        assert set(obj) == {"event_ids", "label", "line_numbers", "session_id"}

    def test_resolved_config_round_trips(self, full_run):
        config, _ = full_run
        payload = load_json_file(artifact_paths(config.out_dir)["config"])
        assert config_from_dict(payload) == config


class TestDeterminism:
    def test_rerun_reproduces_artifacts_bytewise(self, tmp_path):
        config = config_from_dict(_payload(tmp_path))
        run_pipeline(config)
        paths = artifact_paths(config.out_dir)
        # Wall clock appears in the report and summary; everything else must
        # come back byte for byte.
        tracked = sorted(set(paths) - {"verdicts", "report", "summary"})
        before = {key: open(paths[key], "rb").read() for key in tracked}
        # A fresh directory, so the second run recomputes every stage.
        shutil.rmtree(config.out_dir)
        run_pipeline(config)
        for key in tracked:
            assert open(paths[key], "rb").read() == before[key], key

    def test_seed_changes_model_results(self, tmp_path):
        base = _payload(tmp_path)
        first = dict(base, seed=1, out_dir=str(tmp_path / "run1"))
        second = dict(base, seed=2, out_dir=str(tmp_path / "run2"))
        run_pipeline(config_from_dict(first))
        run_pipeline(config_from_dict(second))
        curve1 = open(artifact_paths(first["out_dir"])["curve"], "rb").read()
        curve2 = open(artifact_paths(second["out_dir"])["curve"], "rb").read()
        assert curve1 != curve2


class TestStageGraph:
    def test_graph_is_well_formed(self):
        produced = {"logs", "labels"}
        for stage in GRAPH:
            missing = set(stage.inputs) - produced
            assert not missing, (stage.name, missing)
            clash = set(stage.outputs) & produced
            assert not clash, (stage.name, clash)
            produced |= set(stage.outputs)
        assert produced - {"logs", "labels"} <= set(artifact_paths("out"))

    def test_scores_are_the_best_epochs(self, tmp_path):
        # At this seed the second epoch does worse on val, so train keeps
        # epoch 1; a scores.csv of the last epoch would differ.
        config = config_from_dict(
            _payload(tmp_path, seed=1, train={"epochs": 2, "learning_rate": 3e-2})
        )
        run_pipeline(config)
        paths = artifact_paths(config.out_dir)
        assert load_json_file(paths["train_summary"])["best_epoch"] < config.train.epochs
        vocab = load_json_file(paths["vocab"])
        params, _ = load_checkpoint(
            paths["checkpoint"], expected_vocab_hash=vocab_manifest_hash(vocab["entries"])
        )
        windows = read_windows_jsonl(paths["val_windows"], vocab["window_length"])
        focal = FocalParams(alpha=config.train.alpha, gamma=config.train.gamma)
        _, val_loss, scores = evaluate(params, windows, config.train.loss, focal)
        with open(paths["scores"], newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["window_id"] for r in rows] == [w.window_id for w in windows]
        assert [float(r["score"]) for r in rows] == scores.tolist()
        assert load_json_file(paths["eval_metrics"])["val_loss"] == val_loss


class TestResume:
    """A rerun in the same directory reuses every stage whose recorded key
    (config slice and input contents) still matches and whose outputs exist."""

    def test_unchanged_rerun_reuses_every_stage(self, tmp_path):
        config = config_from_dict(_payload(tmp_path))
        run_pipeline(config)
        keys = load_json_file(artifact_paths(config.out_dir)["stage_keys"])
        assert sorted(keys) == sorted(set(STAGES) - {"judge", "report"})
        assert run_pipeline(config)["stages_run"] == ["report"]

    @pytest.mark.parametrize(
        "deleted, reruns",
        [("roc", ["eval", "report"]), ("scores", ["train", "report"])],
        ids=["roc", "scores"],
    )
    def test_deleted_output_reruns_its_stage(self, tmp_path, deleted, reruns):
        config = config_from_dict(_payload(tmp_path))
        run_pipeline(config)
        paths = artifact_paths(config.out_dir)
        before = open(paths[deleted], "rb").read()
        os.remove(paths[deleted])
        report = run_pipeline(config)
        # The stage rewrites every output byte for byte, so the stages
        # that read them stay current.
        assert report["stages_run"] == reruns
        assert open(paths[deleted], "rb").read() == before

    def test_loss_change_reruns_from_train(self, tmp_path):
        payload = _payload(tmp_path, train={"loss": "focal"})
        run_pipeline(config_from_dict(payload))
        payload["train"]["loss"] = "cross_entropy"
        report = run_pipeline(config_from_dict(payload))
        assert report["stages_run"] == ["train", "eval", "compare", "report"]
        assert report["config"]["train"]["loss"] == "cross_entropy"

    @pytest.mark.parametrize(
        "before, after",
        [
            # Sessions run to 8 lines, so only a shorter window feels the stride.
            ({"window": {"window_length": 4, "stride": 4}}, {"window": {"stride": 2}}),
            ({}, {"sample_size": 50}),
        ],
        ids=["stride", "sample_size"],
    )
    def test_dataset_change_reruns_from_dataset(self, tmp_path, before, after):
        payload = _payload(tmp_path, **before)
        first = run_pipeline(config_from_dict(payload))
        for key, value in after.items():
            payload[key] = dict(payload[key], **value) if isinstance(value, dict) else value
        report = run_pipeline(config_from_dict(payload))
        assert report["stages_run"] == [
            "dataset", "train", "eval", "compare", "report"
        ]
        # The counts are those of the new config, as a fresh run gives them.
        fresh = run_pipeline(
            config_from_dict(dict(payload, out_dir=str(tmp_path / "fresh")))
        )
        assert report["dataset"] == fresh["dataset"]
        assert report["dataset"]["counts"] != first["dataset"]["counts"]

    def test_log_edit_reruns_every_stage(self, tmp_path):
        payload = _payload(tmp_path)
        run_pipeline(config_from_dict(payload))
        logs = tmp_path / "hdfs.log"
        logs.write_text("".join(logs.read_text().splitlines(keepends=True)[:-1]))
        report = run_pipeline(config_from_dict(payload))
        assert report["stages_run"] == [
            "parse", "sessionize", "dataset", "train", "eval", "compare", "report"
        ]

    def test_failed_stage_is_not_current(self, tmp_path):
        config = config_from_dict(_payload(tmp_path))
        run_pipeline(config)
        diverging = _payload(
            tmp_path, train={"learning_rate": 1e12, "max_grad_norm": 1e18, "epochs": 3}
        )
        with np.errstate(all="ignore"), pytest.raises(StageError):
            run_pipeline(config_from_dict(diverging))
        keys = load_json_file(artifact_paths(config.out_dir)["stage_keys"])
        assert keys["train"] is None
        assert run_pipeline(config)["stages_run"][0] == "train"

    def test_report_requires_upstream_artifacts(self, tmp_path):
        config = _staged(tmp_path, through="dataset")
        with pytest.raises(StageError) as excinfo:
            run_stage("report", config)
        assert excinfo.value.stage == "report"


class TestStageGuards:
    def test_short_context_budget_rejected(self, tmp_path):
        config = _staged(
            tmp_path, through="dataset", model={"max_seq_len": 8}
        )
        with pytest.raises(StageError) as excinfo:
            run_stage("train", config)
        assert isinstance(excinfo.value.cause, ValueError)
        assert "max_seq_len" in str(excinfo.value.cause)

    def test_stage_error_keeps_stage_and_cause(self, tmp_path):
        config = config_from_dict(
            _payload(tmp_path, logs=str(tmp_path / "absent.log"))
        )
        os.makedirs(config.out_dir, exist_ok=True)
        with pytest.raises(StageError) as excinfo:
            run_stage("parse", config)
        assert excinfo.value.stage == "parse"
        assert isinstance(excinfo.value.cause, OSError)

    def test_pretrain_wiring(self, tmp_path):
        config = _staged(tmp_path, through="dataset", train={"pretrain_steps": 3})
        summary = run_stage("train", config)
        assert summary["pretrain"]["steps"] == 3
        assert summary["pretrain"]["final_holdout_loss"] is not None


class TestArmA:
    def test_raw_token_vocabulary(self, tmp_path):
        config = _staged(tmp_path, through="dataset", arm="A")
        vocab = load_json_file(artifact_paths(config.out_dir)["vocab"])
        assert vocab["encoding"] == "raw_tokens"
        assert vocab["entries"][:3] == ["<pad>", "<unk>", "<cls>"]
        # Raw message words, not mined templates.
        assert any("blk_" in entry for entry in vocab["entries"][3:])
        windows = read_windows_jsonl(
            artifact_paths(config.out_dir)["train_windows"], 8
        )
        limit = len(vocab["entries"])
        assert all(0 <= i < limit for w in windows for i in w.event_ids)

    def test_raw_vocab_cap_maps_rest_to_unknown(self, tmp_path):
        config = _staged(tmp_path, through="dataset", arm="A", raw_vocab_size=5)
        vocab = load_json_file(artifact_paths(config.out_dir)["vocab"])
        assert len(vocab["entries"]) == 8  # 3 specials + the cap
        windows = read_windows_jsonl(
            artifact_paths(config.out_dir)["train_windows"], 8
        )
        assert any(UNK_ID in w.event_ids for w in windows)

    def test_judge_rejects_raw_token_datasets(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        dump_json_file(
            str(out / "vocab.json"),
            {"encoding": "raw_tokens", "entries": ["<pad>", "<unk>", "<cls>"],
             "window_length": 8},
        )
        config = config_from_dict(
            {"out_dir": str(out), "logs": "x", "labels": "y"}
        )
        with pytest.raises(ValueError, match="raw tokens"):
            stage_judge(config)


class TestJudgeStage:
    def test_fixture_judge_and_comparison(self, tmp_path):
        config = config_from_dict(_payload(tmp_path))
        run_pipeline(config)
        fixtures = str(tmp_path / "fixtures")
        n = _write_fixtures(
            config, fixtures, lambda w: "ANOMALY" if w.label else "NORMAL"
        )
        judged = replace(
            config, judge=replace(config.judge, enabled=True, fixtures=fixtures)
        )

        def transport(payload):
            raise AssertionError("fixture mode must not build requests")

        stats = run_stage("judge", judged, transport=transport)
        assert stats == {"verdicts": n, "unparseable": 0, "sources": {"fixture": n}}
        # Only a live response creates the cache directory.
        assert not os.path.exists(os.path.join(config.out_dir, "judge_cache"))

        run_stage("compare", judged)
        with open(artifact_paths(config.out_dir)["comparison"], newline="") as handle:
            rows = {r["model"]: r for r in csv.DictReader(handle)}
        assert set(rows) == {LOCAL_MODEL_NAME, "gpt-4"}
        judge_row = rows["gpt-4"]
        assert float(judge_row["f1"]) == 1.0
        assert judge_row["unparseable"] == "0"

    def test_missing_fixture_is_a_stage_error(self, tmp_path):
        config = config_from_dict(_payload(tmp_path))
        run_pipeline(config)
        empty = tmp_path / "empty_fixtures"
        empty.mkdir()
        judged = replace(
            config, judge=replace(config.judge, enabled=True, fixtures=str(empty))
        )
        with pytest.raises(StageError) as excinfo:
            run_stage("judge", judged)
        assert isinstance(excinfo.value.cause, EndpointUnavailable)


class TestAblation:
    def test_three_arms_share_one_split(self, tmp_path):
        config = config_from_dict(_payload(tmp_path, n_sessions=60, n_anomalous=4))
        summary = run_ablation(config)
        assert [row["arm"] for row in summary["rows"]] == ["A", "B", "C"]
        assert [row["loss"] for row in summary["rows"]] == [
            "cross_entropy",
            "cross_entropy",
            "focal",
        ]
        hashes = set()
        for arm in ("A", "B", "C"):
            report = load_json_file(
                os.path.join(config.out_dir, f"arm_{arm}", "report.json")
            )
            assert report["arm"] == arm
            hashes.add(report["dataset"]["split_manifest_sha256"])
        assert len(hashes) == 1
        assert summary["split_manifest_sha256"] in hashes

        with open(os.path.join(config.out_dir, "ablation.csv"), newline="") as handle:
            reader = csv.reader(handle)
            assert next(reader) == [
                "arm",
                "loss",
                "accuracy",
                "precision",
                "recall",
                "f1",
                "auc",
            ]
            assert len(list(reader)) == 3

    def test_arms_share_upstream_stages(self, tmp_path, stage_calls):
        config = config_from_dict(_payload(tmp_path, n_sessions=60, n_anomalous=4))
        run_ablation(config)
        assert stage_calls == {
            "parse": 1, "sessionize": 1, "dataset": 2,
            "train": 3, "eval": 3, "compare": 3, "report": 3,
        }
        # Every arm directory still holds the full artifact set.
        for arm in ("A", "B", "C"):
            paths = artifact_paths(os.path.join(config.out_dir, f"arm_{arm}"))
            missing = [key for key in paths if not os.path.exists(paths[key])]
            assert missing == ["verdicts"], arm

    def test_ablate_with_judge(self, tmp_path, stage_calls, capsys):
        payload = _payload(tmp_path, n_sessions=60, n_anomalous=4)
        # Fixtures for the event-id val windows that arms B and C share.
        staged = arm_config(config_from_dict(dict(payload, out_dir=str(tmp_path / "fx"))), "B")
        for name in ("parse", "sessionize", "dataset"):
            run_stage(name, staged)
        fixtures = str(tmp_path / "fixtures")
        _write_fixtures(staged, fixtures, lambda w: "ANOMALY" if w.label else "NORMAL")
        stage_calls.clear()
        cfg = tmp_path / "config.json"
        dump_json_file(str(cfg), payload)

        code = main(["ablate", "--config", str(cfg), "--fixtures", fixtures,
                     "--set", "judge.enabled=true"])
        assert code == 0, capsys.readouterr().err
        assert stage_calls["judge"] == 1
        out = payload["out_dir"]
        assert not os.path.exists(os.path.join(out, "arm_A", "judge_verdicts.jsonl"))
        for arm in ("B", "C"):
            with open(os.path.join(out, f"arm_{arm}", "comparison.csv"), newline="") as handle:
                rows = {r["model"]: r for r in csv.DictReader(handle)}
            assert float(rows["gpt-4"]["f1"]) == 1.0, arm

    def test_arm_config_isolation(self):
        config = config_from_dict({"out_dir": "base", "train": {"loss": "focal"}})
        a = arm_config(config, "A")
        assert a.arm == "A"
        assert a.out_dir == os.path.join("base", "arm_A")
        assert a.train.loss == "cross_entropy"
        assert config.train.loss == "focal"  # original untouched
        assert ARM_LOSS == {"A": "cross_entropy", "B": "cross_entropy", "C": "focal"}


class TestCli:
    def _config_file(self, tmp_path, **overrides):
        payload = _payload(tmp_path, **overrides)
        path = tmp_path / "config.json"
        dump_json_file(str(path), payload)
        return str(path)

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, n_sessions=60, n_anomalous=4)
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok run:")
        assert "f1=" in out and "auc=" in out

    def test_stage_subcommands_in_sequence(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, n_sessions=60, n_anomalous=4)
        for stage in ("parse", "sessionize", "dataset", "train", "eval", "compare", "report"):
            assert main([stage, "--config", cfg]) == 0, stage
            assert capsys.readouterr().out.startswith(f"ok {stage}:")

    def test_parse_output_mentions_counts(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, n_sessions=60, n_anomalous=4)
        assert main(["parse", "--config", cfg]) == 0
        blob = json.loads(capsys.readouterr().out.partition(":")[2])
        assert blob["lines_parsed"] > 0
        assert blob["templates"] > 0

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, n_sessions=60, n_anomalous=4)
        other = str(tmp_path / "elsewhere")
        assert main(["parse", "--config", cfg, "--out", other]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(other, "templates.csv"))

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["transmogrify"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_flag_value_is_usage_error(self, capsys):
        assert main(["run", "--seed", "notanint"]) == 1
        capsys.readouterr()

    def test_resume_flag_is_gone(self, capsys):
        for command in ("run", "parse"):
            assert main([command, "--resume-from", "eval"]) == 1, command
        capsys.readouterr()

    def test_bad_override_is_config_error(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, n_sessions=60, n_anomalous=4)
        assert main(["run", "--config", cfg, "--set", "train.epochs=oops"]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["absent", "not_json"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_text(content)
        assert main(["run", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_logs_is_data_error(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path, logs=str(tmp_path / "absent.log"))
        assert main(["run", "--config", cfg]) == 2
        assert "stage parse failed" in capsys.readouterr().err

    def test_divergence_is_internal_error(self, tmp_path, capsys):
        # Three epochs give the loop enough steps to hit the consecutive
        # skipped-step limit after the weights blow up.
        cfg = self._config_file(
            tmp_path,
            n_sessions=60,
            n_anomalous=4,
            train={"learning_rate": 1e12, "max_grad_norm": 1e18, "epochs": 3},
        )
        with np.errstate(all="ignore"):
            code = main(["run", "--config", cfg])
        assert code == 3
        assert "stage train failed" in capsys.readouterr().err

    def test_exit_code_mapping(self):
        assert _exit_code_for(ShapeMismatch("bad")) == 3
        assert _exit_code_for(Diverged("boom")) == 3
        assert _exit_code_for(ValueError("bad value")) == 2
        assert _exit_code_for(OSError("gone")) == 2
        assert _exit_code_for(KeyError("missing")) == 2
