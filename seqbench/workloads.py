"""The benchmark's workloads: corpus shape, experiment config and CLI flow.

Every corpus keeps sessions no longer than the window, so each block
yields exactly one window, ``<block id>#0``; the output checks rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from corpus import REPLICA, STANDARD, CorpusShape

# The criterion-09 experiment: small model, 3,000 sampled windows.
_SMALL_MODEL = {"d_model": 32, "n_heads": 2, "n_layers": 1, "d_ff": 64, "max_seq_len": 9}
_SMALL_WINDOW = {"window_length": 8, "stride": 8}

SCORE_STAGES = ("parse", "sessionize", "dataset", "train", "eval", "judge", "compare", "report")


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CorpusShape
    # Experiment config without the paths; written to config.json per run.
    config: dict
    # "ablate", "run" or "stages" (score-large's stage-by-stage flow).
    flow: str
    # One CLI call per stage, in this order, for the "stages" flow.
    stages: tuple[str, ...] = ()

    @property
    def window_length(self) -> int:
        return self.config["window"]["window_length"]

    @property
    def epochs(self) -> int:
        return self.config["train"]["epochs"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ablation-small",
            shape=CorpusShape(sessions=3600, anomalous=105, max_len=8),
            config={
                "sample_size": 3000,
                "window": _SMALL_WINDOW,
                "model": _SMALL_MODEL,
                "train": {"epochs": 3, "batch_size": 16, "grad_accum_steps": 1,
                          "learning_rate": 1e-2},
            },
            flow="ablate",
        ),
        Workload(
            name="train-default",
            shape=CorpusShape(sessions=1500, anomalous=60, max_len=64),
            # Default model, window and batch shape; only the rate is raised
            # so that one epoch learns.
            config={
                "sample_size": 0,
                "window": {"window_length": 64, "stride": 64},
                "train": {"epochs": 1, "batch_size": 8, "grad_accum_steps": 4,
                          "learning_rate": 1e-2},
            },
            flow="run",
        ),
        Workload(
            name="score-large",
            shape=CorpusShape(sessions=30000, anomalous=900, max_len=8,
                              palettes=(STANDARD, REPLICA)),
            config={
                "sample_size": 0,
                "train_fraction": 0.1,
                "window": _SMALL_WINDOW,
                "model": _SMALL_MODEL,
                "train": {"epochs": 1, "batch_size": 16, "grad_accum_steps": 1,
                          "learning_rate": 1e-2},
                "judge": {"model": "gpt-3.5-turbo"},
            },
            flow="stages",
            stages=SCORE_STAGES,
        ),
    )
}
