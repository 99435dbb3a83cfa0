"""Per-layer timing for the traced run, recorded from outside the program.

``Tracer.install`` replaces public functions of the seqguard modules with
timing wrappers. A function is patched in the namespace of the module that
calls it (``pipeline.parse_file``, ``training.classifier_logits``), and a
``Tape``/``AdamW`` method on its class, so every call the pipeline makes
goes through a wrapper. Times are inclusive: ``tensor.matmul_s`` is also
inside ``model.forward_s``. Backward closures run inside
``tensor.backward_s`` and are not split by op.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

# Tape primitives whose forward time gets its own metric.
_TAPE_TIMED = {
    "gelu": "tensor.gelu_s",
    "matmul": "tensor.matmul_s",
    "softmax_rows": "tensor.softmax_s",
    "layer_norm": "tensor.layer_norm_s",
    "slice_rows": "tensor.slice_concat_s",
    "slice_cols": "tensor.slice_concat_s",
    "concat_rows": "tensor.slice_concat_s",
    "concat_cols": "tensor.slice_concat_s",
}

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "pipeline.stage_calls": "count",
    **{f"pipeline.{s}_s": "s" for s in
       ("parse", "sessionize", "dataset", "train", "eval", "judge", "compare", "report")},
    "drain.parse_file_s": "s",
    "drain.export_s": "s",
    "drain.load_structured_s": "s",
    "drain.templates": "count",
    "sessions.build_sessions_s": "s",
    "sessions.windowize_s": "s",
    "sessions.split_s": "s",
    "sessions.jsonl_io_s": "s",
    "training.step_ms": "ms",
    "training.evaluate_s": "s",
    "training.windows_scored": "count",
    "model.forward_s": "s",
    "model.attention_s": "s",
    "model.attention_calls": "count",
    "tensor.backward_s": "s",
    "tensor.gelu_s": "s",
    "tensor.ops_per_step": "count",
    "tensor.matmul_s": "s",
    "tensor.softmax_s": "s",
    "tensor.layer_norm_s": "s",
    "tensor.slice_concat_s": "s",
    "losses.loss_s": "s",
    "optim.step_s": "s",
    "optim.clip_s": "s",
    "metrics.roc_curve_s": "s",
    "metrics.full_report_s": "s",
    "judge.build_prompt_s": "s",
    "judge.classify_s": "s",
    "judge.prompts": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.step_ms: list[float] = []
        self.ops_per_microbatch: list[int] = []
        self.templates = 0
        self._ops = 0
        self._step_start = 0.0

    def _wrap(self, owner, name, metric=None, count=None, before=None, after=None):
        fn = getattr(owner, name)
        seconds, counts = self.seconds, self.counts

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if metric is not None:
                    seconds[metric] += time.perf_counter() - start
            if count is not None:
                counts[count[0]] += count[1](args)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, name, wrapper)

    def install(self) -> None:
        from seqguard import model, optim, pipeline, tensor, training

        one = lambda args: 1  # noqa: E731
        wrap = self._wrap

        wrap(pipeline, "parse_file", "drain.parse_file_s", after=self._record_templates)
        for name in ("export_templates", "export_structured", "export_rejects"):
            wrap(pipeline, name, "drain.export_s")
        wrap(pipeline, "load_structured", "drain.load_structured_s")
        wrap(pipeline, "build_sessions", "sessions.build_sessions_s")
        wrap(pipeline, "windowize", "sessions.windowize_s")
        wrap(pipeline, "split", "sessions.split_s")
        for name in ("write_windows_jsonl", "read_windows_jsonl"):
            wrap(pipeline, name, "sessions.jsonl_io_s")

        # evaluate(params, windows, ...) is called by stage_eval and by train.
        scored = ("training.windows_scored", lambda args: len(args[1]))
        wrap(pipeline, "evaluate", "training.evaluate_s", count=scored)
        wrap(training, "evaluate", "training.evaluate_s", count=scored)
        wrap(training, "classifier_logits", "model.forward_s")
        wrap(model, "causal_attention", "model.attention_s", count=("model.attention_calls", one))
        wrap(training, "classification_loss", "losses.loss_s")
        wrap(training, "clip_gradients", "optim.clip_s")
        wrap(training, "full_report", "metrics.full_report_s")
        wrap(pipeline, "roc_curve", "metrics.roc_curve_s")
        wrap(pipeline, "build_prompt", "judge.build_prompt_s", count=("judge.prompts", one))
        wrap(pipeline, "classify_remote", "judge.classify_s")

        # One optimizer step runs from zero_grads to the end of AdamW.step.
        wrap(optim.AdamW, "zero_grads", before=self._start_step)
        wrap(optim.AdamW, "step", "optim.step_s", after=self._end_step)

        tape = tensor.Tape
        wrap(tape, "backward", "tensor.backward_s", before=self._end_microbatch)
        primitives = [
            name for name, value in vars(tape).items()
            if callable(value) and not name.startswith("_") and name != "backward"
        ]
        for name in primitives:
            wrap(tape, name, _TAPE_TIMED.get(name), before=self._count_op)

    def _record_templates(self, args, result) -> None:
        self.templates = len(result.templates)

    def _start_step(self, args) -> None:
        self._step_start = time.perf_counter()

    def _end_step(self, args, result) -> None:
        self.step_ms.append((time.perf_counter() - self._step_start) * 1000.0)

    def _count_op(self, args) -> None:
        if args[0].record:
            self._ops += 1

    def _end_microbatch(self, args) -> None:
        self.ops_per_microbatch.append(self._ops)
        self._ops = 0

    def metrics(self, stage_calls: list[dict], rounds: int) -> dict[str, float]:
        """Per-round values of every PER_LAYER metric; 0 where a layer did not run."""
        out = {name: 0.0 for name in PER_LAYER}
        for call in stage_calls:
            out[f"pipeline.{call['stage']}_s"] += call["seconds"] / rounds
        out["pipeline.stage_calls"] = len(stage_calls) / rounds
        for name, value in self.seconds.items():
            out[name] = value / rounds
        for name, value in self.counts.items():
            out[name] = value / rounds
        out["drain.templates"] = self.templates
        if self.step_ms:
            out["training.step_ms"] = statistics.median(self.step_ms)
        if self.ops_per_microbatch:
            out["tensor.ops_per_step"] = statistics.median(self.ops_per_microbatch)
        return out
