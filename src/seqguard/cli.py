"""Command-line entry point.

``seqguard <subcommand> --config <file> [overrides]`` where subcommands
are the pipeline stages (parse, sessionize, dataset, train, eval, judge,
compare, report), ``run`` for the whole pipeline, and ``ablate`` for the
three-arm comparison. Exit codes: 0 success, 1 usage or configuration
error, 2 data error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from typing import Optional

from .artifacts import load_json_file
from .config import ARMS, apply_overrides, config_from_dict
from .judge import AuthMissing, EndpointUnavailable
from .pipeline import STAGES, StageError, run_ablation, run_pipeline, run_stage
from .tensor import ShapeMismatch

_STAGE_COMMANDS = [s for s in STAGES]
_COMMANDS = ["run", "ablate"] + _STAGE_COMMANDS

# Named flags: dest -> (dotted config key, value type, help); the flag is
# the dest with dashes. Any other key is reachable through --set.
_FLAGS = {
    "logs": ("logs", str, "raw log file"),
    "labels": ("labels", str, "block label CSV"),
    "out": ("out_dir", str, "output directory"),
    "seed": ("seed", int, "root seed"),
    "arm": ("arm", str, "ablation arm"),
    "sample_size": ("sample_size", int, "windows to sample (0 keeps the pool)"),
    "depth": ("drain.depth", int, "parse tree depth"),
    "sim_threshold": ("drain.sim_threshold", float, "template similarity threshold"),
    "max_children": ("drain.max_children", int, "parse tree fan-out cap"),
    "header_pattern": ("drain.header_pattern", str, "log header regex"),
    "window_length": ("window.window_length", int, "events per window"),
    "stride": ("window.stride", int, "events between window starts"),
    "judge_model": ("judge.model", str, "judge model name"),
    "cache_dir": ("judge.cache_dir", str, "judge response cache directory"),
    "fixtures": ("judge.fixtures", str, "judge fixture directory (no network)"),
    "rate_limit": ("judge.rate_limit", float, "judge requests per second"),
}


# glibc mallopt parameters.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep freed training arrays in the heap; a no-op without glibc mallopt.

    glibc's adaptive thresholds settle near 1 MiB (mmap) and 2 MiB (trim),
    so each micro-batch's dead tape goes back to the kernel and the next
    forward pass page-faults it in again. 16 MiB is above the largest tape
    array (attention scores at eval batch 32 and max_seq_len 128 are
    8 MiB); 64 MiB of free heap holds one micro-batch. Both are set because
    any mallopt call turns the adaptive thresholds off, and either value
    alone measured slower than neither. This lives in the CLI, which owns
    its process; library callers keep their own allocator policy.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)
        mallopt(_M_MMAP_THRESHOLD, 16 << 20)
    except (OSError, AttributeError, TypeError):
        pass


def _return_freed_heap() -> None:
    """Hand the heap's free pages back to the kernel; a no-op without glibc.

    Under the 64 MiB trim threshold a finished command's freed memory stays
    resident, so a second command in the same process would peak on top of
    it. ``malloc_trim(0)`` when a command ends keeps each command's peak its
    own; within a command the threshold still holds.
    """
    try:
        ctypes.CDLL(None).malloc_trim(ctypes.c_size_t(0))
    except (OSError, AttributeError, TypeError):
        pass


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="seqguard", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        for dest, (_, kind, text) in _FLAGS.items():
            choices = ARMS if dest == "arm" else None
            p.add_argument("--" + dest.replace("_", "-"), type=kind, choices=choices, help=text)
        p.add_argument(
            "--set",
            action="append",
            default=[],
            dest="overrides",
            metavar="KEY=VALUE",
            help="override any config key by dotted path",
        )
    return parser


def _resolve_config(args: argparse.Namespace):
    payload = load_json_file(args.config) if args.config else {}
    overrides = []
    for dest, (dotted, _, _) in _FLAGS.items():
        value = getattr(args, dest)
        if value is not None:
            overrides.append(f"{dotted}={json.dumps(value)}")
    overrides.extend(args.overrides)
    payload = apply_overrides(payload, overrides)
    return config_from_dict(payload)


# Bad or missing inputs, and failures from outside the program: a missing
# judge fixture or API key, or an endpoint that is down or refuses.
_DATA_ERRORS = (OSError, ValueError, KeyError, EOFError, AuthMissing, EndpointUnavailable)


def _exit_code_for(cause: BaseException) -> int:
    if isinstance(cause, ShapeMismatch):
        return 3
    if isinstance(cause, _DATA_ERRORS):
        return 2
    return 3


def main(argv: Optional[list[str]] = None) -> int:
    _keep_freed_heap()
    try:
        return _run_command(argv)
    finally:
        _return_freed_heap()


def _run_command(argv: Optional[list[str]]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        config = _resolve_config(args)
    except (OSError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "run":
            report = run_pipeline(config)
            metrics = report["metrics"]
            print(
                f"ok run: out={config.out_dir} "
                f"f1={metrics['f1']:.4f} auc={metrics['auc']:.4f}"
            )
        elif args.command == "ablate":
            summary = run_ablation(config)
            for row in summary["rows"]:
                print(
                    f"arm {row['arm']} ({row['loss']}): f1={row['f1']:.4f} "
                    f"precision={row['precision']:.4f} recall={row['recall']:.4f}"
                )
        else:
            result = run_stage(args.command, config)
            compact = {
                k: v
                for k, v in result.items()
                if isinstance(v, (int, float, str, bool))
            }
            print(f"ok {args.command}: {json.dumps(compact, sort_keys=True)}")
        return 0
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc.cause)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
