"""Zero-shot comparison harness against a chat-completion endpoint.

Each test window is rendered as a deterministic prompt; responses come
from (in priority order) a fixture directory, the on-disk cache, or the
live endpoint. Live replies are persisted before their verdict is parsed,
so an unparseable verdict never loses data. Scoring reuses the metrics
module so local and remote rows share one code path.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .artifacts import dump_json_file, load_json_file, read_records, write_records, write_table
from .metrics import confusion, scalar_metrics
from .sessions import NUM_SPECIALS, PAD_ID, UNK_ID, LabeledWindow

API_KEY_ENV_VAR = "SEQGUARD_API_KEY"
UNKNOWN_EVENT_TEXT = "<unknown event>"
ANSWER_DIRECTIVE = "Answer with exactly one word: NORMAL or ANOMALY."

DEFAULT_PROMPT_TEMPLATE = (
    "You are reviewing a sequence of system log events recorded for one "
    "storage block.\n"
    "Each numbered line is the parsed template of one log event, in order "
    "of occurrence.\n"
    "\n"
    "{events}\n"
    "\n"
    "Decide whether this sequence of events indicates anomalous behaviour.\n"
    + ANSWER_DIRECTIVE
    + "\n"
)

_VERDICT_WORD = re.compile(r"\b(anomaly|normal)\b", re.IGNORECASE)


class UnknownEventId(KeyError):
    pass


class Unparseable(ValueError):
    """Response text contains neither verdict word."""


class AuthMissing(RuntimeError):
    """No API key in the environment and the prompt is not cached."""


class EndpointUnavailable(RuntimeError):
    """Transport kept failing after the configured retries."""


class CoverageGap(ValueError):
    """A model is missing a verdict or score for some test window."""


@dataclass
class JudgeConfig:
    """Judge settings; the ``judge`` config section. The pipeline fills in
    ``cache_dir`` (``<out_dir>/judge_cache``) and ``prompt_template``
    (``DEFAULT_PROMPT_TEMPLATE``) when they are left unset."""

    enabled: bool = False
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-4"
    timeout: float = 30.0
    max_retries: int = 3
    rate_limit: float = 2.0
    cache_dir: Optional[str] = None
    fixtures: Optional[str] = None
    prompt_template: Optional[str] = None

    def __post_init__(self):
        # urllib would also open file: and data: URLs, which answer no status.
        if urllib.parse.urlsplit(self.endpoint).scheme not in ("http", "https"):
            raise ValueError("endpoint must be an http:// or https:// URL")
        # Bounded, so that no setting makes a run wait for hours: the pacer
        # sleeps 1/rate_limit, and the backoff doubles with each retry.
        if not self.rate_limit >= 1 / 60:
            raise ValueError("rate_limit must be at least 1/60 requests/sec")
        if not 0 < self.timeout <= 600:
            raise ValueError("timeout must be in (0, 600] seconds")
        if not 0 <= self.max_retries <= 10:
            raise ValueError("max_retries must be in [0, 10]")
        if self.prompt_template is not None and "{events}" not in self.prompt_template:
            raise ValueError("prompt_template must contain an {events} slot")


@dataclass
class Verdict:
    window_id: str
    label: Optional[int]
    raw_response: str
    source: str
    ambiguous: bool = False


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def cache_key(model: str, prompt: str) -> str:
    digest = hashlib.sha256()
    digest.update(model.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8"))
    return digest.hexdigest()


def build_prompt(
    window: LabeledWindow,
    template_table: dict[int, str],
    template: str = DEFAULT_PROMPT_TEMPLATE,
) -> str:
    """Render a window as numbered template lines inside the instruction text.

    Trailing padding is dropped; unknown-event slots render as a fixed
    marker so the judge sees that something unrecognized happened.
    """
    lines = []
    for event_id in window.event_ids:
        if event_id == PAD_ID:
            continue
        if event_id == UNK_ID:
            text = UNKNOWN_EVENT_TEXT
        elif event_id in template_table:
            text = template_table[event_id]
        else:
            raise UnknownEventId(f"no template for event id {event_id}")
        lines.append(f"{len(lines) + 1}. {text}")
    return template.format(events="\n".join(lines))


def vocab_template_table(templates) -> dict[int, str]:
    """Map model-vocabulary ids (mined id + specials offset) to template text."""
    return {t.event_id + NUM_SPECIALS: t.text for t in templates}


def parse_verdict(response_text: str) -> tuple[int, bool]:
    """Scan for verdict words; returns (label, ambiguous).

    A single verdict word decides directly. When both words occur the
    first occurrence wins and the verdict is flagged ambiguous.
    """
    if not response_text:
        raise Unparseable("empty response")
    matches = [m.group(1).lower() for m in _VERDICT_WORD.finditer(response_text)]
    if not matches:
        raise Unparseable(f"no verdict word in {response_text!r}")
    kinds = set(matches)
    label = 1 if matches[0] == "anomaly" else 0
    return label, len(kinds) > 1


def _extract_content(body: dict) -> Optional[str]:
    """The reply's verdict text; ValueError when it has none. A null content
    passes, and parses as unparseable."""
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"response body missing choices[0].message.content: {exc}")
    if content is not None and not isinstance(content, str):
        raise ValueError(f"choices[0].message.content is not text: {content!r}")
    return content


def _default_transport(config: JudgeConfig, payload: dict, api_key: str) -> dict:
    """POST the payload as JSON and return the decoded reply. 429 and 5xx
    replies and malformed ones raise ``_RetryableHTTP``; any other status
    but 200 raises ``EndpointUnavailable``."""
    # Imported here: they load ssl, about 3 MiB of resident memory that a
    # run without live calls never needs.
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        config.endpoint,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    # Unredirected: urllib copies ordinary headers to a redirect target.
    request.add_unredirected_header("Authorization", f"Bearer {api_key}")
    try:
        try:
            with urllib.request.urlopen(request, timeout=config.timeout) as response:
                status, body = response.status, response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                status, body = exc.code, exc.read()
    except http.client.HTTPException as exc:
        # A bad status line or a short read, of any reply; not an OSError.
        raise _RetryableHTTP(f"malformed reply: {exc!r}") from exc
    if status == 429 or status >= 500:
        raise _RetryableHTTP(f"HTTP {status}")
    if status != 200:
        text = body[:200].decode("utf-8", errors="replace")
        raise EndpointUnavailable(f"HTTP {status}: {text}")
    return json.loads(body)


class _RetryableHTTP(RuntimeError):
    pass


@dataclass
class _Pacer:
    """Spaces request starts at least 1/rate_limit apart."""

    min_interval: float
    sleep: Callable[[float], None] = time.sleep
    now: Callable[[], float] = time.monotonic
    _last: Optional[float] = field(default=None, repr=False)

    def wait(self) -> None:
        t = self.now()
        if self._last is not None:
            remaining = self.min_interval - (t - self._last)
            if remaining > 0:
                self.sleep(remaining)
                t = self.now()
        self._last = t


def classify_remote(
    config: JudgeConfig,
    prompts: Sequence[tuple[str, str]],
    transport: Optional[Callable[[dict], dict]] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Verdict]:
    """Resolve (window_id, prompt) pairs to verdicts, cache-first, one
    verdict per pair.

    Each distinct prompt resolves once: from its fixture file, else its
    cache file, else a live call. A live reply is written to the cache
    atomically once its verdict text is read, so a reply without one is
    retried and never cached. A prompt repeated after a live call reads
    ``source: "cache"``, as a per-window lookup would. An injected
    transport takes the request payload and returns the response body,
    replacing the HTTP layer in tests.
    """
    if config.fixtures is None and config.cache_dir is None:
        raise ValueError("cache_dir must be set unless fixtures are")
    pacer = _Pacer(min_interval=1.0 / config.rate_limit, sleep=sleep)
    api_key = os.environ.get(API_KEY_ENV_VAR)
    resolved: dict[str, tuple[str, str]] = {}  # prompt -> (content, source of a repeat)
    verdicts = []
    for window_id, prompt in prompts:
        if prompt in resolved:
            content, source = resolved[prompt]
        else:
            content, source = _resolve(config, window_id, prompt, transport, api_key, pacer, sleep)
            resolved[prompt] = (content, "cache" if source == "live" else source)
        try:
            label, ambiguous = parse_verdict(content)
        except Unparseable:
            label, ambiguous = None, False
        verdicts.append(
            Verdict(
                window_id=window_id,
                label=label,
                raw_response=content,
                source=source,
                ambiguous=ambiguous,
            )
        )
    return verdicts


def _resolve(
    config: JudgeConfig,
    window_id: str,
    prompt: str,
    transport: Optional[Callable[[dict], dict]],
    api_key: Optional[str],
    pacer: _Pacer,
    sleep: Callable[[float], None],
) -> tuple[str, str]:
    """One prompt's verdict text and where it came from: fixture, cache or live."""
    if config.fixtures is not None:
        fixture_path = os.path.join(config.fixtures, f"{prompt_hash(prompt)}.json")
        if not os.path.exists(fixture_path):
            raise EndpointUnavailable(
                f"fixture mode: no fixture {os.path.basename(fixture_path)} "
                f"for window {window_id}"
            )
        return _extract_content(load_json_file(fixture_path)), "fixture"

    cache_path = os.path.join(config.cache_dir, f"{cache_key(config.model, prompt)}.json")
    if os.path.exists(cache_path):
        return _extract_content(load_json_file(cache_path)["response"]), "cache"

    if transport is None and api_key is None:
        raise AuthMissing(
            f"set {API_KEY_ENV_VAR} to query the endpoint "
            f"(window {window_id} not cached)"
        )
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": 0,
    }
    body, content = _call_with_retries(config, payload, transport, api_key, pacer, sleep)
    os.makedirs(config.cache_dir, exist_ok=True)
    record = {"model": config.model, "prompt_sha256": prompt_hash(prompt), "response": body}
    dump_json_file(cache_path, record, atomic=True)
    return content, "live"


def _call_with_retries(
    config: JudgeConfig,
    payload: dict,
    transport: Optional[Callable[[dict], dict]],
    api_key: Optional[str],
    pacer: _Pacer,
    sleep: Callable[[float], None],
) -> tuple[dict, str]:
    """The reply body and its verdict text; a reply without verdict text is
    retried like one that is not JSON."""
    last_error: Optional[Exception] = None
    for attempt in range(config.max_retries + 1):
        if attempt > 0:
            sleep(0.5 * 2 ** (attempt - 1))
        pacer.wait()
        try:
            if transport is not None:
                body = transport(payload)
            else:
                body = _default_transport(config, payload, api_key or "")
            return body, _extract_content(body)
        except EndpointUnavailable:
            raise
        except (_RetryableHTTP, OSError, ValueError) as exc:
            last_error = exc
    raise EndpointUnavailable(
        f"endpoint failed after {config.max_retries + 1} attempts: {last_error}"
    )


@dataclass
class ComparisonRow:
    model: str
    accuracy: float
    precision: float
    recall: float
    f1: float
    unparseable: int


def verdict_scores(
    verdicts: Sequence[Verdict], windows: Sequence[LabeledWindow]
) -> tuple[list[float], int]:
    """Verdicts in window order as {0,1} scores; unparseable counts as 0."""
    by_id = {v.window_id: v for v in verdicts}
    if len(by_id) != len(verdicts):
        raise CoverageGap("duplicate window_id in verdict set")
    scores = []
    unparseable = 0
    for w in windows:
        v = by_id.get(w.window_id)
        if v is None:
            raise CoverageGap(f"no verdict for window {w.window_id}")
        if v.label is None:
            unparseable += 1
            scores.append(0.0)
        else:
            scores.append(float(v.label))
    return scores, unparseable


def compare(
    local_scores: dict[str, Sequence[float]],
    judge_verdicts: dict[str, Sequence[Verdict]],
    windows: Sequence[LabeledWindow],
    threshold: float = 0.5,
) -> list[ComparisonRow]:
    """One metrics row per model over the identical test windows."""
    labels = [w.label for w in windows]
    rows = []
    for name, scores in local_scores.items():
        if len(scores) != len(windows):
            raise CoverageGap(
                f"model {name}: {len(scores)} scores for {len(windows)} windows"
            )
        m = scalar_metrics(confusion(list(scores), labels, threshold))
        rows.append(ComparisonRow(model=name, unparseable=0, **m))
    for name, verdicts in judge_verdicts.items():
        scores, unparseable = verdict_scores(verdicts, windows)
        m = scalar_metrics(confusion(scores, labels, threshold))
        rows.append(ComparisonRow(model=name, unparseable=unparseable, **m))
    return rows


def write_comparison_csv(path: str, rows: Sequence[ComparisonRow]) -> None:
    write_table(path, ["model", "accuracy", "precision", "recall", "f1", "unparseable"], (
        [r.model, str(r.accuracy), str(r.precision), str(r.recall), str(r.f1), r.unparseable]
        for r in rows
    ))


def write_verdicts_jsonl(path: str, verdicts: Sequence[Verdict]) -> None:
    write_records(path, (
        {"ambiguous": v.ambiguous, "label": v.label, "raw_response": v.raw_response,
         "source": v.source, "window_id": v.window_id} for v in verdicts
    ))


def read_verdicts_jsonl(path: str) -> list[Verdict]:
    return [Verdict(**obj) for obj in read_records(path)]
