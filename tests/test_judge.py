"""Remote-judge harness: prompts, verdict parsing, cache, retries, comparison."""

from __future__ import annotations

import http.server
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import seqguard.judge
from seqguard.drain import EventTemplate
from seqguard.judge import (
    ANSWER_DIRECTIVE,
    API_KEY_ENV_VAR,
    UNKNOWN_EVENT_TEXT,
    AuthMissing,
    CoverageGap,
    EndpointUnavailable,
    JudgeConfig,
    Unparseable,
    Verdict,
    _Pacer,
    build_prompt,
    cache_key,
    classify_remote,
    compare,
    parse_verdict,
    prompt_hash,
    read_verdicts_jsonl,
    verdict_scores,
    vocab_template_table,
    write_verdicts_jsonl,
)
from seqguard.sessions import PAD_ID, UNK_ID, LabeledWindow


def _response(text):
    return {"choices": [{"message": {"content": text}}]}


def _config(tmp_path, **overrides):
    base = dict(cache_dir=str(tmp_path / "cache"), rate_limit=1e6)
    base.update(overrides)
    return JudgeConfig(**base)


@pytest.fixture(autouse=True)
def _no_api_key(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV_VAR, raising=False)


TABLE = {3: "Receiving block <*>", 4: "Verification succeeded for <*>", 5: "Corrupt replica detected"}


class TestPrompts:
    def test_numbered_lines_and_directive(self):
        window = LabeledWindow("blk_1#0", [3, 4, 5], 1, 0)
        prompt = build_prompt(window, TABLE)
        assert "1. Receiving block <*>" in prompt
        assert "2. Verification succeeded for <*>" in prompt
        assert "3. Corrupt replica detected" in prompt
        assert ANSWER_DIRECTIVE in prompt

    def test_padding_dropped(self):
        window = LabeledWindow("blk_1#0", [3, PAD_ID, PAD_ID], 0, 2)
        prompt = build_prompt(window, TABLE)
        assert "2." not in prompt

    def test_unknown_id_marker(self):
        window = LabeledWindow("blk_1#0", [3, UNK_ID], 0, 0)
        prompt = build_prompt(window, TABLE)
        assert f"2. {UNKNOWN_EVENT_TEXT}" in prompt

    def test_unmapped_id_raises(self):
        window = LabeledWindow("blk_1#0", [3, 77], 0, 0)
        with pytest.raises(KeyError):
            build_prompt(window, TABLE)

    def test_custom_template(self):
        window = LabeledWindow("blk_1#0", [3], 0, 0)
        prompt = build_prompt(window, TABLE, template="Events:\n{events}\nVerdict?")
        assert prompt == "Events:\n1. Receiving block <*>\nVerdict?"

    def test_vocab_table_offsets_mined_ids(self):
        templates = [EventTemplate(0, ["alpha"]), EventTemplate(1, ["beta"])]
        assert vocab_template_table(templates) == {3: "alpha", 4: "beta"}

    def test_prompt_hash_stable(self):
        assert prompt_hash("abc") == prompt_hash("abc")
        assert prompt_hash("abc") != prompt_hash("abd")

    def test_cache_key_separates_model_and_prompt(self):
        assert cache_key("m1", "p") != cache_key("m2", "p")
        # The separator prevents boundary ambiguity between the fields.
        assert cache_key("ab", "c") != cache_key("a", "bc")

    def test_template_requires_events_slot(self):
        with pytest.raises(ValueError):
            JudgeConfig(prompt_template="no slot here")


class TestParseVerdict:
    @pytest.mark.parametrize(
        "text,label,ambiguous",
        [
            ("ANOMALY", 1, False),
            ("normal", 0, False),
            ("The sequence looks Normal to me.", 0, False),
            ("anomaly.", 1, False),
            ("aNoMaLy", 1, False),
            ("Verdict: ANOMALY. Definitely not normal.", 1, True),
            ("normal... although anomaly is possible", 0, True),
        ],
    )
    def test_cases(self, text, label, ambiguous):
        assert parse_verdict(text) == (label, ambiguous)

    @pytest.mark.parametrize("text", ["", "yes", "abnormal", "anomalous", "42"])
    def test_unparseable(self, text):
        with pytest.raises(Unparseable):
            parse_verdict(text)

    def test_pure_function(self):
        for text in ("ANOMALY", "normal and anomaly"):
            assert parse_verdict(text) == parse_verdict(text)


class TestClassifyRemote:
    def test_fixture_mode_no_network(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        prompt = "is this an anomaly? {events}".format(events="1. x")
        (fixtures / f"{prompt_hash(prompt)}.json").write_text(json.dumps(_response("ANOMALY")))

        def transport(payload):
            raise AssertionError("network must not be touched in fixture mode")

        config = _config(tmp_path, fixtures=str(fixtures))
        verdicts = classify_remote(config, [("w1", prompt)], transport=transport)
        assert verdicts == [
            Verdict(window_id="w1", label=1, raw_response="ANOMALY", source="fixture")
        ]
        assert not (tmp_path / "cache").exists()

    def test_fixture_missing_raises(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        fixtures.mkdir()
        config = _config(tmp_path, fixtures=str(fixtures))
        with pytest.raises(EndpointUnavailable):
            classify_remote(config, [("w1", "unseen prompt")], transport=lambda p: None)

    def test_live_mode_needs_a_cache_dir(self):
        config = JudgeConfig(rate_limit=1e6)
        with pytest.raises(ValueError, match="cache_dir"):
            classify_remote(config, [("w1", "prompt A")], transport=lambda p: _response("NORMAL"))

    def test_live_call_populates_cache(self, tmp_path):
        config = _config(tmp_path)
        assert not (tmp_path / "cache").exists()
        calls = []

        def transport(payload):
            calls.append(payload)
            return _response("NORMAL")

        verdicts = classify_remote(config, [("w1", "prompt A")], transport=transport)
        assert len(calls) == 1
        assert verdicts[0].source == "live"
        assert verdicts[0].label == 0

        payload = calls[0]
        assert payload["model"] == config.model
        assert payload["temperature"] == 0
        assert payload["messages"] == [{"role": "user", "content": "prompt A"}]

        cache_file = tmp_path / "cache" / f"{cache_key(config.model, 'prompt A')}.json"
        blob = json.loads(cache_file.read_text())
        assert blob["model"] == config.model
        assert blob["prompt_sha256"] == prompt_hash("prompt A")
        assert blob["response"] == _response("NORMAL")

    def test_second_pass_resolves_from_cache_without_key(self, tmp_path):
        config = _config(tmp_path)
        classify_remote(config, [("w1", "prompt A")], transport=lambda p: _response("NORMAL"))
        # No transport, no API key: only the cache can answer now.
        verdicts = classify_remote(config, [("w1", "prompt A")], transport=None)
        assert verdicts[0].source == "cache"
        assert verdicts[0].label == 0

    def test_no_key_no_cache_raises_before_any_request(self, tmp_path):
        config = _config(tmp_path)
        with pytest.raises(AuthMissing):
            classify_remote(config, [("w1", "prompt B")], transport=None)

    def test_no_tmp_files_left_behind(self, tmp_path):
        config = _config(tmp_path)
        classify_remote(config, [("w1", "p")], transport=lambda p: _response("NORMAL"))
        assert [f for f in os.listdir(tmp_path / "cache") if f.endswith(".tmp")] == []

    def test_retries_then_success(self, tmp_path):
        config = _config(tmp_path, max_retries=3)
        attempts = []
        sleeps = []

        def transport(payload):
            attempts.append(1)
            if len(attempts) < 3:
                raise ValueError("flaky")
            return _response("ANOMALY")

        verdicts = classify_remote(config, [("w1", "p")], transport=transport, sleep=sleeps.append)
        assert len(attempts) == 3
        assert verdicts[0].label == 1
        # Exponential backoff before each retry: 0.5, then 1.0 seconds.
        assert sleeps == [0.5, 1.0]

    def test_exhausted_retries_raise(self, tmp_path):
        config = _config(tmp_path, max_retries=2)
        attempts = []

        def transport(payload):
            attempts.append(1)
            raise ValueError("down")

        with pytest.raises(EndpointUnavailable):
            classify_remote(config, [("w1", "p")], transport=transport, sleep=lambda s: None)
        assert len(attempts) == 3  # initial try plus two retries

    def test_hard_failure_not_retried(self, tmp_path):
        config = _config(tmp_path, max_retries=5)
        attempts = []

        def transport(payload):
            attempts.append(1)
            raise EndpointUnavailable("HTTP 404")

        with pytest.raises(EndpointUnavailable):
            classify_remote(config, [("w1", "p")], transport=transport, sleep=lambda s: None)
        assert len(attempts) == 1

    def test_each_distinct_prompt_resolves_once(self, tmp_path):
        pairs = [("w1", "prompt A"), ("w2", "prompt B"), ("w3", "prompt A"),
                 ("w4", "prompt B"), ("w5", "prompt A")]
        replies = {"prompt A": "ANOMALY", "prompt B": "no idea"}
        calls = []

        def transport(payload):
            prompt = payload["messages"][0]["content"]
            calls.append(prompt)
            return _response(replies[prompt])

        verdicts = classify_remote(_config(tmp_path / "once"), pairs, transport=transport)
        assert calls == ["prompt A", "prompt B"]
        assert [v.source for v in verdicts] == ["live", "live", "cache", "cache", "cache"]
        # One call per window, sharing one cache, is the reference.
        per_window = [
            v
            for pair in pairs
            for v in classify_remote(_config(tmp_path / "each"), [pair], transport=transport)
        ]
        assert verdicts == per_window

    def test_unparseable_response_yields_none_label(self, tmp_path):
        config = _config(tmp_path)
        verdicts = classify_remote(
            config, [("w1", "p")], transport=lambda p: _response("cannot say")
        )
        assert verdicts[0].label is None
        assert verdicts[0].raw_response == "cannot say"

    def test_ambiguous_flagged(self, tmp_path):
        config = _config(tmp_path)
        verdicts = classify_remote(
            config, [("w1", "p")], transport=lambda p: _response("anomaly, not normal")
        )
        assert verdicts[0].label == 1
        assert verdicts[0].ambiguous is True


class _Endpoint(http.server.ThreadingHTTPServer):
    """An in-process chat endpoint. It answers the n-th request with the
    n-th reply (the last one repeats) and records each request as
    (method, headers, body)."""

    daemon_threads = True

    def __init__(self, replies):
        super().__init__(("127.0.0.1", 0), _EndpointHandler)
        self.replies = replies
        self.seen = []
        self.url = f"http://127.0.0.1:{self.server_port}/v1/chat/completions"

    def handle_error(self, request, client_address):
        pass  # a client that timed out has hung up; that is the test's point


class _EndpointHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.server.seen.append((self.command, dict(self.headers), self.rfile.read(length)))
        replies = self.server.replies
        replies[min(len(self.server.seen), len(replies)) - 1](self)

    do_GET = do_POST

    def log_message(self, *args):
        pass


def _reply(status, body=None, headers=()):
    def reply(handler):
        data = json.dumps(body).encode() if body is not None else b""
        handler.send_response(status)
        for name, value in headers:
            handler.send_header(name, value)
        handler.send_header("Content-Length", str(len(data)))
        handler.end_headers()
        handler.wfile.write(data)

    return reply


def _raw(data, delay=0.0):
    def reply(handler):
        time.sleep(delay)
        handler.wfile.write(data)
        handler.close_connection = True

    return reply


OK = _reply(200, _response("ANOMALY"))


class TestLiveHTTP:
    """The transport that ships, against in-process servers on 127.0.0.1."""

    @pytest.fixture
    def serve(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV_VAR, "SECRET")
        for name in list(os.environ):
            if name.lower().endswith("_proxy"):
                monkeypatch.delenv(name)
        servers = []

        def start(*replies):
            server = _Endpoint(replies)
            threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
            servers.append(server)
            return server

        yield start
        for server in servers:
            server.shutdown()
            server.server_close()

    def _classify(self, tmp_path, server, **overrides):
        config = _config(tmp_path, endpoint=server.url, **overrides)
        return classify_remote(config, [("w1", "prompt A")], sleep=lambda s: None)

    def test_ok_reply(self, tmp_path, serve):
        server = serve(OK)
        verdicts = self._classify(tmp_path, server)
        assert [(v.label, v.source) for v in verdicts] == [(1, "live")]
        [(method, headers, body)] = server.seen
        assert method == "POST"
        assert headers["Authorization"] == "Bearer SECRET"
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {
            "model": "gpt-4",
            "messages": [{"role": "user", "content": "prompt A"}],
            "temperature": 0,
        }

    @pytest.mark.parametrize(
        "first",
        [
            _reply(429),
            _raw(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nnope"),  # not JSON
            _raw(b"garbage\r\n"),  # a bad status line
            _raw(b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\n{"),  # a short read
            _raw(b"", delay=0.4),  # past the 0.2 s timeout
        ],
        ids=["429", "not_json", "bad_status_line", "short_read", "timeout"],
    )
    def test_transient_failure_is_retried(self, tmp_path, serve, first):
        server = serve(first, OK)
        verdicts = self._classify(tmp_path, server, timeout=0.2)
        assert verdicts[0].source == "live"
        assert len(server.seen) == 2

    @pytest.mark.parametrize(
        "body",
        [{"error": {"message": "overloaded"}}, {"choices": [{"message": {"content": 7}}]}],
        ids=["error_object", "content_not_text"],
    )
    def test_reply_without_content_is_retried_and_never_cached(self, tmp_path, serve, body):
        server = serve(_reply(200, body), OK)
        verdicts = self._classify(tmp_path, server)
        assert [(v.label, v.source) for v in verdicts] == [(1, "live")]
        assert len(server.seen) == 2
        [entry] = os.listdir(tmp_path / "cache")
        assert json.loads((tmp_path / "cache" / entry).read_text())["response"] == (
            _response("ANOMALY")
        )

    def test_server_error_exhausts_retries(self, tmp_path, serve):
        server = serve(_reply(500))
        with pytest.raises(EndpointUnavailable, match="3 attempts"):
            self._classify(tmp_path, server, max_retries=2)
        assert len(server.seen) == 3

    def test_client_error_fails_at_once(self, tmp_path, serve):
        server = serve(_reply(401, {"error": "bad key"}))
        with pytest.raises(EndpointUnavailable, match="HTTP 401.*bad key"):
            self._classify(tmp_path, server, max_retries=5)
        assert len(server.seen) == 1

    def test_redirect_target_gets_no_key(self, tmp_path, serve):
        target = serve(OK)
        origin = serve(_reply(302, headers=[("Location", target.url)]))
        assert self._classify(tmp_path, origin)[0].label == 1
        assert origin.seen[0][1]["Authorization"] == "Bearer SECRET"
        [(_, headers, _)] = target.seen
        assert "Authorization" not in headers

    def test_live_call_without_requests(self, tmp_path, serve):
        server = serve(OK)
        script = (
            "import sys\n"
            "sys.modules['requests'] = None\n"
            "from seqguard.judge import JudgeConfig, classify_remote\n"
            "config = JudgeConfig(endpoint=sys.argv[1], cache_dir=sys.argv[2])\n"
            "print(classify_remote(config, [('w1', 'prompt A')])[0].source)\n"
        )
        src = os.path.dirname(os.path.dirname(seqguard.judge.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", script, server.url, str(tmp_path / "cache")],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "live\n"


class TestPacer:
    def test_spaces_requests(self):
        clock = iter([0.0, 0.6, 0.1, 0.2, 0.7]).__next__
        sleeps = []
        pacer = _Pacer(min_interval=0.5, sleep=sleeps.append, now=clock)
        pacer.wait()  # t=0.0, first request goes straight through
        pacer.wait()  # t=0.6, 0.6 elapsed, no wait needed
        assert sleeps == []

    def test_sleeps_remaining_interval(self):
        clock = iter([0.0, 0.2, 0.5]).__next__
        sleeps = []
        pacer = _Pacer(min_interval=0.5, sleep=sleeps.append, now=clock)
        pacer.wait()
        pacer.wait()  # only 0.2 elapsed, must sleep 0.3
        assert sleeps == [pytest.approx(0.3)]


class TestComparison:
    def _windows(self, labels):
        return [LabeledWindow(f"w{i}", [3], y, 0) for i, y in enumerate(labels)]

    def test_verdict_scores_order_and_unparseable(self):
        windows = self._windows([1, 0, 0])
        verdicts = [
            Verdict("w2", 1, "ANOMALY", "fixture"),
            Verdict("w0", 1, "ANOMALY", "fixture"),
            Verdict("w1", None, "unclear", "fixture"),
        ]
        scores, unparseable = verdict_scores(verdicts, windows)
        assert scores == [1.0, 0.0, 1.0]
        assert unparseable == 1

    def test_missing_verdict_raises(self):
        with pytest.raises(CoverageGap):
            verdict_scores([Verdict("w0", 1, "x", "fixture")], self._windows([1, 0]))

    def test_duplicate_verdict_raises(self):
        verdicts = [Verdict("w0", 1, "x", "fixture"), Verdict("w0", 0, "y", "fixture")]
        with pytest.raises(CoverageGap):
            verdict_scores(verdicts, self._windows([1]))

    def test_rows_share_one_metrics_path(self):
        # Local scores and judge verdicts describing identical predictions
        # must produce identical metric rows.
        windows = self._windows([1, 1, 0, 0])
        local = {"local": [0.9, 0.8, 0.1, 0.7]}
        verdicts = {
            "judge": [
                Verdict("w0", 1, "ANOMALY", "fixture"),
                Verdict("w1", 1, "ANOMALY", "fixture"),
                Verdict("w2", 0, "NORMAL", "fixture"),
                Verdict("w3", 1, "ANOMALY", "fixture"),
            ]
        }
        rows = compare(local, verdicts, windows)
        a, b = rows
        assert (a.accuracy, a.precision, a.recall, a.f1) == (
            b.accuracy,
            b.precision,
            b.recall,
            b.f1,
        )
        assert a.model == "local" and b.model == "judge"

    def test_heavy_false_positive_shape(self):
        # All positives caught plus as many false alarms: recall 1.0,
        # precision 0.5.
        windows = self._windows([1] * 3 + [0] * 6)
        verdicts = {
            "judge": [
                Verdict(w.window_id, 1 if i < 6 else 0, "x", "fixture")
                for i, w in enumerate(windows)
            ]
        }
        rows = compare({}, verdicts, windows)
        assert rows[0].recall == 1.0
        assert rows[0].precision == 0.5

    def test_local_score_coverage(self):
        with pytest.raises(CoverageGap):
            compare({"local": [0.5]}, {}, self._windows([1, 0]))

    def test_verdict_jsonl_round_trip(self, tmp_path):
        verdicts = [
            Verdict("w0", 1, "ANOMALY", "live", ambiguous=False),
            Verdict("w1", None, "eh", "cache", ambiguous=False),
            Verdict("w2", 0, "normal not anomaly", "fixture", ambiguous=True),
        ]
        path = tmp_path / "verdicts.jsonl"
        write_verdicts_jsonl(str(path), verdicts)
        assert read_verdicts_jsonl(str(path)) == verdicts
