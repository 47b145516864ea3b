import hashlib
import json
import urllib.error

import pytest

from scenemine.errors import MalformedFile, ProviderError
from scenemine.providers import (
    HttpProvider,
    ScriptedProvider,
    load_fixture,
    make_fixture,
    query_key,
)

from util import FlakyProvider


def test_query_key_is_sha256_of_text():
    assert query_key("abc") == hashlib.sha256(b"abc").hexdigest()
    assert query_key("abc") != query_key("abd")


def test_make_fixture_shape():
    fixture = make_fixture({"cars turning": ["reply one", "reply two"]})
    key = query_key("cars turning")
    assert fixture == {key: {"query": "cars turning", "replies": ["reply one", "reply two"]}}


def test_make_fixture_rejects_bad_entries():
    with pytest.raises(MalformedFile):
        make_fixture({"": ["reply"]})
    with pytest.raises(MalformedFile):
        make_fixture({"q": []})


def test_load_fixture_round_trip(tmp_path):
    fixture = make_fixture({"q1": ["a"], "q2": ["b", "c"]})
    path = tmp_path / "replies.json"
    path.write_text(json.dumps(fixture))
    assert load_fixture(str(path)) == fixture


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ("{not json", "not valid JSON"),
        (json.dumps(["a"]), "JSON object"),
        (json.dumps({"k": "not-an-object"}), "must be an object"),
        (json.dumps({"k": {"replies": ["a"]}}), "missing a 'query' string"),
        (json.dumps({"deadbeef": {"query": "q", "replies": ["a"]}}), "does not match the hash"),
        (json.dumps({query_key("q"): {"query": "q", "replies": []}}), "non-empty list"),
        (json.dumps({query_key("q"): {"query": "q", "replies": ["a", 3]}}), "non-empty list"),
        (json.dumps({query_key("q"): {"query": "q", "replies": "a"}}), "non-empty list"),
    ],
)
def test_load_fixture_rejects_malformed(tmp_path, payload, fragment):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(MalformedFile, match=fragment):
        load_fixture(str(path))


def test_scripted_provider_matches_query_in_prompt():
    provider = ScriptedProvider(make_fixture({"find parked cars": ["code-a"]}))
    assert provider.generate("...preamble...\nfind parked cars") == "code-a"
    assert provider.calls == 1


def test_scripted_provider_prefers_longest_match():
    fixture = make_fixture({"cars": ["short"], "cars near buses": ["long"]})
    provider = ScriptedProvider(fixture)
    assert provider.generate("query: cars near buses") == "long"
    assert provider.generate("query: cars only") == "short"


def test_scripted_provider_steps_through_replies_then_repeats_last():
    provider = ScriptedProvider(make_fixture({"q": ["one", "two"]}))
    got = [provider.generate("prompt with q inside") for _ in range(4)]
    assert got == ["one", "two", "two", "two"]
    assert provider.calls == 4


def test_scripted_provider_counters_are_per_query():
    provider = ScriptedProvider(make_fixture({"qa": ["a1", "a2"], "qb": ["b1", "b2"]}))
    assert provider.generate("qa") == "a1"
    assert provider.generate("qb") == "b1"
    assert provider.generate("qa") == "a2"


def test_scripted_provider_unmatched_prompt_raises():
    provider = ScriptedProvider(make_fixture({"q": ["a"]}))
    with pytest.raises(ProviderError, match="no fixture entry matches"):
        provider.generate("something else entirely")


def test_scripted_provider_from_file(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(make_fixture({"q": ["a"]})))
    assert ScriptedProvider.from_file(str(path)).generate("q") == "a"


def test_flaky_provider_fails_on_selected_calls():
    inner = ScriptedProvider(make_fixture({"q": ["one", "two", "three"]}))
    provider = FlakyProvider(inner, fail_on=(1, 3))
    with pytest.raises(ProviderError, match="call 1"):
        provider.generate("q")
    assert provider.generate("q") == "one"
    with pytest.raises(ProviderError, match="call 3"):
        provider.generate("q")
    assert provider.generate("q") == "two"
    assert provider.calls == 4
    assert inner.calls == 2  # failures never reach the wrapped provider


# ---------------------------------------------------------------------------
# HTTP backend (transport stubbed out)


class _Response:
    def __init__(self, body: bytes):
        self._body = body

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _install(monkeypatch, handler):
    seen = []

    def fake_urlopen(request, timeout=None):
        seen.append((request, timeout))
        return handler(request)

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    return seen


def test_http_provider_requires_endpoint_and_model():
    with pytest.raises(ProviderError):
        HttpProvider("", "m")
    with pytest.raises(ProviderError):
        HttpProvider("http://x", "")


def test_http_provider_posts_json_and_reads_text(monkeypatch):
    seen = _install(monkeypatch, lambda req: _Response(b'{"text": "the code"}'))
    provider = HttpProvider("http://api.test/v1", "m-1", api_key="sekrit", timeout=9.0)
    assert provider.generate("PROMPT") == "the code"

    request, timeout = seen[0]
    assert timeout == 9.0
    assert request.full_url == "http://api.test/v1"
    assert request.get_method() == "POST"
    assert json.loads(request.data.decode("utf-8")) == {"model": "m-1", "prompt": "PROMPT"}
    headers = {k.lower(): v for k, v in request.header_items()}
    assert headers["content-type"] == "application/json"
    assert headers["authorization"] == "Bearer sekrit"


def test_http_provider_omits_auth_header_without_key(monkeypatch):
    seen = _install(monkeypatch, lambda req: _Response(b'{"text": "x"}'))
    HttpProvider("http://api.test", "m").generate("p")
    headers = {k.lower() for k, _ in seen[0][0].header_items()}
    assert "authorization" not in headers


def test_http_provider_wraps_http_error(monkeypatch):
    def handler(req):
        raise urllib.error.HTTPError(req.full_url, 503, "unavailable", None, None)

    _install(monkeypatch, handler)
    with pytest.raises(ProviderError, match="HTTP 503"):
        HttpProvider("http://api.test", "m").generate("p")


def test_http_provider_wraps_connection_error(monkeypatch):
    def handler(req):
        raise urllib.error.URLError("refused")

    _install(monkeypatch, handler)
    with pytest.raises(ProviderError, match="request failed"):
        HttpProvider("http://api.test", "m").generate("p")


@pytest.mark.parametrize(
    "body, fragment",
    [
        (b"<html>oops</html>", "invalid JSON"),
        (b'{"words": "no text field"}', "missing a 'text' field"),
        (b'{"text": 42}', "missing a 'text' field"),
        (b'["top-level array"]', "missing a 'text' field"),
    ],
)
def test_http_provider_rejects_bad_bodies(monkeypatch, body, fragment):
    _install(monkeypatch, lambda req: _Response(body))
    with pytest.raises(ProviderError, match=fragment):
        HttpProvider("http://api.test", "m").generate("p")
