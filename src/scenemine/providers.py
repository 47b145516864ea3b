"""Code-generation backends.

Two implementations of one tiny interface: an offline scripted provider that
replays canned replies keyed by the query embedded in the prompt (all tests
and the ablation run on this), and a minimal HTTP client for a hosted model.
"""

from __future__ import annotations

import hashlib
import json
import threading
import urllib.error
import urllib.request
from typing import Mapping, Protocol, Sequence

from .errors import MalformedFile, ProviderError
from .tracklog import read_json


class LlmProvider(Protocol):
    """Anything that turns a prompt into a raw completion string."""

    def generate(self, prompt: str) -> str: ...


def query_key(query_text: str) -> str:
    """Stable fixture key for a query: sha256 of its exact text."""
    return hashlib.sha256(query_text.encode("utf-8")).hexdigest()


def is_unicode(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8: JSON can spell a lone surrogate, such as "\\ud800", which does not."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def make_fixture(entries: Mapping[str, Sequence[str]]) -> dict:
    """Build a fixture dict from {query_text: replies} pairs."""
    fixture = {}
    for query_text, replies in entries.items():
        if not query_text:
            raise MalformedFile("fixture query text must be non-empty")
        replies = list(replies)
        if not replies:
            raise MalformedFile(f"fixture for {query_text!r} has no replies")
        fixture[query_key(query_text)] = {"query": query_text, "replies": replies}
    return fixture


def _validate_fixture(fixture: Mapping) -> None:
    if not isinstance(fixture, Mapping):
        raise MalformedFile("fixture must be a JSON object keyed by query hash")
    for key, entry in fixture.items():
        if not isinstance(entry, Mapping):
            raise MalformedFile(f"fixture entry {key!r} must be an object")
        query = entry.get("query")
        replies = entry.get("replies")
        if not isinstance(query, str) or not query:
            raise MalformedFile(f"fixture entry {key!r} is missing a 'query' string")
        if not is_unicode(query):
            raise MalformedFile(f"fixture entry {key!r} has a query that is not Unicode text: {query!r}")
        if key != query_key(query):
            raise MalformedFile(
                f"fixture entry {key!r} does not match the hash of its query text"
            )
        if not isinstance(replies, list) or not replies or not all(isinstance(r, str) for r in replies):
            raise MalformedFile(f"fixture entry {key!r} needs a non-empty list of reply strings")


class ScriptedProvider:
    """Replays canned replies; selects the entry whose query appears in the prompt.

    Prompts always embed the original query verbatim, so matching the query
    text against the prompt recovers which conversation this is. If several
    entries match (one query a substring of another), the longest query wins;
    among matching queries of equal length, the first in fixture order wins.
    Each entry keeps its own position counter; once replies are exhausted the
    last one repeats, which keeps deliberately-broken fixtures broken.
    """

    def __init__(self, fixture: Mapping):
        _validate_fixture(fixture)
        self._entries = {key: dict(entry) for key, entry in fixture.items()}
        # Longest query first; the sort is stable, so equal lengths keep fixture order.
        self._by_length = sorted(
            ((key, entry["query"]) for key, entry in self._entries.items()), key=lambda item: -len(item[1])
        )
        self._cursor: dict[str, int] = {key: 0 for key in fixture}
        self._lock = threading.Lock()
        self.calls = 0

    @classmethod
    def from_file(cls, path: str) -> "ScriptedProvider":
        """The provider a fixture file holds; every fault it has is a MalformedFile naming the file."""
        fixture = read_json(path, "fixture")
        try:
            return cls(fixture)  # validated once, by __init__
        except MalformedFile as exc:
            raise MalformedFile(f"{path}: {exc}") from None

    def _match(self, prompt: str) -> str:
        for key, query in self._by_length:
            if query in prompt:
                return key
        raise ProviderError("no fixture entry matches the prompt")

    def generate(self, prompt: str) -> str:
        with self._lock:
            self.calls += 1
            key = self._match(prompt)
            replies = self._entries[key]["replies"]
            index = min(self._cursor[key], len(replies) - 1)
            self._cursor[key] += 1
            return replies[index]


class HttpProvider:
    """POSTs {"model", "prompt"} as JSON and expects {"text": ...} back."""

    def __init__(self, endpoint: str, model: str, api_key: str | None = None, timeout: float = 60.0):
        if not endpoint:
            raise ProviderError("endpoint URL is required")
        if not endpoint.lower().startswith(("http://", "https://")):
            raise ProviderError(f"endpoint {endpoint!r} must be an http:// or https:// URL")
        if not model:
            raise ProviderError("model name is required")
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout

    def generate(self, prompt: str) -> str:
        payload = json.dumps({"model": self.model, "prompt": prompt}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(self.endpoint, data=payload, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ProviderError(f"completion endpoint returned HTTP {exc.code}") from exc
        except UnicodeDecodeError as exc:
            raise ProviderError("completion endpoint returned a body that is not UTF-8") from exc
        except (urllib.error.URLError, OSError) as exc:
            raise ProviderError(f"completion request failed: {exc}") from exc
        try:
            parsed = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ProviderError("completion endpoint returned invalid JSON") from exc
        text = parsed.get("text") if isinstance(parsed, dict) else None
        if not isinstance(text, str):
            raise ProviderError("completion response is missing a 'text' field")
        return text
