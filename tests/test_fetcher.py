import errno
import os
import subprocess
import sys
import urllib.error
from functools import partial
from pathlib import Path

import pytest

from gavel import cli
from gavel.fetcher import Fetcher, FetchError, NotFoundError


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def time(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def make_fetcher(tmp_path, opener, min_delay=1.0, retries=2):
    clock = FakeClock()
    fetcher = Fetcher(
        "https://example.test/transcripts/{hearing_id}",
        tmp_path / "cache",
        min_delay=min_delay,
        retries=retries,
        backoff=0.25,
        opener=opener,
        clock=clock.time,
        sleep=clock.sleep,
    )
    return fetcher, clock


def test_cache_hit_makes_no_network_calls(tmp_path):
    calls = []

    def opener(url):
        calls.append(url)
        return b"the transcript"

    fetcher, _ = make_fetcher(tmp_path, opener)
    assert fetcher.fetch("h-1") == tmp_path / "cache" / "h-1.txt"
    assert fetcher.fetch("h-1") == tmp_path / "cache" / "h-1.txt"
    assert len(calls) == 1
    assert (tmp_path / "cache" / "h-1.txt").read_text() == "the transcript"


def test_a_failed_cache_write_leaves_no_file_and_the_id_is_downloaded_again(tmp_path, monkeypatch):
    calls = []
    fetcher, _ = make_fetcher(tmp_path, lambda url: calls.append(url) or b"the transcript")

    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as mp:
        mp.setattr(os, "replace", full_disk)
        with pytest.raises(OSError, match="No space left"):
            fetcher.fetch("h-1")
    assert list((tmp_path / "cache").iterdir()) == []
    assert fetcher.fetch("h-1").read_bytes() == b"the transcript"
    assert len(calls) == 2


def test_404_raises_not_found_with_hearing_id(tmp_path):
    def opener(url):
        raise urllib.error.HTTPError(url, 404, "not found", {}, None)

    fetcher, _ = make_fetcher(tmp_path, opener)
    with pytest.raises(NotFoundError) as err:
        fetcher.fetch("h-missing")
    assert err.value.hearing_id == "h-missing"


def test_sequential_fetches_respect_min_delay(tmp_path):
    request_times = []
    clock_holder = {}

    def opener(url):
        request_times.append(clock_holder["clock"].now)
        return b"x"

    fetcher, clock = make_fetcher(tmp_path, opener, min_delay=1.5)
    clock_holder["clock"] = clock
    fetcher.fetch("a")
    fetcher.fetch("b")
    fetcher.fetch("c")
    assert len(request_times) == 3
    for earlier, later in zip(request_times, request_times[1:]):
        assert later - earlier >= 1.5


def test_retry_with_backoff_then_failure(tmp_path):
    attempts = []

    def opener(url):
        attempts.append(url)
        raise urllib.error.URLError("connection refused")

    fetcher, clock = make_fetcher(tmp_path, opener, retries=2)
    with pytest.raises(FetchError):
        fetcher.fetch("h-2")
    assert len(attempts) == 3  # initial + 2 retries
    assert 0.25 in clock.sleeps and 0.5 in clock.sleeps  # exponential backoff


def test_transient_failure_then_success(tmp_path):
    state = {"n": 0}

    def opener(url):
        state["n"] += 1
        if state["n"] == 1:
            raise urllib.error.HTTPError(url, 503, "unavailable", {}, None)
        return b"recovered"

    fetcher, _ = make_fetcher(tmp_path, opener)
    assert fetcher.fetch("h-3").read_bytes() == b"recovered"


@pytest.mark.parametrize("hearing_id", ["../escaped", "/tmp/abs", "a/b", "", "h 1"])
def test_an_id_that_is_not_a_hearing_id_is_refused_before_any_request(tmp_path, hearing_id):
    calls = []
    fetcher, _ = make_fetcher(tmp_path, lambda url: calls.append(url) or b"x")
    with pytest.raises(FetchError, match="not a hearing id"):
        fetcher.fetch(hearing_id)
    assert calls == [] and list(tmp_path.iterdir()) == []


def test_fetch_command_checks_every_id_before_the_first_request(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "Fetcher", partial(Fetcher, opener=lambda url: calls.append(url) or b"text"))
    work = tmp_path / "work"
    cache = work / "cache"
    argv = ["fetch", "--endpoint", "https://example.test/{hearing_id}", "--cache-dir", str(cache), "--min-delay", "0"]
    assert cli.main([*argv, "--ids", "h-1,../escaped"]) == 1
    assert "'../escaped'" in capsys.readouterr().err
    assert calls == [] and list(tmp_path.iterdir()) == []
    assert cli.main([*argv, "--ids", "h-1,h.2"]) == 0
    assert len(calls) == 2
    assert sorted(p.relative_to(work).as_posix() for p in work.rglob("*")) == [
        "cache", "cache/h-1.txt", "cache/h.2.txt", "cache/manifest.json"
    ]


def test_fetch_command_leaves_a_cached_transcript_unread(tmp_path, monkeypatch):
    """Only the commands that read a transcript decode it, so a cached file that is not UTF-8 is fetched."""
    calls = []
    monkeypatch.setattr(cli, "Fetcher", partial(Fetcher, opener=lambda url: calls.append(url) or b"text"))
    cache = tmp_path / "c"
    cache.mkdir()
    (cache / "h-1.txt").write_bytes(b"the transcript\xff")
    argv = ["fetch", "--ids", "h-1", "--cache-dir", str(cache), "--endpoint", "https://example.test/{hearing_id}"]
    assert cli.main(argv) == 0
    assert calls == []
    assert (cache / "h-1.txt").read_bytes() == b"the transcript\xff"


def test_url_template_and_join(tmp_path):
    fetcher, _ = make_fetcher(tmp_path, lambda url: b"")
    assert fetcher.url_for("abc") == "https://example.test/transcripts/abc"
    plain = Fetcher("https://example.test/base", tmp_path, opener=lambda u: b"")
    assert plain.url_for("abc") == "https://example.test/base/abc"


def test_cli_import_leaves_the_http_stack_unloaded():
    """Only `fetch` talks to the network, so importing the CLI must not load urllib.request."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, gavel.cli; print(sorted(m for m in ('urllib.request', 'http.client') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
