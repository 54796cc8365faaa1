"""Polite transcript download client with a local cache.

Every downstream operation consumes local files; the fetcher only fills
the cache. Requests are serialized because callers fetch one hearing after
another, and they are spaced by a configurable minimum delay (default 1s),
with exponential backoff on transient failures. The network layer is
injectable so tests run offline; `urllib.request` is imported only when the
default opener runs.
"""

from __future__ import annotations

import time
import urllib.error
from pathlib import Path
from typing import Callable, Optional

from . import GavelError
from .corpus import HEARING_ID_RE, write_raw


class FetchError(GavelError):
    pass


class NotFoundError(FetchError):
    def __init__(self, hearing_id: str, url: str):
        self.hearing_id = hearing_id
        self.url = url
        super().__init__(f"transcript {hearing_id!r} not found at {url}")


def _default_opener(url: str) -> bytes:
    import urllib.request

    with urllib.request.urlopen(url, timeout=60) as resp:  # noqa: S310 (caller controls the endpoint)
        return resp.read()


class Fetcher:
    def __init__(
        self,
        endpoint: str,
        cache_dir: Path | str,
        min_delay: float = 1.0,
        retries: int = 3,
        backoff: float = 0.5,
        opener: Optional[Callable[[str], bytes]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint
        self.cache_dir = Path(cache_dir)
        self.min_delay = min_delay
        self.retries = retries
        self.backoff = backoff
        self._opener = opener or _default_opener
        self._clock = clock
        self._sleep = sleep
        self._last_request: Optional[float] = None

    def url_for(self, hearing_id: str) -> str:
        if "{hearing_id}" in self.endpoint:
            return self.endpoint.format(hearing_id=hearing_id)
        return self.endpoint.rstrip("/") + "/" + hearing_id

    def cache_path(self, hearing_id: str) -> Path:
        """Where `hearing_id` is cached; an id a hearing could not have, such as a path, is refused."""
        if not HEARING_ID_RE.match(hearing_id):
            raise FetchError(f"not a hearing id: {hearing_id!r}")
        return self.cache_dir / f"{hearing_id}.txt"

    def fetch(self, hearing_id: str) -> Path:
        """The cache path of `hearing_id`'s transcript, downloaded first unless it is cached there."""
        cached = self.cache_path(hearing_id)
        if not cached.is_file():
            write_raw(cached, self._download(hearing_id))
        return cached

    def _download(self, hearing_id: str) -> bytes:
        url = self.url_for(hearing_id)
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            self._respect_delay()
            self._last_request = self._clock()
            try:
                return self._opener(url)
            except urllib.error.HTTPError as exc:
                if exc.code == 404:
                    raise NotFoundError(hearing_id, url)
                last_error = exc
            except (urllib.error.URLError, OSError) as exc:
                last_error = exc
            if attempt < self.retries:
                self._sleep(self.backoff * (2**attempt))
        raise FetchError(f"failed to fetch {url} after {self.retries + 1} attempts: {last_error}")

    def _respect_delay(self) -> None:
        if self._last_request is None:
            return
        elapsed = self._clock() - self._last_request
        if elapsed < self.min_delay:
            self._sleep(self.min_delay - elapsed)
