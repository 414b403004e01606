"""Append-only cache of oracle counts for the command line.

Only the pruned-search oracle is cached; formulas, recurrences and
succession rules recompute faster than the file is read.  One JSON record
per line, keyed by the first 16 hex digits of the SHA-256 of the JSON
``[pair as given, n, m]``, such as ``[["122", "213"], 4, 2]``.  SHA-256 comes
from the interpreter's built-in module when it has one (``_sha2`` on 3.12+,
``_sha256`` before), so a CLI process does not load OpenSSL through
``hashlib``; the digest, and so every key, is the same either way.  Counts
are stored as strings so any tool can read the file without big-integer
support.  A corrupt line, including one that is not UTF-8, is skipped with
a warning.  The audit is deterministic: a hit whose key falls in a fixed
1-in-AUDIT_EVERY bucket is recomputed on every lookup, and any other hit is
returned as stored.  So a well-formed record with a wrong count is caught
only in that bucket; under any other key it is served until the file is
removed.  Writes take an exclusive advisory lock so concurrent CLI runs
append safely.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
from pathlib import Path
from typing import Callable

# hashlib loads OpenSSL's libcrypto, several MB of a one-shot process's memory
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

ENV_VAR = "MSETPERM_CACHE"
AUDIT_EVERY = 20


def default_cache_path() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return Path(base) / "msetperm" / "counts.jsonl"


def _digest(pair: tuple[str, str], n: int, m: int) -> str:
    payload = json.dumps([list(pair), n, m])
    return sha256(payload.encode()).hexdigest()[:16]


class CountCache:
    def __init__(self, path: Path | None = None):
        self.path = path or default_cache_path()
        self._warned = False

    def _warn(self, message: str) -> None:
        if not self._warned:
            print(f"cache warning: {message}", file=sys.stderr)
            self._warned = True

    def count(self, pair: tuple[str, str], n: int, m: int,
              compute: Callable[[], int]) -> int:
        """The cached count, or ``compute()``'s.  An audited hit is recomputed;
        a fresh value that differs is appended, and the last record wins."""
        hit = self.lookup(pair, n, m)
        if hit is not None and int(_digest(pair, n, m), 16) % AUDIT_EVERY:
            return hit
        value = compute()
        if value != hit:
            if hit is not None:
                print(f"cache warning: audit mismatch for {pair} n={n} m={m}: "
                      f"cached {hit}, recomputed {value}", file=sys.stderr)
            self.store(pair, n, m, value)
        return value

    def lookup(self, pair: tuple[str, str], n: int, m: int) -> int | None:
        key = _digest(pair, n, m)
        try:
            # an undecodable byte becomes U+FFFD, so only its line is corrupt
            text = self.path.read_text(encoding="utf-8", errors="replace")
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._warn(f"unreadable cache file {self.path}: {exc}")
            return None
        hit: int | None = None
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if record["key"] == key:
                    hit = int(record["count"])
            except (ValueError, KeyError, TypeError):
                self._warn(f"ignoring corrupt line in {self.path}")
        return hit

    def store(self, pair: tuple[str, str], n: int, m: int, count: int) -> None:
        record = {
            "key": _digest(pair, n, m),
            "pair": list(pair),
            "n": n,
            "m": m,
            "count": str(count),
        }
        line = json.dumps(record) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                fh.write(line)
                fcntl.flock(fh, fcntl.LOCK_UN)
        except OSError as exc:
            self._warn(f"cannot write cache file {self.path}: {exc}")
