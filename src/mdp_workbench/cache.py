"""Content-addressed result cache for enumeration payloads.

Vertex and kernel enumerations are the only expensive calls in the toolbox,
and their results depend on nothing but the metric, so they are cached on
disk keyed by a hash of the canonical metric JSON plus an operation tag.
Entries store the payload as the exact string a fresh computation would
print, which makes the hit/miss distinction invisible to byte-level diffing.

Anything unreadable — truncated files, foreign versions, stale hashes — is
treated as a miss and silently recomputed.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

TOOL_VERSION = "0.1.0"


def cache_dir(explicit: Optional[str] = None) -> Path:
    """Resolve the cache directory: flag, then environment, then default."""
    if explicit:
        return Path(explicit)
    env = os.environ.get("MDP_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "mdp-workbench"


def cache_key(operation: str, canonical_metric: str) -> str:
    # Imported here, its only use: hashlib loads OpenSSL, a few MB of
    # resident memory that importing the package should not cost.
    import hashlib

    digest = hashlib.sha256()
    digest.update(operation.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_metric.encode("utf-8"))
    return digest.hexdigest()


def load(directory: Path, operation: str, canonical_metric: str) -> Optional[str]:
    """The cached payload string, or None when absent or unusable."""
    key = cache_key(operation, canonical_metric)
    path = directory / f"{key}.json"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        if (
            isinstance(entry, dict)
            and entry.get("key") == key
            and entry.get("tool_version") == TOOL_VERSION
            and entry.get("op") == operation
            and entry.get("metric") == canonical_metric
            and isinstance(entry.get("payload"), str)
        ):
            return entry["payload"]
    except (OSError, ValueError):
        pass
    return None


def store(directory: Path, operation: str, canonical_metric: str, payload: str) -> None:
    """Write an entry atomically; failures to cache are never fatal."""
    key = cache_key(operation, canonical_metric)
    entry = {
        "key": key,
        "tool_version": TOOL_VERSION,
        "op": operation,
        "metric": canonical_metric,
        "payload": payload,
    }
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle)
            os.replace(tmp_name, directory / f"{key}.json")
        except BaseException:
            os.unlink(tmp_name)
            raise
    except OSError:
        pass
