"""Persistent on-disk evaluation cache.

Repeated harness runs and benchmark sweeps re-evaluate the very same
precision configurations over and over: the search algorithms are
deterministic, so a second ``mixpbench run`` repeats every execution
the first one already paid for.  :class:`EvaluationCache` stores the
result of each *fresh* evaluation as one JSON line under a cache
directory (``results/cache/`` by default) so later evaluators can
replay it without executing the program.

A cached record is only valid for the exact evaluation context that
produced it: program identity and input seed, quality metric and
threshold, machine model, timing methodology (runs per configuration,
measurement noise, modeled vs wall clock) and simulated build/run
costs.  All of those are folded into a *context fingerprint*; a cache
line whose fingerprint does not match is simply ignored.  Bumping
:data:`CACHE_SCHEMA_VERSION` (part of the fingerprint) invalidates
every existing cache in one stroke — the versioned-invalidation knob
for format changes.

Replayed evaluations are charged to the *simulated* analysis clock
exactly as fresh ones (same ``analysis_seconds``, same EV increment),
so SU/EV/AC tables are identical with and without the cache; only real
host time is saved.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Mapping

__all__ = ["EvaluationCache", "CACHE_SCHEMA_VERSION", "context_fingerprint"]

#: bump to invalidate all previously written caches
CACHE_SCHEMA_VERSION = 1


def context_fingerprint(**fields: Any) -> str:
    """Stable hash of an evaluation context.

    Any change to any field — program, seed, metric, threshold,
    machine, timing parameters, schema version — yields a different
    fingerprint and therefore a cold cache.
    """
    fields = dict(fields)
    fields["schema"] = CACHE_SCHEMA_VERSION
    blob = json.dumps(fields, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


class EvaluationCache:
    """JSON-lines cache of evaluation records, one file per program.

    The store is append-only: lines are loaded once per (program,
    context) on first access, kept in memory, and new records are
    appended under a lock (single-line appends keep concurrent writers
    from corrupting each other).  Records are plain dictionaries — the
    evaluator owns the schema; the cache only keys and persists them.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._lock = threading.Lock()
        #: (program, context) -> {config_digest: record}
        self._loaded: dict[tuple[str, str], dict[str, dict]] = {}
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _path(self, program: str) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in program)
        return self.directory / f"{safe}.jsonl"

    def _table(self, program: str, context: str) -> dict[str, dict]:
        key = (program, context)
        table = self._loaded.get(key)
        if table is not None:
            return table
        table = {}
        path = self._path(program)
        if path.exists():
            for line in path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from a crashed run; skip
                if entry.get("context") == context and "config" in entry:
                    table[str(entry["config"])] = entry.get("record", {})
        self._loaded[key] = table
        return table

    def get(self, program: str, context: str, config_digest: str) -> dict | None:
        """The cached record for one configuration, or ``None``."""
        with self._lock:
            record = self._table(program, context).get(config_digest)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def contains(self, program: str, context: str, config_digest: str) -> bool:
        """Whether a record is cached, without counting a hit or miss
        (a membership probe ahead of the counted :meth:`get`)."""
        with self._lock:
            return config_digest in self._table(program, context)

    def put(
        self,
        program: str,
        context: str,
        config_digest: str,
        record: Mapping[str, Any],
    ) -> None:
        """Persist one fresh-evaluation record."""
        entry = {
            "context": context,
            "config": config_digest,
            "record": dict(record),
        }
        line = json.dumps(entry, sort_keys=True, default=str)
        with self._lock:
            self._table(program, context)[config_digest] = dict(record)
            self.directory.mkdir(parents=True, exist_ok=True)
            with self._path(program).open("a") as handle:
                handle.write(line + "\n")
        self.writes += 1

    def __len__(self) -> int:
        with self._lock:
            return sum(len(t) for t in self._loaded.values())
