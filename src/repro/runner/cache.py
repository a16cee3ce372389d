"""Content-addressed result cache for simulation jobs.

Entries are keyed by :meth:`SimJob.spec_hash` — a SHA-256 over the job's
canonical JSON salted with ``repro.__version__`` — so a re-run of a figure or
an overlapping sweep skips every already-simulated cell, and upgrading the
simulator invalidates stale results automatically.

Two backends share one interface:

* **memory** (the default, ``directory=None``) — deduplicates within one
  process; used by the default runner so independent figure harnesses share
  results for free.
* **disk** (``directory=...``) — persists encoded results as one JSON file
  per entry, sharded into 256 two-hex-character subdirectories
  (``ab/<sha256>.json``) so many concurrent runs can share one directory
  without creating a single huge flat listing.  Set the ``REPRO_CACHE_DIR``
  environment variable to give the default runner a persistent cache.
  Corrupted or mismatched entries are detected, counted, deleted, and
  treated as misses.

A disk-backed cache keeps a **write-through memory layer** in front of the
files: every payload stored or loaded in this process is retained in memory,
so a repeated ``lookup()`` of the same key skips re-reading and re-parsing
the JSON file.  :attr:`ResultCache.stats` breaks hits down into
``memory_hits`` and ``disk_hits`` so the layer's effect is observable.

**Concurrency.**  Writes go to a temp file in the destination shard and are
published with an atomic ``os.replace``, so a reader — even one racing
``prune()`` or ``clear()`` in another process — only ever observes a missing
entry or a complete one, never a torn write.  Two processes storing the same
key both write the identical deterministic entry; last rename wins.

Runs sharing a directory also share work.  Before simulating a miss, a run
claims its key (:meth:`~ResultCache.claim`) by creating ``ab/<sha256>.claim``
with ``O_EXCL``; the file names the owner's host and pid.  Other runs wait
(:meth:`~ResultCache.wait`) until the claim is released and then read the
entry the owner stored.  The owner stores before it releases, so a released
claim with no entry means the owner's job failed, and the waiter claims and
simulates the spec itself.  A claim whose owner ran on this host and is no
longer running is taken over; two waiters racing that takeover can at worst
simulate the same deterministic spec twice.  A claim held by a process on
another host is never taken over.

The cache stores *encoded* payloads (see :mod:`repro.runner.serialization`);
the runner decodes a fresh object per lookup so cached results are never
shared mutable state.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.errors import ConfigurationError
from repro.runner.job import SimJob

#: Environment variable naming the on-disk cache directory for the default runner.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_ENTRY_SCHEMA = 1

#: Hex-prefix length of the shard subdirectories (``ab/<sha256>.json``).
_SHARD_WIDTH = 2

#: Seconds between checks of a claim file another run holds.
CLAIM_POLL_S = 0.05


def _is_entry_name(stem: str) -> bool:
    """Whether a file stem looks like a cache key (64 lowercase hex chars)."""
    return len(stem) == 64 and all(c in "0123456789abcdef" for c in stem)


def _is_shard_name(name: str) -> bool:
    """Whether a directory name is a shard prefix (2 lowercase hex chars)."""
    return len(name) == _SHARD_WIDTH and all(c in "0123456789abcdef" for c in name)


class ResultCache:
    """Spec-hash keyed store of encoded simulation results."""

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        version: Optional[str] = None,
    ) -> None:
        if version is None:
            import repro

            version = repro.__version__
        self.version = version
        self.directory = (
            Path(directory).expanduser() if directory is not None else None
        )
        if self.directory is not None:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigurationError(
                    f"cannot use {self.directory} as a result-cache directory "
                    f"(check the {CACHE_DIR_ENV} environment variable): {exc}"
                ) from None
        self._memory: Dict[str, Dict[str, object]] = {}
        self.hits = 0
        self.misses = 0
        self.corrupted = 0
        #: Hits served by the write-through memory layer (no file read).
        self.memory_hits = 0
        #: Hits that had to read and parse an on-disk entry.
        self.disk_hits = 0

    # ------------------------------------------------------------------
    # Core interface
    # ------------------------------------------------------------------
    def key_for(self, job: SimJob) -> str:
        return job.spec_hash(self.version)

    def lookup(self, job: SimJob, key: Optional[str] = None) -> Optional[Dict[str, object]]:
        """The encoded payload for ``job``, or ``None`` on a miss.

        ``key`` lets callers that already computed :meth:`key_for` skip a
        redundant canonicalize-and-hash pass.
        """
        key = key or self.key_for(job)
        payload = self._memory.get(key)
        if payload is not None:
            self.hits += 1
            self.memory_hits += 1
            return payload
        if self.directory is not None:
            payload = self._load_from_disk(key, job)
            if payload is not None:
                # Write-through layer: retain the parsed payload so the next
                # lookup of this key skips the file read entirely.
                self._memory[key] = payload
                self.hits += 1
                self.disk_hits += 1
                return payload
        self.misses += 1
        return None

    def store(
        self, job: SimJob, payload: Dict[str, object], key: Optional[str] = None
    ) -> None:
        """Record the encoded result payload for ``job``."""
        key = key or self.key_for(job)
        self._memory[key] = payload
        if self.directory is not None:
            entry = {
                "schema": _ENTRY_SCHEMA,
                "version": self.version,
                "job": job.to_dict(),
                "result": payload,
            }
            path = self._path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            # Write-then-rename in the destination shard (same filesystem) so
            # concurrent runners never observe a half-written entry.
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=f".{key[:16]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(entry, handle)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise

    def claim(self, key: str) -> bool:
        """Try to become the one run that simulates ``key``.

        Returns ``True`` when this process now owns the key and must
        :meth:`store` its result (if any) and then :meth:`release` it;
        ``False`` when another live run holds the claim or has already
        stored the entry.  A memory-only cache always owns the key and
        touches no file.
        """
        if self.directory is None:
            return True
        path = self._claim_path(key)
        while True:
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileNotFoundError:
                path.parent.mkdir(parents=True, exist_ok=True)
                continue
            except FileExistsError:
                if _claim_is_live(path):
                    return False
                try:
                    path.unlink()  # take over a dead owner's claim
                except FileNotFoundError:
                    pass
                continue
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(f"{socket.gethostname()} {os.getpid()}")
            except BaseException:
                path.unlink()  # an ownerless claim would look live forever
                raise
            break
        # An owner stores before it releases, so an entry stored between the
        # caller's lookup and this claim is visible now.
        if self._path_for(key).exists():
            self.release(key)
            return False
        return True

    def release(self, key: str) -> None:
        """Drop this process's claim on ``key`` (after storing its entry)."""
        if self.directory is None:
            return
        try:
            self._claim_path(key).unlink()
        except FileNotFoundError:
            pass

    def wait(self, key: str) -> None:
        """Block while another live run holds the claim on ``key``.

        Polls the claim file only, every :data:`CLAIM_POLL_S` seconds; the
        entry is for the caller to :meth:`lookup` once this returns.
        """
        if self.directory is None:
            return
        path = self._claim_path(key)
        while _claim_is_live(path):
            time.sleep(CLAIM_POLL_S)

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """Hit/miss counters plus entry counts for both backends.

        ``hits`` is the total; ``memory_hits`` and ``disk_hits`` split it by
        which layer served the payload (every disk hit is retained in memory,
        so repeat lookups of a key count as memory hits).  ``entries``
        matches ``len(self)``; ``disk_entries`` and ``memory_entries`` break
        it down per backend (``disk_entries`` is 0 for a memory-only cache).
        """
        disk = self._disk_entry_count()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "corrupted": self.corrupted,
            "entries": len(self),
            "disk_entries": disk,
            "memory_entries": len(self._memory),
        }

    def _iter_entry_paths(self) -> Iterator[Path]:
        """Every on-disk file that is actually a cache entry.

        Yields sharded ``ab/<sha256>.json`` entries; anything else living in
        the directory — foreign JSON artifacts, unrelated subdirectories,
        claim files — is skipped.
        """
        if self.directory is None:
            return
        for shard in self.directory.iterdir():
            if not shard.is_dir() or not _is_shard_name(shard.name):
                continue
            for path in shard.glob("*.json"):
                if _is_entry_name(path.stem):
                    yield path

    def _disk_entry_count(self) -> int:
        """Number of on-disk files that are actually cache entries.

        Counts only sharded ``<sha256>.json`` files: a cache directory that
        (against advice) also holds other JSON artifacts must not have them
        reported as entries.
        """
        return sum(1 for _ in self._iter_entry_paths())

    def __len__(self) -> int:
        """Number of distinct cached entries.

        For a disk-backed cache this is the on-disk entry count — disk is
        the source of truth, and every memory entry was either loaded from
        or written through to disk — counting only files that follow the
        ``<sha256>.json`` naming scheme.  Memory-only caches count their
        in-process entries.
        """
        if self.directory is not None:
            return self._disk_entry_count()
        return len(self._memory)

    def prune(self) -> int:
        """Delete stale disk entries.

        Entries are version-salted, so a cache directory shared across
        simulator upgrades accumulates files no current run can ever hit
        again.  ``prune()`` removes every entry whose recorded ``version``
        (or schema) differs from this cache's — unreadable files count as
        stale too — and returns the number of files removed.  Nothing
        calls it automatically; call ``cache_from_env().prune()`` now and then
        so a long-lived ``REPRO_CACHE_DIR`` does not grow without bound.
        """
        if self.directory is None:
            return 0
        removed = 0
        for path in list(self._iter_entry_paths()):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                stale = (
                    entry.get("schema") != _ENTRY_SCHEMA
                    or entry.get("version") != self.version
                )
            except FileNotFoundError:
                continue  # lost a race with another pruner/clearer
            except (OSError, ValueError):
                stale = True
            if stale:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def clear(self) -> None:
        """Drop every entry (and reset nothing else — counters persist).

        Like :meth:`prune`, only files following the cache's
        ``ab/<sha256>.json`` naming scheme are unlinked:
        foreign JSON artifacts living in the cache directory survive a
        ``clear()``.
        """
        self._memory.clear()
        for path in list(self._iter_entry_paths()):
            try:
                path.unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Disk backend
    # ------------------------------------------------------------------
    def _path_for(self, key: str) -> Path:
        """The sharded path a key is written to (``ab/<sha256>.json``)."""
        assert self.directory is not None
        return self.directory / key[:_SHARD_WIDTH] / f"{key}.json"

    def _claim_path(self, key: str) -> Path:
        """The claim file next to a key's entry (``ab/<sha256>.claim``)."""
        assert self.directory is not None
        return self.directory / key[:_SHARD_WIDTH] / f"{key}.claim"

    def _load_from_disk(self, key: str, job: SimJob) -> Optional[Dict[str, object]]:
        path = self._path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry["schema"] != _ENTRY_SCHEMA:
                raise ValueError(f"unsupported cache schema {entry['schema']!r}")
            if entry["version"] != self.version:
                raise ValueError("cache entry version mismatch")
            if entry["job"] != job.to_dict():
                raise ValueError("cache entry does not match the requested job")
            result = entry["result"]
            if not isinstance(result, dict):
                raise ValueError("cache entry result is not an object")
            return result
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupted, truncated, or stale entry: drop it and re-simulate.
            self.corrupted += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None


def _claim_is_live(path: Path) -> bool:
    """Whether a claim file exists and its owner may still be running.

    Only an owner on this host can be checked.  A claim still being written
    (no owner recorded yet) counts as live.
    """
    try:
        host, _, pid = path.read_text(encoding="utf-8").rpartition(" ")
    except FileNotFoundError:
        return False
    if host != socket.gethostname() or not pid.isdigit():
        return True
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass  # alive, but owned by another user
    return True


def cache_from_env() -> ResultCache:
    """A cache honouring ``REPRO_CACHE_DIR`` (memory-backed when unset)."""
    return ResultCache(directory=os.environ.get(CACHE_DIR_ENV) or None)
