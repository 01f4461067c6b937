"""Content-addressed on-disk result cache.

A verification verdict is a pure function of its inputs (patched source,
seeds, cycles, verifier version), so verdicts are stored under the SHA-256
of exactly those inputs.  Re-running an evaluation then only re-verifies
what changed, and concurrent worker processes share one cache directory
safely: writes are atomic renames, and a lost race simply rewrites
identical content (the payload is a function of the key's inputs).

:class:`ResultCache` is the store; :func:`content_key` builds keys (the
in-memory :class:`repro.artifacts.ArtifactStore` uses them too).
:class:`repro.eval.cache.VerdictCache` is the one on-disk instance.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Optional

from repro.obs.metrics import get_registry


def content_key(*parts: str) -> str:
    """The content address of one result: SHA-256 over NUL-separated parts.

    Every input that can change the result must appear in ``parts`` (include
    a version string so semantic changes key old entries out); anything that
    cannot -- worker counts, directory paths -- must not.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


class ResultCache:
    """A two-level sharded directory of ``<k[:2]>/<k[2:4]>/<key>.json`` files.

    Two levels of hash-prefix sharding keep every directory small (256
    entries of fanout each) at the 10k+ entry counts a verdict cache
    reaches, where a flat directory degrades listing and creation.
    Files in any other layout are ignored: their keys miss and are
    recomputed.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.swept = 0
        self._sweep_stale_tmp_files()

    #: A ``*.tmp<pid>`` file older than this is an orphan from a killed
    #: writer (a live put holds its tmp file for milliseconds).
    STALE_TMP_SECONDS = 600.0

    def _sweep_stale_tmp_files(self) -> None:
        """Remove orphaned ``*.tmp<pid>`` files left by killed writers.

        A writer that dies between ``write_text`` and ``os.replace`` leaks
        its temporary file.  Orphans are invisible to :meth:`get` and
        :meth:`__len__` (neither matches ``*.json.tmp*``), but they would
        accumulate forever, so each cache open sweeps them.  Only files
        comfortably older than any live put's write-to-rename window are
        touched, so concurrent writers in other processes are never raced.
        """
        cutoff = time.time() - self.STALE_TMP_SECONDS
        for stale in self.root.glob("*/*/*.json.tmp*"):
            try:
                if stale.stat().st_mtime < cutoff:
                    stale.unlink()
                    self.swept += 1
                    get_registry().inc("runtime.cache.stale_tmp_swept")
            except OSError:
                pass

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / key[2:4] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The stored payload, or ``None`` on a miss.

        A present entry that is not a UTF-8 JSON object (truncated write
        survivor, disk corruption), or that :meth:`well_formed` rejects,
        counts as both a miss and a corrupt entry; the caller recomputes
        and :meth:`put` overwrites the bad file.
        """
        try:
            data = self._path(key).read_bytes()
        except OSError:
            self.misses += 1
            get_registry().inc("runtime.cache.misses")
            return None
        try:
            payload = json.loads(data.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = None
        if not isinstance(payload, dict) or not self.well_formed(payload):
            self.corrupt += 1
            self.misses += 1
            registry = get_registry()
            registry.inc("runtime.cache.corrupt_entries")
            registry.inc("runtime.cache.misses")
            return None
        self.hits += 1
        get_registry().inc("runtime.cache.hits")
        return payload

    def well_formed(self, payload: dict) -> bool:
        """Whether a stored JSON object is a payload this cache could have
        written; a subclass narrows it to its own payload shape."""
        return True

    def put(self, key: str, payload: dict) -> None:
        """Persist a payload (atomic: visible either fully or not at all)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_name(f"{path.name}.tmp{os.getpid()}")
        temporary.write_text(json.dumps(payload, sort_keys=True))
        os.replace(temporary, path)

    def stats(self) -> dict:
        """This instance's traffic counters (process-local, since open)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_entries": self.corrupt,
            "stale_tmp_swept": self.swept,
        }

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*/*.json"))
