"""The on-disk content-addressed store: atomic blobs + an index manifest.

Layout under the store root::

    <root>/
      index.json                    # the manifest: key -> {kind, size, sha}
      objects/<k[:2]>/<key>.json    # one blob per artifact key

Every blob is a self-verifying envelope — the canonical JSON of
``{"key", "kind", "content_sha256", "payload"}`` — so a read needs nothing
but the file: the payload's content digest is recomputed and compared on
every :meth:`PlanStore.get`. Any mismatch, torn write, or unparseable file
degrades to a **miss**, never a crash or a wrong hit; the caller replans
and the next :meth:`~PlanStore.put` heals the entry.

Crash safety is the whole design: all writes go to a same-directory tmp
file and land via ``os.replace`` (atomic on POSIX), an invariant reprolint
rule R008 machine-checks for this package. The manifest is an *advisory*
index — reads never require it, so a lost manifest update under concurrent
writers costs at most a ``gc``-collectable orphan, and two processes
putting the same key converge on identical bytes.

Observability: ``get``/``put``/``gc``/``verify`` run under
:mod:`repro.obs` spans (I/O wall time) and bump ``store.hits``,
``store.misses``, ``store.puts``, ``store.corrupt``, and
``store.evictions`` counters; the same session totals are kept on the
instance for :meth:`~PlanStore.stats`.
"""

from __future__ import annotations

import json
import os
import secrets
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import obs
from repro.exceptions import ReproError
from repro.store.canonical import canonical_json, sha256_hex
from repro.store.keys import STORE_SCHEMA_VERSION

_KEY_HEX_LEN = 64


@dataclass(frozen=True)
class GcResult:
    """What one :meth:`PlanStore.gc` pass removed."""

    removed_blobs: int
    dropped_entries: int
    reclaimed_bytes: int


@dataclass(frozen=True)
class StoreStats:
    """A store's persistent inventory plus this process's session traffic."""

    root: str
    entries: int
    blobs: int
    total_bytes: int
    kinds: dict[str, int]
    orphan_blobs: int
    hits: int
    misses: int
    puts: int
    corrupt: int
    evictions: int

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (the ``iris store stats --json`` payload)."""
        return {
            "root": self.root,
            "entries": self.entries,
            "blobs": self.blobs,
            "total_bytes": self.total_bytes,
            "kinds": dict(sorted(self.kinds.items())),
            "orphan_blobs": self.orphan_blobs,
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
                "corrupt": self.corrupt,
                "evictions": self.evictions,
            },
        }


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically: same-dir tmp + ``os.replace``.

    The tmp file carries the writer's PID, thread id and a random suffix,
    so concurrent processes and threads never collide on it; the final
    rename is atomic, so readers observe either the old file or the
    complete new one — never a torn write.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}"
        f".{secrets.token_hex(4)}.tmp"
    )
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


class PlanStore:
    """A content-addressed artifact store rooted at one directory.

    Construction is cheap and touches nothing on disk; the directory tree
    appears on the first :meth:`put`. Instances carry only the root path
    and session counters, so they are picklable and safe to hand to the
    design registry or worker-free sweep code.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0
        self.evictions = 0

    # -- paths ---------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """The advisory index file."""
        return self.root / "index.json"

    def blob_path(self, key: str) -> Path:
        """Where the blob for ``key`` lives (whether or not it exists)."""
        self._check_key(key)
        return self.root / "objects" / key[:2] / f"{key}.json"

    @staticmethod
    def _check_key(key: str) -> None:
        if len(key) != _KEY_HEX_LEN or any(
            c not in "0123456789abcdef" for c in key
        ):
            raise ReproError(f"malformed store key {key!r}")

    # -- manifest ------------------------------------------------------------

    def _load_manifest(self) -> dict[str, dict[str, Any]]:
        """The manifest's entry map; tolerant of absence and corruption.

        A missing or unreadable manifest is an empty index, not an error:
        blobs are self-verifying, so the worst case is ``stats`` and
        ``gc`` seeing orphans until the next ``put`` rewrites it.
        """
        try:
            data = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}
        if (
            not isinstance(data, dict)
            or data.get("store_schema") != STORE_SCHEMA_VERSION
            or not isinstance(data.get("entries"), dict)
        ):
            return {}
        return data["entries"]

    def _write_manifest(self, entries: dict[str, dict[str, Any]]) -> None:
        _atomic_write_text(
            self.manifest_path,
            canonical_json(
                {
                    "store_schema": STORE_SCHEMA_VERSION,
                    "entries": dict(sorted(entries.items())),
                }
            ),
        )

    # -- core API ------------------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        """The payload stored under ``key``, or ``None`` on any miss.

        The content digest is re-verified on every read; corruption of
        any shape (torn write, bit rot, truncation, schema drift) counts
        ``store.corrupt`` and degrades to a miss so the caller replans.
        """
        with obs.span("store.get") as span:
            path = self.blob_path(key)
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                self.misses += 1
                span.incr("store.misses")
                return None
            payload = self._verified_payload(key, text)
            if payload is None:
                self.corrupt += 1
                self.misses += 1
                span.incr("store.corrupt")
                span.incr("store.misses")
                return None
            self.hits += 1
            span.incr("store.hits")
            span.incr("store.bytes_read", len(text))
            return payload

    @staticmethod
    def _verified_payload(key: str, text: str) -> dict[str, Any] | None:
        """Decode one blob envelope; ``None`` unless everything checks out."""
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError:
            return None
        if not isinstance(envelope, dict) or envelope.get("key") != key:
            return None
        payload = envelope.get("payload")
        content_sha = envelope.get("content_sha256")
        if payload is None or not isinstance(content_sha, str):
            return None
        try:
            actual = sha256_hex(canonical_json(payload))
        except ReproError:
            return None
        if actual != content_sha:
            return None
        return payload

    def put(self, key: str, payload: dict[str, Any], kind: str = "artifact") -> str:
        """Store ``payload`` under ``key`` (idempotent; returns ``key``).

        The blob lands atomically before the manifest entry does, so a
        crash between the two leaves a readable blob the next manifest
        write or ``verify --repair`` re-indexes.
        """
        with obs.span("store.put") as span:
            text = canonical_json(payload)
            envelope = canonical_json(
                {
                    "key": key,
                    "kind": kind,
                    "content_sha256": sha256_hex(text),
                    "payload": payload,
                }
            )
            _atomic_write_text(self.blob_path(key), envelope)
            entries = self._load_manifest()
            entries[key] = {
                "kind": kind,
                "size": len(envelope),
                "content_sha256": sha256_hex(text),
            }
            self._write_manifest(entries)
            self.puts += 1
            span.incr("store.puts")
            span.incr("store.bytes_written", len(envelope))
        return key

    def _blob_files(self) -> list[Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.json"))

    def gc(self) -> GcResult:
        """Collect garbage: orphan blobs, stale tmp files, dead entries.

        The manifest is the root set — blobs without a manifest entry are
        removed (they are at worst re-creatable cache entries), manifest
        entries without a blob are dropped. Counts ``store.evictions``
        per removed blob.
        """
        with obs.span("store.gc") as span:
            entries = self._load_manifest()
            removed = 0
            reclaimed = 0
            seen: set[str] = set()
            for path in self._blob_files():
                key = path.stem
                if key in entries:
                    seen.add(key)
                    continue
                try:
                    reclaimed += path.stat().st_size
                    path.unlink()
                except OSError:
                    continue
                removed += 1
            objects = self.root / "objects"
            stale_tmp = sorted(objects.glob("*/*.tmp")) if objects.is_dir() else []
            for path in stale_tmp:
                path.unlink(missing_ok=True)
            dropped = len(entries) - len(seen)
            if dropped:
                self._write_manifest(
                    {key: entries[key] for key in sorted(seen)}
                )
            self.evictions += removed
            span.incr("store.evictions", removed)
        return GcResult(
            removed_blobs=removed,
            dropped_entries=dropped,
            reclaimed_bytes=reclaimed,
        )

    def verify(self, *, repair: bool = False) -> list[str]:
        """Check every blob against its digest; list the problems found.

        With ``repair=True`` corrupt blobs are deleted and their manifest
        entries dropped (so they become ordinary misses); without it the
        store is left untouched — ``get`` already refuses to return them.
        """
        with obs.span("store.verify"):
            entries = self._load_manifest()
            problems: list[str] = []
            bad_keys: list[str] = []
            for path in self._blob_files():
                key = path.stem
                try:
                    text = path.read_text(encoding="utf-8")
                except OSError as exc:
                    problems.append(f"{key}: unreadable blob ({exc})")
                    bad_keys.append(key)
                    continue
                if self._verified_payload(key, text) is None:
                    problems.append(f"{key}: digest mismatch or malformed envelope")
                    bad_keys.append(key)
                elif key not in entries:
                    problems.append(f"{key}: valid blob missing from manifest")
            for key in sorted(set(entries) - {p.stem for p in self._blob_files()}):
                problems.append(f"{key}: manifest entry without blob")
            if repair and bad_keys:
                for key in bad_keys:
                    self.blob_path(key).unlink(missing_ok=True)
                    entries.pop(key, None)
                self._write_manifest(entries)
                self.corrupt += len(bad_keys)
        return problems

    def stats(self) -> StoreStats:
        """Inventory the store on disk plus this instance's session traffic."""
        entries = self._load_manifest()
        blobs = self._blob_files()
        kinds: dict[str, int] = {}
        for meta in entries.values():
            kind = str(meta.get("kind", "artifact"))
            kinds[kind] = kinds.get(kind, 0) + 1
        total_bytes = 0
        for path in blobs:
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
        orphans = sum(1 for path in blobs if path.stem not in entries)
        return StoreStats(
            root=str(self.root),
            entries=len(entries),
            blobs=len(blobs),
            total_bytes=total_bytes,
            kinds=kinds,
            orphan_blobs=orphans,
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
            corrupt=self.corrupt,
            evictions=self.evictions,
        )

    def __repr__(self) -> str:
        return f"PlanStore({str(self.root)!r})"
