"""The on-disk content-addressed store: one atomic blob per artifact.

Layout under the store root::

    <root>/
      objects/<k[:2]>/<key>.json    # one blob per artifact key

There is no index: the blob files are the store. Every blob is a
self-verifying envelope — the canonical JSON of ``{"content_sha256",
"key", "kind", "payload"}``, keys in that (sorted) order — so a read needs
nothing but the file: the payload's content digest is recomputed and
compared on every :meth:`PlanStore.get`. Any mismatch, torn write, or
unparseable file degrades to a **miss**, never a crash or a wrong hit;
the caller replans and the next :meth:`~PlanStore.put` heals the entry.
:meth:`~PlanStore.stats` reads each blob's ``kind`` from the head of its
envelope, which the key order puts before the payload.

Crash safety is the whole design: a :meth:`~PlanStore.put` is one write
to a same-directory tmp file that lands via ``os.replace`` (atomic on
POSIX), an invariant reprolint rule R008 machine-checks for this package.
Writers share no file but their own blob, so concurrent writers of
distinct keys never lose one another's work, and two writers putting the
same key converge on identical bytes. A crash can leave a stale ``*.tmp``
file behind; :meth:`~PlanStore.gc` removes those.

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

_KEY_HEX_LEN = 64

#: What separates an envelope's head (digest, key, kind) from its payload.
_PAYLOAD_FIELD = ',"payload":'

#: How much of a blob :meth:`PlanStore.stats` reads to find its kind.
_HEAD_BYTES = 4096


@dataclass(frozen=True)
class GcResult:
    """What one :meth:`PlanStore.gc` pass removed."""

    removed_tmp: int
    reclaimed_bytes: int


@dataclass(frozen=True)
class StoreStats:
    """A store's persistent inventory plus this process's session traffic."""

    root: str
    blobs: int
    total_bytes: int
    kinds: dict[str, int]
    hits: int
    misses: int
    puts: int
    corrupt: int
    evictions: int

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (the ``iris store stats --json`` payload)."""
        return {
            "root": self.root,
            "blobs": self.blobs,
            "total_bytes": self.total_bytes,
            "kinds": dict(sorted(self.kinds.items())),
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


def _blob_kind(path: Path) -> str | None:
    """The ``kind`` in a blob's envelope head, or ``None`` if unreadable.

    The head ends where the payload field starts: a ``"`` inside a JSON
    string is always escaped, so the first ``,"payload":`` is the field.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            prefix = handle.read(_HEAD_BYTES)
    except (OSError, UnicodeDecodeError):
        return None
    end = prefix.find(_PAYLOAD_FIELD)
    if end < 0:
        return None
    try:
        head = json.loads(prefix[:end] + "}")
    except json.JSONDecodeError:
        return None
    kind = head.get("kind") if isinstance(head, dict) else None
    return kind if isinstance(kind, str) else None


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

        The payload is encoded and hashed once; its text is wrapped in the
        envelope as is, which gives the same bytes as encoding the whole
        envelope. The blob lands in one atomic write.
        """
        with obs.span("store.put") as span:
            text = canonical_json(payload)
            head = canonical_json(
                {"content_sha256": sha256_hex(text), "key": key, "kind": kind}
            )
            envelope = f"{head[:-1]}{_PAYLOAD_FIELD}{text}}}"
            _atomic_write_text(self.blob_path(key), envelope)
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
        """Remove the stale ``*.tmp`` files crashed writers left behind.

        Every blob is a live entry (there is no index to fall out of), so
        ``gc`` never removes one; ``verify(repair=True)`` deletes corrupt
        blobs. Counts ``store.evictions`` per removed file.
        """
        with obs.span("store.gc") as span:
            objects = self.root / "objects"
            stale_tmp = sorted(objects.glob("*/*.tmp")) if objects.is_dir() else []
            removed = 0
            reclaimed = 0
            for path in stale_tmp:
                try:
                    size = path.stat().st_size
                    path.unlink()
                except OSError:
                    continue
                removed += 1
                reclaimed += size
            self.evictions += removed
            span.incr("store.evictions", removed)
        return GcResult(removed_tmp=removed, reclaimed_bytes=reclaimed)

    def verify(self, *, repair: bool = False) -> list[str]:
        """Check every blob against its digest; list the problems found.

        With ``repair=True`` corrupt blobs are deleted (so they become
        ordinary misses); without it the store is left untouched — ``get``
        already refuses to return them.
        """
        with obs.span("store.verify"):
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
            if repair and bad_keys:
                for key in bad_keys:
                    self.blob_path(key).unlink(missing_ok=True)
                self.corrupt += len(bad_keys)
        return problems

    def stats(self) -> StoreStats:
        """Inventory the store on disk plus this instance's session traffic.

        ``kinds`` counts blobs by the ``kind`` in their envelope head; a
        blob whose head does not parse counts in ``blobs`` only (``verify``
        names it).
        """
        blobs = self._blob_files()
        kinds: dict[str, int] = {}
        total_bytes = 0
        for path in blobs:
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            kind = _blob_kind(path)
            if kind is not None:
                kinds[kind] = kinds.get(kind, 0) + 1
        return StoreStats(
            root=str(self.root),
            blobs=len(blobs),
            total_bytes=total_bytes,
            kinds=kinds,
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
            corrupt=self.corrupt,
            evictions=self.evictions,
        )

    def __repr__(self) -> str:
        return f"PlanStore({str(self.root)!r})"

