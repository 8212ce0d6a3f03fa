"""The on-disk content-addressed store: one atomic blob per artifact.

Layout under the store root::

    <root>/
      objects/<k[:2]>/<key>.json    # one blob per artifact key

There is no index: the blob files are the store. Every blob is a
self-verifying envelope, the canonical JSON of ``{"content_sha256",
"key", "kind", "layout", "payload"}`` in that (sorted) key order;
``layout`` is the :data:`~repro.store.keys.STORE_SCHEMA_VERSION` that
wrote it, a name that sorts before ``payload``. Everything before
``,"payload":`` is the *head*.

:meth:`PlanStore.get_text` is the one read: it checks the head and the
SHA-256 of the payload *text*, so it returns exactly the text
:meth:`~PlanStore.put_text` wrote, with nothing decoded or re-encoded
(:meth:`~PlanStore.get` is one ``json.loads`` of it). Any mismatch,
torn write, or unparseable file degrades to a **miss**, never a crash
or a wrong hit; the caller replans and the next put heals the entry.
:meth:`~PlanStore.verify`, :meth:`~PlanStore.stats` and
:meth:`~PlanStore.gc` parse the same head.

Crash safety is the whole design: a put is one write to a same-directory
tmp file that lands via ``os.replace`` (atomic on POSIX), and a blob torn
anyway fails the SHA-256 check and reads as a corrupt miss. Writers share no
file but their own blob, so concurrent writers of distinct keys never
lose one another's work, and two writers putting the same key converge
on identical bytes. A crash can leave a stale ``*.tmp`` file behind;
:meth:`~PlanStore.gc` removes those, and the blobs of other store
schemas, which no read of this code serves.

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

#: What separates an envelope's head from its payload.
_PAYLOAD_FIELD = ',"payload":'

#: How much of a blob :meth:`PlanStore.stats` and :meth:`PlanStore.gc`
#: read to parse its head.
_HEAD_BYTES = 4096


@dataclass(frozen=True)
class GcResult:
    """What one :meth:`PlanStore.gc` pass removed: stale ``*.tmp`` files,
    and blobs whose head names no store schema or another one."""

    removed_tmp: int
    removed_other_schema: int
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


def _parse_head(text: str) -> tuple[dict[str, Any], int] | None:
    """An envelope's head fields and where its payload text starts, or
    ``None`` if the head does not parse.

    The head ends where the payload field starts: a ``"`` inside a JSON
    string is always escaped, so the first ``,"payload":`` is the field.
    ``text`` may be only a prefix of the blob.
    """
    end = text.find(_PAYLOAD_FIELD)
    if end < 0:
        return None
    try:
        head = json.loads(text[:end] + "}")
    except json.JSONDecodeError:
        return None
    if not isinstance(head, dict):
        return None
    return head, end + len(_PAYLOAD_FIELD)


def _read_head(path: Path) -> dict[str, Any] | None:
    """The head of the blob at ``path``, or ``None`` if unreadable."""
    try:
        with open(path, encoding="utf-8") as handle:
            prefix = handle.read(_HEAD_BYTES)
    except (OSError, UnicodeDecodeError):
        return None
    parsed = _parse_head(prefix)
    return None if parsed is None else parsed[0]


def _payload_text(key: str, text: str, kind: str | None) -> str | None:
    """The payload text of one blob, or ``None`` unless its head names
    ``key``, this store schema and ``kind`` (any kind if ``None``), and
    the payload text hashes to the head's ``content_sha256``.

    The payload is the envelope's last field, so its text runs from the
    head's end to the closing brace; a torn or padded blob fails the
    digest.
    """
    parsed = _parse_head(text)
    if parsed is None:
        return None
    head, start = parsed
    if (
        head.get("key") != key
        or head.get("layout") != STORE_SCHEMA_VERSION
        or (kind is not None and head.get("kind") != kind)
    ):
        return None
    payload = text[start:-1]
    if sha256_hex(payload) != head.get("content_sha256"):
        return None
    return payload


def _other_schema(path: Path) -> bool:
    """Whether the blob at ``path`` has a head naming no store schema or
    another one (a head that does not parse is not judged)."""
    head = _read_head(path)
    return head is not None and head.get("layout") != STORE_SCHEMA_VERSION


def _remove(paths: list[Path]) -> tuple[int, int]:
    """Unlink ``paths``: (files removed, bytes reclaimed). A file that
    is already gone is skipped."""
    removed = reclaimed = 0
    for path in paths:
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            continue
        removed += 1
        reclaimed += size
    return removed, reclaimed


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

    def get_text(self, key: str, kind: str | None = None) -> str | None:
        """The exact payload text put under ``key``, or ``None`` on any
        miss (``kind=None`` accepts any kind).

        A blob that fails the checks in :func:`_payload_text` (torn
        write, bit rot, another schema, a payload rewritten with other
        whitespace) counts ``store.corrupt`` and degrades to a miss so
        the caller replans.
        """
        with obs.span("store.get") as span:
            path = self.blob_path(key)
            try:
                text = path.read_text(encoding="utf-8")
            except OSError:
                self.misses += 1
                span.incr("store.misses")
                return None
            except UnicodeDecodeError:
                text = ""  # not UTF-8: corrupt, like any other bad blob
            payload = _payload_text(key, text, kind)
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

    def get(self, key: str) -> dict[str, Any] | None:
        """The payload stored under ``key``, decoded, or ``None`` on any
        miss (see :meth:`get_text`)."""
        text = self.get_text(key)
        return None if text is None else json.loads(text)

    def put_text(self, key: str, text: str, kind: str = "artifact") -> str:
        """Store the canonical payload text ``text`` under ``key``
        (idempotent; returns ``key``).

        ``text`` must be ``canonical_json`` of the payload: it is hashed
        and wrapped in the envelope as is, which gives the same bytes as
        encoding the whole envelope. The blob lands in one atomic write.
        """
        with obs.span("store.put") as span:
            head = canonical_json(
                {
                    "content_sha256": sha256_hex(text),
                    "key": key,
                    "kind": kind,
                    "layout": STORE_SCHEMA_VERSION,
                }
            )
            envelope = f"{head[:-1]}{_PAYLOAD_FIELD}{text}}}"
            _atomic_write_text(self.blob_path(key), envelope)
            self.puts += 1
            span.incr("store.puts")
            span.incr("store.bytes_written", len(envelope))
        return key

    def put(self, key: str, payload: dict[str, Any], kind: str = "artifact") -> str:
        """Store ``payload`` under ``key``: :meth:`put_text` of its
        canonical JSON (idempotent; returns ``key``)."""
        return self.put_text(key, canonical_json(payload), kind)

    def _blob_files(self) -> list[Path]:
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        return sorted(objects.glob("*/*.json"))

    def gc(self) -> GcResult:
        """Remove what no read serves: the stale ``*.tmp`` files crashed
        writers left behind, and the blobs whose head names no store
        schema or another one (keys fold the schema in, so this code
        never asks for them).

        A blob whose head does not parse stays; ``verify(repair=True)``
        deletes corrupt blobs. Counts ``store.evictions`` per removed
        file.
        """
        with obs.span("store.gc") as span:
            objects = self.root / "objects"
            stale_tmp = sorted(objects.glob("*/*.tmp")) if objects.is_dir() else []
            other_schema = [
                path for path in self._blob_files() if _other_schema(path)
            ]
            removed_tmp, tmp_bytes = _remove(stale_tmp)
            removed_blobs, blob_bytes = _remove(other_schema)
            self.evictions += removed_tmp + removed_blobs
            span.incr("store.evictions", removed_tmp + removed_blobs)
        return GcResult(
            removed_tmp=removed_tmp,
            removed_other_schema=removed_blobs,
            reclaimed_bytes=tmp_bytes + blob_bytes,
        )

    def verify(self, *, repair: bool = False) -> list[str]:
        """Check every blob as :meth:`get_text` would; list the problems.

        With ``repair=True`` the files it names are deleted, stray names
        included (so they become ordinary misses); without it the store is
        left untouched — ``get`` already refuses to return them.
        """
        with obs.span("store.verify"):
            problems: list[str] = []
            bad_paths: list[Path] = []
            for path in self._blob_files():
                key = path.stem
                try:
                    text = path.read_text(encoding="utf-8")
                except (OSError, UnicodeDecodeError) as exc:
                    problems.append(f"{key}: unreadable blob ({exc})")
                    bad_paths.append(path)
                    continue
                if _payload_text(key, text, None) is None:
                    problems.append(
                        f"{key}: digest mismatch, malformed envelope or "
                        "another store schema"
                    )
                    bad_paths.append(path)
            if repair and bad_paths:
                for path in bad_paths:
                    path.unlink(missing_ok=True)
                self.corrupt += len(bad_paths)
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
            kind = (_read_head(path) or {}).get("kind")
            if isinstance(kind, str):
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

