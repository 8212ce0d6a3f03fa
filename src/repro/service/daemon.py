"""The planner daemon: a long-lived JSON-over-TCP service over the planner.

``iris serve`` wraps :class:`PlannerService`: an acceptor thread feeds a
*bounded* request queue drained by a small pool of worker threads, each of
which runs one planning job at a time through the ordinary
:mod:`repro.core.engine` backends (``jobs=N`` inside a job fans out to
worker processes exactly as in batch mode). The service adds three things
the batch planner doesn't have:

**Cache-aside over the store.** Every job is keyed with
:func:`repro.store.keys.service_request_key` — the same function the
batch planner's ``store=`` path uses — so a warm
:class:`~repro.store.PlanStore` answers repeat requests without planning,
and plans the daemon computes are checkpointed for the CLI to reuse. A
store hit serves the blob's verified payload text as is
(:meth:`~repro.store.PlanStore.get_text`): it decodes nothing, encodes
nothing and caches no plan.

**Single-flight coalescing.** Concurrent submissions with the same key
collapse onto one in-flight job: followers get the *same* job id back
(``coalesced: true``) and read the same canonical result bytes. N clients
asking for one uncached plan cost exactly one cold plan.

**Incremental replanning.** A submission may carry a
:class:`~repro.region.delta.RegionDelta`; when the *base* region's plan
is available (in the in-memory LRU, or decoded once from the store into
it) the job runs
:func:`repro.service.apply_delta` instead of a cold plan — byte-identical
output, typically ~an order of magnitude faster (``outcome: "patched"``).

Every job outcome is counted (``queued``/``coalesced``/``store``/
``patched``/``cold``/``rejected``/``completed``/``failed``/``timeouts``)
and mirrored into :mod:`repro.obs` under ``service.*``, so the stampede
and smoke tests can assert "exactly one cold plan" from the counters.

A planned or patched job encodes its plan once, as
:func:`~repro.store.canonical_json` of its ``full=True`` dict, serves that
text verbatim to every coalesced client (bit-identical bytes by
construction) and stores the same text. A store hit serves exactly
those bytes again: the store returns a payload only when its text
hashes to the digest recorded when it was put. The encoding holds no
run statistics, so the bytes do not depend on which worker thread
planned the job or on what another worker did meanwhile.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro import __version__, obs
from repro.core.engine import CancelToken
from repro.core.plan import IrisPlan
from repro.core.planner import IrisPlanner
from repro.exceptions import JobCancelled, ReproError, ServiceError
from repro.region.delta import RegionDelta, delta_from_dict
from repro.region.fibermap import RegionSpec
from repro.serialize import plan_from_dict, plan_to_dict, region_from_dict
from repro.service.protocol import (
    PROTOCOL_VERSION,
    check_protocol_version,
    encode_message,
    read_message,
)
from repro.service.replan import DeltaStats, apply_delta
from repro.store import PlanStore, canonical_json
from repro.store.keys import service_request_key

#: Counter names the service maintains (all mirrored as ``service.<name>``
#: into the active obs tracer, if any).
COUNTER_NAMES = (
    "queued",
    "coalesced",
    "rejected",
    "completed",
    "failed",
    "timeouts",
    "store_hits",
    "patched",
    "cold",
)


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one :class:`PlannerService`.

    ``port=0`` binds an ephemeral port (read it back from ``.address``).
    ``queue_size`` bounds admission — submissions beyond it are rejected,
    never buffered without limit. ``jobs`` sets the engine's worker
    count *inside* each job (serial by default; the service's own
    concurrency comes from ``workers`` threads). ``job_timeout_s``
    arms a per-job :class:`~repro.core.engine.CancelToken` deadline.
    ``keep_results`` bounds both the finished-job table and the
    in-memory LRU of plans that seeds delta jobs.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_size: int = 16
    jobs: int | None = 1
    job_timeout_s: float | None = None
    keep_results: int = 64
    prune_enumeration: bool = True
    validate: bool = True


class _Job:
    """One submitted planning job (shared by all coalesced submitters)."""

    __slots__ = (
        "job_id",
        "key",
        "state",
        "outcome",
        "error",
        "result_json",
        "delta_stats",
        "region",
        "base_region",
        "delta",
        "token",
        "done",
        "waiters",
    )

    def __init__(
        self,
        job_id: str,
        key: str,
        region: RegionSpec,
        base_region: RegionSpec | None,
        delta: RegionDelta | None,
    ) -> None:
        self.job_id = job_id
        self.key = key
        self.state = "queued"  # queued | running | done | failed
        self.outcome: str | None = None  # store | patched | cold
        self.error: str | None = None
        self.result_json: str | None = None
        self.delta_stats: dict[str, Any] | None = None
        self.region = region
        self.base_region = base_region
        self.delta = delta
        self.token: CancelToken | None = None
        self.done = threading.Event()
        self.waiters = 1  # submissions coalesced onto this job

    def summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state,
            "outcome": self.outcome,
            "waiters": self.waiters,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


def _drain_timeout(request: dict[str, Any]) -> float:
    """A ``shutdown`` request's drain deadline in seconds."""
    return float(request.get("timeout_s", 30.0))


class PlannerService:
    """The daemon behind ``iris serve``. See the module docstring.

    Usable fully in-process (``handle()`` is a pure request->response
    dispatch; the stampede tests drive it without sockets) or over TCP
    via :meth:`start` + :class:`repro.service.client.ServiceClient`.
    """

    def __init__(
        self, config: ServiceConfig | None = None, store: PlanStore | None = None
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = store
        self._lock = threading.Lock()
        self._queue: queue.Queue[_Job | None] = queue.Queue(
            maxsize=max(1, self.config.queue_size)
        )
        self._jobs: OrderedDict[str, _Job] = OrderedDict()
        self._inflight: dict[str, _Job] = {}
        self._plans: OrderedDict[str, IrisPlan] = OrderedDict()
        self._counters: dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self._job_seq = 0
        self._draining = False
        self._closed = threading.Event()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._worker_threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "PlannerService":
        """Bind the listener and start acceptor + worker threads."""
        if self._listener is not None:
            raise ServiceError("service already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.config.host, self.config.port))
            listener.listen(128)
        except OSError:
            # bind/listen failure (port in use, bad host) must not leak
            # the half-configured socket: nothing owns it yet.
            listener.close()
            raise
        self._listener = listener
        self._start_workers()
        acceptor = threading.Thread(
            target=self._accept_loop, name="iris-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        return self

    def _start_workers(self) -> None:
        if self._worker_threads:
            return
        for i in range(max(1, self.config.workers)):
            worker = threading.Thread(
                target=self._worker_loop, name=f"iris-worker-{i}", daemon=True
            )
            worker.start()
            self._worker_threads.append(worker)

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` to the real port."""
        if self._listener is None:
            raise ServiceError("service not started")
        host, port = self._listener.getsockname()[:2]
        return host, port

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Stop admitting work, finish in-flight jobs, then close.

        Returns ``True`` if everything finished inside the deadline;
        jobs still running at the deadline are cancelled via their
        tokens (they fail with a ``cancelled`` error, they don't leak).
        Idempotent; also the SIGTERM path of ``iris serve``.
        """
        with self._lock:
            self._draining = True
            pending = [
                job
                for job in self._jobs.values()
                if job.state in ("queued", "running")
            ]
        deadline = time.monotonic() + timeout_s
        clean = True
        for job in pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not job.done.wait(timeout=remaining):
                clean = False
                if job.token is not None:
                    job.token.cancel("drain deadline")
        if not clean:
            # One more bounded wait for the cancellations to unwind.
            for job in pending:
                job.done.wait(timeout=5.0)
        self.close()
        return clean

    def close(self) -> None:
        """Tear down immediately: cancel jobs, stop workers, close sockets."""
        with self._lock:
            self._draining = True
            jobs = list(self._jobs.values())
        for job in jobs:
            if job.token is not None and job.state == "running":
                job.token.cancel("service closed")
        for _ in self._worker_threads:
            try:
                # Blocking put: a full queue drains as workers finish the
                # jobs ahead of the sentinel.
                self._queue.put(None, timeout=10.0)
            except queue.Full:
                break
        listener = self._listener
        self._listener = None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        for worker in self._worker_threads:
            worker.join(timeout=5.0)
        self._worker_threads = []
        self._closed.set()

    def wait_closed(self, timeout: float | None = None) -> bool:
        """Block until :meth:`close` has completed (the ``serve`` loop)."""
        return self._closed.wait(timeout=timeout)

    def __enter__(self) -> "PlannerService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # counters

    def _incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount
        obs.incr(f"service.{name}", amount)

    def counters(self) -> dict[str, int]:
        """A snapshot of the service counters."""
        with self._lock:
            return dict(self._counters)

    # ------------------------------------------------------------------
    # request handling (pure dispatch, no sockets)

    def handle(self, request: dict[str, Any]) -> dict[str, Any]:
        """Serve one protocol request; never raises, errors become
        ``{"ok": false, "error": ...}`` responses. An accepted
        ``shutdown`` has started draining when this returns."""
        response = self._respond(request)
        self._after_reply(request, response)
        return response

    def _after_reply(
        self, request: dict[str, Any], response: dict[str, Any]
    ) -> None:
        """Start what a reply announces, once it has been sent: the drain
        of an accepted ``shutdown``. An idle daemon drains, closes and
        exits at once, so a drain started earlier can beat the reply out
        of the process."""
        if response.get("ok") and response.get("op") == "shutdown":
            threading.Thread(
                target=self.drain,
                args=(_drain_timeout(request),),
                name="iris-drain",
                daemon=True,
            ).start()

    def _respond(self, request: dict[str, Any]) -> dict[str, Any]:
        try:
            check_protocol_version(request)
            op = request.get("op")
            if op == "ping":
                return {
                    "ok": True,
                    "op": "ping",
                    "protocol_version": PROTOCOL_VERSION,
                    "version": __version__,
                }
            if op == "submit":
                return self._handle_submit(request)
            if op == "status":
                return self._handle_status(request)
            if op == "result":
                return self._handle_result(request)
            if op == "jobs":
                with self._lock:
                    summaries = [job.summary() for job in self._jobs.values()]
                return {"ok": True, "op": "jobs", "jobs": summaries}
            if op == "stats":
                with self._lock:
                    counters = dict(self._counters)
                    depth = sum(
                        1 for j in self._jobs.values() if j.state == "queued"
                    )
                    draining = self._draining
                return {
                    "ok": True,
                    "op": "stats",
                    "counters": counters,
                    "queue_depth": depth,
                    "workers": self.config.workers,
                    "draining": draining,
                }
            if op == "shutdown":
                _drain_timeout(request)  # a bad timeout is an error reply
                return {"ok": True, "op": "shutdown", "draining": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _handle_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        region_data = request.get("region")
        if not isinstance(region_data, dict):
            raise ServiceError("submit requires a 'region' object")
        base_region = region_from_dict(region_data)
        delta: RegionDelta | None = None
        target = base_region
        if request.get("delta") is not None:
            delta_data = request["delta"]
            if not isinstance(delta_data, dict):
                raise ServiceError("submit 'delta' must be an object")
            delta = delta_from_dict(delta_data)
            target = delta.apply_to_region(base_region)
        key = service_request_key(
            design="iris",
            region=target,
            config={
                "prune_enumeration": self.config.prune_enumeration,
                "validate": self.config.validate,
            },
        )
        with self._lock:
            if self._draining:
                return {"ok": False, "error": "service is draining", "rejected": True}
            inflight = self._inflight.get(key)
            if inflight is not None:
                inflight.waiters += 1
                coalesced = True
                job = inflight
            else:
                coalesced = False
                self._job_seq += 1
                job = _Job(
                    "job-%06d" % self._job_seq,
                    key,
                    target,
                    base_region if delta is not None else None,
                    delta,
                )
                try:
                    self._queue.put_nowait(job)
                except queue.Full:
                    self._job_seq -= 1
                    self._counters["rejected"] += 1
                    obs.incr("service.rejected", 1)
                    return {
                        "ok": False,
                        "error": "request queue is full",
                        "rejected": True,
                    }
                self._jobs[job.job_id] = job
                self._inflight[key] = job
                self._evict_jobs_locked()
        self._incr("coalesced" if coalesced else "queued")
        return {
            "ok": True,
            "op": "submit",
            "job_id": job.job_id,
            "state": job.state,
            "coalesced": coalesced,
            "key": key,
        }

    def _handle_status(self, request: dict[str, Any]) -> dict[str, Any]:
        job = self._get_job(request)
        return {"ok": True, "op": "status", **job.summary()}

    def _handle_result(self, request: dict[str, Any]) -> dict[str, Any]:
        job = self._get_job(request)
        timeout_s = request.get("timeout_s")
        finished = job.done.wait(
            timeout=float(timeout_s) if timeout_s is not None else None
        )
        if not finished:
            return {
                "ok": False,
                "error": f"timed out waiting for {job.job_id}",
                "job_id": job.job_id,
                "state": job.state,
            }
        if job.state != "done":
            return {
                "ok": False,
                "error": job.error or f"{job.job_id} {job.state}",
                "job_id": job.job_id,
                "state": job.state,
            }
        response: dict[str, Any] = {
            "ok": True,
            "op": "result",
            "job_id": job.job_id,
            "state": job.state,
            "outcome": job.outcome,
            "plan": job.result_json,
        }
        if job.delta_stats is not None:
            response["delta_stats"] = job.delta_stats
        return response

    def _get_job(self, request: dict[str, Any]) -> _Job:
        job_id = request.get("job_id")
        if not isinstance(job_id, str):
            raise ServiceError("request requires a 'job_id' string")
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def _evict_jobs_locked(self) -> None:
        # Finished jobs beyond keep_results age out oldest-first; queued
        # and running jobs are never evicted.
        while len(self._jobs) > max(1, self.config.keep_results):
            evicted = None
            for job_id, job in self._jobs.items():
                if job.state in ("done", "failed"):
                    evicted = job_id
                    break
            if evicted is None:
                break
            del self._jobs[evicted]

    # ------------------------------------------------------------------
    # workers

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            try:
                self._run_job(job)
            finally:
                self._queue.task_done()

    def _run_job(self, job: _Job) -> None:
        """Answer one job: the store's verified text, else a patch or a
        cold plan, encoded once, served and stored.

        A store hit is not decoded to check it: the key folds in the
        store schema and the plan format version (:mod:`repro.store.keys`),
        so a payload under a current key was written by the current
        encoder.
        """
        job.state = "running"
        job.token = CancelToken(self.config.job_timeout_s)
        try:
            text = None
            if self.store is not None:
                text = self.store.get_text(job.key, kind="plan")
            if text is not None:
                job.result_json = text
                job.outcome = "store"
                self._incr("store_hits")
            else:
                plan, outcome, stats = self._resolve(job)
                job.result_json = canonical_json(plan_to_dict(plan, full=True))
                job.outcome = outcome
                if stats is not None:
                    job.delta_stats = {
                        "mode": stats.mode,
                        "realization": stats.realization,
                        "scenarios_reused": stats.reused,
                        "bypass_checks": stats.checked,
                        "scenarios_computed": stats.computed,
                    }
                self._remember(job.key, plan)
                if self.store is not None:
                    self.store.put_text(job.key, job.result_json, kind="plan")
                self._incr(outcome)
            job.state = "done"
            self._incr("completed")
        except JobCancelled as exc:
            job.error = str(exc)
            job.state = "failed"
            if job.token is not None and job.token.reason == "timeout":
                self._incr("timeouts")
            self._incr("failed")
        except ReproError as exc:
            job.error = str(exc)
            job.state = "failed"
            self._incr("failed")
        except Exception as exc:  # pragma: no cover - defensive
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "failed"
            self._incr("failed")
        finally:
            with self._lock:
                if self._inflight.get(job.key) is job:
                    del self._inflight[job.key]
            job.done.set()

    def _resolve(
        self, job: _Job
    ) -> tuple[IrisPlan, str, DeltaStats | None]:
        """The job's plan when the store has not answered it: a patch of
        the base plan if there is one, else a cold plan."""
        config = self.config
        if job.delta is not None:
            base_plan = self._base_plan(job)
            if base_plan is not None:
                stats = DeltaStats()
                plan = apply_delta(
                    base_plan,
                    job.delta,
                    jobs=config.jobs,
                    prune_enumeration=config.prune_enumeration,
                    validate=config.validate,
                    cancel_token=job.token,
                    stats=stats,
                )
                return plan, "patched", stats
        plan = IrisPlanner(
            job.region,
            prune_enumeration=config.prune_enumeration,
            validate=config.validate,
            jobs=config.jobs,
            cancel_token=job.token,
        ).plan()
        return plan, "cold", None

    def _base_plan(self, job: _Job) -> IrisPlan | None:
        """The base region's plan for a delta job, if already available.

        In-memory first (plans this daemon produced or decoded), then the
        store: a stored base is decoded once and cached, so the deltas
        that follow a restart patch from memory. A payload that does not
        decode, or ``None``, sends the job down the cold path —
        correctness never depends on the base plan being warm.
        """
        if job.base_region is None:
            return None
        base_key = service_request_key(
            design="iris",
            region=job.base_region,
            config={
                "prune_enumeration": self.config.prune_enumeration,
                "validate": self.config.validate,
            },
        )
        with self._lock:
            plan = self._plans.get(base_key)
            if plan is not None:
                self._plans.move_to_end(base_key)
                return plan
        if self.store is None:
            return None
        cached = self.store.get(base_key)
        if cached is None:
            return None
        try:
            plan = plan_from_dict(cached)
        except ReproError:
            return None
        self._remember(base_key, plan)
        return plan

    def _remember(self, key: str, plan: IrisPlan) -> None:
        """Put ``plan`` at the recent end of the plan LRU, evicting the
        least recently used beyond ``keep_results``."""
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > max(1, self.config.keep_results):
                self._plans.popitem(last=False)

    # ------------------------------------------------------------------
    # sockets

    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener closed: service shutting down
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="iris-conn",
                daemon=True,
            )
            thread.start()
            listener = self._listener

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            try:
                stream = conn.makefile("rb")
            except OSError:
                return  # the ``with`` closes the connection
            try:
                while True:
                    try:
                        request = read_message(stream)
                    except ServiceError as exc:
                        conn.sendall(
                            encode_message({"ok": False, "error": str(exc)})
                        )
                        return
                    if request is None:
                        return
                    response = self._respond(request)
                    try:
                        conn.sendall(encode_message(response))
                    except OSError:
                        return
                    finally:
                        self._after_reply(request, response)
            finally:
                stream.close()
