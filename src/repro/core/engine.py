"""Scenario-parallel execution backends for the planner (the ``jobs=`` knob).

Algorithm 1's hot path — evaluating shortest paths and hose max-flows for
every pruned failure scenario — is embarrassingly parallel at the scenario
level: each scenario's Dijkstra run and each scenario's per-duct hose
max-flows depend only on the fiber map and that scenario. This module
provides the execution layer the planner (and the design-space sweep) fan
out over. Backends implement the :class:`ExecutionBackend` protocol;
``get_backend(jobs)`` picks one of two from the worker count:

* :class:`SerialBackend` (one worker) — evaluate chunks inline, in order,
  in-process; guaranteed never to spawn a worker pool.
* :class:`ProcessBackend` (two or more) — ``jobs`` worker processes via
  :class:`concurrent.futures.ProcessPoolExecutor`, fed a deterministic
  queue of decreasing-size chunks (:func:`guided_partition`) that idle
  workers drain, so an expensive scenario does not strand the work
  queued behind it.

Determinism contract (see :class:`ExecutionBackend`): a backend runs
``fn(shared, chunk)`` over a list of chunks and returns the per-chunk
results *in submission order* — :meth:`~SerialBackend.run_chunks` as one
list, or streamed result by result via
:meth:`~SerialBackend.iter_chunks` so callers can checkpoint completed
chunks as they land (how sweep resume persists cells). Chunking is the
backend's own :meth:`~SerialBackend.plan_chunks` (always contiguous and
order-preserving); callers merge with order-independent operations
(per-duct maxima), so which worker ran which chunk — and in what order
chunks *finished* — cannot change the output: parallel plans are
bit-identical to serial ones.

Observability: when global tracing is on (:func:`repro.obs.enabled`), each
chunk runs under a fresh :func:`repro.obs.capture` — in the worker process
for :class:`ProcessBackend` — and its finished, picklable span record is
grafted back into the parent trace in submission order. Counters merge by
summation, so metric totals are identical whichever backend ran the work.
With tracing off, the untraced fast path runs exactly the pre-existing
code, so plan outputs are bit-identical with and without instrumentation.

:class:`PlanTimings` is the instrumentation record attached to every
planned :class:`~repro.core.plan.TopologyPlan`: a *view* over the
planner's span tree (per-phase wall time, scenarios evaluated, hose
lookups), so benchmarks and the CLI can report where planning time goes.
It describes one run, so it is never part of a plan's encoding.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Iterator,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

from repro import obs
from repro.exceptions import JobCancelled, ReproError
from repro.obs import SpanRecord

T = TypeVar("T")

#: Chunks the serial backend splits a fan-out into (for trace shape only).
CHUNKS_PER_WORKER = 4

#: Guided chunking: each chunk takes ``1 / (GUIDED_FACTOR * workers)`` of
#: the remaining items, and never fewer than ``GUIDED_MIN_CHUNK``.
GUIDED_FACTOR = 2
GUIDED_MIN_CHUNK = 1


@runtime_checkable
class ExecutionBackend(Protocol):
    """The execution-backend contract every backend implements.

    A backend is a chunk runner with four obligations; anything honouring
    them slots into the planner, the sweep, and ``map_in_chunks`` without
    touching call sites:

    ``plan_chunks(items)``
        Split a work list into the chunk granularity this backend wants
        fed to it. Must be *contiguous and order-preserving*:
        concatenating the returned chunks reproduces ``items`` exactly,
        with no empty chunks. Granularity is free (static halves, guided
        decreasing sizes, one item per chunk); ordering is not.
    ``iter_chunks(fn, shared, chunks)``
        Run ``fn(shared, chunk)`` for every chunk and yield the per-chunk
        results **in submission order**, streaming each result as soon as
        it (and all earlier ones) finished. Completion order is the
        backend's business; yield order is the contract — it is what lets
        callers checkpoint per-chunk results deterministically (sweep
        resume).
    ``run_chunks(fn, shared, chunks)``
        The gathered form of ``iter_chunks``. Callers combine the
        returned per-chunk results with **associative, order-insensitive
        merges only** (per-duct maxima, counter sums, list-concatenation
        of order-preserving chunks), so any compliant chunking produces
        byte-identical outputs.
    ``close()`` / context manager
        Backends own worker pools; ``with get_backend(...) as backend:``
        bounds the pool's lifetime. ``close()`` must be idempotent, and
        ``__exit__`` must call it.

    The ``name`` and ``jobs`` attributes identify the backend in
    :class:`PlanTimings` and benchmark rows.

    Callables submitted to a backend must be module-level (process pools
    pickle them into spawned workers) and deterministic-per-chunk; mark
    them :func:`worker_safe` and reprolint's R012-R014 verify both
    properties statically against the project call graph.
    """

    name: str
    jobs: int

    def plan_chunks(self, items: Sequence[T]) -> list[list[T]]: ...

    def iter_chunks(
        self,
        fn: Callable[[Any, list[T]], Any],
        shared: Any,
        chunks: Sequence[list[T]],
    ) -> Iterator[Any]: ...

    def run_chunks(
        self,
        fn: Callable[[Any, list[T]], Any],
        shared: Any,
        chunks: Sequence[list[T]],
    ) -> list[Any]: ...

    def close(self) -> None: ...

    def __enter__(self) -> "ExecutionBackend": ...

    def __exit__(self, *exc: object) -> None: ...


def worker_safe(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Mark ``fn`` as safe to submit to pool workers — and let lint hold it.

    The decorator is a *verified claim*, not a mechanism: it changes
    nothing at runtime (the function is returned as-is, so it stays
    picklable), but reprolint's pool-safety rules check the claim
    against the interprocedural effect closure. A ``@worker_safe``
    function that transitively mutates global RNG state, reads the wall
    clock, rebinds module state (R013), performs filesystem I/O, or
    iterates an unordered collection (R014) is flagged at its
    definition — the authoritative spot — instead of at every submit
    site. Chunk functions handed to :meth:`ExecutionBackend.run_chunks`
    / :meth:`~ExecutionBackend.iter_chunks` / :func:`map_in_chunks`
    should carry it.
    """
    fn.__worker_safe__ = True
    return fn


class CancelToken:
    """Cooperative cancellation for a backend fan-out (and per-job timeouts).

    The planner service hands each job a token; backends call
    :meth:`checkpoint` between chunks (and while awaiting pool futures),
    so a cancelled or timed-out job unwinds with :class:`JobCancelled` at
    the next chunk boundary instead of running the plan to completion.
    Thread-safe: any thread may :meth:`cancel` while a worker thread plans.

    ``timeout_s`` arms a monotonic deadline at construction; the token
    then cancels *itself* the first time a checkpoint runs past the
    deadline. Wall-clock reads stay inside this class (sanctioned
    ``time.monotonic``), keeping chunk functions themselves clock-free.
    """

    __slots__ = ("_event", "_deadline", "reason")

    def __init__(self, timeout_s: float | None = None) -> None:
        self._event = threading.Event()
        self._deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        self.reason: str = ""

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation; idempotent, safe from any thread."""
        if not self._event.is_set():
            self.reason = reason
            self._event.set()

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested (or the deadline hit)."""
        if self._event.is_set():
            return True
        if self._deadline is not None and time.monotonic() >= self._deadline:
            self.cancel("timeout")
            return True
        return False

    def checkpoint(self) -> None:
        """Raise :class:`JobCancelled` if cancellation was requested."""
        if self.cancelled:
            raise JobCancelled(f"job cancelled: {self.reason or 'cancelled'}")


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs=`` argument to a worker count.

    ``None`` and ``1`` mean serial execution; ``0`` means one worker per
    available CPU; any other positive integer is taken literally.
    """
    if jobs is None:
        return 1
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise ReproError(f"jobs must be an int or None, got {jobs!r}")
    if jobs < 0:
        raise ReproError(f"jobs must be non-negative, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def partition(items: Sequence[T], n_chunks: int) -> list[list[T]]:
    """Split ``items`` into at most ``n_chunks`` contiguous balanced chunks.

    Order is preserved: concatenating the chunks reproduces ``items``.
    Empty chunks are never returned.
    """
    if n_chunks < 1:
        raise ReproError(f"need at least one chunk, got {n_chunks}")
    items = list(items)
    n = len(items)
    n_chunks = min(n_chunks, n) or 1
    base, extra = divmod(n, n_chunks)
    out: list[list[T]] = []
    start = 0
    for c in range(n_chunks):
        size = base + (1 if c < extra else 0)
        if size:
            out.append(items[start : start + size])
            start += size
    return out


def guided_partition(items: Sequence[T], workers: int) -> list[list[T]]:
    """Split ``items`` into contiguous chunks of *decreasing* size.

    Guided self-scheduling: each chunk takes ``ceil(remaining /
    (GUIDED_FACTOR * workers))`` items (never fewer than
    ``GUIDED_MIN_CHUNK``), so the queue starts with chunks big enough to
    amortize dispatch and ends with fine-grained ones that level out
    whatever imbalance the early chunks left. The split depends only on
    ``len(items)`` and ``workers`` — it is deterministic,
    order-preserving (concatenating the chunks reproduces ``items``), and
    never returns an empty chunk, so a pool draining it dynamically still
    satisfies the :class:`ExecutionBackend` contract.
    """
    if workers < 1:
        raise ReproError(f"need at least one worker, got {workers}")
    items = list(items)
    n = len(items)
    out: list[list[T]] = []
    start = 0
    while start < n:
        remaining = n - start
        size = max(GUIDED_MIN_CHUNK, -(-remaining // (GUIDED_FACTOR * workers)))
        size = min(size, remaining)
        out.append(items[start : start + size])
        start += size
    return out


def _traced_chunk(
    fn: Callable[[Any, list[T]], Any], shared: Any, chunk: list[T]
) -> tuple[Any, SpanRecord]:
    """Run one chunk under a fresh capture (module-level: pool-picklable).

    The chunk executes with the capture installed as the active tracer, so
    facade-instrumented code (per-scenario counters, hose lookups) records
    into the shard. Returns (result, finished span record); the record
    crosses the process boundary by pickle and is grafted into the parent
    trace, preserving submission order.
    """
    label = f"engine.chunk:{fn.__name__.lstrip('_').removesuffix('_chunk')}"
    with obs.capture(label) as tracer:
        tracer.incr("chunk.items", len(chunk))
        result = fn(shared, chunk)
    return result, tracer.record()


class SerialBackend:
    """Inline execution: chunks run in the calling process, in order.

    Never touches :mod:`concurrent.futures`, so module-level caches (the
    hose cache in particular) stay warm across the whole plan.
    """

    name = "serial"
    jobs = 1

    def __init__(self, cancel_token: CancelToken | None = None) -> None:
        self.cancel_token = cancel_token

    def plan_chunks(self, items: Sequence[T]) -> list[list[T]]:
        """Static contiguous chunks (a handful, purely for trace shape).

        Serial execution gains nothing from granularity, but chunked
        traces keep the span taxonomy identical across backends.
        """
        return partition(items, CHUNKS_PER_WORKER)

    def iter_chunks(
        self,
        fn: Callable[[Any, list[T]], Any],
        shared: Any,
        chunks: Sequence[list[T]],
    ) -> Iterator[Any]:
        """Yield ``fn(shared, chunk)`` per chunk, in order, as computed.

        The streaming form exists so callers can checkpoint each chunk's
        result the moment it lands (sweep resume) instead of waiting for
        the whole fan-out.
        """
        token = self.cancel_token
        if not obs.enabled():
            for chunk in chunks:
                if token is not None:
                    token.checkpoint()
                yield fn(shared, chunk)
            return
        for chunk in chunks:
            if token is not None:
                token.checkpoint()
            result, record = _traced_chunk(fn, shared, chunk)
            obs.attach(record)
            yield result

    def run_chunks(
        self,
        fn: Callable[[Any, list[T]], Any],
        shared: Any,
        chunks: Sequence[list[T]],
    ) -> list[Any]:
        """Apply ``fn(shared, chunk)`` to every chunk, in order."""
        return list(self.iter_chunks(fn, shared, chunks))

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ProcessBackend:
    """Worker-pool execution over ``jobs`` processes.

    The pool is created lazily on the first fan-out and reused across
    calls (the planner fans out once per enumeration level plus once for
    the capacity phase), then shut down by :meth:`close`. ``fn`` and the
    chunk items must be picklable module-level objects; exceptions raised
    in workers propagate to the caller.

    Work is fed as many chunks of decreasing size (:func:`guided_partition`)
    into the pool's shared queue, and an idle worker pulls the next chunk
    the moment it finishes, so one expensive scenario (a dense failure set
    whose Dijkstra and hose solves dwarf its neighbours') does not leave
    ``jobs - 1`` workers idle behind it. The chunk *list* is a pure
    function of the work list, results are yielded in submission order,
    and callers merge order-insensitively, so ``jobs=4`` plans are
    byte-identical to ``jobs=1``; only wall time and the per-process
    cache-warmth counters may differ.

    Interrupts never orphan workers: a ``KeyboardInterrupt``/``SystemExit``
    reaching a fan-out (Ctrl-C, SIGTERM via a raising handler) — or a
    :class:`JobCancelled` from the backend's :class:`CancelToken` — tears
    the pool down via :meth:`terminate` (terminate + join every worker
    process) before propagating, instead of leaving ``shutdown(wait=True)``
    blocked behind in-flight chunks.
    """

    name = "process"

    def __init__(
        self, jobs: int, cancel_token: CancelToken | None = None
    ) -> None:
        if jobs < 2:
            raise ReproError(
                f"a process backend needs at least 2 workers, got {jobs}"
            )
        self.jobs = jobs
        self.cancel_token = cancel_token
        self._executor: ProcessPoolExecutor | None = None

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def _await(self, future: Future) -> Any:
        """Block on ``future``, polling the cancel token between waits."""
        token = self.cancel_token
        if token is None:
            return future.result()
        while True:
            token.checkpoint()
            try:
                return future.result(timeout=0.05)
            except TimeoutError:
                continue

    def plan_chunks(self, items: Sequence[T]) -> list[list[T]]:
        """Guided decreasing-size chunks (the dynamic queue's feed)."""
        return guided_partition(items, self.jobs)

    def iter_chunks(
        self,
        fn: Callable[[Any, list[T]], Any],
        shared: Any,
        chunks: Sequence[list[T]],
    ) -> Iterator[Any]:
        """Yield per-chunk results in submission order as workers finish.

        Every chunk is submitted up front so the pool stays saturated;
        results stream back in submission order (a slow early chunk delays
        later yields but not later *work*). Callers that checkpoint per
        yielded result therefore persist completed work long before the
        full fan-out drains — the property sweep resume relies on.
        """
        chunks = list(chunks)
        if not chunks:
            return
        traced = obs.enabled()
        token = self.cancel_token
        # A single chunk gains nothing from the pool round-trip.
        if len(chunks) == 1:
            if token is not None:
                token.checkpoint()
            if not traced:
                yield fn(shared, chunks[0])
                return
            result, record = _traced_chunk(fn, shared, chunks[0])
            obs.attach(record)
            yield result
            return
        try:
            pool = self._pool()
            if not traced:
                futures: list[Future] = [
                    pool.submit(fn, shared, chunk) for chunk in chunks
                ]
                for future in futures:
                    yield self._await(future)
                return
            traced_futures: list[Future] = [
                pool.submit(_traced_chunk, fn, shared, chunk)
                for chunk in chunks
            ]
            for future in traced_futures:
                result, record = self._await(future)
                obs.attach(record)
                yield result
        except (KeyboardInterrupt, SystemExit, JobCancelled):
            self.terminate()
            raise

    def run_chunks(
        self,
        fn: Callable[[Any, list[T]], Any],
        shared: Any,
        chunks: Sequence[list[T]],
    ) -> list[Any]:
        """Apply ``fn(shared, chunk)`` across the pool; results in order."""
        return list(self.iter_chunks(fn, shared, chunks))

    def close(self) -> None:
        """Shut down the pool (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def terminate(self) -> None:
        """Tear the pool down hard: cancel queued work, kill workers, join.

        The interrupt counterpart to :meth:`close` — ``shutdown(wait=True)``
        would block behind whatever chunk each worker is mid-way through
        (and on Ctrl-C the workers saw the SIGINT too, in an arbitrary
        state), so instead cancel everything still queued, SIGTERM each
        worker process, and join them so none is left orphaned. Idempotent;
        the backend is reusable afterwards (a fresh pool spawns lazily).
        """
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for proc in processes:
            proc.terminate()
        for proc in processes:
            proc.join(timeout=5.0)

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def get_backend(
    jobs: int | None = 1, *, cancel_token: CancelToken | None = None
) -> ExecutionBackend:
    """The execution backend for a ``jobs=`` argument.

    :class:`SerialBackend` (guaranteed pool-free) when ``jobs`` resolves to
    one worker (``jobs=0`` on a single-core machine included), the
    :class:`ProcessBackend` pool otherwise. ``cancel_token`` arms
    cooperative cancellation: the backend checks it at every chunk
    boundary (see :class:`CancelToken`).
    """
    n = resolve_jobs(jobs)
    if n == 1:
        return SerialBackend(cancel_token)
    return ProcessBackend(n, cancel_token)


def map_in_chunks(
    backend: ExecutionBackend,
    fn: Callable[[Any, list[T]], list[Any]],
    shared: Any,
    items: Sequence[T],
) -> list[Any]:
    """Fan ``items`` out in backend-chosen chunks; flattened results.

    ``fn(shared, chunk)`` must return one result per chunk item, in chunk
    order; chunks are contiguous and order-preserving (the
    :class:`ExecutionBackend` contract), so the flattened output aligns
    1:1 with ``items`` whatever granularity the backend picked.
    """
    items = list(items)
    if not items:
        return []
    chunks = backend.plan_chunks(items)
    out: list[Any] = []
    for chunk, results in zip(chunks, backend.run_chunks(fn, shared, chunks)):
        if len(results) != len(chunk):
            raise ReproError(
                f"chunk worker returned {len(results)} results for "
                f"{len(chunk)} items"
            )
        out.extend(results)
    return out


@dataclass(frozen=True)
class PlanTimings:
    """Where Algorithm 1's wall time went (attached to a planned topology).

    The planner records its phases as spans and this record is a *view*
    over the resulting span tree (built by :meth:`from_record`). It
    describes one run: plans loaded from their encoding carry none.

    ``enumerate_s`` / ``capacity_s``
        Wall time of the scenario-path enumeration (per-scenario Dijkstra)
        and the per-duct hose max-flow phases.
    ``total_s``
        End-to-end wall time of :func:`~repro.core.topology.plan_topology`
        (includes the duct pre-pruning, so it slightly exceeds the sum of
        the two phases).
    ``scenarios_evaluated``
        Scenarios actually evaluated (after pruning).
    ``hose_lookups``
        Hose max-flow lookups of the capacity phase, counted by the
        job's own chunks (one per scenario and used duct), so the count
        does not depend on the worker count or on other jobs.
    ``backend`` / ``jobs``
        Which execution backend ran the plan (``"serial"`` or
        ``"process"``), with how many workers.
    """

    enumerate_s: float
    capacity_s: float
    total_s: float
    scenarios_evaluated: int
    hose_lookups: int
    backend: str = "serial"
    jobs: int = 1

    @classmethod
    def from_record(
        cls, record: SpanRecord, backend: str = "serial", jobs: int = 1
    ) -> "PlanTimings":
        """Build the timing view from a ``plan.topology`` span record.

        Phase wall times come from the ``plan.enumerate`` / ``plan.capacity``
        child spans; the authoritative counts come from the counters the
        planner sets on the record (``scenarios.evaluated``,
        ``capacity.hose_lookups``).
        """
        enum = record.child("plan.enumerate")
        capacity = record.child("plan.capacity")
        counters = record.counters
        return cls(
            enumerate_s=enum.duration_s if enum else 0.0,
            capacity_s=capacity.duration_s if capacity else 0.0,
            total_s=record.duration_s,
            scenarios_evaluated=int(counters.get("scenarios.evaluated", 0)),
            hose_lookups=int(counters.get("capacity.hose_lookups", 0)),
            backend=backend,
            jobs=jobs,
        )

    def summary(self) -> str:
        """A one-line human-readable breakdown (used by the CLI)."""
        return (
            f"{self.total_s:.2f} s total "
            f"(paths {self.enumerate_s:.2f} s, capacity {self.capacity_s:.2f} s), "
            f"{self.scenarios_evaluated} scenarios, "
            f"{self.hose_lookups} hose lookups, "
            f"backend {self.backend} x{self.jobs}"
        )
