"""Daemon shutdown edge cases and the v1.10 lifecycle regressions.

Three shutdown paths that used to be easy to get wrong: ``close()``
called twice (or from two threads at once), a drain racing an in-flight
``_serve_connection``, and workers exiting while the queue still holds
admitted jobs. Plus regressions for the three concurrency findings the
v4 linter surfaced in this tree: the half-open ``ServiceClient``
constructor, the listener leak on a failed ``start()``, and the
``draining`` flag read outside the service lock.
"""

from __future__ import annotations

import socket as socket_mod
import threading
import time

import pytest

from repro.exceptions import ServiceError
from repro.serialize import region_to_dict
from repro.service import PlannerService, ServiceClient, ServiceConfig


def _submit_request(region):
    return {"op": "submit", "region": region_to_dict(region)}


class TestCloseReentrancy:
    def test_close_twice_sequentially(self, toy_region):
        service = PlannerService(ServiceConfig(workers=1)).start()
        with ServiceClient(service.address) as client:
            job = client.submit(toy_region)
            assert client.result(job["job_id"], timeout_s=120)["ok"]
        service.close()
        service.close()  # second close finds nothing left to do
        assert service.wait_closed(timeout=1)
        assert service._worker_threads == []

    def test_close_from_concurrent_threads(self, toy_region):
        service = PlannerService(ServiceConfig(workers=2)).start()
        service.handle(_submit_request(toy_region))
        barrier = threading.Barrier(4)
        errors = []

        def closer():
            barrier.wait()
            try:
                service.close()
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert service.wait_closed(timeout=1)

    def test_close_unstarted_service_is_safe(self):
        service = PlannerService(ServiceConfig())
        service.close()
        assert service.wait_closed(timeout=1)


class TestDrainDuringInflightConnection:
    def test_sigterm_drain_races_serve_connection(self, toy_region):
        """The ``iris serve`` SIGTERM handler calls ``drain()`` while
        connection threads are mid-request. The in-flight result request
        must be answered before the daemon dies — the connection is not
        torn down under the client."""
        service = PlannerService(ServiceConfig(workers=1)).start()
        try:
            with ServiceClient(service.address) as client:
                job = client.submit(toy_region)
                outcome = {}

                def inflight_result():
                    # Runs on the same connection the daemon is serving
                    # when the drain lands.
                    outcome["result"] = client.result(
                        job["job_id"], timeout_s=120
                    )

                waiter = threading.Thread(target=inflight_result)
                waiter.start()
                clean = service.drain(timeout_s=60.0)
                waiter.join(timeout=60)
                assert not waiter.is_alive()
                assert clean
                assert outcome["result"]["ok"]
                assert outcome["result"]["outcome"] == "cold"
        finally:
            service.close()
        assert service.wait_closed(timeout=5)
        # Post-drain the daemon admits nothing.
        rejected = service.handle(_submit_request(toy_region))
        assert not rejected["ok"]

    def test_submissions_rejected_after_close(self, toy_region):
        service = PlannerService(ServiceConfig()).start()
        service.close()
        assert service.wait_closed(timeout=5)
        rejected = service.handle(_submit_request(toy_region))
        assert not rejected["ok"] and rejected.get("rejected")


class TestWorkerExitWithQueuedJobs:
    def test_close_with_nonempty_queue_drains_admitted_jobs(self, toy_region):
        """Workers must not strand admitted jobs: the shutdown sentinel
        is queued *behind* them, so everything admitted before close()
        still reaches a terminal state."""
        service = PlannerService(ServiceConfig(workers=1))
        # No workers yet: submissions pile up in the queue.
        responses = [service.handle(_submit_request(toy_region))]
        assert responses[0]["ok"]
        with service._lock:
            queued = [j for j in service._jobs.values() if j.state == "queued"]
        assert queued
        service._start_workers()
        service.close()
        assert service._worker_threads == []
        with service._lock:
            jobs = list(service._jobs.values())
        assert jobs
        for job in jobs:
            assert job.done.wait(timeout=30), job.summary()
            assert job.state in ("done", "failed")

    def test_worker_threads_exit_on_sentinel_with_empty_queue(self):
        service = PlannerService(ServiceConfig(workers=2))
        service._start_workers()
        workers = list(service._worker_threads)
        assert len(workers) == 2
        service.close()
        for worker in workers:
            assert not worker.is_alive()


class TestClientLifecycleRegressions:
    """The half-open-constructor and idempotent-close fixes."""

    def test_close_is_idempotent(self, toy_region):
        with PlannerService(ServiceConfig()).start() as service:
            client = ServiceClient(service.address)
            assert client.ping()["ok"]
            client.close()
            client.close()
            client.__exit__(None, None, None)  # context-exit after close

    def test_request_after_close_raises_cleanly(self, toy_region):
        with PlannerService(ServiceConfig()).start() as service:
            client = ServiceClient(service.address)
            client.close()
            with pytest.raises(ServiceError, match="client is closed"):
                client.ping()

    def test_half_open_constructor_closes_socket(self, monkeypatch):
        """TCP connect succeeds, ``makefile`` fails: the constructor must
        close the connected socket instead of leaking it (the instance is
        never handed to the caller, so nobody else can)."""
        opened = []
        real_create = socket_mod.create_connection

        class _BrokenStream(Exception):
            pass

        def tracking_create(address, timeout=None):
            sock = real_create(address, timeout=timeout)
            opened.append(sock)
            monkeypatch.setattr(
                type(sock),
                "makefile",
                lambda self, *a, **k: (_ for _ in ()).throw(OSError("nope")),
                raising=True,
            )
            return sock

        with PlannerService(ServiceConfig()).start() as service:
            monkeypatch.setattr(
                "repro.service.client.socket.create_connection",
                tracking_create,
            )
            with pytest.raises(OSError):
                ServiceClient(service.address)
        assert len(opened) == 1
        assert opened[0].fileno() == -1  # closed, not leaked


class TestStartBindFailureRegression:
    def test_failed_bind_does_not_leak_listener(self, toy_region):
        blocker = socket_mod.socket(socket_mod.AF_INET, socket_mod.SOCK_STREAM)
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            service = PlannerService(ServiceConfig(port=port))
            with pytest.raises(OSError):
                service.start()
            # The half-configured listener was closed and disowned: the
            # service is startable again, not wedged in "already started".
            assert service._listener is None
            service.config = ServiceConfig(port=0)
            started = service.start()
            try:
                assert started.address[1] != 0
                assert started.handle(_submit_request(toy_region))["ok"]
            finally:
                service.close()
        finally:
            blocker.close()


class TestStatsUnderLockRegression:
    def test_stats_draining_consistent_under_concurrent_mutation(self):
        """``stats`` snapshots counters, queue depth, and the draining
        flag under one lock acquisition — concurrent drains and counter
        bumps never produce a torn read (the pre-fix code read
        ``self._draining`` after releasing the lock)."""
        service = PlannerService(ServiceConfig())
        stop = threading.Event()
        errors = []

        def hammer():
            while not stop.is_set():
                service._incr("cold")

        def flip_drain():
            while not stop.is_set():
                with service._lock:
                    service._draining = not service._draining

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        threads.append(threading.Thread(target=flip_drain))
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                response = service.handle({"op": "stats"})
                if not (
                    response["ok"]
                    and isinstance(response["draining"], bool)
                    and response["counters"]["cold"] >= 0
                ):  # pragma: no cover - the regression
                    errors.append(response)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert errors == []

    def test_stats_reports_draining_after_drain(self, toy_region):
        service = PlannerService(ServiceConfig(workers=1))
        with service._lock:
            service._draining = True
        response = service.handle({"op": "stats"})
        assert response["ok"] and response["draining"] is True
        rejected = service.handle(_submit_request(toy_region))
        assert not rejected["ok"] and rejected.get("rejected")


class TestShutdownReply:
    def test_reply_is_sent_before_the_drain_starts(self, monkeypatch):
        """An idle daemon drains and closes at once, and ``iris serve``
        then exits: a drain started before the ``shutdown`` reply is
        written can take the reply down with the process."""
        events = []
        real_sendall = socket_mod.socket.sendall

        def sendall(sock, data, *args):
            if b'"draining"' not in data:
                return real_sendall(sock, data, *args)
            # Hold the reply back: a drain started early runs meanwhile.
            time.sleep(0.2)
            real_sendall(sock, data, *args)
            events.append("reply sent")

        service = PlannerService(ServiceConfig(workers=1))
        real_drain = service.drain

        def drain(timeout_s=30.0):
            events.append("drain")
            return real_drain(timeout_s)

        monkeypatch.setattr(socket_mod.socket, "sendall", sendall)
        monkeypatch.setattr(service, "drain", drain)
        service.start()
        try:
            with ServiceClient(service.address) as client:
                assert client.shutdown(timeout_s=5)["draining"] is True
            assert service.wait_closed(timeout=30)
        finally:
            service.close()
        assert events == ["reply sent", "drain"]
