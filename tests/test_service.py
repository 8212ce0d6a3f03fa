"""The planner service: protocol, coalescing, cache-aside, drain.

The stampede test is the tentpole's acceptance check: N concurrent
clients asking for one uncached plan must cost exactly one cold plan
(asserted from the service counters *and* the obs mirror) and every
client must receive bit-identical bytes.
"""

from __future__ import annotations

import io
import json
import sys
import threading

import pytest

from repro import obs
from repro.core.hose import clear_hose_cache, hose_capacity
from repro.core.planner import plan_region
from repro.exceptions import ReproError, ServiceError
from repro.region.catalog import make_region
from repro.region.delta import RegionDelta
from repro.serialize import plan_to_dict, region_to_dict
from repro.service import PlannerService, ServiceConfig, ServiceClient
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
    check_protocol_version,
    encode_message,
    read_message,
)
from repro.store import PlanStore, canonical_json


class TestProtocol:
    def test_round_trip(self):
        message = {"op": "ping", "n": 1, "nested": {"a": [1, 2]}}
        stream = io.BytesIO(encode_message(message) + encode_message({"op": "x"}))
        assert read_message(stream) == message
        assert read_message(stream) == {"op": "x"}
        assert read_message(stream) is None  # clean EOF

    def test_encoding_is_canonical(self):
        a = encode_message({"b": 1, "a": 2})
        b = encode_message({"a": 2, "b": 1})
        assert a == b
        assert a.endswith(b"\n")

    def test_oversized_line_rejected(self):
        stream = io.BytesIO(b"x" * (MAX_MESSAGE_BYTES + 10) + b"\n")
        with pytest.raises(ServiceError):
            read_message(stream)

    def test_garbage_rejected(self):
        with pytest.raises(ServiceError):
            read_message(io.BytesIO(b"not json\n"))
        with pytest.raises(ServiceError):
            read_message(io.BytesIO(b"[1, 2, 3]\n"))

    def test_version_mismatch_rejected(self):
        check_protocol_version({"protocol_version": PROTOCOL_VERSION})
        check_protocol_version({})  # absent = assumed current
        with pytest.raises(ServiceError):
            check_protocol_version({"protocol_version": 999})


def _submit_request(region, delta=None):
    request = {"op": "submit", "region": region_to_dict(region)}
    if delta is not None:
        request["delta"] = delta.to_dict()
    return request


class TestHandleDispatch:
    """handle() is a pure request->response function; no sockets needed."""

    def test_ping_reports_version(self):
        import repro

        service = PlannerService(ServiceConfig())
        response = service.handle({"op": "ping"})
        assert response["ok"] and response["version"] == repro.__version__

    def test_unknown_op_and_bad_submit(self):
        service = PlannerService(ServiceConfig())
        assert not service.handle({"op": "warp"})["ok"]
        assert not service.handle({"op": "submit"})["ok"]
        assert not service.handle({"op": "status", "job_id": "job-9"})["ok"]

    def test_version_mismatch_is_an_error_response(self):
        service = PlannerService(ServiceConfig())
        response = service.handle({"op": "ping", "protocol_version": 999})
        assert not response["ok"]
        assert "protocol version" in response["error"]

    def test_queue_bound_rejects(self, toy_region):
        # No workers started: submissions stack up in the bounded queue.
        service = PlannerService(ServiceConfig(queue_size=2))
        seen = set()
        for i in range(2):
            region = RegionDelta.dc_resized("DC1", 11 + i).apply_to_region(
                toy_region
            )
            response = service.handle(_submit_request(region))
            assert response["ok"], response
            seen.add(response["job_id"])
        overflow = service.handle(
            _submit_request(
                RegionDelta.dc_resized("DC1", 99).apply_to_region(toy_region)
            )
        )
        assert not overflow["ok"] and overflow["rejected"]
        assert service.counters()["rejected"] == 1
        assert len(seen) == 2

    def test_draining_rejects_submissions(self, toy_region):
        service = PlannerService(ServiceConfig())
        service._draining = True
        response = service.handle(_submit_request(toy_region))
        assert not response["ok"] and response.get("rejected")


class TestStampede:
    def test_n_clients_one_cold_plan(self, toy_region):
        """The cache-stampede guarantee, from counters and from bytes."""
        n_clients = 8
        # Workers start only after the stampede: the job stays in flight
        # for the whole submission burst, so the coalescing window is
        # deterministic no matter how warm the hose cache happens to be.
        service = PlannerService(ServiceConfig(workers=2))
        try:
            with obs.tracing("stampede") as tracer:
                submits = [None] * n_clients
                barrier = threading.Barrier(n_clients)

                def client(i):
                    barrier.wait()
                    submits[i] = service.handle(_submit_request(toy_region))

                threads = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(n_clients)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert all(s["ok"] for s in submits)
                # Single-flight: every submission landed on one job.
                job_ids = {s["job_id"] for s in submits}
                assert len(job_ids) == 1
                service._start_workers()
                results = [
                    service.handle(
                        {"op": "result", "job_id": s["job_id"], "timeout_s": 120}
                    )
                    for s in submits
                ]
            record = tracer.record()
            assert all(r["ok"] for r in results)
            payloads = {r["plan"] for r in results}
            assert len(payloads) == 1  # bit-identical responses
            counters = service.counters()
            assert counters["cold"] == 1
            assert counters["queued"] == 1
            assert counters["coalesced"] == n_clients - 1
            assert counters["completed"] == 1
            # The obs mirror agrees with the service's own books.
            assert record.total("service.cold") == 1
            assert record.total("service.coalesced") == n_clients - 1
        finally:
            service.close()


class TestDaemonEndToEnd:
    def test_submit_store_delta_over_tcp(self, toy_region, tmp_path):
        store = PlanStore(tmp_path / "store")
        config = ServiceConfig(workers=2)
        with PlannerService(config, store=store).start() as service:
            with ServiceClient(service.address) as client:
                assert client.ping()["ok"]
                first = client.submit(toy_region)
                result = client.result(first["job_id"], timeout_s=120)
                assert result["outcome"] == "cold"

                # Same request again: served from the store, same bytes.
                second = client.submit(toy_region)
                warm = client.result(second["job_id"], timeout_s=120)
                assert warm["outcome"] == "store"
                assert warm["plan"] == result["plan"]

                # A delta job patches instead of replanning.
                delta = RegionDelta.dc_resized("DC1", 12)
                third = client.submit(toy_region, delta=delta)
                patched = client.result(third["job_id"], timeout_s=120)
                assert patched["outcome"] == "patched"
                assert patched["delta_stats"]["mode"] == "identity"

                # Patched plan equals a cold plan of the mutated region.
                fourth = client.submit(delta.apply_to_region(toy_region))
                cold = client.result(fourth["job_id"], timeout_s=120)
                assert cold["outcome"] == "store"  # patched plan was stored
                assert cold["plan"] == patched["plan"]

                jobs = client.jobs()
                assert len(jobs) == 4
                counters = client.stats()["counters"]
                assert counters["cold"] == 1
                assert counters["patched"] == 1
                assert counters["store_hits"] == 2

    def test_warm_store_survives_restart(self, toy_region, tmp_path):
        store_dir = tmp_path / "store"
        with PlannerService(ServiceConfig(), store=PlanStore(store_dir)).start() as service:
            with ServiceClient(service.address) as client:
                job = client.submit(toy_region)
                assert client.result(job["job_id"], timeout_s=120)["outcome"] == "cold"
        # Kill and restart on the same store: the plan is warm.
        with PlannerService(ServiceConfig(), store=PlanStore(store_dir)).start() as service:
            with ServiceClient(service.address) as client:
                job = client.submit(toy_region)
                result = client.result(job["job_id"], timeout_s=120)
                assert result["outcome"] == "store"

    def test_job_timeout_cancels(self, toy_region):
        # A deadline that has effectively already passed: the planner's
        # first cancel checkpoint unwinds the job as failed/timeout.
        config = ServiceConfig(job_timeout_s=1e-9)
        with PlannerService(config).start() as service:
            with ServiceClient(service.address) as client:
                job = client.submit(toy_region)
                with pytest.raises(ServiceError, match="cancelled|timeout"):
                    client.result(job["job_id"], timeout_s=60)
                counters = client.stats()["counters"]
                assert counters["timeouts"] == 1
                assert counters["failed"] == 1

    def test_result_timeout_is_an_error_not_a_hang(self, toy_region):
        service = PlannerService(ServiceConfig())  # no workers: never runs
        response = service.handle(_submit_request(toy_region))
        result = service.handle(
            {"op": "result", "job_id": response["job_id"], "timeout_s": 0.05}
        )
        assert not result["ok"]
        assert "timed out" in result["error"]

    def test_shutdown_drains_in_flight_work(self, toy_region):
        with PlannerService(ServiceConfig(workers=1)).start() as service:
            with ServiceClient(service.address) as client:
                job = client.submit(toy_region)
                client.shutdown(timeout_s=60)
                # The in-flight job still completes before the daemon dies.
                result = client.result(job["job_id"], timeout_s=120)
                assert result["ok"] and result["outcome"] == "cold"
            assert service.wait_closed(timeout=30)
            follow_up = service.handle(_submit_request(toy_region))
            assert not follow_up["ok"]

    def test_infeasible_region_fails_cleanly(self, toy_region):
        # The toy map is a tree: cutting any duct is unplannable. The job
        # must fail with the planner's error, not wedge the worker.
        delta = RegionDelta.duct_cut("DC1", "H1")
        with PlannerService(ServiceConfig()).start() as service:
            with ServiceClient(service.address) as client:
                job = client.submit(toy_region, delta=delta)
                with pytest.raises(ServiceError):
                    client.result(job["job_id"], timeout_s=120)
                status = client.status(job["job_id"])
                assert status["state"] == "failed"
                # The daemon is still healthy afterwards.
                assert client.ping()["ok"]


def _catalog_region(map_index, n_dcs):
    return make_region(
        map_index, n_dcs, dc_fibers=8, failure_tolerance=2, seed=2020
    ).spec


def _plan_bytes(plan) -> str:
    return canonical_json(plan_to_dict(plan, full=True))


class TestWorkerThreads:
    """Daemon workers are threads of one process: a job's plan bytes must
    not depend on what another thread does meanwhile."""

    def test_plan_bytes_ignore_another_threads_hose_lookups(self):
        region = _catalog_region(0, 5)
        clear_hose_cache()
        serial = _plan_bytes(plan_region(region))
        clear_hose_cache()
        stop = threading.Event()

        def lookups():
            n = 0
            while not stop.is_set():
                n += 1
                hose_capacity([("A", "B")], {"A": n % 1000 + 1, "B": 1})

        thread = threading.Thread(target=lookups)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: leaks show
        thread.start()
        try:
            concurrent = _plan_bytes(plan_region(region))
        finally:
            stop.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
            clear_hose_cache()
        assert not thread.is_alive()
        assert concurrent == serial

    @staticmethod
    def _stress_script():
        """Phases of submissions over four 5- and 6-DC catalog regions:
        the cold bases, then per base a resize, a bypass and a repeat."""
        from tests.test_replan import _bypass_delta

        cells = ((0, 5), (1, 5), (0, 6), (1, 6))
        regions = [_catalog_region(*cell) for cell in cells]
        later = []
        for region in regions:
            resize = RegionDelta.dc_resized(region.dcs[0], 6)
            bypass = _bypass_delta(plan_region(region))
            later += [
                _submit_request(region, resize),
                _submit_request(region, bypass),
                _submit_request(region),
            ]
        return [[_submit_request(region) for region in regions], later]

    @staticmethod
    def _serve(script, workers, store_dir):
        """Serve each phase's submissions at once; key -> plan bytes."""
        served: dict[str, str] = {}
        config = ServiceConfig(workers=workers, queue_size=32)
        with PlannerService(config, store=PlanStore(store_dir)) as service:
            service._start_workers()
            for phase in script:
                submits = [service.handle(request) for request in phase]
                assert all(s["ok"] for s in submits), submits
                for submit in submits:
                    result = service.handle(
                        {"op": "result", "job_id": submit["job_id"],
                         "timeout_s": 300}
                    )
                    assert result["ok"], result
                    plan = served.setdefault(submit["key"], result["plan"])
                    assert plan == result["plan"]
            assert service.counters()["failed"] == 0
        return served

    def test_four_workers_serve_the_one_worker_bytes(self, tmp_path):
        script = self._stress_script()
        one = self._serve(script, 1, tmp_path / "one")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # switch threads often: races show
        try:
            four = self._serve(script, 4, tmp_path / "four")
        finally:
            sys.setswitchinterval(interval)
        assert len(one) == 12
        assert four == one


def _answer(service, region, delta=None):
    """Submit one request and wait for its successful result."""
    submit = service.handle(_submit_request(region, delta))
    assert submit["ok"], submit
    result = service.handle(
        {"op": "result", "job_id": submit["job_id"], "timeout_s": 120}
    )
    assert result["ok"], result
    return result


def _count_decodes(monkeypatch):
    """Wrap the daemon's ``plan_from_dict``; returns the call list."""
    import repro.service.daemon as daemon_mod

    calls = []
    real = daemon_mod.plan_from_dict

    def counting(payload):
        calls.append(1)
        return real(payload)

    monkeypatch.setattr(daemon_mod, "plan_from_dict", counting)
    return calls


class TestStoreHits:
    """A store hit serves the blob's verified text: no decode, no encode,
    no plan cached; a delta's stored base is decoded once."""

    def test_hit_decodes_nothing(self, toy_region, tmp_path, monkeypatch):
        import repro.service.daemon as daemon_mod

        with PlannerService(ServiceConfig(), store=PlanStore(tmp_path)) as service:
            service._start_workers()
            cold = _answer(service, toy_region)

            def refuse(payload):
                raise ReproError("a store hit must not decode")

            monkeypatch.setattr(daemon_mod, "plan_from_dict", refuse)
            warm = _answer(service, toy_region)
            assert (cold["outcome"], warm["outcome"]) == ("cold", "store")
            assert warm["plan"] == cold["plan"]
            assert warm["plan"] == canonical_json(
                plan_to_dict(plan_region(toy_region), full=True)
            )

    def test_restarted_daemon_decodes_a_stored_base_once(
        self, toy_region, tmp_path, monkeypatch
    ):
        with PlannerService(ServiceConfig(), store=PlanStore(tmp_path)) as service:
            service._start_workers()
            assert _answer(service, toy_region)["outcome"] == "cold"
        decodes = _count_decodes(monkeypatch)
        with PlannerService(ServiceConfig(), store=PlanStore(tmp_path)) as service:
            service._start_workers()
            outcomes = [_answer(service, toy_region)["outcome"]]
            assert not service._plans  # a hit caches no plan
            outcomes += [
                _answer(
                    service, toy_region, RegionDelta.dc_resized("DC1", 12)
                )["outcome"],
                _answer(
                    service, toy_region, RegionDelta.dc_resized("DC2", 12)
                )["outcome"],
            ]
        assert outcomes == ["store", "patched", "patched"]
        assert len(decodes) == 1

    def test_flipped_payload_replans_and_heals(self, toy_region, tmp_path):
        store = PlanStore(tmp_path)
        with PlannerService(ServiceConfig(), store=store) as service:
            service._start_workers()
            first = _answer(service, toy_region)
            (blob,) = tmp_path.glob("objects/*/*.json")
            text = blob.read_text()
            # Change one digit of the payload: the JSON stays valid.
            at = text.index(',"payload":')
            at += next(i for i, c in enumerate(text[at:]) if c in "12345678")
            blob.write_text(text[:at] + str(int(text[at]) + 1) + text[at + 1:])

            replanned = _answer(service, toy_region)
            assert replanned["outcome"] == "cold"
            assert replanned["plan"] == first["plan"]
            assert store.corrupt == 1
            healed = _answer(service, toy_region)
            assert healed["outcome"] == "store"
            assert healed["plan"] == first["plan"]
            assert blob.read_text() == text

    def test_plan_cache_is_lru(self, toy_region, tmp_path, monkeypatch):
        """A base plan each delta uses stays in memory while plans nobody
        reads again age out. With room for three plans: A, B, A's first
        delta (which uses A), then C evicts B, not A."""
        decodes = _count_decodes(monkeypatch)
        region_b = RegionDelta.dc_resized("DC1", 8).apply_to_region(toy_region)
        region_c = RegionDelta.dc_resized("DC2", 8).apply_to_region(toy_region)
        config = ServiceConfig(keep_results=3)
        with PlannerService(config, store=PlanStore(tmp_path)) as service:
            service._start_workers()
            outcomes = [
                _answer(service, toy_region)["outcome"],
                _answer(service, region_b)["outcome"],
                _answer(
                    service, toy_region, RegionDelta.dc_resized("DC3", 12)
                )["outcome"],
                _answer(service, region_c)["outcome"],
                _answer(
                    service, toy_region, RegionDelta.dc_resized("DC4", 12)
                )["outcome"],
            ]
        assert outcomes == ["cold", "cold", "patched", "cold", "patched"]
        assert decodes == []  # the second delta patched A from memory


class TestClientErrors:
    def test_connect_refused_raises_service_error(self):
        with pytest.raises(ServiceError, match="cannot reach"):
            ServiceClient(("127.0.0.1", 1), connect_timeout_s=0.5)

    def test_malformed_line_gets_error_response(self, toy_region):
        import socket as socket_mod

        with PlannerService(ServiceConfig()).start() as service:
            with socket_mod.create_connection(service.address, timeout=10) as sock:
                sock.sendall(b"this is not json\n")
                reply = json.loads(sock.makefile("rb").readline())
                assert not reply["ok"]
