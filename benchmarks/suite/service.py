"""service_mix: an ``iris serve`` daemon driven by two closed-loop clients.

The daemon runs as a child process (``--workers 1``, see
:data:`DAEMON_WORKERS`, and a fresh store in the run's scratch directory)
on loopback. This process is the load generator: two client threads, one
TCP connection each, send their seeded scripts (see
:func:`workloads.client_script`), as many rounds as the run's seconds buy
(:func:`workloads.service_rounds`). A request is timed from its submit
being sent to its result being fully received.

Building the bypass deltas needs each base region's plan; that is input
generation, done after the daemon answers its first ping and before the
timed window, so it counts in neither.

The traced run replays every completed request in this process through
the public calls the daemon makes, on the same inputs, and checks that
the replayed bytes equal the daemon's.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter

from repro.api import plan as api_plan
from repro.core.hose import clear_hose_cache
from repro.exceptions import ServiceError
from repro.region.delta import RegionDelta
from repro.serialize import region_to_dict
from repro.service import ServiceClient
from repro.service.replan import DeltaStats, apply_delta
from repro.store import PlanStore

from .planning import (
    LayerSamples,
    RunResult,
    canonical,
    check_traced,
    digest,
    request_key,
    serve_layers,
    traced_plan,
)
from .workloads import (
    SERVICE_CELLS,
    Request,
    bypass_delta,
    cell_name,
    client_script,
    make_regions,
    service_rounds,
    work_dir,
)

#: Daemon worker threads. One, because two concurrent jobs break the
#: checks: PlanStore names its manifest's tmp file by PID alone, so two
#: worker threads' put() calls collide and a job fails, and a plan's
#: ``timings.hose_lookups`` counts the other job's lookups too, so one
#: key's bytes vary. The clients still share the daemon's one GIL
#: between the worker thread and their two connection threads.
DAEMON_WORKERS = 1

#: Server-side wait for one result, and the slack the socket adds to it.
RESULT_TIMEOUT_S = 120.0
SOCKET_SLACK_S = 30.0

#: How long the daemon may take to start, to serve both scripts, and to
#: drain and exit.
START_TIMEOUT_S = 60.0
DRIVE_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 30.0

#: The service tail percentile: the highest one with ten samples beyond
#: it in the 104 requests of a 15 s run.
TAIL = 90


class Daemon:
    """An ``iris serve`` child process; use as a context manager."""

    def __init__(self, store_dir) -> None:
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--workers", str(DAEMON_WORKERS), "--store", str(store_dir),
        ]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        try:
            # "iris daemon listening on HOST:PORT" once bound.
            ready, _, _ = select.select(
                [self.proc.stderr], [], [], START_TIMEOUT_S
            )
            line = self.proc.stderr.readline().decode() if ready else ""
            if " listening on " not in line:
                raise ServiceError(f"the daemon did not start: {line.strip()!r}")
            host, port = line.split()[-1].rsplit(":", 1)
            self.address = (host, int(port))
        except BaseException:
            self.proc.kill()
            self.close()
            raise

    def client(self) -> ServiceClient:
        return ServiceClient(self.address)

    def stop(self) -> float:
        """Drain the daemon, reap it, and return its peak RSS in MB."""
        # SIGTERM, not the shutdown op: an idle daemon can finish draining
        # and exit before the op's reply is sent.
        self.proc.terminate()
        deadline = perf_counter() + STOP_TIMEOUT_S + 10.0
        flags = os.WNOHANG
        while True:
            pid, status, usage = os.wait4(self.proc.pid, flags)
            if pid:
                break
            if perf_counter() > deadline:
                self.proc.kill()
                flags = 0
            else:
                time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.returncode != 0:
            raise ServiceError(
                f"the daemon exited with status {self.proc.returncode}"
            )
        return usage.ru_maxrss / 1024.0

    def close(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        self.proc.stderr.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class Inputs:
    """Per client, per base region, per target: region, delta, message."""

    regions: list[list[list]] = field(default_factory=list)
    deltas: list[list[list]] = field(default_factory=list)
    messages: list[list[list[dict]]] = field(default_factory=list)
    base_digests: dict[tuple[int, int], str] = field(default_factory=dict)


def _make_inputs(scripts, bases) -> Inputs:
    inputs = Inputs()
    for client, (script, regions) in enumerate(zip(scripts, bases)):
        inputs.regions.append([])
        inputs.deltas.append([])
        inputs.messages.append([])
        for index, (region, edits) in enumerate(zip(regions, script.edits)):
            clear_hose_cache()
            base = api_plan(region)
            inputs.base_digests[client, index] = digest(canonical(base))
            deltas = (
                [None]
                + [
                    RegionDelta.dc_resized(region.dcs[dc], fibers)
                    for dc, fibers in edits.resizes
                ]
                + [bypass_delta(base, f) for f in edits.bypass_factors]
            )
            encoded = region_to_dict(region)
            inputs.deltas[client].append(deltas)
            inputs.regions[client].append(
                [region if d is None else d.apply_to_region(region) for d in deltas]
            )
            inputs.messages[client].append(
                [
                    {"op": "submit", "region": encoded}
                    if d is None
                    else {"op": "submit", "region": encoded, "delta": d.to_dict()}
                    for d in deltas
                ]
            )
    return inputs


@dataclass
class Exchange:
    """One request as a client saw it (times are ``perf_counter`` reads)."""

    client: int
    request: Request
    sent: float
    submitted: float = 0.0
    received: float = 0.0
    outcome: str | None = None
    digest: str | None = None
    error: str | None = None


def _client(address, client, requests, messages, out) -> None:
    """One closed-loop client: submit, wait for the result, repeat."""
    current = None
    try:
        with ServiceClient(address) as conn:
            for request in requests:
                current = Exchange(client, request, perf_counter())
                out.append(current)
                reply = conn.request(
                    messages[request.region][request.target],
                    timeout_s=SOCKET_SLACK_S,
                )
                current.submitted = perf_counter()
                if reply.get("ok"):
                    reply = conn.request(
                        {
                            "op": "result",
                            "job_id": reply["job_id"],
                            "timeout_s": RESULT_TIMEOUT_S,
                        },
                        timeout_s=RESULT_TIMEOUT_S + SOCKET_SLACK_S,
                    )
                current.received = perf_counter()
                if reply.get("ok"):
                    current.outcome = reply["outcome"]
                    current.digest = digest(reply["plan"])
                else:
                    current.error = str(reply.get("error"))
    except ServiceError as exc:
        if current is None or current.received:
            current = Exchange(client, requests[0], perf_counter())
            out.append(current)
        current.error = str(exc)


def _drive(address, scripts, inputs: Inputs):
    """Run both clients; returns (exchanges, seconds the window lasted)."""
    logs: list[list[Exchange]] = [[] for _ in scripts]
    start = perf_counter()
    threads = [
        threading.Thread(
            target=_client,
            args=(
                address, client, script.requests, inputs.messages[client],
                logs[client],
            ),
            daemon=True,
        )
        for client, script in enumerate(scripts)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=DRIVE_TIMEOUT_S)
        if thread.is_alive():
            raise ServiceError("a client thread did not finish")
    exchanges = [exchange for log in logs for exchange in log]
    end = max((e.received for e in exchanges), default=start)
    return exchanges, end - start


def _check(result: RunResult, exchanges, inputs: Inputs, counters) -> None:
    """Outcomes, byte identity per key, and the daemon's own counters."""
    served: dict[tuple[int, int, int], str] = {}
    tally = {"cold": 0, "patched": 0, "store": 0}
    for e in exchanges:
        where = (e.client, e.request.region, e.request.target)
        result.attempted += 1
        if e.error is not None:
            result.fail(f"client {e.client} request {where}: {e.error}")
            continue
        if e.outcome != e.request.expect:
            result.fail(
                f"{where}: outcome {e.outcome}, expected {e.request.expect}"
            )
            continue
        tally[e.outcome] += 1
        expected = served.setdefault(
            where,
            inputs.base_digests[where[:2]] if e.request.target == 0 else e.digest,
        )
        if e.digest != expected:
            result.fail(f"{where}: plan bytes differ from the first answer")
    for name, expected in (
        ("cold", tally["cold"]),
        ("patched", tally["patched"]),
        ("store_hits", tally["store"]),
        ("coalesced", 0),
        ("rejected", 0),
        ("failed", 0),
    ):
        if counters.get(name) != expected:
            result.fail(
                f"daemon counter {name} is {counters.get(name)}, "
                f"expected {expected}"
            )


def run_service_workload(
    seed: int, seconds: float, trace: bool, t0: float, setup_only: bool
) -> RunResult:
    """Run service_mix for ``seconds``; ``t0`` is the process start."""
    rounds = service_rounds(seconds)
    scripts = [
        client_script(seed, c, rounds) for c in range(len(SERVICE_CELLS))
    ]
    bases = [make_regions(cells) for cells in SERVICE_CELLS]
    with work_dir() as scratch:
        with Daemon(scratch / "store") as daemon:
            with daemon.client() as conn:
                conn.ping()
            result = RunResult(setup_s=perf_counter() - t0)
            if setup_only:
                daemon.stop()
                return result
            inputs = _make_inputs(scripts, bases)
            exchanges, window = _drive(daemon.address, scripts, inputs)
            with daemon.client() as conn:
                counters = conn.stats()["counters"]
            rss_mb = daemon.stop()
        _check(result, exchanges, inputs, counters)
        done = [e for e in exchanges if e.outcome is not None]
        if trace:
            result.metrics.update(
                _replay(done, bases, inputs, PlanStore(scratch / "replay"), result)
            )
            result.metrics["client.submit_s"] = statistics.median(
                e.submitted - e.sent for e in done
            )
            result.metrics["client.result_s"] = statistics.median(
                e.received - e.submitted for e in done
            )
            for name in (
                "store_hits", "patched", "cold", "coalesced", "rejected", "failed"
            ):
                result.metrics[f"service.{name}"] = counters[name]
            return result
    latency = [e.received - e.sent for e in done]
    # The whole window is one pass, so latency_s is the mean request time:
    # the median sits where the store and patched modes meet and jumps.
    result.metrics["latency_s"] = statistics.mean(latency)
    result.metrics["request_s_p50"] = statistics.median(latency)
    result.metrics["throughput_per_s"] = len(done) / window
    result.metrics["peak_rss_mb"] = rss_mb
    result.tail(f"request_s_p{TAIL}", latency, TAIL)
    for outcome in ("store", "patched", "cold"):
        samples = [e.received - e.sent for e in done if e.outcome == outcome]
        if samples:
            result.metrics[f"{outcome}_s_p50"] = statistics.median(samples)
    for (client, index), value in sorted(inputs.base_digests.items()):
        result.digests[cell_name(SERVICE_CELLS[client][index])] = value
    return result


def _replay(done, bases, inputs: Inputs, store: PlanStore, result) -> dict:
    """Serve every completed request again, in submit order, in-process."""
    samples = LayerSamples()
    cold_plans = []
    base_plans = {}
    replan: dict[str, list[float]] = {
        "replan.add_s": [],
        "replan.resize_s": [],
        "replan.scenarios_reused": [],
        "replan.scenarios_computed": [],
    }
    for e in sorted(done, key=lambda e: e.sent):
        client, index, target = e.client, e.request.region, e.request.target
        name = cell_name(SERVICE_CELLS[client][index])
        extra = None
        plan = None
        if e.outcome == "cold":
            region = bases[client][index]
            clear_hose_cache()
            began = perf_counter()
            plan = api_plan(region)
            untraced_s = perf_counter() - began
            clear_hose_cache()
            traced = traced_plan(region)
            check_traced(name, traced, plan, result)
            cold_plans.append((untraced_s, traced.wall_s, traced.values()))
            del traced
            base_plans[client, index] = plan
        elif e.outcome == "patched":
            delta = inputs.deltas[client][index][target]
            stats = DeltaStats()
            began = perf_counter()
            plan = apply_delta(base_plans[client, index], delta, stats=stats)
            elapsed = perf_counter() - began
            kind = "add" if delta.kind == "duct_added" else "resize"
            replan[f"replan.{kind}_s"].append(elapsed)
            replan["replan.scenarios_reused"].append(stats.reused)
            replan["replan.scenarios_computed"].append(stats.computed)
            extra = {
                "delta_stats": {
                    "mode": stats.mode,
                    "realization": stats.realization,
                    "scenarios_reused": stats.reused,
                    "bypass_checks": stats.checked,
                    "scenarios_computed": stats.computed,
                }
            }
        key = request_key(inputs.regions[client][index][target])
        text = serve_layers(samples, store, key, plan, e.outcome, extra)
        if e.outcome == "cold":
            samples.json_bytes.append(len(text.encode("utf-8")))
        if digest(text) != e.digest:
            result.fail(
                f"{name} target {target}: replayed bytes differ from the daemon's"
            )
        del plan, text
    samples.passes.append(cold_plans)
    out = samples.metrics()
    out["planner.cold_s"] = statistics.median(u for u, _, _ in cold_plans)
    for metric, values in replan.items():
        out[metric] = statistics.median(values)
    return out
