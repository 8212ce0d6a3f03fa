"""Plan workloads (golden5, grid10, scale15) and the traced plan pipeline.

A plan goes through ``repro.api.plan(region)`` with the default config
after ``clear_hose_cache()``, so every plan is cold, as an ``iris plan``
invocation is. Passes repeat until the run's seconds are spent; a pass
plans every cell of the workload once.

The traced run times the public calls ``IrisPlanner.plan`` makes, in its
order, as sibling spans (:func:`traced_plan`), and then pushes each plan
through the calls the daemon makes to store and serve it
(:func:`serve_layers`). Nothing in ``src/`` is instrumented for this.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from repro.api import plan as api_plan
from repro.core.amplifiers import place_amplifiers
from repro.core.cutthrough import place_cut_throughs
from repro.core.hose import (
    clear_hose_cache,
    hose_cache_stats,
    hose_capacity,
    oriented_pairs_through_edge,
)
from repro.core.plan import IrisPlan, TopologyPlan
from repro.core.residual import residual_fiber_pairs
from repro.core.topology import enumerate_scenario_paths, prune_overlong_ducts
from repro.exceptions import ReproError
from repro.region.fibermap import duct_key
from repro.serialize import plan_from_dict, plan_to_dict
from repro.service.protocol import encode_message, read_message
from repro.store import PlanStore
from repro.store.keys import service_request_key
from repro.units import IRIS_MAX_DUCT_KM

from .metrics import percentile
from .workloads import cell_name, make_regions, plan_order, work_dir

#: A traced plan fails its check when the spans leave more than this
#: share of its wall time unaccounted for.
MAX_UNACCOUNTED = 0.02


def canonical(plan: IrisPlan) -> str:
    """The daemon's result encoding: compact, sorted full-plan JSON."""
    return json.dumps(
        plan_to_dict(plan, full=True), sort_keys=True, separators=(",", ":")
    )


def digest(text: str) -> str:
    """sha256 of a canonical plan encoding."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def _span(spans: dict[str, float], name: str):
    start = perf_counter()
    try:
        yield
    finally:
        spans[name] = perf_counter() - start


@dataclass
class TracedPlan:
    """One plan built by :func:`traced_plan`, with its spans and counts."""

    plan: IrisPlan
    wall_s: float
    spans: dict[str, float]
    counts: dict[str, float]

    def unaccounted_share(self) -> float:
        """The share of the wall time no span covers."""
        return self.spans["plan.unaccounted_s"] / self.wall_s

    def values(self) -> dict[str, float]:
        """Spans and counts under their metric names."""
        return {**self.spans, **self.counts}


def traced_plan(region) -> TracedPlan:
    """Plan ``region`` through the public calls of ``IrisPlanner.plan``.

    Each call is timed as one sibling span, so the spans partition the
    wall time; ``plan.unaccounted_s`` is the glue left between them. The
    capacity span is ``plan_topology``'s serial capacity loop: per
    scenario, per used duct in sorted order, the hose capacity of the
    oriented pairs crossing it, kept as a per-duct maximum.
    """
    spans: dict[str, float] = {}
    constraints = region.constraints
    start = perf_counter()
    with _span(spans, "plan.prune_s"):
        fmap = prune_overlong_ducts(
            region.fiber_map, min(constraints.max_span_km, IRIS_MAX_DUCT_KM)
        )
    with _span(spans, "plan.enumerate_s"):
        scenario_paths, total_raw = enumerate_scenario_paths(
            fmap,
            constraints.failure_tolerance,
            sla_fiber_km=constraints.sla_fiber_km,
        )
    before = hose_cache_stats()
    with _span(spans, "plan.capacity_s"):
        edge_capacity: dict = {}
        for paths in scenario_paths.values():
            used = sorted(
                {
                    duct_key(u, v)
                    for path in paths.values()
                    for u, v in zip(path, path[1:])
                }
            )
            for edge in used:
                needed = hose_capacity(
                    tuple(sorted(oriented_pairs_through_edge(edge, paths))),
                    region.dc_fibers,
                )
                if needed > edge_capacity.get(edge, 0):
                    edge_capacity[edge] = needed
    after = hose_cache_stats()
    topology = TopologyPlan(
        edge_capacity=edge_capacity,
        scenario_paths=scenario_paths,
        scenario_count_total=total_raw,
    )
    with _span(spans, "plan.amplifiers_s"):
        distance_amps, effective = place_amplifiers(region, topology)
    with _span(spans, "plan.cutthrough_s"):
        cut_throughs, effective, amplifiers = place_cut_throughs(
            region,
            effective,
            site_counts=distance_amps.site_counts,
            assignments=distance_amps.assignments,
        )
    with _span(spans, "plan.residual_s"):
        residual = residual_fiber_pairs(region, topology)
    plan = IrisPlan(
        region=region,
        topology=topology,
        amplifiers=amplifiers,
        cut_throughs=cut_throughs,
        residual=residual,
        effective_paths=effective,
    )
    with _span(spans, "plan.validate_s"):
        problems = plan.validate()
    wall_s = perf_counter() - start
    if problems:
        raise ReproError(f"traced plan violates constraints: {problems[0]}")
    spans["plan.unaccounted_s"] = wall_s - sum(spans.values())
    lookups = after.lookups - before.lookups
    hits = after.hits - before.hits
    counts = {
        "enumerate.scenarios": len(scenario_paths),
        "enumerate.scenarios_raw": total_raw,
        "hose.lookups": lookups,
        "hose.misses": after.misses - before.misses,
        "hose.cold_solves": after.cold_solves - before.cold_solves,
        "hose.incremental_solves": (
            after.incremental_solves - before.incremental_solves
        ),
        "hose.hit_ratio": hits / lookups if lookups else 0.0,
        "amplifiers.sites": len(distance_amps.site_counts),
        "cutthrough.links": len(cut_throughs),
        "validate.paths": len(plan.effective_paths),
    }
    return TracedPlan(plan=plan, wall_s=wall_s, spans=spans, counts=counts)


@dataclass
class LayerSamples:
    """Per-layer samples of a traced run, reduced by :meth:`metrics`."""

    #: Per pass, per plan: (untraced seconds, traced seconds, spans+counts).
    passes: list[list[tuple[float, float, dict[str, float]]]] = field(
        default_factory=list
    )
    #: Per serving-layer metric: one sample per plan or request served.
    served: dict[str, list[float]] = field(default_factory=dict)
    json_bytes: list[int] = field(default_factory=list)

    def add(self, name: str, value: float) -> None:
        self.served.setdefault(name, []).append(value)

    def metrics(self) -> dict[str, float]:
        """Plan spans and counts: the mean per plan within a pass, then
        the median over passes. Serving layers: the median sample."""
        per_pass: dict[str, list[float]] = {}
        for plans in self.passes:
            means = {
                name: statistics.mean(values[name] for _, _, values in plans)
                for name in plans[0][2]
            }
            traced_s = sum(wall for _, wall, _ in plans)
            untraced_s = sum(untraced for untraced, _, _ in plans)
            means["trace.overhead_frac"] = traced_s / untraced_s - 1.0
            for name, value in means.items():
                per_pass.setdefault(name, []).append(value)
        out = {name: statistics.median(v) for name, v in per_pass.items()}
        out.update(
            {name: statistics.median(v) for name, v in self.served.items()}
        )
        out["plan.json_bytes"] = statistics.mean(self.json_bytes)
        return out


def serve_layers(
    samples: LayerSamples,
    store: PlanStore,
    key: str,
    plan: IrisPlan | None,
    outcome: str,
    extra: dict | None = None,
) -> str:
    """Push one result through the calls the daemon makes to serve it.

    ``plan`` is the freshly planned or patched result, stored with
    ``PlanStore.put``; ``None`` means a store hit, read back with
    ``PlanStore.get`` and ``plan_from_dict``. Either way the plan is
    encoded as the daemon does and framed as a protocol ``result``
    message, which is then parsed back. Returns the canonical encoding.
    """
    if plan is None:
        start = perf_counter()
        payload = store.get(key)
        samples.add("store.get_s", perf_counter() - start)
        if payload is None:
            raise ReproError(f"store miss for key {key[:12]}")
        start = perf_counter()
        plan = plan_from_dict(payload)
        samples.add("serialize.decode_s", perf_counter() - start)
        del payload
    start = perf_counter()
    as_dict = plan_to_dict(plan, full=True)
    text = json.dumps(as_dict, sort_keys=True, separators=(",", ":"))
    samples.add("serialize.encode_s", perf_counter() - start)
    if outcome != "store":
        start = perf_counter()
        store.put(key, as_dict, kind="plan")
        samples.add("store.put_s", perf_counter() - start)
    del as_dict
    response = {
        "ok": True,
        "op": "result",
        "job_id": "job-000001",
        "state": "done",
        "outcome": outcome,
        "plan": text,
        **(extra or {}),
    }
    start = perf_counter()
    line = encode_message(response)
    samples.add("protocol.encode_s", perf_counter() - start)
    start = perf_counter()
    read_message(io.BytesIO(line))
    samples.add("protocol.decode_s", perf_counter() - start)
    samples.add("protocol.message_bytes", len(line))
    return text


def request_key(region) -> str:
    """The key the daemon stores ``region``'s plan under."""
    return service_request_key(
        design="iris",
        region=region,
        config={"prune_enumeration": True, "validate": True},
    )


@dataclass
class RunResult:
    """What a worker reports for one run of one workload."""

    setup_s: float
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def tail(self, name: str, samples: list[float], q: float) -> None:
        """Record a tail percentile, or a note when too few samples."""
        try:
            self.metrics[name] = percentile(samples, q)
        except ValueError as exc:
            self.notes.append(f"{name}: {exc}")

    def record_digest(self, name: str, value: str) -> None:
        """Record a region's plan digest; a second, different one fails."""
        if self.digests.setdefault(name, value) != value:
            self.fail(f"{name}: plan bytes differ between passes")


def run_plan_workload(
    workload: str, seed: int, seconds: float, trace: bool, t0: float,
    setup_only: bool,
) -> RunResult:
    """Run ``workload`` for ``seconds``; ``t0`` is the process start."""
    cells = plan_order(workload, seed)
    regions = list(zip(map(cell_name, cells), make_regions(cells)))
    result = RunResult(setup_s=perf_counter() - t0)
    if setup_only:
        return result
    if trace:
        _trace_plans(regions, seconds, result)
    else:
        _time_plans(workload, regions, seconds, result)
    return result


def _time_plans(workload, regions, seconds, result: RunResult) -> None:
    first: dict[str, IrisPlan] = {}
    pass_means: list[float] = []
    durations: list[float] = []
    start = perf_counter()
    while not pass_means or perf_counter() - start < seconds:
        in_pass = []
        for name, region in regions:
            clear_hose_cache()
            result.attempted += 1
            began = perf_counter()
            try:
                plan = api_plan(region)
            except ReproError as exc:
                result.fail(f"{name}: {exc}")
                continue
            in_pass.append(perf_counter() - began)
            if first.setdefault(name, plan) != plan:
                result.fail(f"{name}: a repeated plan differs from the first")
            del plan
        if not in_pass:
            break
        durations.extend(in_pass)
        pass_means.append(statistics.mean(in_pass))
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    result.metrics["latency_s"] = statistics.median(pass_means)
    result.metrics["throughput_per_s"] = len(durations) / sum(durations)
    if workload == "golden5":
        result.tail("plan_s_p75", durations, 75)
    for name, plan in first.items():
        result.record_digest(name, digest(canonical(plan)))


def _trace_plans(regions, seconds, result: RunResult) -> None:
    samples = LayerSamples()
    start = perf_counter()
    with work_dir() as scratch:
        store = PlanStore(scratch / "store")
        while not samples.passes or perf_counter() - start < seconds:
            plans = []
            for name, region in regions:
                clear_hose_cache()
                result.attempted += 1
                began = perf_counter()
                try:
                    reference = api_plan(region)
                except ReproError as exc:
                    result.fail(f"{name}: {exc}")
                    continue
                untraced_s = perf_counter() - began
                clear_hose_cache()
                traced = traced_plan(region)
                check_traced(name, traced, reference, result)
                del reference
                key = request_key(region)
                text = serve_layers(samples, store, key, traced.plan, "cold")
                plans.append((untraced_s, traced.wall_s, traced.values()))
                samples.json_bytes.append(len(text.encode("utf-8")))
                result.record_digest(name, digest(text))
                del traced, text
                serve_layers(samples, store, key, None, "store")
            if not plans:
                break
            samples.passes.append(plans)
    result.metrics.update(samples.metrics())


def check_traced(name, traced: TracedPlan, reference, result: RunResult):
    """Fail ``result`` unless ``traced`` equals ``reference`` and its
    spans account for all but :data:`MAX_UNACCOUNTED` of its wall time."""
    if traced.plan != reference:
        result.fail(f"{name}: the traced pipeline's plan differs from api.plan")
    share = traced.unaccounted_share()
    if not 0 <= share < MAX_UNACCOUNTED:
        result.fail(
            f"{name}: spans leave {share:.1%} of the traced wall time "
            "unaccounted for"
        )
