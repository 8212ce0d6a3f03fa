"""Algorithm 1: topology & capacity planning (§4.1).

For every failure scenario of up to ``tolerance`` duct cuts, compute every
DC pair's shortest path (OC1/OC3) and provision each duct at the maximum,
over scenarios, of the hose max-flow across it (OC2/OC4). Ducts longer than
the TC1 reach are excluded up front: no point-to-point connection can use
them under any switching technology. A :class:`DuctSizing` rule may
replace the hose max-flow as a duct's per-scenario need (the robust design
sizes for a sampled TM ensemble instead); everything else stays as is.

Enumeration is pruned exactly: cutting ducts that no shortest path of a
scenario uses leaves that scenario's paths (hence capacities) unchanged, so
each enumerated scenario is only extended with ducts its own shortest-path
set uses. Every omitted scenario has the same path set as some enumerated
one. Tests cross-check this against brute force on small maps.

Both phases are scenario-parallel: scenarios of one enumeration level (and
scenario chunks of the capacity phase) are independent, so they fan out
over an execution backend from :mod:`repro.core.engine` selected by the
``jobs=`` parameter. The frontier is partitioned into contiguous chunks and
per-duct maxima are merged in the parent, so parallel plans are
bit-identical to serial ones.
"""

from __future__ import annotations

import itertools
from typing import Any, Mapping, Protocol, Sequence

from repro import obs
from repro.core.engine import (
    CancelToken,
    ExecutionBackend,
    PlanTimings,
    SerialBackend,
    get_backend,
    map_in_chunks,
    worker_safe,
)
from repro.core.failures import Scenario
from repro.core.hose import hose_capacity
from repro.core.plan import Pair, TopologyPlan
from repro.exceptions import InfeasibleRegionError
from repro.region.fibermap import Duct, FiberMap, RegionSpec, duct_key, pair_key
from repro.units import IRIS_MAX_DUCT_KM


def prune_overlong_ducts(fmap: FiberMap, max_span_km: float) -> FiberMap:
    """A copy of ``fmap`` without ducts beyond point-to-point reach (TC1)."""
    pruned = fmap.copy()
    for u, v in list(pruned.ducts):
        if pruned.duct_length(u, v) > max_span_km + 1e-9:
            pruned.remove_duct(u, v)
    return pruned


def compute_scenario_paths(
    fmap: FiberMap,
    scenario: Scenario,
    sla_fiber_km: float | None = None,
) -> dict[Pair, tuple[str, ...]]:
    """Shortest paths for every DC pair with ``scenario``'s ducts cut.

    Raises :class:`InfeasibleRegionError` if any pair disconnects or (when
    ``sla_fiber_km`` is given) exceeds the SLA distance — under OC4, the
    operational constraints must keep holding in every tolerated scenario.
    The paths are :meth:`FiberMap.dijkstra`'s, equal-length ties included.
    """
    return _scenario_paths(fmap, fmap.dcs, scenario, sla_fiber_km)


def _scenario_paths(
    fmap: FiberMap,
    dcs: Sequence[str],
    scenario: Scenario,
    sla_fiber_km: float | None,
) -> dict[Pair, tuple[str, ...]]:
    """:func:`compute_scenario_paths` with the map's DCs listed once.

    One Dijkstra per source DC, searching only until the DCs above it
    (its pairs' targets) settle; the last DC has none and runs no search.
    Errors are raised for the first failing pair in (source, target)
    order, disconnection before SLA, as the full searches did.
    """
    cut = {duct_key(u, v) for u, v in scenario}
    paths: dict[Pair, tuple[str, ...]] = {}
    for i, source in enumerate(dcs[:-1]):
        targets = dcs[i + 1 :]
        dist, pred = fmap.dijkstra(source, targets, cut)
        for target in targets:
            pair = pair_key(source, target)
            if target not in dist:
                raise InfeasibleRegionError(
                    f"DC pair {pair} disconnected when ducts "
                    f"{sorted(scenario)} are cut",
                    scenario=scenario,
                    pair=pair,
                )
            if sla_fiber_km is not None and dist[target] > sla_fiber_km + 1e-9:
                raise InfeasibleRegionError(
                    f"DC pair {pair} at {dist[target]:.1f} km exceeds the "
                    f"{sla_fiber_km:.0f} km SLA when ducts "
                    f"{sorted(scenario)} are cut",
                    scenario=scenario,
                    pair=pair,
                )
            route = [target]
            while route[-1] != source:
                route.append(pred[route[-1]])
            paths[pair] = tuple(reversed(route))
    return paths


def _used_ducts(paths: Mapping[Pair, tuple[str, ...]]) -> set[Duct]:
    used: set[Duct] = set()
    for path in paths.values():
        used.update(duct_key(u, v) for u, v in zip(path, path[1:]))
    return used


@worker_safe
def _paths_chunk(
    shared: tuple[FiberMap, float | None], scenarios: list[Scenario]
) -> list[dict[Pair, tuple[str, ...]]]:
    """Worker: evaluate one chunk of scenarios (module-level for pickling)."""
    fmap, sla_fiber_km = shared
    obs.incr("paths.scenarios", len(scenarios))
    dcs = fmap.dcs
    out = [
        _scenario_paths(fmap, dcs, scenario, sla_fiber_km)
        for scenario in scenarios
    ]
    obs.incr("enumerate.dijkstra_runs", len(scenarios) * max(len(dcs) - 1, 0))
    return out


def _evaluate_scenarios(
    backend: ExecutionBackend,
    fmap: FiberMap,
    scenarios: Sequence[Scenario],
    sla_fiber_km: float | None,
    paths_oracle: "PathsOracle | None" = None,
) -> list[dict[Pair, tuple[str, ...]]]:
    """Per-scenario path sets, aligned 1:1 with ``scenarios``.

    ``paths_oracle`` (see :class:`PathsOracle`) short-circuits scenarios
    whose path sets are already known — the incremental-replanning hook.
    Only the scenarios the oracle declines are fanned out to the backend;
    answered ones never reach a worker, but their results merge back in
    position, so the returned list is indistinguishable from a full
    evaluation (the oracle's contract makes the *values* identical too).
    """
    scenarios = list(scenarios)
    if paths_oracle is None:
        return map_in_chunks(
            backend, _paths_chunk, (fmap, sla_fiber_km), scenarios
        )
    results: list[dict[Pair, tuple[str, ...]] | None] = [None] * len(scenarios)
    cold_indices: list[int] = []
    for i, scenario in enumerate(scenarios):
        reused = paths_oracle.lookup(scenario)
        if reused is not None:
            results[i] = reused
        else:
            cold_indices.append(i)
    cold = map_in_chunks(
        backend,
        _paths_chunk,
        (fmap, sla_fiber_km),
        [scenarios[i] for i in cold_indices],
    )
    for i, paths in zip(cold_indices, cold):
        results[i] = paths
    return results  # type: ignore[return-value]


class PathsOracle(Protocol):
    """Answers "what are this scenario's shortest paths?" from prior work.

    ``lookup(scenario)`` returns the scenario's pair->path dict, or
    ``None`` to decline. The hard contract: a returned dict must be
    *equal* to what :func:`compute_scenario_paths` would compute on the
    current map — including Dijkstra tie-breaks — because reused paths
    feed both the enumeration frontier and the plan bytes. Oracles
    therefore only answer from provably execution-identical prior runs
    (see :mod:`repro.service.replan`); anything uncertain is declined and
    recomputed cold.
    """

    def lookup(
        self, scenario: Scenario
    ) -> dict[Pair, tuple[str, ...]] | None: ...


def enumerate_scenario_paths(
    fmap: FiberMap,
    tolerance: int,
    sla_fiber_km: float | None = None,
    prune: bool = True,
    backend: ExecutionBackend | None = None,
    paths_oracle: PathsOracle | None = None,
) -> tuple[dict[Scenario, dict[Pair, tuple[str, ...]]], int]:
    """All (pruned) failure scenarios with their shortest-path sets.

    Returns (scenario -> pair -> path, total raw scenario count the pruned
    set represents). With ``prune=False``, enumerates brute force (tests).
    ``backend`` fans the per-level scenario evaluations out (serial when
    omitted); the frontier expansion itself stays in the parent, so the
    enumerated set and its order are backend-independent. ``paths_oracle``
    answers scenarios from a prior plan (:class:`PathsOracle`); reused
    path sets feed the frontier exactly as computed ones do, so an oracle
    honouring its equality contract cannot change what gets enumerated.
    """
    backend = backend or SerialBackend()
    n_ducts = len(fmap.ducts)
    total_raw = sum(
        _comb(n_ducts, k) for k in range(min(tolerance, n_ducts) + 1)
    )

    results: dict[Scenario, dict[Pair, tuple[str, ...]]] = {}
    if not prune:
        scenarios = [
            Scenario(combo)
            for k in range(tolerance + 1)
            for combo in itertools.combinations(fmap.ducts, k)
        ]
        with obs.span("plan.enumerate.brute") as span:
            span.incr("level.scenarios", len(scenarios))
            evaluated = _evaluate_scenarios(
                backend, fmap, scenarios, sla_fiber_km, paths_oracle
            )
        return dict(zip(scenarios, evaluated)), total_raw

    frontier: list[Scenario] = [Scenario()]
    seen: set[Scenario] = {Scenario()}
    for level in range(tolerance + 1):
        with obs.span(f"plan.enumerate.level[{level}]") as span:
            span.incr("level.scenarios", len(frontier))
            evaluated = _evaluate_scenarios(
                backend, fmap, frontier, sla_fiber_km, paths_oracle
            )
        next_frontier: list[Scenario] = []
        for scenario, paths in zip(frontier, evaluated):
            results[scenario] = paths
            if level < tolerance:
                for duct in sorted(_used_ducts(paths)):
                    extended = scenario | {duct}
                    if extended not in seen:
                        seen.add(extended)
                        next_frontier.append(extended)
        frontier = next_frontier
    return results, total_raw


def _comb(n: int, k: int) -> int:
    c = 1
    for i in range(k):
        c = c * (n - i) // (i + 1)
    return c


class DuctSizing(Protocol):
    """A duct-sizing rule: what one duct needs in one failure scenario.

    Algorithm 1 sizes every used duct of every scenario at the hose
    max-flow of the oriented DC pairs routed across it. A sizing passed to
    :func:`plan_topology` replaces that need with its own:
    ``size(oriented, hose, counts)`` gets the sorted oriented pairs, their
    hose value and the chunk's counter dict, may add its own work counters
    to ``counts``, and returns the duct's need in fiber pairs. It runs in
    pool workers, so it must be picklable and a pure function of its
    arguments; mark it ``@worker_safe`` so reprolint checks that (the
    call through the protocol is opaque to the chunk's own check).

    ``design`` and ``store_config()`` are the rule's store-key material:
    the plan is cached under ``plan_key(design=design, ...)`` with
    ``store_config()``'s entries added to the planner options.
    ``plan_counters()`` are recorded once on the ``plan.topology`` span.
    """

    design: str

    def store_config(self) -> dict[str, Any]: ...

    def plan_counters(self) -> dict[str, float]: ...

    def size(
        self, oriented: tuple[Pair, ...], hose: int, counts: dict[str, float]
    ) -> int: ...


def _pairs_by_duct(paths: Mapping[Pair, tuple[str, ...]]) -> dict[Duct, list[Pair]]:
    """Every used duct's DC pairs, oriented along their traversal.

    One pass over the (simple) paths yields, per duct, what
    :func:`~repro.core.hose.oriented_pairs_through_edge` returns for it.
    """
    crossing: dict[Duct, list[Pair]] = {}
    for (a, b), path in paths.items():
        for x, y in zip(path, path[1:]):
            if x < y:
                crossing.setdefault((x, y), []).append((a, b))
            else:
                crossing.setdefault((y, x), []).append((b, a))
    return crossing


@worker_safe
def _capacity_chunk(
    shared: tuple[Mapping[str, int], DuctSizing | None],
    path_sets: list[Mapping[Pair, tuple[str, ...]]],
) -> tuple[dict[Duct, int], dict[str, float]]:
    """Worker: per-duct maxima over one chunk of scenario path sets.

    Each (scenario, used duct) needs its hose max-flow, or what the
    optional :class:`DuctSizing` makes of it. Returns the chunk's (duct ->
    needed capacity, counters); the parent merges chunk results by
    per-duct maximum and counter sums, both order-independent, so the
    merged result matches serial execution exactly. The chunk counts its
    own hose lookups (``capacity.hose_lookups``), so no other job's
    lookups reach them.
    """
    dc_fibers, sizing = shared
    counts: dict[str, float] = {}
    edge_capacity: dict[Duct, int] = {}
    lookups = 0
    for paths in path_sets:
        crossing = _pairs_by_duct(paths)
        lookups += len(crossing)
        # Sorted so the hose lookup order — and with it the cache's
        # FIFO eviction — is hash-seed independent. The merged
        # capacities never depended on this order.
        for edge in sorted(crossing):
            oriented = tuple(sorted(crossing[edge]))
            needed = hose_capacity(oriented, dc_fibers)
            if sizing is not None:
                needed = sizing.size(oriented, needed, counts)
            if needed > edge_capacity.get(edge, 0):
                edge_capacity[edge] = needed
    counts["capacity.hose_lookups"] = lookups
    return edge_capacity, counts


def plan_topology(
    region: RegionSpec,
    *,
    prune_enumeration: bool = True,
    jobs: int | None = 1,
    paths_oracle: PathsOracle | None = None,
    cancel_token: CancelToken | None = None,
    sizing: DuctSizing | None = None,
) -> TopologyPlan:
    """Run Algorithm 1 for ``region``.

    The returned plan's ``edge_capacity`` is in fiber-pairs: base capacity
    before the residual provisioning that fiber-granularity switching adds
    (§4.3). Both the electrical (EPS) and optical (Iris) realizations start
    from this plan.

    ``jobs`` selects the worker count (see :mod:`repro.core.engine`):
    ``jobs=1`` (default) runs serially in-process, ``N > 1`` fans scenario
    evaluation out over ``N`` worker processes, and ``0`` uses every CPU.
    The plan is bit-identical across worker counts; the attached
    :class:`~repro.core.engine.PlanTimings` records which backend ran and
    where the time went.

    Phases are timed as :mod:`repro.obs` spans. With global tracing off, a
    private tracer records only the coarse phase spans feeding the
    ``PlanTimings`` view; with :func:`repro.obs.tracing` active, the same
    spans nest into the caller's trace along with per-level, per-chunk,
    and per-hose-lookup detail.

    ``paths_oracle`` short-circuits scenario evaluations already known
    from a prior plan (incremental replanning; see :class:`PathsOracle` —
    its equality contract is what keeps patched plans byte-identical to
    cold ones). ``cancel_token`` arms cooperative cancellation and per-job
    timeouts: the fan-out checks it at chunk boundaries and unwinds with
    :class:`~repro.exceptions.JobCancelled`.

    ``sizing`` swaps the per-duct capacity rule (see :class:`DuctSizing`);
    ``None`` sizes every duct at its hose max-flow, as the paper does.
    """
    tracer = obs.current()
    if tracer is None:
        # Coarse-only local trace: phase spans for PlanTimings, none of
        # the fine-grained facade instrumentation fires.
        tracer = obs.Tracer("plan")
    constraints = region.constraints

    with tracer.span("plan.topology") as top:
        # Ducts beyond point-to-point reach are useless under any switching
        # (TC1); ducts beyond the Iris per-run budget (fiber + the two
        # endpoint OSS traversals, see IRIS_MAX_DUCT_KM) are useless to an
        # all-optical path under any routing, so they are pruned too.
        with tracer.span("plan.prune") as span:
            usable_km = min(constraints.max_span_km, IRIS_MAX_DUCT_KM)
            fmap = prune_overlong_ducts(region.fiber_map, usable_km)
            span.incr("prune.ducts_dropped",
                      len(region.fiber_map.ducts) - len(fmap.ducts))

        with get_backend(jobs, cancel_token=cancel_token) as engine_backend:
            with tracer.span("plan.enumerate"):
                scenario_paths, total_raw = enumerate_scenario_paths(
                    fmap,
                    constraints.failure_tolerance,
                    sla_fiber_km=constraints.sla_fiber_km,
                    prune=prune_enumeration,
                    backend=engine_backend,
                    paths_oracle=paths_oracle,
                )

            # Different scenarios mostly reroute a few pairs, so the
            # oriented pair set of an edge recurs across scenarios: the
            # per-process hose cache memoizes the max-flow per set. Chunk
            # results merge by per-duct maximum, so chunking cannot change
            # the outcome.
            with tracer.span("plan.capacity"):
                edge_capacity: dict[Duct, int] = {}
                counts: dict[str, float] = {}
                path_sets = list(scenario_paths.values())
                chunks = (
                    engine_backend.plan_chunks(path_sets) if path_sets else []
                )
                for chunk_caps, chunk_counts in engine_backend.run_chunks(
                    _capacity_chunk, (region.dc_fibers, sizing), chunks
                ):
                    obs.merge_counters(counts, chunk_counts)
                    for edge, needed in chunk_caps.items():
                        if needed > edge_capacity.get(edge, 0):
                            edge_capacity[edge] = needed

        # Authoritative plan-level aggregates (distinct names from the
        # per-lookup event counters recorded inside chunk shards, so tree
        # totals never double-count): the PlanTimings view reads these.
        top.incr("scenarios.evaluated", len(scenario_paths))
        if sizing is not None:
            obs.merge_counters(counts, sizing.plan_counters())
        obs.merge_counters(top.record.counters, counts)

    timings = PlanTimings.from_record(
        top.record, backend=engine_backend.name, jobs=engine_backend.jobs
    )
    return TopologyPlan(
        edge_capacity=edge_capacity,
        scenario_paths=scenario_paths,
        scenario_count_total=total_raw,
        timings=timings,
        trace=top.record,
    )
