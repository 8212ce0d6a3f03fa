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

The pruned scenarios form a tree: each child is its parent plus one cut
duct, and the enumeration records that link (:class:`ScenarioTree`).
Children reuse their parents' work twice over.

*Paths, under a uniqueness certificate.* Each source DC's search reports
whether it met a tie (:meth:`FiberMap.dijkstra`) and which ducts its
paths to the DCs above it cross. A child searches from a source again only
if that search tied or one of its paths crosses the new cut; otherwise it
shares the parent's path tuples and inherits the flag. This is exactly
what a search of the child would return. Let ``A`` be the ancestor whose
search from source ``s`` ran without a tie; the reused paths are ``A``'s,
and they avoid every duct cut since ``A``, so the child's graph ``G`` is a
subgraph of ``A``'s graph that still holds them. Distances are sums in
path order, and floating-point addition is monotone, so a node's distance
in ``G`` is at least its distance in ``A``'s graph, and equal on the reused
paths. Take a node ``w`` on them, with predecessor ``p`` there. Suppose
another neighbour ``x`` also offered ``w`` its distance in ``G``. Then
``x`` offered at most that in ``A``'s graph, hence exactly that, since it
is least there. Duct lengths are positive, so ``x`` and ``p`` both settled
before ``w`` in ``A``'s search and both relaxed ``w`` to the same
distance, and the second of them met a tie. So in ``G`` only ``p``
improves ``w`` to its final distance, and the kernel, which replaces a
predecessor only on a strict improvement, keeps ``p``. Every competing
relaxation stays strictly worse. The routes, distances and SLA verdicts
are ``A``'s; the plan bytes, tie-breaks included, do not move.

*Capacity, by difference.* A child's oriented pair set differs from its
parent's only on the ducts of the old or new path of a rerouted pair.
Every other duct's set, and so its need, is the parent's and already in
the per-duct maximum. The capacity phase therefore sizes only the ducts
whose set changed; the root, brute-force scenarios and any scenario
without a parent size every used duct. That holds for every
:class:`DuctSizing` too, as a rule is a pure function of the set. Each
child is compared with its recorded parent, never with its neighbour in a
chunk, so no count depends on chunking.

Both phases are scenario-parallel: scenarios of one enumeration level (and
scenario chunks of the capacity phase) are independent, so they fan out
over an execution backend from :mod:`repro.core.engine` selected by the
``jobs=`` parameter. The frontier is partitioned into contiguous chunks and
per-duct maxima are merged in the parent, so parallel plans are
bit-identical to serial ones.
"""

from __future__ import annotations

import itertools
from typing import Any, Collection, Mapping, NamedTuple, Protocol, Sequence

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
    dcs = fmap.dcs
    cut = {duct_key(u, v) for u, v in scenario}
    paths: dict[Pair, tuple[str, ...]] = {}
    for i in range(len(dcs) - 1):
        paths.update(_search(fmap, dcs, i, scenario, cut, sla_fiber_km).paths)
    return paths


class _Search(NamedTuple):
    """One source DC's routes to the DCs above it, with their certificate."""

    paths: dict[Pair, tuple[str, ...]]
    #: The ducts the routes cross.
    ducts: frozenset[Duct]
    #: Whether the search met a tie (:meth:`FiberMap.dijkstra`).
    tied: bool


def _search(
    fmap: FiberMap,
    dcs: Sequence[str],
    i: int,
    scenario: Scenario,
    cut: Collection[Duct],
    sla_fiber_km: float | None,
) -> _Search:
    """One Dijkstra from ``dcs[i]``, searching only until the DCs above it
    (its pairs' targets) settle.

    Errors are raised for the first failing target, disconnection before
    SLA; sources searched in order raise for the first failing pair in
    (source, target) order, as one full search per source did.
    """
    source = dcs[i]
    targets = dcs[i + 1 :]
    dist, pred, tied = fmap.dijkstra(source, targets, cut)
    paths: dict[Pair, tuple[str, ...]] = {}
    ducts: set[Duct] = set()
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
        node = target
        while node != source:
            prev = pred[node]
            ducts.add((prev, node) if prev < node else (node, prev))
            route.append(prev)
            node = prev
        paths[pair] = tuple(reversed(route))
    return _Search(paths, frozenset(ducts), tied)


def _used_ducts(paths: Mapping[Pair, tuple[str, ...]]) -> set[Duct]:
    used: set[Duct] = set()
    for path in paths.values():
        used.update(duct_key(u, v) for u, v in zip(path, path[1:]))
    return used


@worker_safe
def _paths_chunk(
    shared: tuple[FiberMap, float | None],
    items: list[tuple[Scenario, tuple[int, ...]]],
) -> list[list[_Search]]:
    """Worker: run one chunk's searches (module-level for pickling).

    Each item is a scenario and the indices of the source DCs it must
    search; the rest it takes from its parent.
    """
    fmap, sla_fiber_km = shared
    obs.incr("paths.scenarios", len(items))
    dcs = fmap.dcs
    out = []
    for scenario, sources in items:
        cut = {duct_key(u, v) for u, v in scenario}
        out.append(
            [_search(fmap, dcs, i, scenario, cut, sla_fiber_km) for i in sources]
        )
    searches = [search for row in out for search in row]
    obs.incr("enumerate.dijkstra_runs", len(searches))
    obs.incr("enumerate.tied_searches", sum(s.tied for s in searches))
    return out


class PathsOracle(Protocol):
    """Answers "what are this scenario's shortest paths?" from prior work.

    ``lookup(scenario)`` returns the scenario's pair->path dict, or
    ``None`` to decline. The hard contract: a returned dict must be
    *equal* to what :func:`compute_scenario_paths` would compute on the
    current map — including Dijkstra tie-breaks — because reused paths
    feed both the enumeration frontier and the plan bytes. Oracles
    therefore only answer from provably execution-identical prior runs
    (see :mod:`repro.service.replan`); anything uncertain is declined and
    recomputed cold. An answer carries no per-source certificate, so the
    answered scenario's children search every source.
    """

    def lookup(
        self, scenario: Scenario
    ) -> dict[Pair, tuple[str, ...]] | None: ...


#: Per source DC, in order: whether its search tied, and the ducts its
#: routes cross (a :class:`_Search` without its paths).
_Certificates = list[tuple[bool, frozenset[Duct]]]


class ScenarioTree(NamedTuple):
    """The enumerated scenarios (see :func:`enumerate_scenario_tree`)."""

    #: Scenario -> pair -> path, in enumeration order.
    paths: dict[Scenario, dict[Pair, tuple[str, ...]]]
    #: Child -> (parent, the duct the child cuts too). The root and
    #: brute-force scenarios have no entry.
    parents: dict[Scenario, tuple[Scenario, Duct]]
    #: How many raw scenarios the enumerated ones stand for.
    total_raw: int


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
    set represents): the first and last fields of
    :func:`enumerate_scenario_tree`, which takes the same arguments.
    """
    tree = enumerate_scenario_tree(
        fmap, tolerance, sla_fiber_km, prune, backend, paths_oracle
    )
    return tree.paths, tree.total_raw


def enumerate_scenario_tree(
    fmap: FiberMap,
    tolerance: int,
    sla_fiber_km: float | None = None,
    prune: bool = True,
    backend: ExecutionBackend | None = None,
    paths_oracle: PathsOracle | None = None,
) -> ScenarioTree:
    """All (pruned) failure scenarios, their paths and the scenario tree.

    With ``prune=False``, enumerates brute force (tests): every scenario
    searches every source and has no parent. ``backend`` fans the
    per-level searches out (serial when omitted); the frontier expansion
    and the reuse of parents' paths (module docstring) stay in the
    parent, so the enumerated set and its order are backend-independent.
    ``paths_oracle`` answers scenarios from a prior plan
    (:class:`PathsOracle`); reused path sets feed the frontier exactly as
    computed ones do, so an oracle honouring its equality contract cannot
    change what gets enumerated.
    """
    backend = backend or SerialBackend()
    n_ducts = len(fmap.ducts)
    total_raw = sum(
        _comb(n_ducts, k) for k in range(min(tolerance, n_ducts) + 1)
    )
    tree = ScenarioTree({}, {}, total_raw)
    if not prune:
        scenarios = [
            Scenario(combo)
            for k in range(tolerance + 1)
            for combo in itertools.combinations(fmap.ducts, k)
        ]
        with obs.span("plan.enumerate.brute") as span:
            span.incr("level.scenarios", len(scenarios))
            _evaluate_level(
                backend, fmap, sla_fiber_km, paths_oracle, tree, scenarios, {}
            )
        return tree

    frontier: list[Scenario] = [Scenario()]
    certificates: dict[Scenario, _Certificates] = {}
    for level in range(tolerance + 1):
        with obs.span(f"plan.enumerate.level[{level}]") as span:
            span.incr("level.scenarios", len(frontier))
            certificates = _evaluate_level(
                backend, fmap, sla_fiber_km, paths_oracle, tree, frontier,
                certificates,
            )
        if level == tolerance:
            break
        next_frontier: list[Scenario] = []
        for scenario in frontier:
            for duct in sorted(_used_ducts(tree.paths[scenario])):
                extended = scenario | {duct}
                if extended not in tree.parents:
                    tree.parents[extended] = (scenario, duct)
                    next_frontier.append(extended)
        frontier = next_frontier
    return tree


def _evaluate_level(
    backend: ExecutionBackend,
    fmap: FiberMap,
    sla_fiber_km: float | None,
    paths_oracle: PathsOracle | None,
    tree: ScenarioTree,
    scenarios: Sequence[Scenario],
    parent_certificates: Mapping[Scenario, _Certificates],
) -> dict[Scenario, _Certificates]:
    """Add ``scenarios``' paths to ``tree``, in order; returns the
    certificates of the scenarios that searched.

    ``parent_certificates`` holds the previous level's. The oracle's
    answers never reach a worker. Every other scenario is one work item,
    naming the sources it must search: those whose parent search tied or
    crosses the new cut. A scenario without a certified parent inherits
    from an empty one that tied everywhere, so it searches them all.
    """
    orphan: tuple[dict[Pair, tuple[str, ...]], _Certificates] = (
        {},
        [(True, frozenset())] * max(len(fmap.dcs) - 1, 0),
    )
    answered: dict[Scenario, dict[Pair, tuple[str, ...]]] = {}
    bases: list[tuple[dict[Pair, tuple[str, ...]], _Certificates]] = []
    items: list[tuple[Scenario, tuple[int, ...]]] = []
    for scenario in scenarios:
        if paths_oracle is not None:
            reused = paths_oracle.lookup(scenario)
            if reused is not None:
                answered[scenario] = reused
                continue
        parent, duct = tree.parents.get(scenario, (None, None))
        certs = parent_certificates.get(parent)
        base = orphan if certs is None else (tree.paths[parent], certs)
        bases.append(base)
        items.append((scenario, tuple(
            i for i, (tied, ducts) in enumerate(base[1]) if tied or duct in ducts
        )))
    searched = map_in_chunks(backend, _paths_chunk, (fmap, sla_fiber_km), items)
    results = iter(zip(bases, items, searched))
    certificates: dict[Scenario, _Certificates] = {}
    for scenario in scenarios:
        if scenario in answered:
            tree.paths[scenario] = answered[scenario]
            continue
        (parent_paths, certs), (_, sources), searches = next(results)
        tree.paths[scenario], certificates[scenario] = _inherit(
            parent_paths, certs, sources, searches
        )
    return certificates


def _inherit(
    parent_paths: Mapping[Pair, tuple[str, ...]],
    parent_certs: _Certificates,
    sources: Sequence[int],
    searches: Sequence[_Search],
) -> tuple[dict[Pair, tuple[str, ...]], _Certificates]:
    """A child's paths and certificates: its parent's, with the searched
    sources' replaced. A searched path equal to the parent's keeps the
    parent's tuple, so unchanged routes are shared in memory."""
    paths = dict(parent_paths)
    certs = list(parent_certs)
    for i, search in zip(sources, searches):
        certs[i] = (search.tied, search.ducts)
        for pair, path in search.paths.items():
            if paths.get(pair) != path:
                paths[pair] = path
    return paths, certs


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


#: Duct -> the sorted oriented pairs crossing it, for one scenario.
_Crossing = dict[Duct, tuple[Pair, ...]]


def _crossing(paths: Mapping[Pair, tuple[str, ...]]) -> _Crossing:
    """Every used duct's DC pairs, oriented along their traversal.

    One pass over the (simple) paths yields, per duct, what
    :func:`~repro.core.hose.oriented_pairs_through_edge` returns for it,
    sorted.
    """
    crossing: dict[Duct, list[Pair]] = {}
    for (a, b), path in paths.items():
        for x, y in zip(path, path[1:]):
            if x < y:
                crossing.setdefault((x, y), []).append((a, b))
            else:
                crossing.setdefault((y, x), []).append((b, a))
    return {duct: tuple(sorted(pairs)) for duct, pairs in crossing.items()}


def _crossing_from_parent(
    base: _Crossing,
    parent_paths: Mapping[Pair, tuple[str, ...]],
    paths: Mapping[Pair, tuple[str, ...]],
) -> tuple[_Crossing, list[Duct]]:
    """A child's crossing, from its parent's (``base``), and the sorted
    ducts whose pair set changed and is not empty.

    Only the ducts on the old or new path of a rerouted pair can change;
    every other entry is the parent's.
    """
    rerouted = {
        pair: path
        for pair, path in paths.items()
        if path is not parent_paths[pair] and path != parent_paths[pair]
    }
    added = _crossing(rerouted)
    old_ducts = _used_ducts({pair: parent_paths[pair] for pair in rerouted})
    crossing = dict(base)
    changed: list[Duct] = []
    for duct in sorted(old_ducts | added.keys()):
        before = base.get(duct, ())
        kept = [
            (a, b)
            for a, b in before
            if ((a, b) if a < b else (b, a)) not in rerouted
        ]
        now = tuple(sorted(kept + list(added.get(duct, ()))))
        if now == before:
            continue
        if now:
            crossing[duct] = now
            changed.append(duct)
        else:
            del crossing[duct]
    return crossing, changed


@worker_safe
def _capacity_chunk(
    shared: tuple[Mapping[str, int], DuctSizing | None],
    items: list[
        tuple[Mapping[Pair, tuple[str, ...]], Mapping[Pair, tuple[str, ...]] | None]
    ],
) -> tuple[dict[Duct, int], dict[str, float]]:
    """Worker: per-duct maxima over one chunk of scenario path sets.

    Each item is a scenario's paths and its parent's (``None`` for the
    root, brute-force scenarios and any scenario without a parent). Each
    (scenario, duct) whose oriented pair set differs from the parent's
    needs its hose max-flow, or what the optional :class:`DuctSizing`
    makes of it; a scenario without a parent sizes every used duct.
    Returns the chunk's (duct -> needed capacity, counters); the parent
    merges chunk results by per-duct maximum and counter sums, both
    order-independent, so the merged result matches serial execution
    exactly. The chunk counts its own hose lookups
    (``capacity.hose_lookups``), so no other job's lookups reach them.
    """
    dc_fibers, sizing = shared
    counts: dict[str, float] = {}
    edge_capacity: dict[Duct, int] = {}
    #: id(paths) -> crossing, for the chunk's scenarios and the parents
    #: they name (every one is held by ``items`` until the chunk ends).
    crossings: dict[int, _Crossing] = {}
    lookups = 0
    for paths, parent_paths in items:
        if parent_paths is None:
            crossing = _crossing(paths)
            # Sorted so the hose lookup order — and with it the cache's
            # FIFO eviction — is hash-seed independent. The merged
            # capacities never depended on this order.
            changed = sorted(crossing)
        else:
            base = crossings.get(id(parent_paths))
            if base is None:
                base = crossings[id(parent_paths)] = _crossing(parent_paths)
            crossing, changed = _crossing_from_parent(base, parent_paths, paths)
        crossings[id(paths)] = crossing
        lookups += len(changed)
        for edge in changed:
            oriented = crossing[edge]
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
                tree = enumerate_scenario_tree(
                    fmap,
                    constraints.failure_tolerance,
                    sla_fiber_km=constraints.sla_fiber_km,
                    prune=prune_enumeration,
                    backend=engine_backend,
                    paths_oracle=paths_oracle,
                )
            scenario_paths = tree.paths

            # A child is sized against its parent (module docstring), and
            # the per-process hose cache memoizes the max-flow of a pair
            # set that recurs elsewhere. Chunk results merge by per-duct
            # maximum, so chunking cannot change the outcome.
            with tracer.span("plan.capacity"):
                edge_capacity: dict[Duct, int] = {}
                counts: dict[str, float] = {}
                items = [
                    (
                        paths,
                        tree.paths[tree.parents[scenario][0]]
                        if scenario in tree.parents
                        else None,
                    )
                    for scenario, paths in scenario_paths.items()
                ]
                chunks = engine_backend.plan_chunks(items) if items else []
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
        scenario_count_total=tree.total_raw,
        timings=timings,
        trace=top.record,
    )
