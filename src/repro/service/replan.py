"""Incremental replanning: patch a plan under a delta, byte-identical to cold.

:func:`apply_delta` takes an existing :class:`~repro.core.plan.IrisPlan`
and a :class:`~repro.region.delta.RegionDelta` and produces the plan of
the *mutated* region while recomputing only the failure scenarios the
delta actually touches. The hard guarantee — enforced by property tests
and checkable at runtime with ``verify=True`` — is::

    plan_to_json(apply_delta(plan, delta), full=True)
        == plan_to_json(cold_replan(delta.apply_to_region(plan.region)), full=True)

byte for byte. That is a much stronger bar than "same capacities": every
shortest path, including Dijkstra tie-breaks, must match what a from-
scratch run would compute.

The mechanism is a :class:`DeltaPathOracle` plugged into Algorithm 1's
scenario evaluation (``paths_oracle=`` on
:func:`repro.core.topology.plan_topology`). The planner still enumerates
the mutated region's scenario set itself — enumeration is driven by the
path sets, so reuse cannot skew *which* scenarios exist — and the oracle
answers each scenario from the old plan only when one of three
**execution-identity** rules proves the old answer is what Dijkstra would
compute on the mutated map:

``identity``
    The TC1-pruned maps of the old and new regions are equal (capacity
    and price deltas; duct deltas beyond point-to-point reach). Every
    scenario's evaluation graph is unchanged, so every old path set is
    reused outright.

``cut`` (pruned maps differ by exactly one *removed* duct ``d``)
    A new-region scenario ``S`` evaluates on ``M' - S = M - (S ∪ {d})``
    — exactly the graph the old plan's scenario ``S ∪ {d}`` evaluated
    on (same edges, same adjacency order), so ``old[S ∪ {d}]`` is reused
    *as is* when enumerated. Failing that, ``old[S]`` is reused iff the
    strict-bypass check below proves ``d`` irrelevant under ``S``.

``add`` (pruned maps differ by exactly one *added* duct ``d``)
    The mirror image: when ``d ∈ S``, the evaluation graph equals the
    old ``S - {d}`` graph, so ``old[S - {d}]`` is reused. When
    ``d ∉ S``, ``old[S]`` is reused iff the strict-bypass check proves
    adding ``d`` changes nothing.

The strict-bypass check is the one sufficient condition under which
Dijkstra's *output* (distances, paths, and tie-breaks) is provably
unchanged by the presence of edge ``d = (u, v)``::

    dist_{G without d}(u, v) < length(d)      (strictly)

Every label relaxed through ``d`` is then strictly worse than the true
distance (triangle inequality through the shorter u-v route), so such
labels are transient: they are strictly overwritten before any node is
finalized, the pop/relaxation sequence of all other entries is unchanged
(heap tie-breaks are by insertion counter, and extra strictly-worse
entries never reorder the rest), and the returned paths are identical.
Equality is deliberately *excluded* — an equal-length alternative could
win a tie — and a float tolerance pads the comparison, so uncertainty
always falls back to an honest cold evaluation. The check itself is one
single-pair run of the planner's Dijkstra kernel, stopped once ``v``
settles, far cheaper than the full all-pairs evaluation it saves.

Everything the oracle declines is recomputed by the normal backend
fan-out. An answered scenario carries no tie certificate, so its
children search every source; a declined child of a searched parent
reuses that parent's certified searches, as in a cold plan (see
:mod:`repro.core.topology`). The capacity phase then sizes each child
scenario against its recorded parent, answered or not, looking up only
the pair sets that changed, in the per-process hose cache that the old
plan's run left warm for exactly these instances; only the genuinely new
flow graphs are solved. Nothing is evicted from that cache here: it keys each
instance by the DC capacities too, so a resized or detached DC's old
entries are never hit again and age out through its FIFO bound, and a
patch running next to other jobs never mutates state they read.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.engine import CancelToken
from repro.core.failures import Scenario
from repro.core.plan import IrisPlan, Pair, TopologyPlan
from repro.core.planner import IrisPlanner
from repro.core.topology import plan_topology, prune_overlong_ducts
from repro.exceptions import PlanningError
from repro.region.delta import RegionDelta
from repro.region.fibermap import Duct, FiberMap, RegionSpec, duct_key
from repro.units import IRIS_MAX_DUCT_KM

#: Strictness pad for the bypass check: a shorter route must beat the
#: candidate duct by more than this to count as *strictly* shorter.
#: Matches the planner's own length tolerance (SLA/pruning comparisons).
_STRICT_EPS = 1e-9


@dataclass
class DeltaStats:
    """How much work :func:`apply_delta` actually reused vs recomputed.

    ``reused``
        Scenarios answered from the old plan (either execution-identity
        rule).
    ``checked``
        Scenarios that needed the strict-bypass Dijkstra check (subset of
        ``reused + computed``).
    ``computed``
        Scenarios evaluated cold by the backend.
    ``mode``
        Which oracle mode ran: ``"identity"``, ``"cut"``, ``"add"``, or
        ``"cold"`` (no oracle applicable — e.g. DC attach/detach).
    """

    reused: int = 0
    checked: int = 0
    computed: int = 0
    mode: str = "cold"
    #: ``"reused"`` when the optical realization (amplifiers, cut-throughs,
    #: residual) was carried over wholesale, ``"recomputed"`` otherwise.
    realization: str = "recomputed"


class DeltaPathOracle:
    """A :class:`repro.core.topology.PathsOracle` over one plan's paths.

    Holds the old plan's scenario -> paths table plus the single-duct
    difference between the old and new pruned maps, and answers lookups
    by the execution-identity rules in the module docstring. Instances
    are single-use and not thread-safe (one ``apply_delta`` call each).
    """

    def __init__(
        self,
        old_paths: dict[Scenario, dict[Pair, tuple[str, ...]]],
        mode: str,
        duct: Duct | None = None,
        length_km: float | None = None,
        check_map: FiberMap | None = None,
    ) -> None:
        self.old_paths = old_paths
        self.mode = mode
        self.duct = duct
        self.length_km = length_km
        #: The d-less pruned map the strict-bypass check runs on: the
        #: *new* map for ``cut`` (d already absent), the *old* map for
        #: ``add`` (d not yet present).
        self.check_map = check_map
        self.stats = DeltaStats(mode=mode)

    def lookup(self, scenario: Scenario) -> dict[Pair, tuple[str, ...]] | None:
        if self.mode == "identity":
            paths = self.old_paths.get(scenario)
            if paths is not None:
                self.stats.reused += 1
                return paths
            self.stats.computed += 1
            return None

        assert self.duct is not None
        if self.mode == "cut":
            # The new scenario S evaluates on the same graph — same edge
            # set, same adjacency iteration order — as the old S ∪ {d}.
            paths = self.old_paths.get(scenario | {self.duct})
            if paths is not None:
                self.stats.reused += 1
                return paths
        else:  # "add"
            if self.duct in scenario:
                paths = self.old_paths.get(scenario - {self.duct})
                if paths is not None:
                    self.stats.reused += 1
                    return paths
                self.stats.computed += 1
                return None

        # Fall back to the old plan's own entry for S, valid only when
        # the strict-bypass check proves d cannot appear in (or perturb)
        # any shortest path under this scenario.
        paths = self.old_paths.get(scenario)
        if paths is not None and self._d_is_irrelevant(scenario):
            self.stats.reused += 1
            return paths
        self.stats.computed += 1
        return None

    def _d_is_irrelevant(self, scenario: Scenario) -> bool:
        """Whether ``dist(u, v) < length(d)`` strictly, without ``d``."""
        assert self.duct is not None and self.check_map is not None
        assert self.length_km is not None
        self.stats.checked += 1
        u, v = self.duct
        if u not in self.check_map:
            return False
        cut = {duct_key(a, b) for a, b in scenario}
        dist = self.check_map.dijkstra(u, (v,), cut)[0]
        return v in dist and dist[v] < self.length_km - _STRICT_EPS


def _pruned_ducts(fmap: FiberMap) -> dict[Duct, float]:
    """Duct -> length of the TC1-pruned map (the evaluation substrate)."""
    return {duct: fmap.duct_length(*duct) for duct in fmap.ducts}


def _build_oracle(
    plan: IrisPlan, old_region: RegionSpec, new_region: RegionSpec
) -> DeltaPathOracle | None:
    """The reuse oracle for this old-plan/new-region pair, if any applies.

    Returns ``None`` when no execution-identity argument covers the
    difference (node set changed, or more than one duct differs after
    pruning) — the caller then plans cold, still profiting from the warm
    hose cache.
    """
    if old_region.fiber_map.nodes != new_region.fiber_map.nodes:
        return None
    usable_old = min(old_region.constraints.max_span_km, IRIS_MAX_DUCT_KM)
    usable_new = min(new_region.constraints.max_span_km, IRIS_MAX_DUCT_KM)
    # Exact inequality is the conservative direction here: any difference
    # in the pruning threshold, even ULP-level, must force a cold plan
    # (isclose could reuse paths pruned under a different substrate).
    if usable_old != usable_new:  # repro: noqa-R003
        return None
    old_pruned = prune_overlong_ducts(old_region.fiber_map, usable_old)
    new_pruned = prune_overlong_ducts(new_region.fiber_map, usable_new)
    old_ducts = _pruned_ducts(old_pruned)
    new_ducts = _pruned_ducts(new_pruned)

    old_paths = dict(plan.topology.scenario_paths)
    if old_ducts == new_ducts:
        return DeltaPathOracle(old_paths, "identity")

    removed = [d for d in old_ducts if d not in new_ducts]
    added = [d for d in new_ducts if d not in old_ducts]
    changed = [
        d
        for d in old_ducts
        if d in new_ducts and old_ducts[d] != new_ducts[d]
    ]
    if changed or len(removed) + len(added) != 1:
        return None
    if removed:
        duct = removed[0]
        return DeltaPathOracle(
            old_paths,
            "cut",
            duct=duct,
            length_km=old_ducts[duct],
            check_map=new_pruned,
        )
    duct = added[0]
    return DeltaPathOracle(
        old_paths,
        "add",
        duct=duct,
        length_km=new_ducts[duct],
        check_map=old_pruned,
    )


def _realization_reusable(
    plan: IrisPlan,
    old_region: RegionSpec,
    new_region: RegionSpec,
    topology: "TopologyPlan",
) -> bool:
    """Whether the old plan's optical realization equals the cold one.

    ``plan_from_topology``'s phases (amplifier placement, the cut-through
    greedy, residual fibers, validation) read their inputs exclusively
    through: every scenario's paths, the per-duct base capacities, duct
    lengths *along those paths*, ``dc_fibers``, and the operational
    constraints. This predicate checks all of them for equality between
    the old plan and the fresh topology (path-duct lengths are equal by
    construction: the oracle modes admit at most one differing duct, and
    path equality proves no path crosses it). When it holds, the cold
    realization would receive byte-equal inputs in the same iteration
    order — scenario order is the enumeration order, which equal path
    sets reproduce — so reusing the old outputs is exact, not heuristic.
    """
    return (
        old_region.dc_fibers == new_region.dc_fibers
        and old_region.constraints == new_region.constraints
        and old_region.wavelengths_per_fiber == new_region.wavelengths_per_fiber
        and old_region.gbps_per_wavelength == new_region.gbps_per_wavelength
        and plan.topology.edge_capacity == topology.edge_capacity
        and plan.topology.scenario_paths == topology.scenario_paths
    )


def apply_delta(
    plan: IrisPlan,
    delta: RegionDelta,
    *,
    jobs: int | None = 1,
    prune_enumeration: bool = True,
    validate: bool = True,
    cancel_token: CancelToken | None = None,
    verify: bool = False,
    stats: DeltaStats | None = None,
) -> IrisPlan:
    """Replan ``plan``'s region under ``delta``, reusing untouched work.

    Returns the plan of ``delta.apply_to_region(plan.region)``,
    guaranteed ``plan_to_json``-byte-identical (``full=True`` included)
    to a cold replan of that mutated region. ``price_changed`` deltas
    return ``plan`` itself — prices are not plan inputs.

    ``prune_enumeration``/``validate``/``jobs`` mirror
    :class:`~repro.core.planner.IrisPlanner`; parity holds whatever the
    worker count, since reuse happens above the chunk fan-out.

    ``verify=True`` additionally runs the cold replan and raises
    :class:`~repro.exceptions.PlanningError` on any byte difference —
    the belt-and-braces mode for tests and benchmarks (it obviously
    forfeits the speedup). ``stats``, when given, is filled in place
    with the reuse/recompute breakdown.
    """
    from repro.serialize import plan_to_json

    out_stats = stats if stats is not None else DeltaStats()
    if delta.kind == "price_changed":
        out_stats.mode = "price"
        out_stats.reused = len(plan.topology.scenario_paths)
        return plan

    new_region = delta.apply_to_region(plan.region)
    oracle = _build_oracle(plan, plan.region, new_region)
    with obs.span("service.apply_delta") as span:
        topology = plan_topology(
            new_region,
            prune_enumeration=prune_enumeration,
            jobs=jobs,
            paths_oracle=oracle,
            cancel_token=cancel_token,
        )
        if oracle is not None and _realization_reusable(
            plan, plan.region, new_region, topology
        ):
            # The optical realization (amplifiers, cut-throughs, residual,
            # effective paths) is a pure function of inputs it reads only
            # through the scenario paths, the per-duct capacities, the DC
            # capacities, and the constraints — all just proven equal — so
            # the old plan's realization IS what a cold run would compute.
            # Only the topology object itself (scenario totals shift with
            # the duct count) is taken from the fresh run.
            patched = IrisPlan(
                region=new_region,
                topology=topology,
                amplifiers=plan.amplifiers,
                cut_throughs=plan.cut_throughs,
                residual=plan.residual,
                effective_paths=plan.effective_paths,
            )
            out_stats.realization = "reused"
            span.incr("delta.realization_reused", 1)
        else:
            patched = IrisPlanner(
                new_region,
                prune_enumeration=prune_enumeration,
                validate=validate,
                jobs=jobs,
                cancel_token=cancel_token,
            ).plan_from_topology(topology)
        if oracle is not None:
            out_stats.reused = oracle.stats.reused
            out_stats.checked = oracle.stats.checked
            out_stats.computed = oracle.stats.computed
            out_stats.mode = oracle.stats.mode
        else:
            out_stats.mode = "cold"
            out_stats.computed = len(topology.scenario_paths)
        span.incr("delta.scenarios_reused", out_stats.reused)
        span.incr("delta.scenarios_computed", out_stats.computed)
        span.incr("delta.bypass_checks", out_stats.checked)

    if verify:
        cold = IrisPlanner(
            new_region,
            prune_enumeration=prune_enumeration,
            validate=validate,
            jobs=jobs,
        ).plan()
        patched_json = plan_to_json(patched, full=True)
        cold_json = plan_to_json(cold, full=True)
        if patched_json != cold_json:
            raise PlanningError(
                f"apply_delta parity violation for {delta.kind} delta: "
                "patched plan differs from cold replan"
            )
    return patched
