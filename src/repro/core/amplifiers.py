"""Algorithm 2: greedy in-line amplifier placement (§4.3, Appendix A).

Paths whose single unamplified run cannot be closed need an in-line
amplifier (at most one per path, TC2). For every failure scenario we collect
such paths, score each candidate amplification site by how many constraints
it resolves per amplifier that must be newly installed there, place
amplifiers at the best site, and iterate.

Scoring follows Appendix A: ``score = (nop + nhop) / ntbp`` where ``nop``
counts distance-driven paths resolved, ``nhop`` counts paths whose
switching-loss (hop) violation the amplifier also fixes, and ``ntbp`` is the
number of amplifiers to be placed (a site's amplifier count is the hose
max-flow of the fibers amplified there, like the §4.1 capacity computation;
amplifiers already installed for other scenarios are reused for free).
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import Sequence

from repro import obs
from repro.core.failures import Scenario
from repro.core.hose import hose_capacity
from repro.core.plan import AmplifierPlan, EffectivePath, Pair, TopologyPlan
from repro.optics.constraints import amp_fix_candidates
from repro.region.fibermap import RegionSpec


def _needs_amp_for_distance(path: EffectivePath, max_span_km: float) -> bool:
    """True when the path's fiber alone exceeds single-run reach (TC1)."""
    return path.total_km > max_span_km + 1e-9


def _run_violations(path: EffectivePath) -> bool:
    """True when some unamplified run's loss budget does not close."""
    return any(not run.fits() for run in path.profile().runs())


def _site_demand(
    pairs: list[Pair], region: RegionSpec
) -> int:
    """Amplifiers needed to serve ``pairs`` at one site in one scenario.

    Each amplifier serves one fiber; the worst-case concurrent fiber count
    across the site is the hose max-flow of the pairs, as in §4.1. The
    orientation is (a, b) per canonical pair; with symmetric capacities the
    value matches the mirrored orientation.
    """
    return hose_capacity(pairs, region.dc_fibers)


class _Route:
    """One distinct shortest path, shared by every (scenario, pair) that
    routes over it: its un-amplified :class:`EffectivePath`, built once per
    plan, and the greedy's questions about it, each answered once."""

    def __init__(self, path: EffectivePath, max_span_km: float) -> None:
        self.path = path
        self.too_long = _needs_amp_for_distance(path, max_span_km)
        self._amplified: dict[str, EffectivePath] = {}

    @cached_property
    def runs_violate(self) -> bool:
        return _run_violations(self.path)

    @cached_property
    def fix_sites(self) -> list[str]:
        """Sites where one in-line amplifier closes every run budget."""
        nodes = self.path.nodes
        return [nodes[i + 1] for i in amp_fix_candidates(self.path.profile())]

    def with_amp(self, site: str) -> EffectivePath:
        amplified = self._amplified.get(site)
        if amplified is None:
            amplified = self._amplified[site] = self.path.with_amp(site)
        return amplified


def place_amplifiers(
    region: RegionSpec,
    topology: TopologyPlan,
) -> tuple[AmplifierPlan, dict[tuple[Scenario, Pair], EffectivePath]]:
    """Place in-line amplifiers for every scenario path that needs one.

    Returns the :class:`AmplifierPlan` and the per-(scenario, pair)
    :class:`EffectivePath` map with ``amp_node`` set where assigned; paths
    that still violate run budgets afterwards (pure switching-loss cases)
    are left for cut-through placement. Equal paths in the map are one
    shared object.
    """
    max_span = region.constraints.max_span_km
    site_counts: dict[str, int] = defaultdict(int)
    assignments: dict[tuple[Scenario, Pair], str] = {}
    effective: dict[tuple[Scenario, Pair], EffectivePath] = {}
    distinct: dict[tuple[str, ...], _Route] = {}

    def route_of(nodes: Sequence[str]) -> _Route:
        key = tuple(nodes)
        route = distinct.get(key)
        if route is None:
            path = EffectivePath.from_path(region.fiber_map, key)
            route = distinct[key] = _Route(path, max_span)
        return route

    for scenario in topology.scenarios:
        routes = {
            pair: route_of(path)
            for pair, path in topology.scenario_paths[scenario].items()
        }
        current: dict[Pair, EffectivePath] = {
            pair: route.path for pair, route in routes.items()
        }

        pending = {pair for pair, route in routes.items() if route.too_long}
        # Paths violating run budgets through switching loss alone: an
        # amplifier *may* fix them (the nhop bonus); cut-throughs otherwise.
        hop_constrained = {
            pair
            for pair, route in routes.items()
            if pair not in pending and route.runs_violate
        }
        # Amplifiers placed at a site in *this* scenario, by pair served.
        scenario_sites: dict[str, list[Pair]] = defaultdict(list)

        # Pending and hop-constrained paths are still un-amplified, so
        # their fix sites are their routes'.
        while pending:
            candidates: dict[str, set[Pair]] = defaultdict(set)
            hop_bonus: dict[str, set[Pair]] = defaultdict(set)
            for pair in sorted(pending):
                for site in routes[pair].fix_sites:
                    candidates[site].add(pair)
            for pair in sorted(hop_constrained):
                for site in routes[pair].fix_sites:
                    hop_bonus[site].add(pair)

            if not candidates:
                # No single amplifier closes the remaining paths' budgets
                # (heavily switched long paths): leave them for the combined
                # amplifier + cut-through stage (Appendix A), which resolves
                # them with partial steps.
                break

            def score(site: str) -> tuple[float, int, str]:
                resolved = candidates[site]
                bonus = hop_bonus.get(site, set())
                served = scenario_sites[site] + sorted(resolved | bonus)
                needed = _site_demand(served, region)
                to_place = max(0, needed - site_counts[site])
                raw = (
                    float("inf")
                    if to_place == 0
                    else (len(resolved) + len(bonus)) / to_place
                )
                # Deterministic tie-break: more paths resolved, then name.
                return (raw, len(resolved) + len(bonus), site)

            best_site = max(candidates, key=score)
            resolved = candidates[best_site]
            bonus = hop_bonus.get(best_site, set())
            for pair in sorted(resolved | bonus):
                current[pair] = routes[pair].with_amp(best_site)
                assignments[(scenario, pair)] = best_site
                scenario_sites[best_site].append(pair)
            needed_here = _site_demand(scenario_sites[best_site], region)
            site_counts[best_site] = max(site_counts[best_site], needed_here)
            pending -= resolved
            hop_constrained -= bonus

        for pair, path in current.items():
            effective[(scenario, pair)] = path

    obs.incr("amplifiers.paths_built", len(distinct))
    plan = AmplifierPlan(
        site_counts={k: v for k, v in sorted(site_counts.items()) if v > 0},
        assignments=dict(assignments),
    )
    return plan, effective
