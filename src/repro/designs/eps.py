"""The electrical packet-switched (EPS) realization (§4.2).

Given Algorithm 1's topology & capacity plan, an EPS fabric deploys
electrical switching at the DCs and at every hut where paths actually
branch; each of the lambda wavelengths per fiber terminates in a transceiver
and a switch port at both ends of every *link*. Links are point-to-point
optical segments (Fig 8): a fiber passing a degree-2 hut is spliced through,
not terminated — but a segment longer than TC1's 80 km reach must be
electrically regenerated at an intermediate hut (EPS has no in-line
amplification chain to manage).

This is the paper's cost baseline — "the key impairment of this approach is
its cost": the transceiver count is proportional to terminated capacity.
"""

from __future__ import annotations

import math

from repro.core.plan import TopologyPlan
from repro.cost.estimator import Inventory
from repro.exceptions import PlanningError
from repro.region.fibermap import RegionSpec, duct_key
from repro.units import MAX_SPAN_KM


def eps_segments(
    region: RegionSpec, topology: TopologyPlan
) -> list[tuple[int, float, int]]:
    """The point-to-point links of the EPS build.

    Returns (fiber_pairs, length_km, termination_pairs) per segment, where a
    segment is a maximal chain of used ducts through degree-2 huts, and
    ``termination_pairs`` counts the electrical terminations (>= 2; more
    when TC1 reach forces mid-segment regeneration).
    """
    # Node -> neighbour -> (capacity, length_km) over the used ducts.
    used: dict[str, dict[str, tuple[int, float]]] = {}
    for (u, v), cap in topology.edge_capacity.items():
        if cap > 0:
            link = (cap, region.fiber_map.duct_length(u, v))
            used.setdefault(u, {})[v] = link
            used.setdefault(v, {})[u] = link

    dcs = set(region.fiber_map.dcs)
    switching = {n for n, nbrs in used.items() if n in dcs or len(nbrs) != 2}
    # Degenerate case: a pure cycle of huts has no switching node; pick one.
    if not switching and used:
        switching = {min(used)}

    segments: list[tuple[int, float, int]] = []
    visited: set[tuple[str, str]] = set()
    for start in sorted(switching):
        for neighbor in sorted(used[start]):
            if duct_key(start, neighbor) in visited:
                continue
            # Walk the chain until the next switching node.
            capacity, length = used[start][neighbor]
            visited.add(duct_key(start, neighbor))
            prev, node = start, neighbor
            while node not in switching:
                nxt = [n for n in used[node] if n != prev]
                if len(nxt) != 1:
                    raise PlanningError(
                        f"chain walk broke at {node}: degree {len(used[node])}"
                    )
                prev, node = node, nxt[0]
                visited.add(duct_key(prev, node))
                link_capacity, link_km = used[prev][node]
                length += link_km
                # All ducts of a degree-2 chain carry the same path set,
                # hence the same capacity; keep the max defensively.
                capacity = max(capacity, link_capacity)
            # Electrical regeneration splits segments beyond TC1 reach.
            pieces = max(1, math.ceil(length / MAX_SPAN_KM))
            segments.append((capacity, length, 2 * pieces))
    return segments


def eps_inventory(region: RegionSpec, topology: TopologyPlan) -> Inventory:
    """Equipment counts for the EPS realization of ``topology``.

    * Transceivers: lambda per fiber-pair per termination (both ends of
      every point-to-point link, §3.4's ``T_E = 2 F lambda`` — with F
      counted per link, not per duct).
    * Electrical switch ports: one backing each transceiver.
    * Amplifiers: the terminal pair of each link (Fig 8), per fiber-pair.
    * Fiber: the per-duct (fiber-pair, span) leases of the base plan; EPS
      needs no residual fibers (wavelength-granularity switching packs
      fractional demands perfectly).

    The DC/in-network split follows the paper's accounting: the
    capacity-facing f x lambda transceivers at each DC are "DC ports",
    everything else is in-network.
    """
    lam = region.wavelengths_per_fiber
    segments = eps_segments(region, topology)
    total_transceivers = lam * sum(
        pairs * terminations for pairs, _, terminations in segments
    )
    dc_transceivers = sum(region.fibers(dc) * lam for dc in region.dcs)
    if total_transceivers < dc_transceivers:
        raise PlanningError(
            "topology terminates less capacity than the DCs offer; "
            "was the plan produced for this region?"
        )
    innetwork_transceivers = total_transceivers - dc_transceivers
    amplifiers = sum(
        pairs * terminations for pairs, _, terminations in segments
    )

    return Inventory(
        dc_transceivers=dc_transceivers,
        dc_electrical_ports=dc_transceivers,
        innetwork_transceivers=innetwork_transceivers,
        innetwork_electrical_ports=innetwork_transceivers,
        oss_ports=0,
        oxc_ports=0,
        amplifiers=amplifiers,
        fiber_pair_spans=topology.fiber_pair_spans(),
        dc_oss_ports=0,
    )


def eps_inventory_from_plan(region: RegionSpec, topology: TopologyPlan) -> Inventory:
    """Alias kept for symmetry with the Iris plan's ``inventory()``."""
    return eps_inventory(region, topology)
