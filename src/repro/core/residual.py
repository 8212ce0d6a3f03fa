"""Residual fiber provisioning for fiber-granularity switching (§4.3).

Fiber switching rounds every DC pair's share up to whole fibers: a DC with
capacity ``z`` fibers splitting traffic across several destinations can need
up to one extra fiber per destination in the worst case. To support any
hose-compliant traffic matrix (OC2), Iris provisions one *residual*
fiber-pair per DC pair — n*(n-1) extra fibers region-wide — routed along the
pair's shortest path. No extra transceivers are needed: DC transceivers are
multiplexed onto whichever fibers carry live demand.
"""

from __future__ import annotations

from repro.core.plan import TopologyPlan
from repro.region.fibermap import Duct, RegionSpec, duct_key


def residual_fiber_pairs(
    region: RegionSpec, topology: TopologyPlan
) -> dict[Duct, int]:
    """Residual fiber-pairs per duct: +1 along each DC pair's base path.

    Residuals follow the no-failure shortest paths; under failures the
    displaced base capacity of rerouted pairs (provisioned by Algorithm 1's
    max over scenarios) subsumes the fractional remainder.
    """
    out: dict[Duct, int] = {}
    for pair, path in topology.base_paths.items():
        for u, v in zip(path, path[1:]):
            key = duct_key(u, v)
            out[key] = out.get(key, 0) + 1
    return out


def residual_pair_count(region: RegionSpec) -> int:
    """The paper's headline overhead: one residual fiber-pair per DC pair."""
    n = len(region.dcs)
    return n * (n - 1) // 2
