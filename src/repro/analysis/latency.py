"""Fig 3: latency inflation of hub paths over direct DC-DC paths.

For every DC pair in every region of an ensemble: the DC-hub-DC fiber
distance (via the better of the two hubs) divided by the estimated direct
DC-DC fiber distance (geo-distance x 2, the industry rule the paper uses
when no direct fiber route is provisioned).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.engine import get_backend, map_in_chunks, worker_safe
from repro.designs.centralized import CentralizedDesign
from repro.exceptions import ReproError
from repro.region.catalog import RegionInstance
from repro.region.geometry import estimated_fiber_km


#: Route factor for the hypothetical *direct* DC-DC fiber route. The paper
#: estimates direct routes as 2x geo-distance because its hub paths ride
#: real-world fiber; our synthetic ducts carry explicit route factors of
#: ~1.15-1.45, so the consistent direct estimate uses the generator's mean.
DIRECT_ROUTE_FACTOR = 1.3


@worker_safe
def _instance_ratios(
    direct_route_factor: float, chunk: list[RegionInstance]
) -> list[list[float]]:
    """Worker: per-instance ratio lists (module-level for pickling)."""
    out: list[list[float]] = []
    for instance in chunk:
        region = instance.spec
        design = CentralizedDesign(region, hubs=instance.hubs)
        fmap = region.fiber_map
        ratios: list[float] = []
        for a, b in region.iter_pairs():
            direct_km = estimated_fiber_km(
                fmap.position(a).distance_to(fmap.position(b)),
                direct_route_factor,
            )
            if direct_km <= 0:
                continue
            hub_km = design.pair_distance_km(a, b)
            ratios.append(hub_km / direct_km)
        out.append(ratios)
    return out


def latency_inflation_ratios(
    instances: Sequence[RegionInstance],
    direct_route_factor: float = DIRECT_ROUTE_FACTOR,
    jobs: int | None = 1,
) -> list[float]:
    """All DC pairs' hub-path / direct-path distance ratios.

    ``jobs`` fans the per-region computation out over worker processes;
    the result order (ensemble order, pairs within each region) is
    independent of it.
    """
    with get_backend(jobs) as backend:
        per_instance = map_in_chunks(
            backend, _instance_ratios, direct_route_factor, list(instances)
        )
    ratios = [r for chunk in per_instance for r in chunk]
    if not ratios:
        raise ReproError("ensemble produced no DC pairs")
    return ratios


def cdf(values: Sequence[float]) -> list[tuple[float, float]]:
    """(value, cumulative fraction) points of the empirical CDF."""
    if not values:
        raise ReproError("cdf of empty data")
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def fraction_at_least(values: Sequence[float], threshold: float) -> float:
    """Fraction of values >= threshold (the paper's '>2x for 20%' reading)."""
    if not values:
        raise ReproError("fraction of empty data")
    return sum(1 for v in values if v >= threshold) / len(values)
