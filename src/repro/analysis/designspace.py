"""Fig 12: the cost/ports design-space sweep.

The paper sweeps 10 real fiber maps x n in {5,10,15,20} DCs x f in {8,16,32}
fibers x lambda in {40,64} wavelengths — 240 scenarios — and compares Iris,
hybrid, and EPS realizations of the same Algorithm-1 topology. Headlines:

* 12(a): EPS >= 5x Iris for 80% of scenarios; hybrid ~= Iris; in-network-only
  cost >= 10x for 80%.
* 12(b): Iris keeps a large advantage even at short-reach transceiver prices.
* 12(c): EPS needs many times more in-network ports than DC ports; Iris <1x.
* 12(d): Iris tolerating 2 cuts is >2x cheaper than EPS tolerating none.

``default_mini_sweep`` is a reduced grid sized for CI/benchmarks (the full
grid plans 20-DC regions and runs for hours, matching the paper's note that
planning itself takes minutes per large region); ``full_paper_sweep`` is the
complete 240-point grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.engine import get_backend, worker_safe
from repro.core.planner import IrisPlanner
from repro.cost.estimator import estimate_cost
from repro.exceptions import InfeasibleRegionError, PlanningError, ReproError
from repro.cost.pricebook import PriceBook
from repro.designs.eps import eps_inventory
from repro.designs.hybrid import hybridize
from repro.region.catalog import RegionInstance, make_region
from repro.region.fibermap import OperationalConstraints, RegionSpec

if TYPE_CHECKING:
    from repro.store import PlanStore


@dataclass(frozen=True)
class SweepPoint:
    """One input scenario of the Fig 12 grid."""

    map_index: int
    n_dcs: int
    dc_fibers: int
    wavelengths: int


@dataclass(frozen=True)
class SweepRecord:
    """All Fig 12 quantities for one scenario."""

    point: SweepPoint
    iris_cost: float
    eps_cost: float
    hybrid_cost: float
    iris_cost_sr: float
    eps_cost_sr: float
    iris_innetwork_cost: float
    eps_innetwork_cost: float
    iris_port_ratio: float  # in-network ports / DC ports
    eps_port_ratio: float
    eps_tol0_cost: float  # EPS provisioned with no failure tolerance

    @property
    def eps_over_iris(self) -> float:
        """Fig 12(a)'s headline ratio."""
        return self.eps_cost / self.iris_cost

    @property
    def eps_over_hybrid(self) -> float:
        """EPS vs the hybrid realization."""
        return self.eps_cost / self.hybrid_cost

    @property
    def eps_over_iris_innetwork(self) -> float:
        """In-network components only (Fig 12(a)'s sharper line)."""
        return self.eps_innetwork_cost / self.iris_innetwork_cost

    @property
    def eps_over_iris_sr(self) -> float:
        """Fig 12(b): the ratio at short-reach transceiver prices."""
        return self.eps_cost_sr / self.iris_cost_sr

    @property
    def eps_tol0_over_iris(self) -> float:
        """Fig 12(d): unprotected EPS vs 2-failure-tolerant Iris."""
        return self.eps_tol0_cost / self.iris_cost


def default_mini_sweep() -> list[SweepPoint]:
    """A reduced grid preserving the paper's axes (maps, n, f, lambda)."""
    return [
        SweepPoint(map_index=m, n_dcs=n, dc_fibers=f, wavelengths=lam)
        for m in range(4)
        for n in (5, 10)
        for f in (8, 16)
        for lam in (40, 64)
    ]


def full_paper_sweep() -> list[SweepPoint]:
    """The complete 240-scenario grid of §6.1 (hours of planning)."""
    return [
        SweepPoint(map_index=m, n_dcs=n, dc_fibers=f, wavelengths=lam)
        for m in range(10)
        for n in (5, 10, 15, 20)
        for f in (8, 16, 32)
        for lam in (40, 64)
    ]


@worker_safe
def _plan_sweep_point(
    failure_tolerance: int, chunk: list[SweepPoint]
) -> list[tuple]:
    """Worker: the (expensive) planning products for a chunk of grid points.

    One entry per point: (instance, iris plan, tolerance-0 spec, tolerance-0
    topology). Module-level so the sweep can fan grid points out over a
    process pool; each worker plans serially (no nested pools).
    """
    out: list[tuple] = []
    for point in chunk:
        # Randomized placement occasionally yields a region the planner
        # proves infeasible (e.g. disconnected once Iris-unusable ducts
        # are pruned): resample the placement, as the paper's
        # randomized methodology implicitly does.
        last_error: Exception | None = None
        for attempt in range(6):
            instance = make_region(
                map_index=point.map_index,
                n_dcs=point.n_dcs,
                dc_fibers=point.dc_fibers,
                wavelengths_per_fiber=point.wavelengths,
                failure_tolerance=failure_tolerance,
                placement_seed=None if attempt == 0 else 881 * attempt,
            )
            try:
                plan = IrisPlanner(instance.spec).plan()
                break
            except (InfeasibleRegionError, PlanningError) as exc:
                last_error = exc
        else:
            raise PlanningError(
                f"no feasible placement for {point} after resampling"
            ) from last_error
        tol0_spec = RegionSpec(
            fiber_map=instance.spec.fiber_map,
            dc_fibers=instance.spec.dc_fibers,
            wavelengths_per_fiber=point.wavelengths,
            constraints=OperationalConstraints(failure_tolerance=0),
        )
        tol0_topology = IrisPlanner(tol0_spec).plan_topology()
        out.append((instance, plan, tol0_spec, tol0_topology))
    return out


def _cell_key(point: SweepPoint, failure_tolerance: int) -> str:
    """The store key for one sweep cell's planning products.

    A cell is one distinct (map, n, f) — planned once with the
    wavelengths of its representative point — so the key covers exactly
    the inputs :func:`_plan_sweep_point` consumes. Prices are absent by
    design: pricing happens per point in the parent, on top of the cell.
    """
    from repro.store import artifact_key

    return artifact_key(
        "sweep-cell",
        {
            "map_index": point.map_index,
            "n_dcs": point.n_dcs,
            "dc_fibers": point.dc_fibers,
            "wavelengths": point.wavelengths,
            "failure_tolerance": failure_tolerance,
            "catalog_seed": 2020,  # make_region's default ensemble seed
        },
    )


def _encode_sweep_cell(cell: tuple) -> dict[str, Any]:
    """The storable form of one ``_plan_sweep_point`` entry."""
    from repro.serialize import plan_to_dict, region_to_dict, topology_to_dict

    instance, plan, tol0_spec, tol0_topology = cell
    return {
        "instance": {
            "name": instance.name,
            "extent_km": instance.extent_km,
            "hubs": list(instance.hubs),
            "region": region_to_dict(instance.spec),
        },
        "plan": plan_to_dict(plan, full=True),
        "tol0_region": region_to_dict(tol0_spec),
        "tol0_topology": topology_to_dict(tol0_topology),
    }


def _decode_sweep_cell(payload: dict[str, Any]) -> tuple:
    """Inverse of :func:`_encode_sweep_cell`; raises on malformed payloads."""
    from repro.serialize import (
        plan_from_dict,
        region_from_dict,
        topology_from_dict,
    )

    try:
        inst = payload["instance"]
        instance = RegionInstance(
            name=inst["name"],
            spec=region_from_dict(inst["region"]),
            extent_km=float(inst["extent_km"]),
            hubs=tuple(inst["hubs"]),
        )
        return (
            instance,
            plan_from_dict(payload["plan"]),
            region_from_dict(payload["tol0_region"]),
            topology_from_dict(payload["tol0_topology"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed sweep cell: {exc}") from exc


def run_sweep(
    points: Iterable[SweepPoint],
    prices: PriceBook | None = None,
    failure_tolerance: int = 2,
) -> list[SweepRecord]:
    """Plan and price every scenario with the default execution options.

    :func:`repro.api.sweep` takes the execution options (``jobs``,
    ``store``, ...) as one :class:`repro.api.PlannerConfig`.
    """
    return _run_sweep(points, prices=prices, failure_tolerance=failure_tolerance)


def _run_sweep(
    points: Iterable[SweepPoint],
    *,
    prices: PriceBook | None = None,
    failure_tolerance: int = 2,
    jobs: int | None = 1,
    store: "PlanStore | None" = None,
) -> list[SweepRecord]:
    """Plan and price every scenario. Plans are cached per (map, n, f)
    since the wavelength count only affects pricing.

    ``jobs`` fans the per-(map, n, f) planning out over worker processes
    (grid-point parallelism); pricing stays in the parent, so records are
    identical to a serial run.

    ``store`` checkpoints each cell's planning products as that cell
    finishes (not at the end of the sweep), so an interrupted campaign
    resumed against the same store replans only the incomplete cells and
    produces byte-identical records. Cached and fresh cells go through
    the same pricing code, so warm records equal cold ones exactly.
    """
    prices = prices or PriceBook.default()
    sr_prices = prices.with_sr_priced_dci()
    points = list(points)

    # The distinct (map, n, f) plan keys, in first-occurrence order; each
    # is planned once with the wavelengths of its first point (wavelengths
    # only affect pricing, which happens per point below).
    key_points: dict[tuple[int, int, int], SweepPoint] = {}
    for point in points:
        key = (point.map_index, point.n_dcs, point.dc_fibers)
        key_points.setdefault(key, point)

    plan_cache: dict[tuple[int, int, int], tuple] = {}
    pending: list[tuple[tuple[int, int, int], SweepPoint]] = []
    for key, point in key_points.items():
        cached = (
            store.get(_cell_key(point, failure_tolerance))
            if store is not None
            else None
        )
        if cached is not None:
            try:
                plan_cache[key] = _decode_sweep_cell(cached)
                continue
            except ReproError:
                pass  # stale cell: replan it below, the put heals the entry
        pending.append((key, point))

    if pending:
        # One point per chunk: the pool load-balances (each grid point is
        # minutes of work at paper scale) and every completed cell can be
        # checkpointed the moment its result streams back.
        chunks = [[point] for _, point in pending]
        with get_backend(jobs) as engine_backend:
            for (key, point), result in zip(
                pending,
                engine_backend.iter_chunks(
                    _plan_sweep_point, failure_tolerance, chunks
                ),
            ):
                (cell,) = result
                plan_cache[key] = cell
                if store is not None:
                    store.put(
                        _cell_key(point, failure_tolerance),
                        _encode_sweep_cell(cell),
                        kind="sweep-cell",
                    )

    records: list[SweepRecord] = []
    for point in points:
        key = (point.map_index, point.n_dcs, point.dc_fibers)
        instance, plan, tol0_spec, tol0_topology = plan_cache[key]

        region = RegionSpec(
            fiber_map=instance.spec.fiber_map,
            dc_fibers=instance.spec.dc_fibers,
            wavelengths_per_fiber=point.wavelengths,
            constraints=instance.spec.constraints,
        )
        # Re-bind the plan's region so inventories use this lambda.
        from dataclasses import replace

        plan_l = replace(plan, region=region)
        iris_inv = plan_l.inventory()
        eps_inv = eps_inventory(region, plan_l.topology)
        hybrid_inv = hybridize(plan_l).inventory()
        tol0_region = RegionSpec(
            fiber_map=tol0_spec.fiber_map,
            dc_fibers=tol0_spec.dc_fibers,
            wavelengths_per_fiber=point.wavelengths,
            constraints=tol0_spec.constraints,
        )
        eps_tol0_inv = eps_inventory(tol0_region, tol0_topology)

        iris = estimate_cost(iris_inv, prices)
        eps = estimate_cost(eps_inv, prices)
        hybrid = estimate_cost(hybrid_inv, prices)
        records.append(
            SweepRecord(
                point=point,
                iris_cost=iris.total,
                eps_cost=eps.total,
                hybrid_cost=hybrid.total,
                iris_cost_sr=estimate_cost(iris_inv, sr_prices).total,
                eps_cost_sr=estimate_cost(eps_inv, sr_prices).total,
                iris_innetwork_cost=iris.in_network_total,
                eps_innetwork_cost=eps.in_network_total,
                iris_port_ratio=(
                    iris_inv.in_network_ports / iris_inv.dc_ports
                ),
                eps_port_ratio=(
                    eps_inv.in_network_ports / eps_inv.dc_ports
                ),
                eps_tol0_cost=estimate_cost(eps_tol0_inv, prices).total,
            )
        )
    return records
