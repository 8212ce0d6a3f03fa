"""METTEOR-style multi-traffic-matrix robust design.

*METTEOR: Robust Multi-Traffic Topology Engineering* argues that instead of
re-optimizing the reconfigurable topology for each traffic matrix (and
paying reconfiguration churn), one should plan a single topology that is
simultaneously feasible for an *ensemble* of representative TMs. This
module is that planning mode for the Iris regional planner. It is not a
second planner but a duct-sizing rule (:class:`EnsembleSizing`) passed to
Algorithm 1 (:func:`repro.core.topology.plan_topology`):

* sample an ensemble of heavy-tailed DC-DC matrices
  (:class:`TrafficEnsembleSpec`, seeded and reproducible);
* Algorithm 1 prunes and enumerates the failure scenarios unchanged;
* the rule sizes each duct, per scenario, at the **maximum over ensemble
  members** of the traffic it must carry — clamped to the hose envelope,
  which Algorithm 1 prices per (duct, scenario) exactly as for the iris
  design. Each sampled TM respects the hose (per-DC shares scale to the
  DC's fiber count), so the robust capacity of every duct is ≤ the iris
  hose capacity: the ensemble buys a cheaper topology, never a larger one;
* amplifiers, cut-throughs, residual fibers and validation follow as for
  the iris design.

Determinism: ensemble sampling uses one explicit ``random.Random``; duct
loads are summed in sorted pair order, so ``jobs=1`` and ``jobs=N`` plans
are byte-identical (``plan_to_json`` equality, parity-tested). With a
``store``, plans are cached under a key that includes the **ensemble
digest** — two different ensembles never collide, identical specs hit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro import obs
from repro.core.engine import worker_safe
from repro.core.plan import IrisPlan, Pair
from repro.cost.estimator import Inventory
from repro.designs.base import register_design
from repro.exceptions import SimulationError
from repro.region.fibermap import RegionSpec
from repro.simulation.traffic import TrafficMatrix, sample_ensemble

if TYPE_CHECKING:
    from repro.store import PlanStore


@dataclass(frozen=True)
class TrafficEnsembleSpec:
    """A reproducible recipe for a robust-planning TM ensemble.

    The spec (not the sampled matrices) is what travels through configs
    and CLI flags; :meth:`build` materializes it for a region's DCs with
    an explicit seeded RNG, so equal specs over equal DC sets yield equal
    ensembles everywhere.
    """

    count: int = 5
    seed: int = 2020
    skew: float = 1.4
    max_change: float | None = 0.5

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SimulationError("ensemble needs at least one matrix")
        if self.skew <= 0:
            raise SimulationError("skew must be positive")
        if self.max_change is not None and self.max_change < 0:
            raise SimulationError("max_change must be non-negative")

    def build(self, dcs: Sequence[str]) -> list[TrafficMatrix]:
        """Sample the ensemble for ``dcs`` (deterministic in the spec)."""
        rng = random.Random(self.seed * 999_983 + 7)
        return sample_ensemble(
            dcs,
            rng,
            count=self.count,
            skew=self.skew,
            max_change=self.max_change,
        )


def ensemble_digest(ensemble: Sequence[TrafficMatrix]) -> str:
    """Content digest of a TM ensemble (for :func:`repro.store.plan_key`).

    Encodes every matrix's full weight table in canonical pair order, so
    any change to any weight of any member changes the robust plan's
    cache key.
    """
    from repro.store.canonical import digest

    return digest(
        [
            {f"{a}|{b}": tm.weights[(a, b)] for a, b in tm.pairs()}
            for tm in ensemble
        ]
    )


def pair_demand_fibers(
    tm: TrafficMatrix, dc_fibers: Mapping[str, int]
) -> dict[Pair, float]:
    """One TM's per-pair demand, in (fractional) fibers.

    The matrix gives traffic *shares*; the absolute operating point scales
    every share by the largest factor at which no DC's total (in + out)
    traffic exceeds its fiber count — i.e. the TM is run as hot as the
    hose allows. At that scale each pair's demand is its weight times the
    scale factor, and every DC's incident demand sum is ≤ its capacity,
    so per-duct robust loads can never exceed the hose envelope.
    """
    scale = math.inf
    for dc, fibers in dc_fibers.items():
        share = tm.dc_load_share(dc)
        if share > 0:
            scale = min(scale, fibers / share)
    if not math.isfinite(scale):
        raise SimulationError("traffic matrix touches no known DC")
    return {pair: w * scale for pair, w in tm.weights.items()}


@dataclass(frozen=True)
class EnsembleSizing:
    """Algorithm 1's duct-sizing rule for a TM ensemble.

    A :class:`repro.core.topology.DuctSizing`: for each (scenario, used
    duct), the duct's load under one TM is the sum of the demands of the
    pairs routed across it; its need is the ensemble maximum of that load,
    rounded up to whole fibers and clamped to the hose envelope (the hose
    is the worst case over *all* feasible TMs, so no sampled TM can
    legitimately exceed it — the clamp defends against float slop only).
    Sorted iteration keeps the sum order — hence the float result —
    identical in any chunking, so ``jobs=1`` and ``jobs=N`` plans match.

    ``demands`` holds one :func:`pair_demand_fibers` table per TM and
    ``digest`` the ensemble's :func:`ensemble_digest`; with the TM count
    they key the plan in a store.
    """

    demands: tuple[Mapping[Pair, float], ...]
    digest: str

    design = "robust"

    def __post_init__(self) -> None:
        if not self.demands:
            raise SimulationError("robust planning needs a non-empty ensemble")

    @classmethod
    def for_ensemble(
        cls, ensemble: Sequence[TrafficMatrix], dc_fibers: Mapping[str, int]
    ) -> "EnsembleSizing":
        """The rule for ``ensemble`` run at ``dc_fibers``' hose limits."""
        return cls(
            demands=tuple(pair_demand_fibers(tm, dc_fibers) for tm in ensemble),
            digest=ensemble_digest(ensemble),
        )

    def store_config(self) -> dict[str, Any]:
        return {"tm_count": len(self.demands), "tm_ensemble": self.digest}

    def plan_counters(self) -> dict[str, float]:
        return {"robust.tms": len(self.demands)}

    @worker_safe
    def size(
        self, oriented: tuple[Pair, ...], hose: int, counts: dict[str, float]
    ) -> int:
        crossing = sorted({tuple(sorted(p)) for p in oriented})
        load = 0.0
        for demands in self.demands:
            tm_load = 0.0
            for pair in crossing:
                tm_load += demands.get(pair, 0.0)
            load = max(load, tm_load)
        need = max(1, math.ceil(load - 1e-9))
        clamped = need > hose
        obs.merge_counters(
            counts, {"robust.duct_evals": 1, "robust.clamped": int(clamped)}
        )
        return hose if clamped else need


def plan_robust(
    region: RegionSpec,
    *,
    ensemble: Sequence[TrafficMatrix] | None = None,
    traffic: TrafficEnsembleSpec | None = None,
    prune_enumeration: bool = True,
    validate: bool = True,
    jobs: int | None = 1,
    store: "PlanStore | None" = None,
) -> IrisPlan:
    """Plan ``region`` robustly against a TM ensemble, end to end.

    Pass either a pre-sampled ``ensemble`` or a ``traffic`` spec to
    sample one (default: :class:`TrafficEnsembleSpec`'s five matrices).
    Returns a full :class:`~repro.core.plan.IrisPlan` — same shape as the
    iris design, so serialization, inventories, and cost estimation work
    unchanged.

    With a ``store``, the plan is cached under
    ``plan_key(design="robust", ...)`` whose config embeds the ensemble
    digest: replanning the same region with the same ensemble is a load,
    any change to any TM weight is a miss.
    """
    from repro.core.planner import _plan_region

    if ensemble is None:
        spec = traffic if traffic is not None else TrafficEnsembleSpec()
        ensemble = spec.build(region.dcs)
    return _plan_region(
        region,
        prune_enumeration=prune_enumeration,
        validate=validate,
        jobs=jobs,
        store=store,
        sizing=EnsembleSizing.for_ensemble(ensemble, region.dc_fibers),
    )


@register_design("robust")
@dataclass(frozen=True)
class RobustDesign:
    """The multi-TM robust design, registered as ``"robust"``.

    ``traffic`` configures the ensemble recipe; ``jobs``/``store``
    mirror the other planner-backed designs.
    """

    jobs: int | None = 1
    store: "PlanStore | None" = None
    traffic: TrafficEnsembleSpec = TrafficEnsembleSpec()

    name = "robust"

    def plan(self, region: RegionSpec) -> Inventory:
        return plan_robust(
            region,
            traffic=self.traffic,
            jobs=self.jobs,
            store=self.store,
        ).inventory()
