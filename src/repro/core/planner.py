"""The end-to-end Iris planner: Algorithm 1 + Algorithm 2 + cut-throughs +
residual fibers, assembled into a validated :class:`~repro.core.plan.IrisPlan`.

Typical use::

    from repro.api import PlannerConfig, plan
    result = plan(region, config=PlannerConfig(jobs=4))
    inventory = result.inventory()

:func:`plan_region` plans a region with the default options.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.core.amplifiers import place_amplifiers
from repro.core.cutthrough import place_cut_throughs
from repro.core.plan import IrisPlan, TopologyPlan
from repro.core.residual import residual_fiber_pairs
from repro.core.engine import CancelToken
from repro.core.topology import DuctSizing, plan_topology
from repro.exceptions import PlanningError, ReproError
from repro.region.fibermap import RegionSpec

if TYPE_CHECKING:
    from repro.store import PlanStore


@dataclass
class IrisPlanner:
    """Planner for one region.

    ``prune_enumeration``
        Use the exact pruned failure enumeration (default). Brute force is
        exponentially slower and only useful for validating the pruning.
    ``validate``
        Check every scenario path against TC1-TC4/OC1 after planning and
        raise :class:`PlanningError` on any violation (default).
    ``jobs``
        Worker count for Algorithm 1's scenario evaluation (see
        :mod:`repro.core.engine`): ``1`` (default) stays serial and never
        spawns a worker pool, ``N > 1`` uses a pool of ``N`` worker
        processes, ``0`` uses every CPU. Plans are bit-identical across
        worker counts.
    ``cancel_token``
        Optional :class:`repro.core.engine.CancelToken` checked at chunk
        boundaries during Algorithm 1's fan-out, so the planner service
        can cancel or time out a job mid-plan (it unwinds with
        :class:`~repro.exceptions.JobCancelled`).
    ``sizing``
        Optional :class:`repro.core.topology.DuctSizing` replacing the hose
        max-flow as Algorithm 1's per-duct need (the robust design's
        ensemble rule); ``None`` (default) is the paper's hose sizing.
    """

    region: RegionSpec
    prune_enumeration: bool = True
    validate: bool = True
    jobs: int | None = 1
    cancel_token: CancelToken | None = None
    sizing: DuctSizing | None = None

    def plan(self) -> IrisPlan:
        """Produce the full Iris plan for the region."""
        topology = self.plan_topology()
        return self.plan_from_topology(topology)

    def plan_topology(self) -> TopologyPlan:
        """Run only Algorithm 1 (shared with the EPS baseline)."""
        return plan_topology(
            self.region,
            prune_enumeration=self.prune_enumeration,
            jobs=self.jobs,
            cancel_token=self.cancel_token,
            sizing=self.sizing,
        )

    def plan_from_topology(self, topology: TopologyPlan) -> IrisPlan:
        """Complete the optical realization on a precomputed topology."""
        with obs.span("plan.amplifiers") as span:
            distance_amps, effective = place_amplifiers(self.region, topology)
            span.incr("amplifiers.distance_sites", len(distance_amps.site_counts))
        with obs.span("plan.cutthrough") as span:
            cut_throughs, effective, amplifiers = place_cut_throughs(
                self.region,
                effective,
                site_counts=distance_amps.site_counts,
                assignments=distance_amps.assignments,
            )
            span.incr("cutthrough.links", len(cut_throughs))
            span.incr("amplifiers.sites", len(amplifiers.site_counts))
        with obs.span("plan.residual") as span:
            residual = residual_fiber_pairs(self.region, topology)
            span.incr("residual.fiber_pairs", sum(residual.values()))
        plan = IrisPlan(
            region=self.region,
            topology=topology,
            amplifiers=amplifiers,
            cut_throughs=cut_throughs,
            residual=residual,
            effective_paths=effective,
        )
        if self.validate:
            with obs.span("plan.validate") as span:
                problems = plan.validate()
                span.incr("validate.paths", len(plan.effective_paths))
                span.incr("validate.violations", len(problems))
            if problems:
                raise PlanningError(
                    "planned network violates constraints: "
                    + " | ".join(problems[:5])
                    + (f" (+{len(problems) - 5} more)" if len(problems) > 5 else "")
                )
        return plan


def plan_region(region: RegionSpec) -> IrisPlan:
    """Plan ``region`` end to end with the default options.

    :func:`repro.api.plan` takes the options as one
    :class:`repro.api.PlannerConfig`.
    """
    return _plan_region(region)


def _plan_region(
    region: RegionSpec,
    *,
    prune_enumeration: bool = True,
    validate: bool = True,
    jobs: int | None = 1,
    store: "PlanStore | None" = None,
    cancel_token: CancelToken | None = None,
    sizing: DuctSizing | None = None,
) -> IrisPlan:
    """Plan ``region`` end to end (the internal entry point).

    :func:`repro.api.plan` and :func:`repro.designs.robust.plan_robust`
    are the public faces of this function; the parameters mirror
    :class:`IrisPlanner`'s fields — see there for semantics.

    ``store``
        An optional :class:`repro.store.PlanStore`. Plans are pure
        functions of (region, config), so on a hit the cached plan is
        loaded instead of replanned — bit-identical to a fresh one
        (``plan_to_json`` equality, parity-tested) — and on a miss the
        fresh plan is checkpointed for next time. ``jobs`` is an
        execution detail and deliberately not part of the cache key; a
        ``sizing`` supplies its own design name and config entries
        (:class:`~repro.core.topology.DuctSizing`).
    """
    planner = IrisPlanner(
        region,
        prune_enumeration=prune_enumeration,
        validate=validate,
        jobs=jobs,
        cancel_token=cancel_token,
        sizing=sizing,
    )
    if store is None:
        return planner.plan()

    from repro.serialize import plan_from_dict, plan_to_dict
    from repro.store import plan_key

    design = "iris"
    config = {"prune_enumeration": prune_enumeration, "validate": validate}
    if sizing is not None:
        design = sizing.design
        config.update(sizing.store_config())
    key = plan_key(design=design, region=region, config=config)
    cached = store.get(key)
    if cached is not None:
        try:
            return plan_from_dict(cached)
        except ReproError:
            # Decodable-but-stale payload (schema drift inside one store
            # schema version): treat as a miss and heal it below.
            pass
    plan = planner.plan()
    store.put(key, plan_to_dict(plan, full=True), kind="plan")
    return plan
