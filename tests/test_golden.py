"""Golden regression values for a fully-planned catalog region.

The planner, generator, and cost model are all deterministic (seeded); this
module pins one region's end-to-end outputs so that unintended behavioural
changes — a different greedy tie-break, a generator tweak, a price edit —
show up as a diff here rather than as silent drift in the benchmarks.
Update the constants deliberately when a change is intentional.
"""

import hashlib
import json

import pytest

from repro import api, obs
from repro.api import PlannerConfig
from repro.core.amplifiers import place_amplifiers
from repro.core.cutthrough import place_cut_throughs
from repro.core.hose import clear_hose_cache
from repro.core.plan import IrisPlan
from repro.core.planner import plan_region
from repro.core.topology import plan_topology
from repro.cost.estimator import estimate_cost
from repro.designs.eps import eps_inventory
from repro.region.catalog import make_region
from repro.serialize import plan_to_dict


@pytest.fixture(scope="module")
def golden_plan():
    instance = make_region(map_index=0, n_dcs=5, dc_fibers=8)
    return instance.spec, plan_region(instance.spec)


class TestGoldenRegion:
    def test_topology_provisioning(self, golden_plan):
        _, plan = golden_plan
        assert plan.topology.total_fiber_pairs() == 528
        assert plan.residual_fiber_pairs() == 40
        assert len(plan.topology.scenario_paths) == 217
        assert plan.topology.scenario_count_total == 2017

    def test_optical_realization(self, golden_plan):
        _, plan = golden_plan
        assert plan.amplifiers.total_amplifiers == 72
        assert plan.cut_throughs == ()
        assert plan.validate() == []

    def test_costs(self, golden_plan):
        region, plan = golden_plan
        iris = estimate_cost(plan.inventory())
        eps = estimate_cost(eps_inventory(region, plan.topology))
        assert iris.total == pytest.approx(5_444_000)
        assert eps.total / iris.total == pytest.approx(11.48, abs=0.02)

    def test_inventory_detail(self, golden_plan):
        _, plan = golden_plan
        inv = plan.inventory()
        assert inv.dc_transceivers == 5 * 8 * 40
        assert inv.fiber_pair_spans == 568  # 528 base + 40 residual
        assert inv.oss_ports == 4 * 568 + 2 * 72


class TestGoldenObservability:
    """Pinned observability counts for the same region at jobs=1.

    The work metrics are as deterministic as the plan itself — a change
    here means the planner is *doing* different work (extra hose
    evaluations, a different enumeration), even if the plan output is
    unchanged. The cache hit/miss split is pinned from a cold per-process
    cache, hence the explicit ``clear_hose_cache``.
    """

    @pytest.fixture(scope="class")
    def traced_plan(self):
        instance = make_region(map_index=0, n_dcs=5, dc_fibers=8)
        clear_hose_cache()
        with obs.tracing("golden") as tracer:
            plan = api.plan(instance.spec, config=PlannerConfig(jobs=1))
        return plan, tracer.record()

    def test_timings_view(self, traced_plan):
        plan, _ = traced_plan
        timings = plan.topology.timings
        assert timings.scenarios_evaluated == 217
        assert timings.hose_cache_hits == 4355  # capacity phase, cold cache
        assert timings.hose_cache_misses == 78

    def test_trace_work_totals(self, traced_plan):
        _, record = traced_plan
        assert record.total("paths.scenarios") == 217
        assert record.total("scenarios.evaluated") == 217
        # Capacity (4,433) + cut-through (20: one per distinct pair set).
        assert record.total("hose.lookups") == 4453

    def test_per_path_work_totals(self, traced_plan):
        """Per-path work is done once per distinct path: one Dijkstra per
        DC with a higher-named DC left to route to (4 of 5), one
        EffectivePath per distinct route, one cut-through record per
        distinct effective path, one validation check per distinct
        effective path (104 of 2,170 keys). The greedy takes 8 rounds and
        computes a candidate's cost only when its keys, or its site's
        amplifiers, changed since it was last scored."""
        _, record = traced_plan
        assert record.total("enumerate.dijkstra_runs") == 217 * 4
        assert record.total("amplifiers.paths_built") == 104
        assert record.total("cutthrough.paths_evaluated") == 144
        assert record.total("cutthrough.rounds") == 8
        assert record.total("cutthrough.costs_scored") == 368
        assert record.total("validate.paths") == 2170
        assert record.total("validate.paths_checked") == 104

    def test_hose_miss_totals(self, traced_plan):
        """Distinct flow graphs solved over the whole plan (capacity and
        cut-through phases), each once, from scratch."""
        _, record = traced_plan
        assert record.total("hose.cache_miss") == 92
        assert record.total("hose.cache_hit") == 4453 - 92

    def test_flow_value_distribution(self, traced_plan):
        _, record = traced_plan
        assert record.counter_totals("hose.flow.") == {
            "hose.flow.fibers[le_8]": 4140,
            "hose.flow.fibers[le_16]": 312,
            "hose.flow.fibers[le_32]": 1,
        }

    def test_span_taxonomy_present(self, traced_plan):
        _, record = traced_plan
        names = {rec.name for rec in record.walk()}
        assert {
            "plan.topology", "plan.prune", "plan.enumerate", "plan.capacity",
            "plan.amplifiers", "plan.cutthrough", "plan.residual",
            "plan.validate",
        } <= names


def _canonical_digest(plan) -> str:
    """sha256 of the daemon's encoding: compact, sorted full-plan JSON."""
    text = json.dumps(
        plan_to_dict(plan, full=True), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: (map, DCs) -> canonical digest prefix of the catalog region's plan.
GOLDEN_DIGESTS = {
    (0, 4): "3cbb46ff3cf14cfe",
    (0, 5): "7dcdb425be375f6b",
    (1, 5): "b3cb113b6dd1af88",
    (2, 5): "27667e9e3401f96a",
    (3, 5): "c368bc88e7d4de52",
    (0, 6): "2e3d91bb859f6b5a",
    (1, 6): "87ef8d778f769e40",
    (2, 6): "2b624e9a80b37a49",
    (3, 6): "c788b80e90519c60",
    (5, 6): "fd1bdd0cf5edb79f",  # 3 cut-through links, one partial step
}


class TestGoldenPlanBytes:
    """The plan bytes the daemon serves, pinned for ten catalog regions.

    Any change to a tie-break — in Dijkstra, in the amplifier or the
    cut-through greedy — moves these digests. They do not depend on
    ``PYTHONHASHSEED``.
    """

    @staticmethod
    def _digest(cell, jobs):
        region = make_region(
            cell[0], cell[1], dc_fibers=8, failure_tolerance=2, seed=2020
        ).spec
        return _canonical_digest(api.plan(region, config=PlannerConfig(jobs=jobs)))

    @pytest.mark.parametrize("cell", sorted(GOLDEN_DIGESTS))
    def test_serial_plan_bytes(self, cell):
        assert self._digest(cell, jobs=1)[:16] == GOLDEN_DIGESTS[cell]

    @pytest.mark.parametrize("cell", [(0, 5), (1, 6), (5, 6)])
    def test_parallel_plan_bytes(self, cell):
        assert self._digest(cell, jobs=2)[:16] == GOLDEN_DIGESTS[cell]


class TestCutThroughOnlyAblation:
    """The golden region realized by cut-throughs alone
    (``allow_amplifiers=False``, as ``benchmarks/bench_ablations.py`` runs
    it): the greedy's cut branch at scale, pinned by the canonical digest
    of a plan holding its links, amplifier plan and effective paths."""

    def test_links_and_paths(self):
        region = make_region(map_index=0, n_dcs=5, dc_fibers=8).spec
        topology = plan_topology(region)
        amps, effective = place_amplifiers(region, topology)
        links, paths, final = place_cut_throughs(
            region,
            effective,
            site_counts=amps.site_counts,
            assignments=amps.assignments,
            allow_amplifiers=False,
        )
        assert len(links) == 29
        assert sum(link.fiber_pair_spans for link in links) == 776
        assert final.total_amplifiers == 0
        plan = IrisPlan(
            region=region,
            topology=topology,
            amplifiers=final,
            cut_throughs=links,
            residual={},
            effective_paths=paths,
        )
        assert _canonical_digest(plan)[:16] == "9fa77136144ab21f"
