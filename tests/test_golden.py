"""Golden regression values for a fully-planned catalog region.

The planner, generator, and cost model are all deterministic (seeded); this
module pins one region's end-to-end outputs so that unintended behavioural
changes — a different greedy tie-break, a generator tweak, a price edit —
show up as a diff here rather than as silent drift in the benchmarks.
Update the constants deliberately when a change is intentional.
"""

import pytest

from repro import api, obs
from repro.api import PlannerConfig
from repro.core.hose import clear_hose_cache
from repro.core.planner import plan_region
from repro.cost.estimator import estimate_cost
from repro.designs.eps import eps_inventory
from repro.region.catalog import make_region


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
        # Every capacity-phase miss is repaired from a solved neighbour
        # except the handful of genuinely novel flow graphs.
        assert timings.hose_cold_solves == 7
        assert timings.hose_incremental_solves == 71

    def test_trace_work_totals(self, traced_plan):
        _, record = traced_plan
        assert record.total("paths.scenarios") == 217
        assert record.total("scenarios.evaluated") == 217
        assert record.total("hose.lookups") == 15762  # enumerate + capacity

    def test_incremental_solve_totals(self, traced_plan):
        """ISSUE 6 acceptance: >= 5x fewer cold solves than the 92
        all-cold misses the pre-incremental planner performed."""
        _, record = traced_plan
        cold = record.total("hose.solve_cold")
        incremental = record.total("hose.solve_incremental")
        assert cold == 7
        assert incremental == 85
        assert cold + incremental == 92  # the pinned miss total
        assert cold * 5 <= 92

    def test_flow_value_distribution(self, traced_plan):
        _, record = traced_plan
        assert record.counter_totals("hose.flow.") == {
            "hose.flow.fibers[le_8]": 15386,
            "hose.flow.fibers[le_16]": 375,
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
