"""Worker-count parity and no-op identity for the instrumented planner.

Two invariants the observability layer must uphold:

1. **Parity** — metrics that count *work done* (scenarios walked, hose
   lookups performed, the distribution of max-flow values) are properties
   of the planning problem, not of how chunks were sharded across workers,
   so jobs=1 and jobs=2 must merge to identical totals. The hit/miss
   *split* is intentionally excluded: each worker process warms its own
   hose cache, so more workers means more cold misses (hits + misses is
   still invariant).
2. **No-op identity** — with tracing disabled (the default), the planner
   must produce bit-identical plans to a traced run; instrumentation may
   observe, never perturb.
"""

from __future__ import annotations

import pytest

from repro import api, obs, plan_region
from repro.api import PlannerConfig
from repro.core.hose import clear_hose_cache
from repro.region.catalog import make_region
from repro.serialize import plan_to_json


@pytest.fixture(scope="module")
def parity_region():
    return make_region(map_index=0, n_dcs=5, dc_fibers=8).spec


def _traced_plan(region, jobs: int):
    clear_hose_cache()
    with obs.tracing("parity") as tracer:
        plan = api.plan(region, config=PlannerConfig(jobs=jobs))
    return plan, tracer.record()


class TestJobsParity:
    @pytest.fixture(scope="class")
    def traces(self, parity_region):
        plan1, rec1 = _traced_plan(parity_region, jobs=1)
        plan2, rec2 = _traced_plan(parity_region, jobs=2)
        return plan1, rec1, plan2, rec2

    def test_plans_bit_identical_across_backends(self, traces):
        plan1, _, plan2, _ = traces
        assert plan_to_json(plan1) == plan_to_json(plan2)

    def test_scenario_totals_merge_equal(self, traces):
        _, rec1, _, rec2 = traces
        assert rec1.total("paths.scenarios") == rec2.total("paths.scenarios")
        assert rec1.total("scenarios.evaluated") == rec2.total("scenarios.evaluated")

    def test_hose_lookup_totals_merge_equal(self, traces):
        _, rec1, _, rec2 = traces
        assert rec1.total("hose.lookups") == rec2.total("hose.lookups") > 0
        # hits + misses == lookups on both sides even though the split
        # differs (per-process cache warmth).
        for rec in (rec1, rec2):
            assert (
                rec.total("hose.cache_hit") + rec.total("hose.cache_miss")
                == rec.total("hose.lookups")
            )

    def test_flow_value_distribution_merge_equal(self, traces):
        _, rec1, _, rec2 = traces
        dist1 = rec1.counter_totals("hose.flow.")
        dist2 = rec2.counter_totals("hose.flow.")
        assert dist1 == dist2 and dist1

    def test_timings_view_agrees_across_backends(self, traces):
        plan1, _, plan2, _ = traces
        t1, t2 = plan1.topology.timings, plan2.topology.timings
        assert t1.scenarios_evaluated == t2.scenarios_evaluated
        assert (
            t1.hose_cache_hits + t1.hose_cache_misses
            == t2.hose_cache_hits + t2.hose_cache_misses
        )
        assert (t1.backend, t1.jobs) == ("serial", 1)
        assert (t2.backend, t2.jobs) == ("steal", 2)

    def test_worker_shards_present_in_pool_trace(self, traces):
        _, rec1, _, rec2 = traces
        chunks2 = [r for r in rec2.walk() if r.name.startswith("engine.chunk:")]
        assert chunks2, "jobs=2 trace should contain per-chunk worker shards"
        # Chunk shards partition the scenario work.
        assert sum(r.counters.get("chunk.items", 0) for r in chunks2) > 0
        chunks1 = [r for r in rec1.walk() if r.name.startswith("engine.chunk:")]
        assert sum(
            r.counters.get("chunk.items", 0) for r in chunks1
        ) == sum(r.counters.get("chunk.items", 0) for r in chunks2)


class TestNoOpIdentity:
    def test_untraced_plan_bit_identical_to_traced(self, parity_region):
        clear_hose_cache()
        untraced = plan_region(parity_region)
        traced, _rec = _traced_plan(parity_region, jobs=1)
        assert plan_to_json(untraced) == plan_to_json(traced)

    def test_untraced_plan_keeps_coarse_trace_only(self, parity_region):
        plan = plan_region(parity_region)
        trace = plan.topology.trace
        assert trace is not None
        # Coarse phase spans only — no per-chunk/per-lookup instrumentation.
        names = {rec.name for rec in trace.walk()}
        assert "plan.enumerate" in names and "plan.capacity" in names
        assert not any(name.startswith("engine.chunk:") for name in names)
        assert trace.total("hose.lookups") == 0
