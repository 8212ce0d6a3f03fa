"""End-to-end Iris planning: integration tests and plan invariants."""

import dataclasses

import pytest

from repro import obs
from repro.core.failures import Scenario
from repro.core.plan import EffectivePath
from repro.core.planner import IrisPlanner, plan_region
from repro.core.residual import residual_fiber_pairs, residual_pair_count
from repro.core.topology import plan_topology
from repro.optics.constraints import violations


class TestToyPlan:
    def test_toy_matches_section_3_4(self, toy_region):
        """The §3.4 worked example, end to end.

        F_E = 60 base fiber-pairs; residual = one pair per DC pair along its
        shortest path (L1-L4: +3 each, trunk: +4); T_O = 1600 transceivers.
        """
        plan = plan_region(toy_region)
        assert plan.topology.total_fiber_pairs() == 60
        residual = dict(plan.residual)
        assert residual[("DC1", "H1")] == 3
        assert residual[("DC2", "H1")] == 3
        assert residual[("DC3", "H2")] == 3
        assert residual[("DC4", "H2")] == 3
        assert residual[("H1", "H2")] == 4
        assert plan.residual_fiber_pairs() == 16
        inv = plan.inventory()
        assert inv.dc_transceivers == 1600
        # No amplification needed at these distances; no cut-throughs.
        assert plan.cut_throughs == ()
        assert plan.amplifiers.assignments == {}

    def test_toy_oss_ports(self, toy_region):
        # §3.4 accounting: 4 OSS ports per (fiber-pair, duct).
        plan = plan_region(toy_region)
        inv = plan.inventory()
        assert inv.oss_ports == 4 * (60 + 16)

    def test_validate_clean(self, toy_region):
        plan = plan_region(toy_region)
        assert plan.validate() == []


class TestSyntheticPlan:
    def test_plan_is_constraint_clean(self, small_plan):
        assert small_plan.validate() == []

    def test_violations_reported_per_key_in_order(self, small_plan):
        """``validate`` checks each distinct path once, yet reports every
        (scenario, pair) routed over a violating path, with the text and
        order of a check of every key."""
        fmap = small_plan.region.fiber_map
        sla = small_plan.region.constraints.sla_fiber_km
        # The raw routes (no amplifiers, no cut-throughs), in reverse
        # scenario order, one new object per key: equal paths share no
        # object, so only their values match.
        raw = {
            (scenario, pair): EffectivePath.from_path(fmap, nodes)
            for scenario, paths in reversed(
                list(small_plan.topology.scenario_paths.items())
            )
            for pair, nodes in paths.items()
        }
        expected = [
            f"{pair} under {sorted(scenario) or 'no failures'}: {problem}"
            for (scenario, pair), path in sorted(
                raw.items(),
                key=lambda kv: (len(kv[0][0]), sorted(kv[0][0]), kv[0][1]),
            )
            for problem in violations(path.profile(), sla_fiber_km=sla)
        ]
        assert len(expected) > 100
        plan = dataclasses.replace(small_plan, effective_paths=raw)
        with obs.tracing("validate") as tracer:
            assert plan.validate() == expected
        checked = tracer.record().total("validate.paths_checked")
        assert checked == len(set(raw.values())) < len(raw)

    def test_every_scenario_pair_has_a_path(self, small_plan):
        region = small_plan.region
        pairs = set(region.fiber_map.dc_pairs())
        for scenario in small_plan.topology.scenarios:
            covered = {
                pair
                for (s, pair) in small_plan.effective_paths
                if s == scenario
            }
            assert covered == pairs

    def test_paths_within_sla_everywhere(self, small_plan):
        sla = small_plan.region.constraints.sla_fiber_km
        for path in small_plan.effective_paths.values():
            assert path.total_km <= sla + 1e-6

    def test_duct_fiber_pairs_consistent(self, small_plan):
        total = sum(small_plan.duct_fiber_pairs().values())
        assert total == small_plan.total_fiber_pair_spans()

    def test_residual_covers_all_pairs(self, small_plan):
        region = small_plan.region
        assert (
            small_plan.residual_fiber_pairs()
            >= residual_pair_count(region)
        )

    def test_effective_paths_follow_shortest_paths(self, small_plan):
        base = small_plan.topology.base_paths
        for pair, path in base.items():
            eff = small_plan.effective_paths[(Scenario(), pair)]
            # Effective nodes are a subsequence of the physical path and
            # total length is preserved (bypasses do not reroute).
            assert eff.total_km == pytest.approx(
                small_plan.region.fiber_map.path_length(path)
            )
            it = iter(path)
            assert all(node in it for node in eff.nodes)


class TestResidual:
    def test_residual_follows_base_paths(self, toy_region):
        topology = plan_topology(toy_region)
        residual = residual_fiber_pairs(toy_region, topology)
        # Total residual spans = sum of base path hop counts.
        expected = sum(
            len(p) - 1 for p in topology.base_paths.values()
        )
        assert sum(residual.values()) == expected

    def test_pair_count_formula(self, toy_region):
        assert residual_pair_count(toy_region) == 6


class TestPlannerOptions:
    def test_validation_can_be_disabled(self, toy_region):
        plan = IrisPlanner(toy_region, validate=False).plan()
        assert plan.validate() == []  # still clean, just not enforced

    def test_plan_from_topology_reuse(self, toy_region):
        planner = IrisPlanner(toy_region)
        topology = planner.plan_topology()
        plan = planner.plan_from_topology(topology)
        assert plan.topology is topology
