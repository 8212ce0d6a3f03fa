"""Algorithm 1: topology & capacity planning, and the enumeration pruning."""

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import obs
from repro.core.failures import Scenario, all_failure_scenarios, scenario_count
from repro.core.hose import hose_capacity, oriented_pairs_through_edge
from repro.core.topology import (
    compute_scenario_paths,
    enumerate_scenario_paths,
    enumerate_scenario_tree,
    plan_topology,
    prune_overlong_ducts,
)
from repro.exceptions import InfeasibleRegionError, RegionError
from repro.region.catalog import make_region
from repro.region.placement import node_distance_maps
from repro.region.fibermap import (
    FiberMap,
    OperationalConstraints,
    RegionSpec,
    duct_key,
    pair_key,
)
from repro.units import IRIS_MAX_DUCT_KM

from tests.conftest import build_toy_map


class TestFailureEnumeration:
    def test_counts(self):
        ducts = [("A", "B"), ("B", "C"), ("C", "D")]
        scenarios = list(all_failure_scenarios(ducts, 2))
        assert len(scenarios) == 1 + 3 + 3
        assert scenarios[0] == Scenario()

    def test_scenario_count_formula(self):
        assert scenario_count(10, 2) == 1 + 10 + 45

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            list(all_failure_scenarios([("A", "B")], -1))


class TestPruneOverlongDucts:
    def test_removes_beyond_tc1(self):
        fmap = FiberMap()
        fmap.add_dc("A", 0, 0)
        fmap.add_dc("B", 10, 0)
        fmap.add_hut("H", 5, 0)
        fmap.add_duct("A", "B", length_km=90.0)  # beyond 80 km reach
        fmap.add_duct("A", "H", length_km=40.0)
        fmap.add_duct("H", "B", length_km=40.0)
        pruned = prune_overlong_ducts(fmap, 80.0)
        assert not pruned.has_duct("A", "B")
        assert pruned.has_duct("A", "H")
        # Original map untouched.
        assert fmap.has_duct("A", "B")


class TestScenarioPaths:
    def test_toy_base_paths(self, toy_region):
        paths = compute_scenario_paths(toy_region.fiber_map, Scenario())
        assert paths[("DC1", "DC2")] == ("DC1", "H1", "DC2")
        assert paths[("DC1", "DC3")] == ("DC1", "H1", "H2", "DC3")
        assert len(paths) == 6

    def test_disconnection_raises(self, toy_region):
        with pytest.raises(InfeasibleRegionError) as exc:
            compute_scenario_paths(
                toy_region.fiber_map, Scenario({("H1", "H2")})
            )
        assert exc.value.scenario == Scenario({("H1", "H2")})

    def test_sla_violation_raises(self):
        fmap = build_toy_map(spoke_km=50.0, trunk_km=40.0)
        # Cross pairs: 50 + 40 + 50 = 140 km > 120 km SLA.
        with pytest.raises(InfeasibleRegionError, match="SLA"):
            compute_scenario_paths(fmap, Scenario(), sla_fiber_km=120.0)


def _networkx_paths(fmap, scenario, sla_fiber_km=None):
    """The reference: one full ``nx.single_source_dijkstra`` per DC on the
    scenario's subgraph view, errors raised in (source, target) order."""
    graph = fmap.subgraph_without(scenario)
    dcs = fmap.dcs
    paths = {}
    for source in dcs:
        lengths, routes = nx.single_source_dijkstra(graph, source, weight="length_km")
        for target in dcs:
            if target <= source:
                continue
            pair = pair_key(source, target)
            if target not in lengths:
                raise InfeasibleRegionError(
                    f"DC pair {pair} disconnected when ducts "
                    f"{sorted(scenario)} are cut",
                    scenario=scenario,
                    pair=pair,
                )
            if sla_fiber_km is not None and lengths[target] > sla_fiber_km + 1e-9:
                raise InfeasibleRegionError(
                    f"DC pair {pair} at {lengths[target]:.1f} km exceeds the "
                    f"{sla_fiber_km:.0f} km SLA when ducts "
                    f"{sorted(scenario)} are cut",
                    scenario=scenario,
                    pair=pair,
                )
            paths[pair] = tuple(routes[target])
    return paths


def _assert_matches_networkx(fmap, scenario, sla_fiber_km=None):
    try:
        expected = _networkx_paths(fmap, scenario, sla_fiber_km)
    except InfeasibleRegionError as reference:
        with pytest.raises(InfeasibleRegionError) as exc:
            compute_scenario_paths(fmap, scenario, sla_fiber_km)
        assert exc.value.pair == reference.pair
        assert exc.value.scenario == reference.scenario
        assert str(exc.value) == str(reference)
    else:
        got = compute_scenario_paths(fmap, scenario, sla_fiber_km)
        assert list(got.items()) == list(expected.items())


def _assert_map_searches_match_networkx(fmap, scenario):
    """``FiberMap``'s own searches under ``scenario``, and placement's
    distance maps on the whole map, against ``nx.single_source_dijkstra``
    on the subgraph: the same distances in the same settle order, and the
    same routes, ties included."""
    graph = fmap.subgraph_without(scenario)
    dcs = fmap.dcs
    for source in dcs:
        lengths, routes = nx.single_source_dijkstra(graph, source, weight="length_km")
        dist, paths = fmap.shortest_paths_from(source, exclude_ducts=scenario)
        assert list(dist.items()) == list(lengths.items())
        assert paths == routes
        for target in dcs:
            if target in lengths:
                assert fmap.shortest_path(source, target, scenario) == (
                    lengths[target], routes[target]
                )
            else:
                with pytest.raises(InfeasibleRegionError):
                    fmap.shortest_path(source, target, scenario)
    whole = fmap.subgraph_without([])
    for dc, dist in node_distance_maps(fmap, dcs).items():
        expected = nx.single_source_dijkstra_path_length(whole, dc, weight="length_km")
        assert list(dist.items()) == list(expected.items())


class TestDijkstraKernel:
    """Every shortest path runs ``FiberMap``'s Dijkstra; its routes, ties
    included, and its errors must be networkx's."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_dcs=st.integers(min_value=3, max_value=6),
        cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=2),
        sla_fiber_km=st.sampled_from([None, 120.0, 45.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx_on_generated_regions(
        self, seed, n_dcs, cuts, sla_fiber_km
    ):
        try:
            instance = make_region(map_index=0, n_dcs=n_dcs, seed=seed)
        except RegionError:
            assume(False)
        fmap = instance.spec.fiber_map
        ducts = fmap.ducts
        scenario = Scenario(ducts[i % len(ducts)] for i in cuts)
        # The copy lists some neighbours in another order; plans search
        # the pruned copy, so its ties must be networkx's too.
        for searched in (fmap, fmap.copy()):
            _assert_matches_networkx(searched, scenario, sla_fiber_km)
            _assert_map_searches_match_networkx(searched, scenario)

    def test_isolated_dc_raises_networkx_first_pair(self):
        fmap = make_region(map_index=0, n_dcs=4, seed=7).spec.fiber_map
        for dc in fmap.dcs:
            scenario = Scenario(d for d in fmap.ducts if dc in d)
            with pytest.raises(InfeasibleRegionError, match="disconnected"):
                compute_scenario_paths(fmap, scenario)
            _assert_matches_networkx(fmap, scenario)
            _assert_map_searches_match_networkx(fmap, scenario)

    @staticmethod
    def _diamond(h1_first):
        """A to B over H1 or H2, both routes 20 km: networkx keeps the
        route through the hub whose duct A gained first."""
        fmap = FiberMap()
        fmap.add_dc("A", 0.0, 0.0)
        fmap.add_dc("B", 20.0, 0.0)
        fmap.add_hut("H1", 10.0, 5.0)
        fmap.add_hut("H2", 10.0, -5.0)
        ducts = [("A", "H1"), ("H1", "B"), ("A", "H2"), ("H2", "B")]
        for u, v in ducts if h1_first else reversed(ducts):
            fmap.add_duct(u, v, length_km=10.0)
        return fmap

    @pytest.mark.parametrize(
        "h1_first, hub", [(True, "H1"), (False, "H2")]
    )
    def test_equal_length_tie_follows_duct_order(self, h1_first, hub):
        fmap = self._diamond(h1_first)
        assert compute_scenario_paths(fmap, Scenario()) == {
            ("A", "B"): ("A", hub, "B")
        }
        _assert_matches_networkx(fmap, Scenario())

    @pytest.mark.parametrize("h1_first", [True, False])
    def test_tie_with_a_cut_duct(self, h1_first):
        fmap = self._diamond(h1_first)
        cut = Scenario({("A", "H1")})
        assert compute_scenario_paths(fmap, cut) == {("A", "B"): ("A", "H2", "B")}
        _assert_matches_networkx(fmap, cut)

    def test_a_tied_search_runs_again_in_every_child(self):
        """A child reuses a source's paths only if the parent's search
        from it met no tie. Here A's search ties at B (over H1 or H2) and
        B's does not; cutting B-C, which only B's path uses, must search
        from A again too: the root's 2 searches, then A in each of the 4
        children and B in the B-C child, 7 in all (6 if the tie were
        ignored, 10 without reuse)."""
        fmap = self._diamond(True)
        fmap.add_dc("C", 30.0, 10.0)
        fmap.add_duct("A", "C", length_km=22.0)
        fmap.add_duct("B", "C", length_km=5.0)
        with obs.tracing("tie") as tracer:
            tree = enumerate_scenario_tree(fmap, 1)
        record = tracer.record()
        assert set(tree.parents) == {
            Scenario({duct}) for duct in [("A", "C"), ("A", "H1"), ("B", "C"), ("B", "H1")]
        }
        assert record.total("enumerate.dijkstra_runs") == 7
        # A at the root, in the A-C child and in the B-C child; B there too.
        assert record.total("enumerate.tied_searches") == 4
        for scenario, paths in tree.paths.items():
            assert list(paths.items()) == list(
                compute_scenario_paths(fmap, scenario).items()
            )


class TestPrunedEnumeration:
    def test_matches_brute_force_on_small_region(self):
        instance = make_region(map_index=0, n_dcs=4, dc_fibers=4)
        region = instance.spec
        fmap = prune_overlong_ducts(
            region.fiber_map, region.constraints.max_span_km
        )
        pruned, _ = enumerate_scenario_paths(fmap, 1, prune=True)
        brute, _ = enumerate_scenario_paths(fmap, 1, prune=False)
        # The pruned enumeration is a subset...
        assert set(pruned) <= set(brute)
        # ...whose path sets cover every brute-force outcome: any omitted
        # scenario has the same shortest paths as the no-failure scenario
        # it collapses to.
        distinct_brute = {
            tuple(sorted(paths.items())) for paths in brute.values()
        }
        distinct_pruned = {
            tuple(sorted(paths.items())) for paths in pruned.values()
        }
        assert distinct_brute == distinct_pruned

    def test_capacities_match_brute_force(self):
        instance = make_region(map_index=1, n_dcs=4, dc_fibers=4)
        region = instance.spec
        spec_pruned = plan_topology(region, prune_enumeration=True)
        spec_brute = plan_topology(region, prune_enumeration=False)
        assert dict(spec_pruned.edge_capacity) == dict(spec_brute.edge_capacity)


def _full_sizing(dc_fibers, scenario_paths):
    """The capacity phase without reuse: every (scenario, used duct) sized
    at the hose max-flow of the pairs crossing it."""
    need: dict = {}
    for paths in scenario_paths.values():
        used = {duct_key(u, v) for path in paths.values() for u, v in zip(path, path[1:])}
        for duct in sorted(used):
            value = hose_capacity(oriented_pairs_through_edge(duct, paths), dc_fibers)
            need[duct] = max(need.get(duct, 0), value)
    return need


def _assert_reuse_matches_cold(region):
    """Every scenario the planner enumerates has the paths, in the same
    order, that a cold search of it finds; its capacities are the full
    per-(scenario, duct) sizing's. A region that fails must fail in a
    scenario whose cold search raises the same error."""
    constraints = region.constraints
    pruned = prune_overlong_ducts(
        region.fiber_map, min(constraints.max_span_km, IRIS_MAX_DUCT_KM)
    )
    try:
        plan = plan_topology(region)
    except InfeasibleRegionError as exc:
        with pytest.raises(InfeasibleRegionError) as cold:
            compute_scenario_paths(pruned, exc.scenario, constraints.sla_fiber_km)
        assert str(cold.value) == str(exc)
        return
    for scenario, paths in plan.scenario_paths.items():
        assert list(paths.items()) == list(
            compute_scenario_paths(pruned, scenario, constraints.sla_fiber_km).items()
        )
    assert dict(plan.edge_capacity) == _full_sizing(
        region.dc_fibers, plan.scenario_paths
    )


class TestScenarioTreeReuse:
    """Children reuse their parents' searches and capacities; neither may
    change a path or a capacity."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_dcs=st.integers(min_value=3, max_value=6),
        tolerance=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_cold_on_generated_regions(self, seed, n_dcs, tolerance):
        try:
            instance = make_region(
                map_index=0, n_dcs=n_dcs, seed=seed, failure_tolerance=tolerance
            )
        except RegionError:
            assume(False)
        region = instance.spec
        # The copy lists some neighbours in another order, so its ties,
        # and with them its certificates, can differ.
        for fmap in (region.fiber_map, region.fiber_map.copy()):
            _assert_reuse_matches_cold(
                RegionSpec(
                    fiber_map=fmap,
                    dc_fibers=region.dc_fibers,
                    constraints=region.constraints,
                )
            )

    @pytest.mark.statistical
    @pytest.mark.parametrize("n_dcs", [5, 10, 15])
    def test_matches_cold_on_the_catalog(self, n_dcs):
        for map_index in range(10):
            region = make_region(
                map_index, n_dcs, dc_fibers=8, failure_tolerance=2
            ).spec
            _assert_reuse_matches_cold(region)


class TestPlanTopologyToy:
    def test_toy_capacities_match_paper(self, toy_region):
        # §3.4: L1-L4 carry 10 fiber-pairs each, L5 carries 20; F_E = 60.
        plan = plan_topology(toy_region)
        caps = dict(plan.edge_capacity)
        assert caps[("DC1", "H1")] == 10
        assert caps[("DC2", "H1")] == 10
        assert caps[("DC3", "H2")] == 10
        assert caps[("DC4", "H2")] == 10
        assert caps[("H1", "H2")] == 20
        assert plan.total_fiber_pairs() == 60

    def test_unused_huts_detected(self):
        fmap = build_toy_map()
        fmap.add_hut("H9", 100.0, 100.0)
        fmap.add_duct("H9", "H2", length_km=5.0)
        region = RegionSpec(
            fiber_map=fmap,
            dc_fibers={f"DC{i}": 10 for i in range(1, 5)},
            constraints=OperationalConstraints(failure_tolerance=0),
        )
        plan = plan_topology(region)
        assert "H9" not in plan.used_nodes()
        assert ("H2", "H9") not in plan.used_ducts

    def test_failure_tolerance_raises_capacity(self, small_region_instance):
        region = small_region_instance.spec
        tol0 = RegionSpec(
            fiber_map=region.fiber_map,
            dc_fibers=region.dc_fibers,
            wavelengths_per_fiber=region.wavelengths_per_fiber,
            constraints=OperationalConstraints(failure_tolerance=0),
        )
        plan0 = plan_topology(tol0)
        plan2 = plan_topology(region)
        assert plan2.total_fiber_pairs() >= plan0.total_fiber_pairs()
        # Capacity never shrinks on any individual duct either.
        for duct, cap in plan0.edge_capacity.items():
            assert plan2.edge_capacity.get(duct, 0) >= cap

    def test_scenarios_include_no_failure(self, toy_region):
        plan = plan_topology(toy_region)
        assert Scenario() in plan.scenario_paths
        assert plan.scenarios[0] == Scenario()


class TestIrisUsableDuctPrune:
    def test_duct_beyond_iris_run_budget_is_avoided(self):
        """A 75 km duct passes raw TC1 (80 km) but cannot close an Iris
        run once its two endpoint OSS traversals are charged (21.75 dB >
        20 dB), so planning must route around it."""
        from repro.core.planner import plan_region
        from repro.units import IRIS_MAX_DUCT_KM

        assert IRIS_MAX_DUCT_KM == pytest.approx(68.0)

        fmap = FiberMap()
        fmap.add_dc("A", 0, 0)
        fmap.add_dc("B", 75, 0)
        fmap.add_hut("M", 37, 5)
        fmap.add_duct("A", "B", length_km=75.0)  # tempting but unusable
        fmap.add_duct("A", "M", length_km=40.0)
        fmap.add_duct("M", "B", length_km=40.0)
        region = RegionSpec(
            fiber_map=fmap,
            dc_fibers={"A": 4, "B": 4},
            constraints=OperationalConstraints(failure_tolerance=0),
        )
        plan = plan_region(region)
        assert ("A", "B") not in plan.topology.used_ducts
        assert plan.topology.base_paths[("A", "B")] == ("A", "M", "B")
        assert plan.validate() == []
