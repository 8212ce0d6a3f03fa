"""Property-based tests: planner invariants on randomized small regions.

These exercise the full Algorithm 1 -> Algorithm 2 -> cut-through ->
residual pipeline on generated maps and assert the structural invariants the
paper's correctness argument rests on, independent of any specific topology.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.planner import plan_region
from repro.core.topology import plan_topology
from repro.exceptions import InfeasibleRegionError, RegionError
from repro.region.fibermap import (
    OperationalConstraints,
    RegionSpec,
    duct_key,
)
from repro.region.placement import place_dcs
from repro.region.synthetic import (
    SyntheticMapConfig,
    _components,
    _is_k_edge_connected,
    generate_fiber_map,
)


def build_random_region(seed: int, n_dcs: int, tolerance: int) -> RegionSpec | None:
    """A small random region, or None when placement cannot fit."""
    config = SyntheticMapConfig(
        extent_km=30.0,
        grid_step_km=10.0,
        jitter_km=2.0,
    )
    fmap = generate_fiber_map(seed=seed, config=config)
    try:
        dcs = place_dcs(fmap, n_dcs, seed=seed * 31 + 7, extent_km=30.0)
    except RegionError:
        return None
    rng = random.Random(seed)
    return RegionSpec(
        fiber_map=fmap,
        dc_fibers={dc: rng.choice((2, 4, 8)) for dc in dcs},
        constraints=OperationalConstraints(failure_tolerance=tolerance),
    )


region_params = st.tuples(
    st.integers(min_value=0, max_value=400),  # seed
    st.integers(min_value=2, max_value=4),  # n_dcs
    st.integers(min_value=0, max_value=1),  # tolerance
)


class TestPlannerInvariants:
    @given(params=region_params)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_full_pipeline_invariants(self, params):
        seed, n_dcs, tolerance = params
        region = build_random_region(seed, n_dcs, tolerance)
        if region is None:
            return
        try:
            plan = plan_region(region)
        except InfeasibleRegionError:
            return  # random map genuinely cannot tolerate the cuts

        # 1. Every scenario path of every pair is constraint-clean.
        assert plan.validate() == []

        # 2. Edge capacity never exceeds the theoretical hose ceiling
        #    (half the total DC capacity, both directions through one cut).
        ceiling = sum(region.dc_fibers.values())
        for cap in plan.topology.edge_capacity.values():
            assert 0 < cap <= ceiling

        # 3. Spoke ducts at each DC carry at least min(f_dc, best partner)
        #    across its access ducts combined.
        base = plan.topology.base_paths
        for (a, b), path in base.items():
            first = duct_key(path[0], path[1])
            assert plan.topology.edge_capacity[first] >= min(
                region.fibers(a), region.fibers(b)
            )

        # 4. Residual fibers: exactly one per pair along its base path.
        assert sum(plan.residual.values()) == sum(
            len(p) - 1 for p in base.values()
        )

        # 5. Effective paths preserve physical length (bypasses never
        #    reroute) and never gain amp without a site record.
        for (scenario, pair), eff in plan.effective_paths.items():
            physical = plan.topology.scenario_paths[scenario][pair]
            assert eff.total_km == pytest.approx(
                region.fiber_map.path_length(physical)
            )
            if eff.amp_node is not None:
                assert plan.amplifiers.site_counts.get(eff.amp_node, 0) > 0

        # 6. The inventory is internally consistent.
        inv = plan.inventory()
        assert inv.fiber_pair_spans == plan.total_fiber_pair_spans()
        assert inv.dc_transceivers == sum(
            region.fibers(dc) * region.wavelengths_per_fiber
            for dc in region.dcs
        )

    @given(params=region_params)
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_tolerance_monotonicity(self, params):
        """More failure tolerance never cheapens the network."""
        seed, n_dcs, _ = params
        region0 = build_random_region(seed, n_dcs, 0)
        region1 = build_random_region(seed, n_dcs, 1)
        if region0 is None or region1 is None:
            return
        topo0 = plan_topology(region0)
        try:
            topo1 = plan_topology(region1)
        except InfeasibleRegionError:
            return
        assert topo1.total_fiber_pairs() >= topo0.total_fiber_pairs()
        for duct, cap in topo0.edge_capacity.items():
            assert topo1.edge_capacity.get(duct, 0) >= cap

    @given(
        seed=st.integers(min_value=0, max_value=400),
        factor=st.integers(min_value=2, max_value=3),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_capacity_scales_linearly_with_uniform_fibers(self, seed, factor):
        """Hose max-flow scales linearly when all DC capacities scale."""
        base = build_random_region(seed, 3, 0)
        if base is None:
            return
        scaled = RegionSpec(
            fiber_map=base.fiber_map,
            dc_fibers={dc: f * factor for dc, f in base.dc_fibers.items()},
            constraints=base.constraints,
        )
        topo_base = plan_topology(base)
        topo_scaled = plan_topology(scaled)
        for duct, cap in topo_base.edge_capacity.items():
            assert topo_scaled.edge_capacity[duct] == cap * factor


class TestGeneratorInvariants:
    @given(seed=st.integers(min_value=0, max_value=2000))
    @settings(max_examples=20, deadline=None)
    def test_generated_maps_are_robust(self, seed):
        fmap = generate_fiber_map(seed)
        import networkx as nx

        graph = fmap.subgraph_without([])
        assert nx.is_connected(graph)
        connectivity = nx.edge_connectivity(graph)
        assert connectivity >= 3
        for k in range(1, connectivity + 2):
            assert _is_k_edge_connected(fmap, k) == (k <= connectivity)
        for u, v in fmap.ducts:
            geo = fmap.position(u).distance_to(fmap.position(v))
            # Route factor: fiber at least as long as the crow flies
            # (tiny absolute tolerance for clamped jitter at borders).
            assert fmap.duct_length(u, v) >= geo * 0.99 - 0.3

    @given(
        seed=st.integers(min_value=0, max_value=2000),
        cuts=st.lists(st.integers(min_value=0, max_value=10_000), max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_connectivity_checks_match_networkx(self, seed, cuts):
        """The generator's stdlib checks against networkx's on maps with
        random ducts cut, disconnected ones included: the components in
        the same order, and the same k-edge-connected verdicts."""
        import networkx as nx

        fmap = generate_fiber_map(seed)
        ducts = fmap.ducts
        for i in cuts:
            u, v = ducts[i % len(ducts)]
            if fmap.has_duct(u, v):
                fmap.remove_duct(u, v)
        graph = fmap.subgraph_without([])
        assert _components(fmap) == list(nx.connected_components(graph))
        connectivity = nx.edge_connectivity(graph)
        for k in range(1, connectivity + 2):
            assert _is_k_edge_connected(fmap, k) == (k <= connectivity)
