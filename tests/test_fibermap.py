"""FiberMap and RegionSpec invariants."""

import networkx as nx
import pytest

from repro.exceptions import InfeasibleRegionError, RegionError
from repro.region.fibermap import (
    FiberMap,
    NodeKind,
    OperationalConstraints,
    RegionSpec,
    duct_key,
    pair_key,
)


class TestKeys:
    def test_duct_key_canonical(self):
        assert duct_key("B", "A") == ("A", "B")
        assert duct_key("A", "B") == ("A", "B")

    def test_duct_key_rejects_self_loop(self):
        with pytest.raises(RegionError):
            duct_key("A", "A")

    def test_pair_key_canonical(self):
        assert pair_key("DC2", "DC1") == ("DC1", "DC2")


class TestFiberMapConstruction:
    def test_add_nodes_and_kinds(self, toy_map):
        assert toy_map.kind("DC1") is NodeKind.DC
        assert toy_map.kind("H1") is NodeKind.HUT
        assert toy_map.dcs == ["DC1", "DC2", "DC3", "DC4"]
        assert toy_map.huts == ["H1", "H2"]

    def test_duplicate_node_rejected(self):
        fmap = FiberMap()
        fmap.add_dc("A", 0, 0)
        with pytest.raises(RegionError):
            fmap.add_hut("A", 1, 1)

    def test_duplicate_duct_rejected(self, toy_map):
        with pytest.raises(RegionError):
            toy_map.add_duct("DC1", "H1")

    def test_duct_to_unknown_node_rejected(self, toy_map):
        with pytest.raises(RegionError):
            toy_map.add_duct("DC1", "NOPE")

    def test_duct_default_length_is_euclidean(self):
        fmap = FiberMap()
        fmap.add_dc("A", 0, 0)
        fmap.add_dc("B", 3, 4)
        fmap.add_duct("A", "B")
        assert fmap.duct_length("A", "B") == pytest.approx(5.0)

    def test_nonpositive_length_rejected(self):
        fmap = FiberMap()
        fmap.add_dc("A", 0, 0)
        fmap.add_dc("B", 1, 0)
        with pytest.raises(RegionError):
            fmap.add_duct("A", "B", length_km=0)

    def test_copy_is_independent(self, toy_map):
        clone = toy_map.copy()
        clone.remove_duct("H1", "H2")
        assert toy_map.has_duct("H1", "H2")
        assert not clone.has_duct("H1", "H2")

    def test_unknown_lookups_raise(self, toy_map):
        with pytest.raises(RegionError):
            toy_map.kind("NOPE")
        with pytest.raises(RegionError):
            toy_map.position("NOPE")
        with pytest.raises(RegionError):
            toy_map.duct_length("DC1", "DC2")


class TestPaths:
    def test_shortest_path_via_hub(self, toy_map):
        length, path = toy_map.shortest_path("DC1", "DC2")
        assert path == ["DC1", "H1", "DC2"]
        assert length == pytest.approx(20.0)

    def test_cross_pair_uses_trunk(self, toy_map):
        length, path = toy_map.shortest_path("DC1", "DC3")
        assert path == ["DC1", "H1", "H2", "DC3"]
        assert length == pytest.approx(40.0)

    def test_exclusion_disconnects(self, toy_map):
        with pytest.raises(InfeasibleRegionError) as exc:
            toy_map.shortest_path("DC1", "DC3", exclude_ducts=[("H2", "H1")])
        assert exc.value.pair == ("DC1", "DC3")

    def test_unknown_node_raises_region_error(self, toy_map):
        for a, b in [("DC1", "NOPE"), ("NOPE", "DC1")]:
            with pytest.raises(RegionError, match="unknown node"):
                toy_map.shortest_path(a, b)
        with pytest.raises(RegionError, match="unknown node"):
            toy_map.shortest_paths_from("NOPE")

    def test_path_to_itself_is_empty(self, toy_map):
        assert toy_map.shortest_path("DC1", "DC1") == (0, ["DC1"])

    def test_path_length_matches_shortest(self, toy_map):
        length, path = toy_map.shortest_path("DC2", "DC4")
        assert toy_map.path_length(path) == pytest.approx(length)

    def test_path_ducts(self, toy_map):
        _, path = toy_map.shortest_path("DC1", "DC3")
        assert toy_map.path_ducts(path) == [
            ("DC1", "H1"),
            ("H1", "H2"),
            ("DC3", "H2"),
        ]

    def test_dc_pairs(self, toy_map):
        pairs = toy_map.dc_pairs()
        assert len(pairs) == 6
        assert all(a < b for a, b in pairs)


def _neighbour_lists(graph):
    return {node: list(graph.adj[node]) for node in graph}


class TestAdjacencyOrder:
    """Each node lists its ducts in the order networkx's ``Graph`` would,
    through adds, removals and copies: that order breaks every
    equal-length shortest-path tie."""

    @staticmethod
    def _bc_then_ab():
        fmap = FiberMap()
        for name in "ABC":
            fmap.add_hut(name, 0.0, 0.0)
        fmap.add_duct("B", "C", length_km=1.0)
        fmap.add_duct("A", "B", length_km=1.0)
        return fmap

    def test_copy_reorders_as_networkx_does(self):
        fmap = self._bc_then_ab()
        clone = fmap.copy()
        assert fmap.neighbors("B") == ["C", "A"]
        assert clone.neighbors("B") == ["A", "C"]
        reference = nx.Graph()
        reference.add_nodes_from("ABC")
        reference.add_edges_from([("B", "C"), ("A", "B")])
        assert list(reference.adj["B"]) == ["C", "A"]
        assert list(reference.copy().adj["B"]) == ["A", "C"]

    def test_bridge_keeps_each_maps_order(self):
        fmap = self._bc_then_ab()
        for m in (fmap, fmap.copy()):
            graph = m.subgraph_without([])
            assert _neighbour_lists(graph) == {n: m.neighbors(n) for n in m}
            assert list(graph) == list(m)

    def test_edits_track_networkx(self):
        fmap, reference = FiberMap(), nx.Graph()
        for i, name in enumerate("EDCBA"):
            fmap.add_hut(name, float(i), 0.0)
            reference.add_node(name)
        for u, v in ["AB", "CE", "BD", "AE", "DE", "BC", "AC", "AD"]:
            fmap.add_duct(u, v, length_km=1.0)
            reference.add_edge(u, v)

        def assert_same_order():
            assert list(fmap) == list(reference)
            assert {n: fmap.neighbors(n) for n in fmap} == _neighbour_lists(
                reference
            )
            assert fmap.ducts == sorted(duct_key(u, v) for u, v in reference.edges)

        assert_same_order()
        fmap.remove_duct("A", "E")
        reference.remove_edge("A", "E")
        assert_same_order()
        fmap.remove_node("C")
        reference.remove_node("C")
        assert_same_order()
        fmap.add_duct("E", "A", length_km=1.0)
        reference.add_edge("E", "A")
        assert_same_order()
        fmap, reference = fmap.copy(), reference.copy()
        assert_same_order()


class TestRegionSpec:
    def test_capacity_translation(self, toy_region):
        # 10 fibers x 40 wavelengths x 400 Gbps = 160 Tbps (§3.4).
        assert toy_region.capacity_gbps("DC1") == pytest.approx(160_000)
        assert toy_region.transceivers("DC1") == 400

    def test_total_fibers(self, toy_region):
        assert toy_region.total_fibers() == 40

    def test_pair_demand_is_min(self, toy_map):
        spec = RegionSpec(
            fiber_map=toy_map,
            dc_fibers={"DC1": 4, "DC2": 8, "DC3": 8, "DC4": 8},
            constraints=OperationalConstraints(failure_tolerance=0),
        )
        assert spec.pair_demand_fibers("DC1", "DC2") == 4
        assert spec.pair_demand_fibers("DC3", "DC4") == 8

    def test_missing_dc_capacity_rejected(self, toy_map):
        with pytest.raises(RegionError, match="missing"):
            RegionSpec(fiber_map=toy_map, dc_fibers={"DC1": 10})

    def test_extra_dc_capacity_rejected(self, toy_map):
        caps = {f"DC{i}": 10 for i in range(1, 5)}
        caps["DC9"] = 10
        with pytest.raises(RegionError, match="extra"):
            RegionSpec(fiber_map=toy_map, dc_fibers=caps)

    def test_nonpositive_capacity_rejected(self, toy_map):
        caps = {f"DC{i}": 10 for i in range(1, 5)}
        caps["DC1"] = 0
        with pytest.raises(RegionError):
            RegionSpec(fiber_map=toy_map, dc_fibers=caps)

    def test_unknown_dc_raises(self, toy_region):
        with pytest.raises(RegionError):
            toy_region.fibers("DC99")


class TestOperationalConstraints:
    def test_defaults_match_paper(self):
        oc = OperationalConstraints()
        assert oc.sla_fiber_km == 120.0
        assert oc.failure_tolerance == 2
        assert oc.require_shortest_path

    def test_validation(self):
        with pytest.raises(RegionError):
            OperationalConstraints(sla_fiber_km=0)
        with pytest.raises(RegionError):
            OperationalConstraints(failure_tolerance=-1)
        with pytest.raises(RegionError):
            OperationalConstraints(max_span_km=-5)
