"""Cut-through link placement and the EffectivePath machinery."""

import pytest

from repro.core.cutthrough import place_cut_throughs
from repro.core.failures import Scenario
from repro.core.plan import EffectivePath
from repro.core.topology import plan_topology
from repro.exceptions import PlanningError
from repro.region.fibermap import FiberMap

from tests.test_amplifiers import line_region


class TestEffectivePath:
    def make(self):
        fmap = FiberMap()
        fmap.add_dc("A", 0, 0)
        for i, x in enumerate((10, 20, 30, 40)):
            fmap.add_hut(f"M{i}", x, 0)
        fmap.add_dc("B", 50, 0)
        chain = ["A", "M0", "M1", "M2", "M3", "B"]
        for u, v in zip(chain, chain[1:]):
            fmap.add_duct(u, v, length_km=10.0)
        return fmap, chain

    def test_from_path(self):
        fmap, chain = self.make()
        path = EffectivePath.from_path(fmap, chain)
        assert path.total_km == pytest.approx(50.0)
        assert path.endpoints == ("A", "B")
        assert path.profile().oss_traversals == 6

    def test_bypass_merges_hops(self):
        fmap, chain = self.make()
        path = EffectivePath.from_path(fmap, chain)
        bypassed = path.bypass(1, 4)  # M0 .. M3 become one hop
        assert bypassed.nodes == ("A", "M0", "M3", "B")
        assert bypassed.total_km == pytest.approx(50.0)
        assert bypassed.hop_chains[1] == ("M0", "M1", "M2", "M3")
        assert bypassed.profile().oss_traversals == 4

    def test_bypass_cannot_cross_amp(self):
        fmap, chain = self.make()
        path = EffectivePath.from_path(fmap, chain).with_amp("M1")
        with pytest.raises(PlanningError):
            path.bypass(1, 4)

    def test_bypass_validation(self):
        fmap, chain = self.make()
        path = EffectivePath.from_path(fmap, chain)
        with pytest.raises(PlanningError):
            path.bypass(2, 3)  # adjacent nodes: nothing to bypass
        with pytest.raises(PlanningError):
            path.bypass(3, 1)

    def test_find_subchain(self):
        fmap, chain = self.make()
        path = EffectivePath.from_path(fmap, chain)
        assert path.find_subchain(("M0", "M1", "M2")) == (1, 3)
        assert path.find_subchain(("M2", "M1", "M0")) == (1, 3)
        assert path.find_subchain(("M0", "M2")) is None

    def test_amp_index(self):
        fmap, chain = self.make()
        path = EffectivePath.from_path(fmap, chain).with_amp("M2")
        assert path.amp_index() == 2
        assert path.profile().inline_amp_after_span == 2


class TestPlacement:
    def test_no_violations_no_links(self):
        region = line_region(30.0, 30.0)
        topology = plan_topology(region)
        effective = {
            (Scenario(), pair): EffectivePath.from_path(region.fiber_map, path)
            for pair, path in topology.base_paths.items()
        }
        links, updated, amps = place_cut_throughs(region, effective)
        assert links == ()
        assert updated == effective
        assert amps.total_amplifiers == 0

    def test_hop_overload_resolved(self):
        # 7 x 10 km: 70 km fiber, 8 switching points -> run loss 29.5 dB.
        region = line_region(*([10.0] * 7))
        topology = plan_topology(region)
        effective = {
            (Scenario(), pair): EffectivePath.from_path(region.fiber_map, path)
            for pair, path in topology.base_paths.items()
        }
        links, updated, amps = place_cut_throughs(region, effective)
        # Something was placed, and the path is now compliant.
        assert links or amps.total_amplifiers > 0
        from repro.optics.constraints import violations

        for path in updated.values():
            assert violations(path.profile()) == []

    def test_cut_through_capacity_is_hose(self):
        # Force cut-throughs by disallowing amp help: a path that one amp
        # cannot fix (too many OSSes on both halves).
        region = line_region(*([5.0] * 14))
        topology = plan_topology(region)
        effective = {
            (Scenario(), pair): EffectivePath.from_path(region.fiber_map, path)
            for pair, path in topology.base_paths.items()
        }
        links, updated, amps = place_cut_throughs(region, effective)
        for link in links:
            assert link.fiber_pairs == 4  # pair demand min(4, 4)
            assert link.spans == len(link.via) - 1
        # Only partial steps apply here, so the path stays violating
        # after the first actions and must be worked on until it closes.
        from repro.optics.constraints import violations

        for path in updated.values():
            assert violations(path.profile()) == []
