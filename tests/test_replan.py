"""Incremental replanning parity: ``apply_delta`` == cold replan, bytewise.

The contract under test is absolute: for every :class:`RegionDelta` kind,
the patched plan's ``plan_to_json(..., full=True)`` must equal a cold
replan of the mutated region byte for byte — and when the patch path
raises :class:`InfeasibleRegionError`, the cold path must raise too.
``verify=True`` runs that comparison inside ``apply_delta`` itself.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.planner import plan_region
from repro.exceptions import InfeasibleRegionError, RegionError
from repro.region.catalog import make_region
from repro.region.delta import DELTA_KINDS, RegionDelta, delta_from_dict
from repro.serialize import plan_to_json
from repro.service.replan import DeltaPathOracle, DeltaStats, apply_delta


@pytest.fixture(scope="module")
def base_region():
    """A small 2-cut-tolerant region (module-cached; plans in ~100s of ms)."""
    return make_region(map_index=0, n_dcs=4, dc_fibers=6).spec


@pytest.fixture(scope="module")
def base_plan(base_region):
    return plan_region(base_region)


def _bypass_delta(plan, factor: float = 1.05) -> RegionDelta:
    """A new duct priced just above its worst-case alternative distance.

    Between two non-adjacent nodes that stay connected in every enumerated
    scenario, with ``length = factor x max over scenarios of the shortest
    alternative route`` — so every strict bypass check passes, no scenario
    is recomputed, and the whole optical realization is reusable.
    """
    fmap = plan.region.fiber_map
    scenarios = list(plan.topology.scenario_paths)
    for u in fmap.nodes:
        for v in fmap.nodes:
            if v <= u or (min(u, v), max(u, v)) in set(fmap.ducts):
                continue
            worst = 0.0
            for scenario in scenarios:
                graph = fmap.subgraph_without(scenario)
                try:
                    dist = nx.dijkstra_path_length(
                        graph, u, v, weight="length_km"
                    )
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    worst = None
                    break
                worst = max(worst, dist)
            if worst is not None and worst > 0:
                return RegionDelta.duct_added(u, v, length_km=factor * worst)
    raise AssertionError("no bypassable node pair in the base region")


class TestDeltaParity:
    """Each kind, deterministically, with the in-band cold comparison."""

    def test_duct_added_bypass_reuses_realization(self, base_plan):
        stats = DeltaStats()
        patched = apply_delta(
            base_plan, _bypass_delta(base_plan), verify=True, stats=stats
        )
        assert stats.mode == "add"
        assert stats.computed == 0
        assert stats.realization == "reused"
        assert patched.region is not base_plan.region

    def test_duct_added_short_recomputes_some(self, base_plan):
        # A genuinely useful shortcut: the oracle must *decline* scenarios
        # it cannot prove unchanged, and the result still matches cold.
        delta = _bypass_delta(base_plan)
        short = RegionDelta.duct_added(*delta.duct, length_km=1.0)
        stats = DeltaStats()
        try:
            apply_delta(base_plan, short, verify=True, stats=stats)
        except InfeasibleRegionError:
            with pytest.raises(InfeasibleRegionError):
                plan_region(short.apply_to_region(base_plan.region))
            return
        assert stats.mode == "add"
        assert stats.computed > 0

    def test_duct_cut_round_trip(self, base_plan):
        # Cut parity on a guaranteed-feasible mutation: add a bypass duct,
        # then cut it again — the final region IS the original region, so
        # the patched bytes must equal the original plan's bytes.
        add = _bypass_delta(base_plan)
        widened = apply_delta(base_plan, add, verify=True)
        cut = RegionDelta.duct_cut(*add.duct)
        stats = DeltaStats()
        restored = apply_delta(widened, cut, verify=True, stats=stats)
        assert stats.mode == "cut"
        assert plan_to_json(restored, full=True) == plan_to_json(
            base_plan, full=True
        )

    def test_dc_resized_is_identity_mode(self, base_plan):
        dc = sorted(base_plan.region.dc_fibers)[0]
        delta = RegionDelta.dc_resized(
            dc, base_plan.region.dc_fibers[dc] + 2
        )
        stats = DeltaStats()
        patched = apply_delta(base_plan, delta, verify=True, stats=stats)
        assert stats.mode == "identity"
        assert stats.computed == 0
        assert patched.region.dc_fibers[dc] == base_plan.region.dc_fibers[dc] + 2

    def test_dc_detached_plans_cold_but_matches(self, base_plan):
        dc = sorted(base_plan.region.dc_fibers)[-1]
        stats = DeltaStats()
        try:
            apply_delta(
                base_plan, RegionDelta.dc_detached(dc), verify=True, stats=stats
            )
        except InfeasibleRegionError:
            with pytest.raises(InfeasibleRegionError):
                plan_region(
                    RegionDelta.dc_detached(dc).apply_to_region(
                        base_plan.region
                    )
                )
            return
        assert stats.mode == "cold"

    def test_dc_attached_plans_cold_but_matches(self, base_plan):
        region = base_plan.region
        fmap = region.fiber_map
        # Tie the new DC into three distinct existing nodes so the 2-cut
        # tolerance remains satisfiable.
        anchors = sorted(fmap.nodes)[:3]
        ducts = tuple(
            (anchor, 12.0 + 2.0 * i) for i, anchor in enumerate(anchors)
        )
        delta = RegionDelta.dc_attached(
            "DCX", x=1.0, y=1.0, fibers=4, ducts=ducts
        )
        stats = DeltaStats()
        try:
            patched = apply_delta(base_plan, delta, verify=True, stats=stats)
        except InfeasibleRegionError:
            with pytest.raises(InfeasibleRegionError):
                plan_region(delta.apply_to_region(region))
            return
        assert stats.mode == "cold"
        assert "DCX" in patched.region.dc_fibers

    def test_price_changed_returns_plan_unchanged(self, base_plan):
        delta = RegionDelta.price_changed(transceiver_dci=123.0)
        stats = DeltaStats()
        patched = apply_delta(base_plan, delta, stats=stats)
        assert patched is base_plan
        assert stats.mode == "price"


def _delta_strategy(region):
    """One feasible-by-construction-or-detectably-infeasible delta."""
    dcs = sorted(region.dc_fibers)
    nodes = sorted(region.fiber_map.nodes)
    existing = set(region.fiber_map.ducts)
    non_adjacent = [
        (u, v)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1 :]
        if (u, v) not in existing
    ]
    return st.one_of(
        st.builds(
            RegionDelta.dc_resized,
            st.sampled_from(dcs),
            st.integers(min_value=2, max_value=12),
        ),
        st.sampled_from(non_adjacent).flatmap(
            lambda pair: st.floats(
                min_value=5.0, max_value=120.0, allow_nan=False
            ).map(lambda km: RegionDelta.duct_added(*pair, length_km=km))
        ),
        st.sampled_from(sorted(existing)).map(
            lambda duct: RegionDelta.duct_cut(*duct)
        ),
        st.sampled_from(dcs).map(RegionDelta.dc_detached),
        st.builds(
            lambda anchors, fibers: RegionDelta.dc_attached(
                "DCNEW",
                x=2.0,
                y=3.0,
                fibers=fibers,
                ducts=tuple((a, 15.0) for a in anchors),
            ),
            st.permutations(nodes).map(lambda p: tuple(sorted(p[:3]))),
            st.integers(min_value=2, max_value=8),
        ),
        st.just(RegionDelta.price_changed(amplifier=999.0)),
    )


class TestBypassCheck:
    """The strict-bypass check runs the planner's Dijkstra kernel. For
    every DC pair as the candidate duct and every enumerated scenario,
    its verdict must be networkx's distance on the scenario's subgraph,
    for a duct just below, at, just above and well above the no-failure
    distance."""

    @pytest.mark.parametrize("slack_km", [-1e-6, 0.0, 1e-6, 0.5])
    def test_verdicts_match_networkx(self, base_plan, slack_km):
        fmap = base_plan.region.fiber_map
        scenarios = base_plan.topology.scenarios
        verdicts = set()
        for u, v in sorted(base_plan.topology.base_paths):
            length_km = fmap.fiber_distance(u, v) + slack_km
            oracle = DeltaPathOracle(
                {}, "add", duct=(u, v), length_km=length_km, check_map=fmap
            )
            for scenario in scenarios:
                try:
                    dist = nx.dijkstra_path_length(
                        fmap.subgraph_without(scenario), u, v, weight="length_km"
                    )
                except nx.NetworkXNoPath:
                    expected = False
                else:
                    expected = dist < length_km - 1e-9
                assert oracle._d_is_irrelevant(scenario) is expected
                verdicts.add(expected)
        # At or below the no-failure distance nothing is strictly shorter;
        # above it, scenarios that cut every short route say no.
        assert verdicts == ({False} if slack_km <= 0 else {False, True})


class TestDeltaParityProperty:
    """Randomized deltas over every kind, verified against cold in-band."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_random_delta_matches_cold(self, base_plan, data):
        delta = data.draw(_delta_strategy(base_plan.region))
        try:
            apply_delta(base_plan, delta, verify=True)
        except InfeasibleRegionError:
            # Parity on the failure path too: cold must agree the mutated
            # region is unplannable.
            with pytest.raises(InfeasibleRegionError):
                plan_region(delta.apply_to_region(base_plan.region))


class TestDeltaCodec:
    def test_round_trip_every_kind(self, base_region):
        dc = sorted(base_region.dc_fibers)[0]
        u, v = sorted(base_region.fiber_map.ducts)[0]
        deltas = [
            RegionDelta.duct_added("A", "B", length_km=7.5),
            RegionDelta.duct_cut(u, v),
            RegionDelta.dc_attached(
                "DCX", x=1.0, y=2.0, fibers=4, ducts=(("A", 3.0), ("B", 4.0))
            ),
            RegionDelta.dc_detached(dc),
            RegionDelta.dc_resized(dc, 9),
            RegionDelta.price_changed(amplifier=10.0, oxc_port=20.0),
        ]
        assert sorted({d.kind for d in deltas}) == sorted(DELTA_KINDS)
        for delta in deltas:
            assert delta_from_dict(delta.to_dict()) == delta

    def test_bad_payloads_raise(self):
        good = RegionDelta.duct_cut("A", "B").to_dict()
        with pytest.raises(RegionError):
            delta_from_dict({**good, "format_version": 99})
        with pytest.raises(RegionError):
            delta_from_dict({**good, "kind": "duct_teleported"})
        with pytest.raises(RegionError):
            delta_from_dict({"kind": "duct_cut"})

    def test_constructor_validation(self):
        with pytest.raises(RegionError):
            RegionDelta.duct_added("A", "A", length_km=5.0)
        with pytest.raises(RegionError):
            RegionDelta.duct_added("A", "B", length_km=-1.0)
        with pytest.raises(RegionError):
            RegionDelta.dc_resized("DC1", 0)
        with pytest.raises(RegionError):
            RegionDelta.dc_attached("DCX", x=0.0, y=0.0, fibers=4, ducts=())

    def test_price_field_names_validated_on_apply(self):
        from repro.cost.pricebook import PriceBook

        delta = RegionDelta.price_changed(no_such_field=1.0)
        with pytest.raises(RegionError):
            delta.apply_to_pricebook(PriceBook())
