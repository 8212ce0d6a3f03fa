"""JSON round-trips for regions and plan summaries."""

import json

import pytest

from repro.core.planner import plan_region
from repro.exceptions import ReproError
from repro.serialize import (
    fiber_map_from_dict,
    fiber_map_to_dict,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    region_from_json,
    region_to_json,
)


class TestFiberMapRoundTrip:
    def test_round_trip(self, toy_map):
        restored = fiber_map_from_dict(fiber_map_to_dict(toy_map))
        assert restored.dcs == toy_map.dcs
        assert restored.huts == toy_map.huts
        assert restored.ducts == toy_map.ducts
        for u, v in toy_map.ducts:
            assert restored.duct_length(u, v) == pytest.approx(
                toy_map.duct_length(u, v)
            )
        for node in toy_map.nodes:
            assert restored.position(node) == toy_map.position(node)

    def test_malformed_rejected(self):
        with pytest.raises(ReproError):
            fiber_map_from_dict({"nodes": [{"name": "A"}], "ducts": []})


class TestRegionRoundTrip:
    def test_round_trip(self, toy_region):
        restored = region_from_json(region_to_json(toy_region))
        assert restored.dc_fibers == dict(toy_region.dc_fibers)
        assert restored.wavelengths_per_fiber == toy_region.wavelengths_per_fiber
        assert restored.constraints == toy_region.constraints
        assert restored.fiber_map.ducts == toy_region.fiber_map.ducts

    def test_invalid_json(self):
        with pytest.raises(ReproError, match="invalid JSON"):
            region_from_json("{nope")

    def test_wrong_version(self, toy_region):
        data = json.loads(region_to_json(toy_region))
        data["format_version"] = 99
        with pytest.raises(ReproError, match="version"):
            region_from_json(json.dumps(data))

    def test_missing_fields(self):
        with pytest.raises(ReproError):
            region_from_json(json.dumps({"format_version": 1}))


class TestPlanSummary:
    def test_plan_summary_contents(self, toy_region):
        plan = plan_region(toy_region)
        data = plan_to_dict(plan)
        assert data["base_capacity"]["H1~H2"] == 20
        assert data["residual"]["H1~H2"] == 4
        assert data["total_fiber_pair_spans"] == 76
        assert data["cut_throughs"] == []
        # Valid JSON end to end.
        assert json.loads(plan_to_json(plan)) == data


class TestPlanSummaryWithAmplifiers:
    def test_amplifier_sites_serialized(self):
        from tests.test_amplifiers import line_region

        region = line_region(55.0, 55.0)
        plan = plan_region(region)
        data = plan_to_dict(plan)
        assert data["amplifier_sites"] == {"M0": 4}
        assert data["scenarios_enumerated"] >= 1
        assert data["scenarios_total"] >= data["scenarios_enumerated"]


class TestInstrumentedPlanSerialization:
    """Plans carry timings and a span trace; neither enters the encoding."""

    def test_default_json_is_deterministic_across_runs(self, toy_region):
        # Second plan hits a warm hose cache and a different-looking trace;
        # neither may leak into the audit output.
        first = plan_to_json(plan_region(toy_region))
        second = plan_to_json(plan_region(toy_region))
        assert first == second

    def test_encodings_hold_no_run_statistics(self, toy_region):
        from repro.serialize import topology_to_dict

        plan = plan_region(toy_region)
        assert plan.topology.timings is not None
        for data in (
            plan_to_dict(plan),
            plan_to_dict(plan, full=True),
            topology_to_dict(plan.topology),
        ):
            assert "timings" not in data and "trace" not in data

    def test_traced_plan_serializes_cleanly(self, toy_region):
        # A plan produced under global tracing has a much richer trace
        # attached; serialization must still match the untraced one.
        from repro import obs
        from repro.core.hose import clear_hose_cache

        clear_hose_cache()
        plain = plan_to_json(plan_region(toy_region))
        clear_hose_cache()
        with obs.tracing("audit"):
            traced_plan = plan_region(toy_region)
        assert plan_to_json(traced_plan) == plain


class TestFullPlanRoundTrip:
    """The lossless ``full=True`` encoding and its reconstruction."""

    def test_encode_decode_is_a_fixpoint(self, toy_region):
        plan = plan_region(toy_region)
        encoded = plan_to_dict(plan, full=True)
        restored = plan_from_dict(encoded)
        # Fixpoint: re-encoding the reconstruction changes nothing.
        assert plan_to_dict(restored, full=True) == encoded
        # And so on, indefinitely.
        assert plan_to_dict(plan_from_dict(plan_to_dict(restored, full=True)),
                            full=True) == encoded

    def test_fixpoint_on_failure_tolerant_region(self, small_region_instance):
        plan = plan_region(small_region_instance.spec)
        encoded = plan_to_dict(plan, full=True)
        restored = plan_from_dict(encoded)
        assert plan_to_dict(restored, full=True) == encoded
        assert restored.validate() == []
        assert restored.inventory() == plan.inventory()

    def test_json_form_round_trips(self, toy_region):
        plan = plan_region(toy_region)
        text = plan_to_json(plan, full=True)
        restored = plan_from_json(text)
        assert plan_to_json(restored, full=True) == text
        # The default summary of a loaded plan matches a fresh plan's.
        assert plan_to_json(restored) == plan_to_json(plan)

    def test_full_is_a_superset_of_the_summary(self, toy_region):
        plan = plan_region(toy_region)
        summary = plan_to_dict(plan)
        encoded = plan_to_dict(plan, full=True)
        assert summary == {
            key: value for key, value in encoded.items() if key in summary
        }
        assert {"region", "scenario_paths", "amplifier_assignments",
                "effective_paths"} <= set(encoded)

    def test_summary_dict_rejected(self, toy_region):
        with pytest.raises(ReproError, match="full=True"):
            plan_from_dict(plan_to_dict(plan_region(toy_region)))

    def test_wrong_version_rejected(self, toy_region):
        encoded = plan_to_dict(plan_region(toy_region), full=True)
        encoded["format_version"] = 999
        with pytest.raises(ReproError, match="version"):
            plan_from_dict(encoded)

    def test_malformed_payload_rejected(self, toy_region):
        encoded = plan_to_dict(plan_region(toy_region), full=True)
        encoded["effective_paths"] = [{"bogus": 1}]
        with pytest.raises(ReproError, match="malformed"):
            plan_from_dict(encoded)

    def test_decoded_plan_has_no_timings(self, toy_region):
        restored = plan_from_dict(
            plan_to_dict(plan_region(toy_region), full=True)
        )
        assert restored.topology.timings is None

    def test_leftover_timings_key_is_ignored(self, toy_region):
        """An encoding written before timings left the bytes still loads."""
        encoded = plan_to_dict(plan_region(toy_region), full=True)
        old = dict(encoded, timings={"scenarios_evaluated": 1, "hose_lookups": 2})
        restored = plan_from_dict(old)
        assert restored.topology.timings is None
        assert plan_to_dict(restored, full=True) == encoded


class TestTopologyRoundTrip:
    def test_encode_decode_is_a_fixpoint(self, toy_region):
        from repro.core.topology import plan_topology
        from repro.serialize import topology_from_dict, topology_to_dict

        topology = plan_topology(toy_region)
        encoded = topology_to_dict(topology)
        restored = topology_from_dict(encoded)
        assert topology_to_dict(restored) == encoded
        assert restored.edge_capacity == topology.edge_capacity
        assert restored.scenario_paths == topology.scenario_paths
        assert restored.scenario_count_total == topology.scenario_count_total

    def test_wrong_version_rejected(self, toy_region):
        from repro.core.topology import plan_topology
        from repro.serialize import topology_from_dict, topology_to_dict

        encoded = topology_to_dict(plan_topology(toy_region))
        encoded["format_version"] = 0
        with pytest.raises(ReproError, match="version"):
            topology_from_dict(encoded)
