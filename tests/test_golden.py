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
from repro.serialize import plan_to_dict, plan_to_json


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
        assert timings.hose_lookups == 1220  # the capacity phase's own count

    def test_capacity_phase_hit_miss_split(self, traced_plan):
        """The capacity phase from a cold cache: its per-lookup events
        give the exact hit/miss split of this job's lookups. Only the
        (scenario, duct) pair sets that differ from the parent scenario's
        are looked up (1,220 of 4,433), and every distinct one still is,
        so the misses are the 78 distinct flow graphs."""
        _, record = traced_plan
        (capacity,) = [r for r in record.walk() if r.name == "plan.capacity"]
        assert capacity.total("hose.cache_hit") == 1142
        assert capacity.total("hose.cache_miss") == 78
        assert capacity.total("hose.lookups") == 1220

    def test_trace_work_totals(self, traced_plan):
        _, record = traced_plan
        assert record.total("paths.scenarios") == 217
        assert record.total("scenarios.evaluated") == 217
        # Capacity (1,220) + cut-through (20: one per distinct pair set).
        assert record.total("hose.lookups") == 1240

    def test_per_path_work_totals(self, traced_plan):
        """Per-path work is done once per distinct path: a scenario runs
        one Dijkstra per DC with a higher-named DC left to route to (4 of
        5) unless its parent scenario's search from that DC met no tie
        and avoids the new cut (379 of 217 x 4 = 868; none tied), one
        EffectivePath per distinct route, one cut-through record per
        distinct effective path, one validation check per distinct
        effective path (104 of 2,170 keys). The greedy takes 8 rounds and
        computes a candidate's cost only when its keys, or its site's
        amplifiers, changed since it was last scored."""
        _, record = traced_plan
        assert record.total("enumerate.dijkstra_runs") == 379
        assert record.total("enumerate.tied_searches") == 0
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
        assert record.total("hose.cache_hit") == 1240 - 92

    def test_flow_value_distribution(self, traced_plan):
        _, record = traced_plan
        assert record.counter_totals("hose.flow.") == {
            "hose.flow.fibers[le_8]": 1083,
            "hose.flow.fibers[le_16]": 156,
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
    (0, 4): "e2d8685b0b4be693",
    (0, 5): "0c223340f2bc98dc",
    (1, 5): "5d593ae16e7a3fac",
    (2, 5): "5f65d5fb9ac13ccd",
    (3, 5): "dcdbf0c15528a710",
    (0, 6): "172fe1e3c9aea0da",
    (1, 6): "2bd9da584e73bb27",
    (2, 6): "f570350b0338adf3",
    (3, 6): "0b9fcb9ab196c157",
    (5, 6): "96f9dab503f1094f",  # 3 cut-through links, one partial step
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

    def test_summary_bytes(self, golden_plan):
        """The audit summary (``plan_to_json``) of the golden plan."""
        _, plan = golden_plan
        text = plan_to_json(plan)
        assert "timings" not in json.loads(text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest[:16] == "aae0bc1a8ef0bca1"


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
        assert _canonical_digest(plan)[:16] == "57cc4e741977358d"


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: (map, DCs) -> digest prefix of the catalog region's ``region_to_json``:
#: the generator's repair loop and the DC placement, every catalog cell.
REGION_DIGESTS = {
    (0, 5): "a6c0ec2b1e2cdd34", (0, 10): "0685f2e86caf7a8e",
    (0, 15): "7ad833cbb04fd83e", (0, 20): "563e87e4c893b265",
    (1, 5): "537deaa93c136a72", (1, 10): "655ddeaa7061eaf0",
    (1, 15): "5400aed5a6c9008e", (1, 20): "2e1d545616c510ce",
    (2, 5): "e3209088abadb878", (2, 10): "cc1390a818fc060e",
    (2, 15): "7c0ff4cce818a3b9", (2, 20): "093fdd310bc07d15",
    (3, 5): "aec791bff22c1d06", (3, 10): "5a1ebdc583088258",
    (3, 15): "c5a5f2c613706061", (3, 20): "da412eb0ea337bd6",
    (4, 5): "5849fb66938b8779", (4, 10): "a98349b699ac0efb",
    (4, 15): "94a0809b791044c8", (4, 20): "abde7d7631bf8ac7",
    (5, 5): "72f4d9a39df08e87", (5, 10): "59ac8a7f857d32e6",
    (5, 15): "35350d480eee5827", (5, 20): "e405cc33741a8535",
    (6, 5): "1e2aa5041d77c48f", (6, 10): "0e8d950c8607d49a",
    (6, 15): "b81e9b36e56a9de0", (6, 20): "4e10fdf2026901f2",
    (7, 5): "a8e785f5f8bfaf0c", (7, 10): "f5e7551004b6ee35",
    (7, 15): "1e8f99e8ab82818e", (7, 20): "2df314e2c08689b2",
    (8, 5): "8675b6be75959d51", (8, 10): "8dec7ff18658bed0",
    (8, 15): "dc3e9858526fe1da", (8, 20): "1d510fbc1c0113de",
    (9, 5): "f2d12c81354fcf69", (9, 10): "876a60f0c006ecc4",
    (9, 15): "e08d8630aa8f9b32", (9, 20): "adb22258c47d1598",
}

#: (map, DCs) -> digest prefix of the baseline designs on a golden cell:
#: the centralized default hub, spoke routes and inventory, and the
#: semi-distributed zones, hubs and inventory.
DESIGN_DIGESTS = {
    (0, 4): "f9e7fb14d017fb57",
    (0, 5): "43d7b3b5f5f57945",
    (1, 5): "820b2f40f95d306f",
    (2, 5): "c47bc2a8475220ff",
    (3, 5): "d564da265b1fc1c4",
    (0, 6): "6be5add54425df2b",
    (1, 6): "6a8471ad355c54a4",
    (2, 6): "205f238674be0959",
    (3, 6): "77206b0152691614",
    (5, 6): "270ec8004574e4b3",
}


class TestRegionBytes:
    """Region building pinned byte for byte: the generator's connectivity
    repair (component order, edge-connectivity loop) and the DC placement
    (fiber-distance reach) feed every plan, so any change to a shortest
    path or a connectivity check there shows here first."""

    def test_catalog_region_bytes(self):
        from repro.serialize import region_to_json

        got = {
            cell: _text_digest(
                region_to_json(
                    make_region(
                        cell[0], cell[1], dc_fibers=8, failure_tolerance=2,
                        seed=2020,
                    ).spec
                )
            )
            for cell in REGION_DIGESTS
        }
        assert got == REGION_DIGESTS

    def test_generator_bytes(self):
        """Seeds 0-199 of the generator, three of which start disconnected."""
        from repro.region.synthetic import generate_fiber_map
        from repro.serialize import fiber_map_to_dict

        digest = hashlib.sha256()
        for seed in range(200):
            doc = fiber_map_to_dict(generate_fiber_map(seed))
            digest.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
        assert digest.hexdigest()[:16] == "f2c4192f5de40459"

    @pytest.mark.parametrize("cell", sorted(DESIGN_DIGESTS))
    def test_baseline_design_bytes(self, cell):
        from dataclasses import asdict

        from repro.designs.base import _default_hubs
        from repro.designs.centralized import CentralizedDesign
        from repro.designs.semidistributed import cluster_zones

        region = make_region(
            cell[0], cell[1], dc_fibers=8, failure_tolerance=2, seed=2020
        ).spec
        central = CentralizedDesign(region, _default_hubs(region))
        zoned = cluster_zones(region, 2)
        doc = {
            "hubs": central.hubs,
            "spokes": [
                [list(k), list(v)] for k, v in sorted(central.spoke_paths().items())
            ],
            "central_km": central.max_pair_distance_km(),
            "central": asdict(central.inventory()),
            "zones": [[z.name, list(z.dcs), z.hub] for z in zoned.zones],
            "zoned_km": zoned.max_pair_distance_km(),
            "zoned": asdict(zoned.inventory()),
        }
        assert _text_digest(json.dumps(doc, sort_keys=True)) == DESIGN_DIGESTS[cell]
