"""JSON serialization for regions and plans.

Regions round-trip exactly. Plans serialize two ways:

* the default audit-friendly *summary* (provisioning per duct, amplifier
  sites, cut-throughs, costs) — the planner is deterministic, so a plan is
  always recoverable from its region; and
* the lossless *full* form (``plan_to_dict(..., full=True)``), which adds
  the region, every scenario's shortest paths, the amplifier assignments,
  and the effective paths, so :func:`plan_from_dict` /
  :func:`plan_from_json` can reconstruct the complete
  :class:`~repro.core.plan.IrisPlan` without replanning. This is the
  encoding :mod:`repro.store` persists: a cached plan loaded back is
  bit-identical (``plan_to_json`` equality) to a freshly planned one.

The encoding is the plan and nothing else. Run statistics — the
:class:`~repro.core.engine.PlanTimings` view and the
:class:`~repro.obs.SpanRecord` trace attached to a planned topology —
never enter it, so the same region's plan encodes to the same bytes
whatever ran it, in whichever process, next to whatever other job. A
decoded plan carries no timings (``--trace``/``--trace-json`` export
traces through :mod:`repro.obs`).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

from repro.core.failures import Scenario
from repro.core.plan import (
    AmplifierPlan,
    CutThroughLink,
    EffectivePath,
    IrisPlan,
    Pair,
    TopologyPlan,
)
from repro.exceptions import ReproError
from repro.region.fibermap import (
    Duct,
    FiberMap,
    NodeKind,
    OperationalConstraints,
    RegionSpec,
    duct_key,
)

FORMAT_VERSION = 1


def fiber_map_to_dict(fmap: FiberMap) -> dict[str, Any]:
    """Plain-dict form of a fiber map."""
    return {
        "nodes": [
            {
                "name": name,
                "kind": fmap.kind(name).value,
                "x": fmap.position(name).x,
                "y": fmap.position(name).y,
            }
            for name in fmap.nodes
        ],
        "ducts": [
            {"u": u, "v": v, "length_km": fmap.duct_length(u, v)}
            for u, v in fmap.ducts
        ],
    }


def fiber_map_from_dict(data: dict[str, Any]) -> FiberMap:
    """Inverse of :func:`fiber_map_to_dict`."""
    fmap = FiberMap()
    try:
        for node in data["nodes"]:
            kind = NodeKind(node["kind"])
            if kind is NodeKind.DC:
                fmap.add_dc(node["name"], node["x"], node["y"])
            else:
                fmap.add_hut(node["name"], node["x"], node["y"])
        for duct in data["ducts"]:
            fmap.add_duct(duct["u"], duct["v"], length_km=duct["length_km"])
    except (KeyError, ValueError) as exc:
        raise ReproError(f"malformed fiber map data: {exc}") from exc
    return fmap


def region_to_dict(region: RegionSpec) -> dict[str, Any]:
    """Plain-dict form of a region specification (exact round-trip)."""
    return {
        "format_version": FORMAT_VERSION,
        "fiber_map": fiber_map_to_dict(region.fiber_map),
        "dc_fibers": dict(sorted(region.dc_fibers.items())),
        "wavelengths_per_fiber": region.wavelengths_per_fiber,
        "gbps_per_wavelength": region.gbps_per_wavelength,
        "constraints": {
            "sla_fiber_km": region.constraints.sla_fiber_km,
            "failure_tolerance": region.constraints.failure_tolerance,
            "require_shortest_path": region.constraints.require_shortest_path,
            "max_span_km": region.constraints.max_span_km,
        },
    }


def region_from_dict(data: dict[str, Any]) -> RegionSpec:
    """Inverse of :func:`region_to_dict`."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ReproError(f"unsupported format version {version!r}")
    try:
        constraints = OperationalConstraints(**data["constraints"])
        return RegionSpec(
            fiber_map=fiber_map_from_dict(data["fiber_map"]),
            dc_fibers=data["dc_fibers"],
            wavelengths_per_fiber=data["wavelengths_per_fiber"],
            gbps_per_wavelength=data["gbps_per_wavelength"],
            constraints=constraints,
        )
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed region data: {exc}") from exc


def region_to_json(region: RegionSpec, indent: int | None = 2) -> str:
    """Serialize a region specification to JSON."""
    return json.dumps(region_to_dict(region), indent=indent)


def region_from_json(text: str) -> RegionSpec:
    """Inverse of :func:`region_to_json`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"invalid JSON: {exc}") from exc
    return region_from_dict(data)


# -- duct / pair / scenario keys ----------------------------------------------
#
# JSON object keys must be strings: a duct or DC pair becomes "u~v" (node
# names never contain '~') and a failure scenario the sorted list of its
# duct strings. Everything is emitted in sorted order so the encoding is
# deterministic and diffs cleanly.


def _duct_str(duct: Duct) -> str:
    return f"{duct[0]}~{duct[1]}"


def _duct_from_str(text: str) -> Duct:
    parts = text.split("~")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ReproError(f"malformed duct key {text!r}")
    return duct_key(parts[0], parts[1])


def _scenario_to_list(scenario: Scenario) -> list[str]:
    return sorted(_duct_str(duct) for duct in scenario)


def _scenario_from_list(items: list[str]) -> Scenario:
    return Scenario(_duct_from_str(item) for item in items)


def _scenario_sort_key(scenario: Scenario) -> tuple[int, list[Duct]]:
    return (len(scenario), sorted(scenario))


def _scenario_paths_to_list(
    scenario_paths: Mapping[Scenario, Mapping[Pair, tuple[str, ...]]],
) -> list[dict[str, Any]]:
    """Deterministic list form of a scenario -> pair -> path mapping."""
    return [
        {
            "scenario": _scenario_to_list(scenario),
            "paths": {
                _duct_str(pair): list(path)
                for pair, path in sorted(paths.items())
            },
        }
        for scenario, paths in sorted(
            scenario_paths.items(), key=lambda kv: _scenario_sort_key(kv[0])
        )
    ]


def _scenario_paths_from_list(
    entries: list[dict[str, Any]],
) -> dict[Scenario, dict[Pair, tuple[str, ...]]]:
    """Inverse of :func:`_scenario_paths_to_list`."""
    return {
        _scenario_from_list(entry["scenario"]): {
            _duct_from_str(pair): tuple(path)
            for pair, path in entry["paths"].items()
        }
        for entry in entries
    }


def topology_to_dict(topology: TopologyPlan) -> dict[str, Any]:
    """Lossless plain-dict form of an Algorithm-1 topology plan.

    Used by :mod:`repro.store` for artifacts that carry a bare topology
    (the EPS design, the sweep's tolerance-0 baseline) rather than a full
    Iris plan.
    """
    return {
        "format_version": FORMAT_VERSION,
        "edge_capacity": {
            _duct_str(duct): cap
            for duct, cap in sorted(topology.edge_capacity.items())
        },
        "scenario_paths": _scenario_paths_to_list(topology.scenario_paths),
        "scenarios_total": topology.scenario_count_total,
    }


def topology_from_dict(data: dict[str, Any]) -> TopologyPlan:
    """Inverse of :func:`topology_to_dict`."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ReproError(f"unsupported format version {version!r}")
    try:
        return TopologyPlan(
            edge_capacity={
                _duct_from_str(key): int(cap)
                for key, cap in data["edge_capacity"].items()
            },
            scenario_paths=_scenario_paths_from_list(data["scenario_paths"]),
            scenario_count_total=int(data["scenarios_total"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed topology data: {exc}") from exc


def plan_to_dict(plan: IrisPlan, *, full: bool = False) -> dict[str, Any]:
    """Audit summary of an Iris plan.

    ``full=True`` additionally embeds the region, every scenario's
    shortest paths, the amplifier assignments, and the effective paths —
    everything :func:`plan_from_dict` needs to reconstruct the complete
    :class:`IrisPlan` without replanning. Neither form holds run
    statistics, so the same plan always encodes to the same bytes.
    """
    out: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "base_capacity": {
            f"{u}~{v}": cap for (u, v), cap in sorted(plan.topology.edge_capacity.items())
        },
        "residual": {
            f"{u}~{v}": count for (u, v), count in sorted(plan.residual.items())
        },
        "amplifier_sites": dict(plan.amplifiers.site_counts),
        "cut_throughs": [
            {
                "via": list(link.via),
                "fiber_pairs": link.fiber_pairs,
                "length_km": link.length_km,
            }
            for link in plan.cut_throughs
        ],
        "scenarios_enumerated": len(plan.topology.scenario_paths),
        "scenarios_total": plan.topology.scenario_count_total,
        "total_fiber_pair_spans": plan.total_fiber_pair_spans(),
    }
    if full:
        out["region"] = region_to_dict(plan.region)
        out["scenario_paths"] = _scenario_paths_to_list(
            plan.topology.scenario_paths
        )
        out["amplifier_assignments"] = [
            {
                "scenario": _scenario_to_list(scenario),
                "pair": _duct_str(pair),
                "node": node,
            }
            for (scenario, pair), node in sorted(
                plan.amplifiers.assignments.items(),
                key=lambda kv: (_scenario_sort_key(kv[0][0]), kv[0][1]),
            )
        ]
        out["effective_paths"] = [
            {
                "scenario": _scenario_to_list(scenario),
                "pair": _duct_str(pair),
                "nodes": list(path.nodes),
                "hop_lengths_km": list(path.hop_lengths_km),
                "hop_chains": [list(chain) for chain in path.hop_chains],
                "amp_node": path.amp_node,
            }
            for (scenario, pair), path in sorted(
                plan.effective_paths.items(),
                key=lambda kv: (_scenario_sort_key(kv[0][0]), kv[0][1]),
            )
        ]
    return out


def plan_to_json(
    plan: IrisPlan, *, indent: int | None = 2, full: bool = False
) -> str:
    """Serialize a plan summary to JSON (deterministic)."""
    return json.dumps(plan_to_dict(plan, full=full), indent=indent)


def plan_from_dict(data: dict[str, Any]) -> IrisPlan:
    """Inverse of ``plan_to_dict(..., full=True)``.

    Reconstructs the complete :class:`IrisPlan` — region, topology,
    amplifiers, cut-throughs, residual fibers, effective paths — from the
    lossless encoding. Summary-only dicts (without the ``full=True``
    fields) raise :class:`ReproError`: a summary is an audit artifact,
    not a plan. The decoded plan carries no timings, and a ``timings``
    key left in an older encoding is ignored.
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ReproError(f"unsupported format version {version!r}")
    missing = {"region", "scenario_paths", "effective_paths"} - set(data)
    if missing:
        raise ReproError(
            "not a full plan encoding (missing "
            f"{', '.join(sorted(missing))}); serialize with full=True"
        )
    try:
        region = region_from_dict(data["region"])
        edge_capacity: dict[Duct, int] = {
            _duct_from_str(key): int(cap)
            for key, cap in data["base_capacity"].items()
        }
        scenario_paths = _scenario_paths_from_list(data["scenario_paths"])
        topology = TopologyPlan(
            edge_capacity=edge_capacity,
            scenario_paths=scenario_paths,
            scenario_count_total=int(data["scenarios_total"]),
        )
        amplifiers = AmplifierPlan(
            site_counts={
                site: int(count)
                for site, count in data["amplifier_sites"].items()
            },
            assignments={
                (
                    _scenario_from_list(entry["scenario"]),
                    _duct_from_str(entry["pair"]),
                ): entry["node"]
                for entry in data.get("amplifier_assignments", [])
            },
        )
        cut_throughs = tuple(
            CutThroughLink(
                via=tuple(entry["via"]),
                fiber_pairs=int(entry["fiber_pairs"]),
                length_km=float(entry["length_km"]),
            )
            for entry in data["cut_throughs"]
        )
        residual: dict[Duct, int] = {
            _duct_from_str(key): int(count)
            for key, count in data["residual"].items()
        }
        effective_paths: dict[tuple[Scenario, Pair], EffectivePath] = {
            (
                _scenario_from_list(entry["scenario"]),
                _duct_from_str(entry["pair"]),
            ): EffectivePath(
                nodes=tuple(entry["nodes"]),
                hop_lengths_km=tuple(entry["hop_lengths_km"]),
                hop_chains=tuple(
                    tuple(chain) for chain in entry["hop_chains"]
                ),
                amp_node=entry["amp_node"],
            )
            for entry in data["effective_paths"]
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed plan data: {exc}") from exc
    return IrisPlan(
        region=region,
        topology=topology,
        amplifiers=amplifiers,
        cut_throughs=cut_throughs,
        residual=residual,
        effective_paths=effective_paths,
    )


def plan_from_json(text: str) -> IrisPlan:
    """Inverse of ``plan_to_json(..., full=True)``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"invalid JSON: {exc}") from exc
    return plan_from_dict(data)
