"""Artifact keys: SHA-256 over everything a cached artifact depends on.

A plan is a pure function of (fiber map, DC placement, design name, full
planner config, schema versions) — the region encoding carries the map and
placement, the config dict carries every planner option, and the version
stamps invalidate the whole store when an encoding or the pricebook schema
changes meaning. Anything that could change the artifact's bytes must be
in the key; anything that cannot (``jobs=``, tracing, cache warmth) must
stay out, or identical work would miss.

Keys are input-addressed: two callers asking for the same artifact compute
the same key without talking to each other. Blob integrity is separate —
the CAS re-verifies a *content* digest on every read.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

from repro.cost.pricebook import PRICEBOOK_SCHEMA_VERSION, PriceBook
from repro.region.fibermap import RegionSpec
from repro.serialize import FORMAT_VERSION, region_to_dict
from repro.store.canonical import digest

#: Bump when the store's on-disk layout, key envelope or stored payloads
#: change shape; old entries then miss instead of being misread (their
#: blobs stay on disk until the store directory is removed). Version 2:
#: plan and topology payloads hold no ``timings`` block, and the store
#: keeps no index manifest.
STORE_SCHEMA_VERSION = 2


def artifact_key(kind: str, inputs: dict[str, Any]) -> str:
    """The store key for an artifact of ``kind`` produced from ``inputs``.

    The key envelope folds in every schema version stamp, so bumping any
    of them retires the entire old namespace at once — invalidation by
    construction, no migration code.
    """
    return digest(
        {
            "kind": kind,
            "versions": {
                "store_schema": STORE_SCHEMA_VERSION,
                "plan_format": FORMAT_VERSION,
                "pricebook_schema": PRICEBOOK_SCHEMA_VERSION,
            },
            "inputs": inputs,
        }
    )


def plan_key(
    *,
    design: str,
    region: RegionSpec,
    config: dict[str, Any] | None = None,
    pricebook: PriceBook | None = None,
) -> str:
    """The key of a cached plan: design name x region x full config.

    ``config`` must hold every option that can change the plan's content
    (``prune_enumeration``, ``validate``, design-specific knobs) and none
    that cannot — execution options like ``jobs=`` are deliberately
    excluded because plans are bit-identical across backends. When a
    design's input is itself structured data rather than a scalar knob —
    the robust design's sampled TM ensemble, say — the config carries a
    canonical *digest* of it (``designs.robust.ensemble_digest``), so two
    ensembles with identical weights share a key regardless of how they
    were constructed.
    ``pricebook`` is for artifacts that bake prices into their payload;
    plans themselves do not (costing happens downstream), so planner
    callers leave it ``None``.
    """
    return artifact_key(
        "plan",
        {
            "design": design,
            "region": region_to_dict(region),
            "config": dict(sorted((config or {}).items())),
            "pricebook": dict(sorted(asdict(pricebook).items()))
            if pricebook is not None
            else None,
        },
    )


def service_request_key(
    *,
    design: str,
    region: RegionSpec,
    config: dict[str, Any] | None = None,
) -> str:
    """The single-flight key the planner service coalesces requests under.

    Deliberately *the same function* as :func:`plan_key` (a documented
    alias, not a parallel formula): the daemon keys its in-flight table,
    its store writes, and its store reads with one value, so "two clients
    asked for the same plan" and "this plan is already in the store" are
    by construction the same question. Anything that would make the key
    diverge from what ``iris plan --store`` writes would silently split
    the cache between CLI and service.
    """
    return plan_key(design=design, region=region, config=config)
