"""repro.store: a content-addressed plan store with incremental sweep resume.

Plans are pure functions of their inputs — fiber map, DC placement, design
name, full planner config, schema versions — so they are perfect memoize
targets: ``iris sweep`` campaigns replan identical (region, design) cells
over and over, and an interrupted sweep loses everything. This package
adds the persistence layer the north star's "fast as the hardware allows"
goal needs:

* :mod:`repro.store.canonical` — deterministic JSON encoding + SHA-256
  digests (the addressing substrate);
* :mod:`repro.store.keys` — input-addressed artifact keys with schema
  version stamps for invalidation-by-construction;
* :mod:`repro.store.cas` — the on-disk store: one atomic tmp+rename
  blob write per artifact and no index beside the blobs, digest
  re-verification on every read (corruption degrades to a miss, never a
  crash), and the ``get``/``put``/``gc``/``stats``/``verify`` API.

Typical use::

    from repro.api import PlannerConfig, plan
    from repro.store import PlanStore

    config = PlannerConfig(store=PlanStore(".iris-store"))
    result = plan(region, config=config)   # miss: plans + checkpoints
    result = plan(region, config=config)   # hit: loads, bit-identical

The same ``store=`` threads through the design registry
(``get_design("iris", store=store)``) and :func:`repro.api.sweep` —
completed sweep cells checkpoint as they finish, so
``iris sweep --store DIR --resume`` replans only the incomplete cells.
"""

from repro.store.canonical import canonical_json, digest, sha256_hex
from repro.store.cas import GcResult, PlanStore, StoreStats
from repro.store.keys import STORE_SCHEMA_VERSION, artifact_key, plan_key

__all__ = [
    "GcResult",
    "PlanStore",
    "STORE_SCHEMA_VERSION",
    "StoreStats",
    "artifact_key",
    "canonical_json",
    "digest",
    "plan_key",
    "sha256_hex",
]
