"""Canonical region deltas: the operational events a region evolves by.

The paper's operational setting is a *living* region: ducts get cut (and
new ones trenched), DCs attach to and detach from the regional network,
and equipment prices move under the planner's cost model. Each such event
is a :class:`RegionDelta` — a small, canonical, JSON-encodable value that
maps one :class:`~repro.region.fibermap.RegionSpec` to the next.

Deltas are the unit of *incremental replanning*: the planner service
(:mod:`repro.service`) patches a cached plan by recomputing only the
failure scenarios and hose flows a delta touches, with the hard guarantee
that the patched plan is byte-identical to a cold replan of
``delta.apply_to_region(region)`` (see :func:`repro.service.apply_delta`).
This module owns only the delta *semantics* — what each kind means and how
it rewrites a region; the reuse machinery lives in the service layer.

Supported kinds (:data:`DELTA_KINDS`):

``duct_added`` / ``duct_cut``
    A duct appears in / disappears from the fiber map. A "cut" here is the
    *planning* view of a long-lived failure or decommissioning — transient
    cuts within the failure tolerance are the planner's own OC4 business
    and need no replan at all.
``dc_attached`` / ``dc_detached``
    A DC site joins (with its capacity and tie-in ducts) or leaves the
    region; detaching removes the site's incident ducts with it.
``dc_resized``
    A DC's network capacity (in fibers) changes; the map is untouched.
``price_changed``
    Pricebook fields move. Plans are price-free (costing happens
    downstream of planning), so this delta rewrites no region state; it
    exists so price events flow through the same service API and can
    invalidate *costed* artifacts keyed by pricebook.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.exceptions import RegionError
from repro.region.fibermap import Duct, RegionSpec, duct_key

#: Every delta kind this encoding (and the service's replanner) supports.
DELTA_KINDS = (
    "duct_added",
    "duct_cut",
    "dc_attached",
    "dc_detached",
    "dc_resized",
    "price_changed",
)

#: Encoding version folded into the wire/dict form, so a future shape
#: change invalidates queued requests loudly instead of misreading them.
DELTA_FORMAT_VERSION = 1


@dataclass(frozen=True)
class RegionDelta:
    """One canonical region mutation (see the module docstring for kinds).

    Construct via the per-kind classmethods (:meth:`duct_added`,
    :meth:`duct_cut`, :meth:`dc_attached`, :meth:`dc_detached`,
    :meth:`dc_resized`, :meth:`price_changed`) rather than the raw
    constructor; they validate the kind-specific fields and canonicalize
    duct endpoints. Instances are immutable and hashable, so they can key
    caches and coalesce identical service requests.
    """

    kind: str
    duct: Duct | None = None
    length_km: float | None = None
    dc: str | None = None
    x: float | None = None
    y: float | None = None
    fibers: int | None = None
    ducts: tuple[tuple[str, float], ...] = ()
    prices: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in DELTA_KINDS:
            raise RegionError(
                f"unknown delta kind {self.kind!r}; supported: "
                f"{', '.join(DELTA_KINDS)}"
            )

    # -- constructors --------------------------------------------------------

    @classmethod
    def duct_added(
        cls, u: str, v: str, length_km: float | None = None
    ) -> "RegionDelta":
        """A new duct between existing nodes ``u`` and ``v``.

        ``length_km`` defaults (at apply time) to the Euclidean distance,
        matching :meth:`~repro.region.fibermap.FiberMap.add_duct`.
        """
        if length_km is not None and length_km <= 0:
            raise RegionError("duct_added length_km must be positive")
        return cls(kind="duct_added", duct=duct_key(u, v), length_km=length_km)

    @classmethod
    def duct_cut(cls, u: str, v: str) -> "RegionDelta":
        """Permanent loss of the duct between ``u`` and ``v``."""
        return cls(kind="duct_cut", duct=duct_key(u, v))

    @classmethod
    def dc_attached(
        cls,
        name: str,
        x: float,
        y: float,
        fibers: int,
        ducts: "tuple[tuple[str, float | None], ...] | list" = (),
    ) -> "RegionDelta":
        """A new DC at ``(x, y)`` with ``fibers`` capacity and tie-in ducts.

        ``ducts`` is a sequence of ``(neighbor, length_km)`` tie-ins (at
        least one, or the new site would be unreachable); a ``None``
        length defaults to Euclidean at apply time.
        """
        if not isinstance(fibers, int) or fibers <= 0:
            raise RegionError("dc_attached fibers must be a positive int")
        tie_ins = tuple((str(n), length) for n, length in ducts)
        if not tie_ins:
            raise RegionError(
                f"dc_attached {name!r} needs at least one tie-in duct"
            )
        for neighbor, length in tie_ins:
            if neighbor == name:
                raise RegionError("dc_attached tie-in cannot self-loop")
            if length is not None and length <= 0:
                raise RegionError("dc_attached tie-in lengths must be positive")
        return cls(
            kind="dc_attached",
            dc=name,
            x=float(x),
            y=float(y),
            fibers=fibers,
            ducts=tie_ins,
        )

    @classmethod
    def dc_detached(cls, name: str) -> "RegionDelta":
        """DC ``name`` leaves the region (incident ducts go with it)."""
        return cls(kind="dc_detached", dc=name)

    @classmethod
    def dc_resized(cls, name: str, fibers: int) -> "RegionDelta":
        """DC ``name``'s capacity becomes ``fibers`` (map untouched)."""
        if not isinstance(fibers, int) or fibers <= 0:
            raise RegionError("dc_resized fibers must be a positive int")
        return cls(kind="dc_resized", dc=name, fibers=fibers)

    @classmethod
    def price_changed(cls, **overrides: float) -> "RegionDelta":
        """Pricebook field overrides (e.g. ``transceiver_400zr=...``).

        Field names are validated lazily against
        :class:`repro.cost.pricebook.PriceBook` in
        :meth:`apply_to_pricebook`, keeping the region layer free of cost
        imports.
        """
        if not overrides:
            raise RegionError("price_changed needs at least one field override")
        return cls(
            kind="price_changed",
            prices=tuple(sorted((k, float(v)) for k, v in overrides.items())),
        )

    # -- application ---------------------------------------------------------

    def apply_to_region(self, region: RegionSpec) -> RegionSpec:
        """The mutated region this delta maps ``region`` to.

        Pure: ``region`` is never modified (maps are copied before
        mutation). ``price_changed`` returns ``region`` itself — prices
        are not region state — which callers may use as the "this delta
        cannot change any plan" signal. Raises
        :class:`~repro.exceptions.RegionError` when the delta does not
        apply (unknown node, duplicate duct, ...).
        """
        if self.kind == "price_changed":
            return region
        if self.kind == "dc_resized":
            if self.dc not in region.dc_fibers:
                raise RegionError(f"dc_resized: unknown DC {self.dc!r}")
            dc_fibers = dict(region.dc_fibers)
            dc_fibers[str(self.dc)] = int(self.fibers)  # type: ignore[arg-type]
            return replace(region, dc_fibers=dc_fibers)

        fmap = region.fiber_map.copy()
        dc_fibers: Mapping[str, int] | dict[str, int] = region.dc_fibers
        if self.kind == "duct_added":
            assert self.duct is not None
            fmap.add_duct(self.duct[0], self.duct[1], length_km=self.length_km)
        elif self.kind == "duct_cut":
            assert self.duct is not None
            fmap.remove_duct(self.duct[0], self.duct[1])
        elif self.kind == "dc_attached":
            assert self.dc is not None and self.fibers is not None
            fmap.add_dc(self.dc, self.x, self.y)  # type: ignore[arg-type]
            for neighbor, length in self.ducts:
                fmap.add_duct(self.dc, neighbor, length_km=length)
            dc_fibers = dict(region.dc_fibers)
            dc_fibers[self.dc] = self.fibers
        elif self.kind == "dc_detached":
            assert self.dc is not None
            if self.dc not in fmap or self.dc not in region.dc_fibers:
                raise RegionError(f"dc_detached: unknown DC {self.dc!r}")
            fmap.remove_node(self.dc)
            dc_fibers = {
                dc: cap for dc, cap in region.dc_fibers.items() if dc != self.dc
            }
        return replace(region, fiber_map=fmap, dc_fibers=dc_fibers)

    def apply_to_pricebook(self, pricebook: Any) -> Any:
        """``pricebook`` with this delta's price overrides applied.

        Returns ``pricebook`` unchanged for non-price kinds. Unknown field
        names raise :class:`~repro.exceptions.RegionError`.
        """
        if self.kind != "price_changed":
            return pricebook
        from dataclasses import fields as dataclass_fields

        known = {f.name for f in dataclass_fields(pricebook)}
        overrides = dict(self.prices)
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise RegionError(
                f"price_changed: unknown pricebook field(s) {unknown}"
            )
        return replace(pricebook, **overrides)

    # -- canonical encoding --------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready form (inverse: :func:`delta_from_dict`).

        Only the fields the kind uses are emitted, so two equal deltas
        encode to identical dicts and the encoding diffs cleanly.
        """
        out: dict[str, Any] = {
            "format_version": DELTA_FORMAT_VERSION,
            "kind": self.kind,
        }
        if self.kind in ("duct_added", "duct_cut"):
            assert self.duct is not None
            out["duct"] = list(self.duct)
            if self.kind == "duct_added" and self.length_km is not None:
                out["length_km"] = self.length_km
        elif self.kind == "dc_attached":
            out["dc"] = self.dc
            out["x"] = self.x
            out["y"] = self.y
            out["fibers"] = self.fibers
            out["ducts"] = [
                {"to": neighbor, "length_km": length}
                for neighbor, length in self.ducts
            ]
        elif self.kind in ("dc_detached", "dc_resized"):
            out["dc"] = self.dc
            if self.kind == "dc_resized":
                out["fibers"] = self.fibers
        elif self.kind == "price_changed":
            out["prices"] = dict(self.prices)
        return out


def delta_from_dict(data: dict[str, Any]) -> RegionDelta:
    """Inverse of :meth:`RegionDelta.to_dict`."""
    version = data.get("format_version")
    if version != DELTA_FORMAT_VERSION:
        raise RegionError(f"unsupported delta format version {version!r}")
    kind = data.get("kind")
    try:
        if kind == "duct_added":
            u, v = data["duct"]
            return RegionDelta.duct_added(u, v, length_km=data.get("length_km"))
        if kind == "duct_cut":
            u, v = data["duct"]
            return RegionDelta.duct_cut(u, v)
        if kind == "dc_attached":
            return RegionDelta.dc_attached(
                data["dc"],
                data["x"],
                data["y"],
                data["fibers"],
                ducts=tuple(
                    (entry["to"], entry.get("length_km"))
                    for entry in data["ducts"]
                ),
            )
        if kind == "dc_detached":
            return RegionDelta.dc_detached(data["dc"])
        if kind == "dc_resized":
            return RegionDelta.dc_resized(data["dc"], data["fibers"])
        if kind == "price_changed":
            return RegionDelta.price_changed(**data["prices"])
    except (KeyError, TypeError, ValueError) as exc:
        raise RegionError(f"malformed {kind!r} delta: {exc}") from exc
    raise RegionError(
        f"unknown delta kind {kind!r}; supported: {', '.join(DELTA_KINDS)}"
    )
