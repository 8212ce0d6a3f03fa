"""Greedy cut-through and secondary amplifier placement (§4.3, Appendix A).

After the distance-driven amplifier pass, some paths may still blow a run's
power budget through accumulated OSS insertion loss. Appendix A resolves
these with either:

* a "cut-through link" — an uninterrupted fiber crossing one or more
  switching points unswitched, removing their insertion loss for the paths
  routed over it (at the price of leasing dedicated fiber along every
  underlying span); or
* an in-line amplifier — "even if the distance is short, but there are many
  switching points on the path, it may make sense to place amplifiers ...
  because the number of amplifiers needed could be cheaper compared to
  allocating additional fiber for cut-through links".

Both candidate kinds compete in one greedy loop, scored by constraints
resolved per dollar of new equipment (amplifiers needed at a site are the
hose max-flow of the fibers amplified there, reusing §4.1's computation;
already-installed amplifiers are reused for free).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Mapping

from repro import obs
from repro.core.failures import Scenario
from repro.core.hose import hose_capacity
from repro.core.plan import AmplifierPlan, CutThroughLink, EffectivePath, Pair
from repro.cost.pricebook import PriceBook
from repro.exceptions import PlanningError
from repro.optics.constraints import amp_fix_candidates, violations
from repro.region.fibermap import RegionSpec

#: A cut-through candidate is identified by the physical chain it spans.
_Chain = tuple[str, ...]

_Key = tuple[Scenario, Pair]


def _violates(path: EffectivePath, sla_fiber_km: float) -> bool:
    return bool(violations(path.profile(), sla_fiber_km=sla_fiber_km))


def _excess_db(path: EffectivePath) -> float:
    """Total dB by which the path's runs exceed their amplifier budgets."""
    from repro.units import AMPLIFIER_GAIN_DB

    return sum(
        max(0.0, run.loss_db - AMPLIFIER_GAIN_DB)
        for run in path.profile().runs()
    )


def _candidate_bypasses(path: EffectivePath) -> list[tuple[int, int]]:
    """(start, end) node-index ranges whose bypass is physically possible."""
    out = []
    nodes = path.nodes
    for start in range(len(nodes) - 2):
        for end in range(start + 2, len(nodes)):
            interior = nodes[start + 1 : end]
            if path.amp_node is not None and path.amp_node in interior:
                continue
            out.append((start, end))
    return out


def _chain_for(path: EffectivePath, start: int, end: int) -> _Chain:
    chain: list[str] = [path.nodes[start]]
    for hop in path.hop_chains[start:end]:
        chain.extend(hop[1:])
    return tuple(chain)


@dataclass(frozen=True)
class _Bypass:
    """One bypass candidate of a path: crossing the physical ``chain``
    unswitched gives ``fixed``, which ``resolves`` the path (meets every
    constraint) or at least cuts its excess by ``reduction`` dB."""

    chain: _Chain
    fixed: EffectivePath
    resolves: bool
    reduction: float


@dataclass(frozen=True)
class _PathRecord:
    """What the greedy needs of one distinct effective path, computed once.

    ``violates`` is the path's status; the candidate fields stay empty for
    a compliant path. ``bypasses`` holds the candidates that resolve the
    path or shrink its excess dB, ``amp_sites`` the sites where one
    amplifier resolves it, and ``amp_steps`` the ``(site, reduction)`` of
    the amplifiers that shrink its excess.
    """

    violates: bool
    bypasses: tuple[_Bypass, ...] = ()
    amp_sites: tuple[str, ...] = ()
    amp_steps: tuple[tuple[str, float], ...] = ()

    @classmethod
    def of(
        cls, path: EffectivePath, sla_fiber_km: float, allow_amplifiers: bool
    ) -> "_PathRecord":
        if not _violates(path, sla_fiber_km):
            return cls(violates=False)
        before = _excess_db(path)
        bypasses = []
        for start, end in _candidate_bypasses(path):
            fixed = path.bypass(start, end)
            resolves = not _violates(fixed, sla_fiber_km)
            reduction = before - _excess_db(fixed)
            if resolves or reduction > 1e-9:
                bypasses.append(
                    _Bypass(
                        _chain_for(path, start, end), fixed, resolves, reduction
                    )
                )
        amp_sites: list[str] = []
        amp_steps: list[tuple[str, float]] = []
        if allow_amplifiers and path.amp_node is None:
            for span_index in amp_fix_candidates(path.profile()):
                amp_sites.append(path.nodes[span_index + 1])
            # Partial progress: an amp helps even when it cannot fully
            # fix the path, as long as it reduces the worst run.
            for span_index in range(len(path.nodes) - 2):
                site = path.nodes[span_index + 1]
                reduction = before - _excess_db(path.with_amp(site))
                if reduction > 1e-9:
                    amp_steps.append((site, reduction))
        return cls(True, tuple(bypasses), tuple(amp_sites), tuple(amp_steps))


def _recheck(
    violating: list[tuple[_Key, _PathRecord]],
    touched: Mapping[_Key, object],
    current: Mapping[_Key, EffectivePath],
    record: Callable[[EffectivePath], _PathRecord],
) -> list[tuple[_Key, _PathRecord]]:
    """``violating`` after an action that rewrote the ``touched`` keys.

    Only violating keys are ever rewritten, so no other key can start
    violating; the order stays ``current``'s.
    """
    out = []
    for key, rec in violating:
        if key in touched:
            rec = record(current[key])
            if not rec.violates:
                continue
        out.append((key, rec))
    return out


def place_cut_throughs(
    region: RegionSpec,
    effective: Mapping[_Key, EffectivePath],
    site_counts: Mapping[str, int] | None = None,
    assignments: Mapping[_Key, str] | None = None,
    prices: PriceBook | None = None,
    allow_amplifiers: bool = True,
) -> tuple[
    tuple[CutThroughLink, ...],
    dict[_Key, EffectivePath],
    AmplifierPlan,
]:
    """Resolve remaining run-budget violations; returns links, updated
    effective paths, and the final amplifier plan.

    ``site_counts`` and ``assignments`` carry over the distance-driven
    amplifier pass; both start empty when omitted. ``allow_amplifiers=False``
    restricts the greedy to cut-through candidates only (the ablation of the
    Appendix A observation that amplifiers are often the cheaper fix). Raises
    :class:`PlanningError` if some violation cannot be fixed (cannot happen
    on maps whose ducts respect TC1, per the Appendix A argument).

    Each distinct path's status and candidates are computed once per call
    (:class:`_PathRecord`). An action rewrites only violating paths, so
    after it only the keys it touched are checked again; the candidate
    tables, their order and every hose lookup are as a full recheck of
    every path in every round would make them.
    """
    prices = prices or PriceBook.default()
    sla = region.constraints.sla_fiber_km
    current: dict[_Key, EffectivePath] = dict(effective)
    sites: dict[str, int] = defaultdict(int, site_counts or {})
    amp_assignments: dict[_Key, str] = dict(assignments or {})
    # Pairs amplified at each site, per scenario (drives amp demand).
    served: dict[str, dict[Scenario, list[Pair]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for (scenario, pair), site in amp_assignments.items():
        served[site][scenario].append(pair)
    link_users: dict[_Chain, set[_Key]] = {}
    records: dict[EffectivePath, _PathRecord] = {}

    def record(path: EffectivePath) -> _PathRecord:
        rec = records.get(path)
        if rec is None:
            rec = records[path] = _PathRecord.of(path, sla, allow_amplifiers)
        return rec

    # Violating keys with their records, in ``current`` order.
    violating = [
        (key, rec)
        for key, path in current.items()
        if (rec := record(path)).violates
    ]

    guard = 0
    while True:
        guard += 1
        if guard > 2000:
            raise PlanningError("cut-through placement did not converge")

        if not violating:
            break

        # Cut-through candidates: chain -> {key -> bypassed path} resolved.
        cut_resolves: dict[_Chain, dict[_Key, EffectivePath]] = defaultdict(dict)
        # Amplifier candidates: site -> {key -> amp node} resolved.
        amp_resolves: dict[str, dict[_Key, str]] = defaultdict(dict)

        # Partial-progress candidates, used when nothing fully resolves a
        # path in one step (heavily switched paths need an amplifier AND
        # cut-throughs): excess-dB reduction per candidate.
        cut_progress: dict[_Chain, dict[_Key, EffectivePath]] = defaultdict(dict)
        cut_gain: dict[_Chain, float] = defaultdict(float)
        amp_progress: dict[str, dict[_Key, str]] = defaultdict(dict)
        amp_gain: dict[str, float] = defaultdict(float)

        for key, rec in violating:
            for bypass in rec.bypasses:
                if bypass.resolves:
                    cut_resolves[bypass.chain][key] = bypass.fixed
                if bypass.reduction > 1e-9:
                    cut_progress[bypass.chain][key] = bypass.fixed
                    cut_gain[bypass.chain] += bypass.reduction
            for site in rec.amp_sites:
                amp_resolves[site][key] = site
            for site, reduction in rec.amp_steps:
                amp_progress[site][key] = site
                amp_gain[site] += reduction

        if not cut_resolves and not amp_resolves:
            # Fall back to the best partial step (strict progress keeps
            # the loop terminating); combinations complete over iterations.
            best_partial: tuple[float, str, object] | None = None
            for chain, gain in cut_gain.items():
                cost = max(
                    (len(chain) - 1)
                    * hose_capacity(
                        [pair for _, pair in cut_progress[chain]],
                        region.dc_fibers,
                    )
                    * prices.fiber_pair_span,
                    1e-9,
                )
                candidate = (gain / cost, "cut", chain)
                if best_partial is None or candidate[0] > best_partial[0]:
                    best_partial = candidate
            for site, gain in amp_gain.items():
                candidate = (gain / max(prices.amplifier, 1e-9), "amp", site)
                if best_partial is None or candidate[0] > best_partial[0]:
                    best_partial = candidate
            if best_partial is None:
                details = []
                for key, _ in violating[:3]:
                    scenario, pair = key
                    details.append(
                        f"{pair} under {sorted(scenario) or 'no failures'}: "
                        + "; ".join(
                            violations(current[key].profile(), sla_fiber_km=sla)
                        )
                    )
                raise PlanningError(
                    "no cut-through or amplifier resolves remaining "
                    "violations: " + " | ".join(details)
                )
            _, kind, target = best_partial
            if kind == "cut":
                chain = target
                touched: Mapping[_Key, object] = cut_progress[chain]
                current.update(cut_progress[chain])
                link_users.setdefault(chain, set()).update(cut_progress[chain])
            else:
                site = target
                touched = amp_progress[site]
                for key in amp_progress[site]:
                    scenario, pair = key
                    current[key] = current[key].with_amp(site)
                    amp_assignments[key] = site
                    served[site][scenario].append(pair)
                needed = max(
                    hose_capacity(pairs, region.dc_fibers)
                    for pairs in served[site].values()
                )
                sites[site] = max(sites[site], needed)
            violating = _recheck(violating, touched, current, record)
            continue

        def cut_cost(chain: _Chain) -> float:
            by_scenario: dict[Scenario, list[Pair]] = defaultdict(list)
            for scenario, pair in cut_resolves[chain]:
                by_scenario[scenario].append(pair)
            capacity = max(
                hose_capacity(pairs, region.dc_fibers)
                for pairs in by_scenario.values()
            )
            return max(capacity * (len(chain) - 1) * prices.fiber_pair_span, 1e-9)

        def amp_cost(site: str) -> float:
            # Read-only on ``served``: indexing its defaultdicts here would
            # insert the empty pair lists of every scenario scored.
            demand_now = dict(served.get(site, {}))
            for (scenario, pair) in amp_resolves[site]:
                demand_now[scenario] = demand_now.get(scenario, []) + [pair]
            needed = max(
                hose_capacity(pairs, region.dc_fibers)
                for pairs in demand_now.values()
            )
            to_place = max(0, needed - sites[site])
            return max(to_place * prices.amplifier, 1e-9)

        best_score = None
        best_action: tuple[str, object] | None = None
        for chain in sorted(cut_resolves):
            score = (len(cut_resolves[chain]) / cut_cost(chain), len(cut_resolves[chain]))
            if best_score is None or score > best_score:
                best_score, best_action = score, ("cut", chain)
        for site in sorted(amp_resolves):
            score = (len(amp_resolves[site]) / amp_cost(site), len(amp_resolves[site]))
            if best_score is None or score > best_score:
                best_score, best_action = score, ("amp", site)

        assert best_action is not None
        kind, target = best_action
        if kind == "cut":
            chain = target  # type: ignore[assignment]
            touched = cut_resolves[chain]
            current.update(cut_resolves[chain])
            link_users.setdefault(chain, set()).update(cut_resolves[chain])
        else:
            site = target  # type: ignore[assignment]
            touched = amp_resolves[site]
            for key in amp_resolves[site]:
                scenario, pair = key
                current[key] = current[key].with_amp(site)
                amp_assignments[key] = site
                served[site][scenario].append(pair)
            needed = max(
                hose_capacity(pairs, region.dc_fibers)
                for pairs in served[site].values()
            )
            sites[site] = max(sites[site], needed)
        violating = _recheck(violating, touched, current, record)

    obs.incr("cutthrough.paths_evaluated", len(records))
    placed: list[CutThroughLink] = []
    for chain, users in sorted(link_users.items()):
        by_scenario: dict[Scenario, list[Pair]] = defaultdict(list)
        for scenario, pair in users:
            by_scenario[scenario].append(pair)
        capacity = max(
            hose_capacity(pairs, region.dc_fibers) for pairs in by_scenario.values()
        )
        length = sum(
            region.fiber_map.duct_length(u, v) for u, v in zip(chain, chain[1:])
        )
        placed.append(
            CutThroughLink(via=chain, fiber_pairs=capacity, length_km=length)
        )

    final_amps = AmplifierPlan(
        site_counts={k: v for k, v in sorted(sites.items()) if v > 0},
        assignments=amp_assignments,
    )
    return tuple(placed), current, final_amps
