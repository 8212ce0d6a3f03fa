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
from typing import Iterable, Iterator, Mapping

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


@dataclass(frozen=True, eq=False)
class _PathRecord:
    """What the greedy needs of one distinct effective path, computed once.

    ``path`` is the first object seen with this value. ``violates`` is the
    path's status; the candidate fields stay empty for a compliant path.
    ``bypasses`` holds the candidates that resolve the path or shrink its
    excess dB, ``amp_sites`` the sites where one amplifier resolves it, and
    ``amp_steps`` the ``(site, reduction)`` of the amplifiers that shrink
    its excess. Records compare by identity: one record stands for every
    key whose effective path equals ``path``.
    """

    path: EffectivePath
    violates: bool
    bypasses: tuple[_Bypass, ...] = ()
    amp_sites: tuple[str, ...] = ()
    amp_steps: tuple[tuple[str, float], ...] = ()

    @classmethod
    def of(
        cls, path: EffectivePath, sla_fiber_km: float, allow_amplifiers: bool
    ) -> "_PathRecord":
        if not _violates(path, sla_fiber_km):
            return cls(path, violates=False)
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
        return cls(
            path, True, tuple(bypasses), tuple(amp_sites), tuple(amp_steps)
        )


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

    The stage pays per distinct effective path and per distinct pair set,
    not per (scenario, pair) key:

    * each distinct path's status and candidates are computed once per
      call (:class:`_PathRecord`), found by object identity before value;
    * keys with equal paths share a record and so its candidates, so each
      round's cut and amplifier tables list records, each with the keys it
      stands for, and only the winning action maps its keys to new paths;
    * a candidate's cost depends only on the keys it resolves (and, for an
      amplifier site, on the site's served pairs and installed count). An
      action rewrites only the keys it touched, so a cached cost is
      recomputed only when a touched key was or is among the candidate's
      keys, or when amplifiers were placed at its site;
    * each distinct pair set is sized by :func:`hose_capacity` once per
      call.

    Each round takes the best ``(count / cost, count)``, compared strictly,
    over chains and then sites in sorted order. A round where nothing fully
    resolves a path takes the best partial step instead; its excess-dB
    gains are float sums over the keys in violating order, which fixes
    their rounding.
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
    # id(path) -> (path, record); holding the path keeps its id unique.
    seen: dict[int, tuple[EffectivePath, _PathRecord]] = {}
    sized: dict[frozenset[Pair], int] = {}

    def record(path: EffectivePath) -> _PathRecord:
        hit = seen.get(id(path))
        if hit is not None:
            return hit[1]
        rec = records.get(path)
        if rec is None:
            rec = records[path] = _PathRecord.of(path, sla, allow_amplifiers)
        seen[id(path)] = (path, rec)
        return rec

    def size(pairs: Iterable[Pair]) -> int:
        key = frozenset(pairs)
        value = sized.get(key)
        if value is None:
            value = sized[key] = hose_capacity(key, region.dc_fibers)
        return value

    def peak(keys: Iterable[_Key]) -> int:
        """The largest hose load of the keys' pairs in any one scenario."""
        by_scenario: dict[Scenario, list[Pair]] = defaultdict(list)
        for scenario, pair in keys:
            by_scenario[scenario].append(pair)
        return max(size(pairs) for pairs in by_scenario.values())

    def cut_cost(chain: _Chain, keys: Iterable[_Key]) -> float:
        capacity = peak(keys)
        return max(capacity * (len(chain) - 1) * prices.fiber_pair_span, 1e-9)

    def amp_cost(site: str, keys: Iterable[_Key]) -> float:
        # Read-only on ``served``: indexing its defaultdicts here would
        # insert the empty pair lists of every scenario scored.
        demand_now = {
            scenario: list(pairs)
            for scenario, pairs in served.get(site, {}).items()
        }
        for scenario, pair in keys:
            demand_now.setdefault(scenario, []).append(pair)
        needed = max(size(pairs) for pairs in demand_now.values())
        to_place = max(0, needed - sites[site])
        return max(to_place * prices.amplifier, 1e-9)

    # Violating keys with their records, in ``current`` order.
    violating = [
        (key, rec)
        for key, path in current.items()
        if (rec := record(path)).violates
    ]
    # Cached costs of fully-resolving candidates, dropped when stale.
    cut_costs: dict[_Chain, float] = {}
    amp_costs: dict[str, float] = {}
    rounds = scored = 0

    while violating:
        rounds += 1
        if rounds > 2000:
            raise PlanningError("cut-through placement did not converge")

        # The keys each record stands for, in violating order.
        members: dict[_PathRecord, list[_Key]] = defaultdict(list)
        for key, rec in violating:
            members[rec].append(key)

        def keys_of(recs: Iterable[_PathRecord]) -> Iterator[_Key]:
            for rec in recs:
                yield from members[rec]

        # Candidate tables per record: chain -> {record -> bypassed path}
        # and site -> records, for the candidates that fully resolve.
        cut_table: dict[_Chain, dict[_PathRecord, EffectivePath]] = (
            defaultdict(dict)
        )
        amp_table: dict[str, list[_PathRecord]] = defaultdict(list)
        for rec in members:
            for bypass in rec.bypasses:
                if bypass.resolves:
                    cut_table[bypass.chain][rec] = bypass.fixed
            for fix_site in rec.amp_sites:
                amp_table[fix_site].append(rec)

        # The chosen action: a chain to cut through or a site to amplify.
        chain: _Chain | None = None
        site: str | None = None
        if cut_table or amp_table:
            best_score: tuple[float, int] | None = None
            for candidate in sorted(cut_table):
                cost = cut_costs.get(candidate)
                if cost is None:
                    cost = cut_costs[candidate] = cut_cost(
                        candidate, keys_of(cut_table[candidate])
                    )
                    scored += 1
                count = sum(len(members[rec]) for rec in cut_table[candidate])
                score = (count / cost, count)
                if best_score is None or score > best_score:
                    best_score, chain = score, candidate
            for candidate in sorted(amp_table):
                cost = amp_costs.get(candidate)
                if cost is None:
                    cost = amp_costs[candidate] = amp_cost(
                        candidate, keys_of(amp_table[candidate])
                    )
                    scored += 1
                count = sum(len(members[rec]) for rec in amp_table[candidate])
                score = (count / cost, count)
                if best_score is None or score > best_score:
                    best_score, chain, site = score, None, candidate
        else:
            # Fall back to the best partial step (strict progress keeps
            # the loop terminating); combinations complete over iterations.
            # Heavily switched paths need an amplifier AND cut-throughs.
            # Summed per key, not per record: the float sums' rounding
            # depends on the order of their terms.
            cut_gain: dict[_Chain, float] = defaultdict(float)
            amp_gain: dict[str, float] = defaultdict(float)
            for _, rec in violating:
                for bypass in rec.bypasses:
                    if bypass.reduction > 1e-9:
                        cut_gain[bypass.chain] += bypass.reduction
                for step_site, reduction in rec.amp_steps:
                    amp_gain[step_site] += reduction
            for rec in members:
                for bypass in rec.bypasses:
                    if bypass.reduction > 1e-9:
                        cut_table[bypass.chain][rec] = bypass.fixed
                for step_site, _ in rec.amp_steps:
                    amp_table[step_site].append(rec)

            best_ratio: float | None = None
            for candidate, gain in cut_gain.items():
                pairs = [pair for _, pair in keys_of(cut_table[candidate])]
                cost = max(
                    (len(candidate) - 1) * size(pairs) * prices.fiber_pair_span,
                    1e-9,
                )
                scored += 1
                if best_ratio is None or gain / cost > best_ratio:
                    best_ratio, chain = gain / cost, candidate
            for candidate, gain in amp_gain.items():
                ratio = gain / max(prices.amplifier, 1e-9)
                if best_ratio is None or ratio > best_ratio:
                    best_ratio, chain, site = ratio, None, candidate
            if best_ratio is None:
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

        # The path each chosen record's keys move to, with its record.
        if site is None:
            assert chain is not None
            targets = cut_table[chain]
        else:
            targets = {rec: rec.path.with_amp(site) for rec in amp_table[site]}
        moves = {rec: (path, record(path)) for rec, path in targets.items()}
        # Only the moved records lose keys and only their successors gain
        # some, so only the costs of the candidates they list go stale.
        for rec, (_, successor) in moves.items():
            for listed in (rec, successor):
                for bypass in listed.bypasses:
                    if bypass.resolves:
                        cut_costs.pop(bypass.chain, None)
                for listed_site in listed.amp_sites:
                    amp_costs.pop(listed_site, None)

        # Move the chosen records' keys, in violating order, and keep the
        # keys that still violate.
        remaining = []
        touched = []
        for key, rec in violating:
            move = moves.get(rec)
            if move is None:
                remaining.append((key, rec))
                continue
            current[key], successor = move
            touched.append(key)
            if successor.violates:
                remaining.append((key, successor))
        violating = remaining
        if site is None:
            link_users.setdefault(chain, set()).update(touched)
        else:
            for key in touched:
                scenario, pair = key
                amp_assignments[key] = site
                served[site][scenario].append(pair)
            needed = max(size(pairs) for pairs in served[site].values())
            sites[site] = max(sites[site], needed)
            # The site's demand and installed count changed.
            amp_costs.pop(site, None)

    obs.incr("cutthrough.paths_evaluated", len(records))
    obs.incr("cutthrough.rounds", rounds)
    obs.incr("cutthrough.costs_scored", scored)
    placed: list[CutThroughLink] = []
    for via, users in sorted(link_users.items()):
        length = sum(
            region.fiber_map.duct_length(u, v) for u, v in zip(via, via[1:])
        )
        placed.append(
            CutThroughLink(via=via, fiber_pairs=peak(users), length_km=length)
        )

    final_amps = AmplifierPlan(
        site_counts={k: v for k, v in sorted(sites.items()) if v > 0},
        assignments=amp_assignments,
    )
    return tuple(placed), current, final_amps
