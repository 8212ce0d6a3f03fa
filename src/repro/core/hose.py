"""Hose-model worst-case capacity via max-flow (§4.1, adapted from [29]).

Summing per-pair demands over an edge over-provisions: a DC in several pairs
would have its capacity double-counted. The precise answer is the maximum
flow of a bipartite "flow graph": source -> (egress side of each DC, capped
by its capacity) -> pair arcs -> (ingress side, capped) -> sink. The max flow
is the worst-case traffic any hose-compliant traffic matrix can push across
the edge.

Incremental solving
-------------------

A single region plan asks for tens of thousands of these max-flows, and
successive failure scenarios differ by only ``tolerance`` duct cuts, so the
pair set an edge carries in one scenario is usually a small perturbation of
the pair set it carried in another. The solver exploits this: alongside the
value memo it keeps the *residual networks* of recently solved instances,
indexed by the pairs they contain. A lookup that misses the value memo is
repaired from the best-overlapping stored residual — cancel the flow on
removed pair arcs, splice in the added arcs, re-augment to maximality —
instead of solving from scratch. Max-flow values are unique (even though
flows are not), so an incremental solve returns exactly the value a cold
solve would, and the two are interchangeable under the same cache key;
property tests assert this on randomized instances. Cold solves
(:func:`hose_cache_stats` ``.cold_solves``, obs counter
``hose.solve_cold``) drop ~10x on the golden region.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro import obs
from repro.region.fibermap import Duct


def oriented_pairs_through_edge(
    edge: Duct, paths: Mapping[tuple[str, str], Sequence[str]]
) -> list[tuple[str, str]]:
    """DC pairs whose path traverses ``edge``, oriented along the traversal.

    Returns (left, right) per pair, in ``paths`` order, where the path
    crosses the edge from the ``left`` DC's side toward the ``right`` DC's
    side. With symmetric demands the reverse orientation is the mirror
    image, so one orientation suffices for capacity. Paths must be simple
    (no repeated node), as shortest paths are: the edge is then crossed at
    most once, next to the only visit of its low endpoint.
    """
    low, high = edge
    out: list[tuple[str, str]] = []
    for (a, b), path in paths.items():
        if low not in path:
            continue
        i = path.index(low)
        # The canonical key is (min, max), so a crossing from ``low`` to
        # ``high`` runs along the a->b direction of the path.
        if i + 1 < len(path) and path[i + 1] == high:
            out.append((a, b))
        elif i > 0 and path[i - 1] == high:
            out.append((b, a))
    return out


@dataclass(frozen=True)
class HoseCacheStats:
    """A snapshot of the per-process hose max-flow cache counters."""

    hits: int
    misses: int
    size: int
    maxsize: int
    cold_solves: int = 0
    incremental_solves: int = 0
    states: int = 0
    state_maxsize: int = 0

    @property
    def lookups(self) -> int:
        """Total cache lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    @property
    def incremental_rate(self) -> float:
        """Fraction of misses repaired incrementally rather than solved cold."""
        if not self.misses:
            return 0.0
        return self.incremental_solves / self.misses


class _FlowState:
    """A solved hose flow graph: the residual network plus its max flow.

    Stored per cache entry so later, slightly different instances can be
    *repaired* from it (see :func:`_repair`) instead of solved from
    scratch. All residuals are integers except the infinite forward pair
    arcs.
    """

    __slots__ = (
        "pairs", "caps", "src_res", "sink_res", "fwd", "rev",
        "out_of", "into", "total", "seq",
    )

    def __init__(
        self,
        pairs: frozenset[tuple[str, str]],
        caps: dict[str, int],
    ) -> None:
        self.pairs = pairs
        self.caps = caps
        lefts = sorted({a for a, _ in pairs})
        rights = sorted({b for _, b in pairs})
        self.src_res: dict[str, float] = {a: caps[a] for a in lefts}
        self.sink_res: dict[str, float] = {b: caps[b] for b in rights}
        ordered = sorted(pairs)
        self.fwd: dict[tuple[str, str], float] = {p: math.inf for p in ordered}
        self.rev: dict[tuple[str, str], float] = {p: 0.0 for p in ordered}
        self.out_of: dict[str, list[str]] = {
            a: [b for (x, b) in ordered if x == a] for a in lefts
        }
        self.into: dict[str, list[str]] = {
            b: [a for (a, y) in ordered if y == b] for b in rights
        }
        self.total = 0
        self.seq = 0

    def clone(self) -> "_FlowState":
        """A mutation-safe copy (the stored state stays reusable)."""
        new = _FlowState.__new__(_FlowState)
        new.pairs = self.pairs
        new.caps = dict(self.caps)
        new.src_res = dict(self.src_res)
        new.sink_res = dict(self.sink_res)
        new.fwd = dict(self.fwd)
        new.rev = dict(self.rev)
        new.out_of = {a: list(bs) for a, bs in self.out_of.items()}
        new.into = {b: list(a_s) for b, a_s in self.into.items()}
        new.total = self.total
        new.seq = 0
        return new


def _augment(state: _FlowState) -> None:
    """Push BFS augmenting paths until ``state`` holds a *maximum* flow.

    Node model: egress copy of each left DC (cap from source), ingress copy
    of each right DC (cap to sink), infinite pair arcs. Capacities are small
    integers, so the number of augmentations is bounded by the total DC
    capacity and each BFS touches only a handful of nodes. Starting from a
    feasible (repaired) flow instead of the zero flow only shortens the
    loop — maximality, and hence the returned value, is unaffected.
    """
    src_res, sink_res = state.src_res, state.sink_res
    fwd, rev = state.fwd, state.rev
    out_of, into = state.out_of, state.into
    while True:
        # BFS from source through lefts with residual, to a right with
        # residual to sink; track parents to augment.
        parent_right: dict[str, str] = {}
        parent_left: dict[str, str | None] = {
            a: None for a, res in src_res.items() if res > 0
        }
        frontier = list(parent_left)
        target = None
        while frontier and target is None:
            next_frontier = []
            for a in frontier:
                for b in out_of[a]:
                    if b in parent_right or fwd[(a, b)] <= 0:
                        continue
                    parent_right[b] = a
                    if sink_res[b] > 0:
                        target = b
                        break
                    # Continue through reverse pair arcs (rarely needed
                    # with infinite forward arcs, kept for correctness).
                    for a2 in into[b]:
                        if a2 not in parent_left and rev[(a2, b)] > 0:
                            parent_left[a2] = b
                            next_frontier.append(a2)
                if target is not None:
                    break
            frontier = next_frontier
        if target is None:
            return

        # Walk back to find the bottleneck, then augment by it.
        path: list[tuple[str, str, bool]] = []  # (left, right, forward?)
        b = target
        bottleneck = sink_res[b]
        while True:
            a = parent_right[b]
            path.append((a, b, True))
            bottleneck = min(bottleneck, fwd[(a, b)])
            via = parent_left[a]
            if via is None:
                bottleneck = min(bottleneck, src_res[a])
                break
            path.append((a, via, False))
            bottleneck = min(bottleneck, rev[(a, via)])
            b = via
        bottleneck = int(bottleneck)
        first_left = path[-1][0]  # the left node fed from the source
        src_res[first_left] -= bottleneck
        sink_res[target] -= bottleneck
        for a, b, forward in path:
            if forward:
                fwd[(a, b)] -= bottleneck
                rev[(a, b)] += bottleneck
            else:
                fwd[(a, b)] += bottleneck
                rev[(a, b)] -= bottleneck
        state.total += bottleneck


def _solve_cold(
    pairs: frozenset[tuple[str, str]], caps: dict[str, int]
) -> _FlowState:
    """Solve one hose instance from scratch (zero flow, then augment)."""
    state = _FlowState(pairs, caps)
    _augment(state)
    return state


def _repair(
    base: _FlowState,
    pairs: frozenset[tuple[str, str]],
    caps: dict[str, int],
) -> _FlowState:
    """Repair a solved instance into one with a different pair set.

    Three steps, each preserving flow feasibility:

    1. cancel — for every pair arc the new instance lacks, return its flow
       to the source/sink residuals and drop the arc;
    2. splice — add the new instance's missing pair arcs (and any DC copies
       they introduce, capped per ``caps``);
    3. re-augment to maximality.

    The value of a maximum flow is unique, so the repaired total equals a
    cold solve's exactly. Callers must ensure shared DCs have the same
    capacity in ``base`` and ``caps`` (see :func:`_repair_source`).
    """
    state = base.clone()
    removed = sorted(state.pairs - pairs)
    added = sorted(pairs - state.pairs)

    for a, b in removed:
        flow = int(state.rev.pop((a, b)))
        del state.fwd[(a, b)]
        state.out_of[a].remove(b)
        state.into[b].remove(a)
        if flow:
            state.total -= flow
            state.src_res[a] += flow
            state.sink_res[b] += flow
        if not state.out_of[a]:
            del state.out_of[a]
            del state.src_res[a]
        if not state.into[b]:
            del state.into[b]
            del state.sink_res[b]

    for a, b in added:
        if a not in state.src_res:
            state.src_res[a] = caps[a]
            state.out_of[a] = []
        if b not in state.sink_res:
            state.sink_res[b] = caps[b]
            state.into[b] = []
        state.fwd[(a, b)] = math.inf
        state.rev[(a, b)] = 0.0
        state.out_of[a].append(b)
        state.into[b].append(a)

    state.pairs = pairs
    state.caps = dict(caps)
    _augment(state)
    return state


#: Default bound on memoized (pair-set, capacities) -> value entries.
_DEFAULT_MAXSIZE = 200_000
#: Default bound on retained residual networks (the incremental substrate).
_DEFAULT_STATE_MAXSIZE = 4_096
#: Environment fallbacks, read when the cache is (re)built; an explicit
#: :func:`configure_hose_cache` call wins over the environment.
MAXSIZE_ENV = "REPRO_HOSE_CACHE_MAXSIZE"
STATE_MAXSIZE_ENV = "REPRO_HOSE_STATE_MAXSIZE"
#: Stored residuals examined per requested pair when picking a repair
#: source (most recent first); bounds repair-candidate scanning.
_CANDIDATES_PER_PAIR = 8
#: Stored residuals remembered per pair in the index.
_INDEX_PER_PAIR = 32


def _env_size(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(0, value)


class _HoseCache:
    """Bounded per-process memo + residual store for the hose max-flow.

    A plain module-level ``lru_cache`` is *not* per-process-safe for the
    planner's worker pools: a forked worker inherits the parent's entries
    and counters, so cache statistics blur across processes and a
    long-lived sweep worker's cache grows without an owner to clear it.
    This cache pins the PID it was created in and resets itself on first
    use in any other process, giving every worker its own bounded cache
    and accurate per-process hit/miss counters (which the planner's
    :class:`~repro.core.engine.PlanTimings` aggregates).

    Beyond the value memo (``entries``), the cache retains the residual
    networks of up to ``state_maxsize`` solved instances (``states``) and
    an inverted index from each oriented pair to the instances containing
    it (``index``), so a value miss can usually be repaired from a
    neighbouring solved instance instead of solved cold.
    """

    __slots__ = (
        "entries", "states", "index", "hits", "misses",
        "cold_solves", "incremental_solves", "maxsize", "state_maxsize",
        "seq", "pid",
    )

    def __init__(self, maxsize: int, state_maxsize: int) -> None:
        self.entries: dict[tuple, int] = {}
        self.states: dict[tuple, _FlowState] = {}
        self.index: dict[tuple[str, str], dict[tuple, None]] = {}
        self.hits = 0
        self.misses = 0
        self.cold_solves = 0
        self.incremental_solves = 0
        self.maxsize = maxsize
        self.state_maxsize = state_maxsize
        self.seq = 0
        self.pid = os.getpid()

    def store_state(self, key: tuple, state: _FlowState) -> None:
        """Retain a solved residual for future repairs (FIFO-bounded)."""
        if self.state_maxsize <= 0:
            return
        if len(self.states) >= self.state_maxsize:
            old_key = next(iter(self.states))
            old = self.states.pop(old_key)
            for pair in sorted(old.pairs):
                bucket = self.index.get(pair)
                if bucket is not None:
                    bucket.pop(old_key, None)
                    if not bucket:
                        del self.index[pair]
        self.seq += 1
        state.seq = self.seq
        self.states[key] = state
        for pair in sorted(state.pairs):
            bucket = self.index.setdefault(pair, {})
            bucket[key] = None
            while len(bucket) > _INDEX_PER_PAIR:
                bucket.pop(next(iter(bucket)))

    def repair_source(
        self,
        pairs: frozenset[tuple[str, str]],
        cap_of: dict[str, int],
    ) -> _FlowState | None:
        """The best stored residual to repair the requested instance from.

        Candidates come from the per-pair index (most recent first, a few
        per pair); the winner maximizes shared pairs minus pairs to cancel
        and must agree with ``cap_of`` on every DC it shares with the
        request. Returns ``None`` when nothing overlaps — the cold path.
        Selection is deterministic: ties break toward the most recently
        stored state, and every structure scanned preserves insertion
        order.
        """
        best: _FlowState | None = None
        best_score: tuple[int, int] | None = None
        seen: set[tuple] = set()
        for pair in sorted(pairs):
            bucket = self.index.get(pair)
            if not bucket:
                continue
            recent = list(bucket)[-_CANDIDATES_PER_PAIR:]
            for key in recent:
                if key in seen:
                    continue
                seen.add(key)
                state = self.states.get(key)
                if state is None:
                    del bucket[key]  # evicted state, stale index entry
                    continue
                compatible = True
                for dc, cap in state.caps.items():
                    if dc in cap_of and cap_of[dc] != cap:
                        compatible = False
                        break
                if not compatible:
                    continue
                overlap = len(state.pairs & pairs)
                score = (2 * overlap - len(state.pairs), state.seq)
                if best_score is None or score > best_score:
                    best, best_score = state, score
        return best


def _default_cache() -> _HoseCache:
    return _HoseCache(
        _env_size(MAXSIZE_ENV, _DEFAULT_MAXSIZE),
        _env_size(STATE_MAXSIZE_ENV, _DEFAULT_STATE_MAXSIZE),
    )


_cache = _default_cache()


def _hose_cache() -> _HoseCache:
    global _cache
    if _cache.pid != os.getpid():
        _cache = _default_cache()
    return _cache


def configure_hose_cache(
    *, maxsize: int | None = None, state_maxsize: int | None = None
) -> None:
    """Rebuild the current process's hose cache with new bounds.

    ``maxsize``
        Value-memo entries retained (default 200k). ``None`` keeps the
        current bound.
    ``state_maxsize``
        Residual networks retained for incremental repair (default 4096).
        ``0`` disables incremental solving entirely — every miss solves
        cold — which is how the parity tests cross-check the repaired
        values.

    Explicit arguments win over the ``REPRO_HOSE_CACHE_MAXSIZE`` /
    ``REPRO_HOSE_STATE_MAXSIZE`` environment fallbacks, which are read
    whenever a fresh cache is built (process start, fork, or
    :func:`clear_hose_cache`). The cache is dropped and its counters
    reset, exactly as :func:`clear_hose_cache` does.
    """
    global _cache
    current = _hose_cache()
    _cache = _HoseCache(
        current.maxsize if maxsize is None else max(0, maxsize),
        current.state_maxsize if state_maxsize is None else max(0, state_maxsize),
    )


def clear_hose_cache() -> None:
    """Drop all cached hose max-flows and reset the hit/miss counters.

    Long-lived sweep processes call this between regions to bound memory;
    tests call it to measure cache behaviour from a clean slate. Bounds
    are re-read from the environment fallbacks (see
    :func:`configure_hose_cache`).
    """
    global _cache
    _cache = _default_cache()


def invalidate_hose_dcs(dcs: Iterable[str]) -> int:
    """Drop every cached hose instance that involves any DC in ``dcs``.

    Correctness never requires this: the memo keys every instance by its
    DC *capacities* as well as its pair set (see :func:`hose_capacity`),
    so a resized DC's lookups miss — rather than collide — by
    construction. What stale entries do cost is memory and repair-candidate
    quality in a long-lived process: once a DC detaches or resizes, its
    old-capacity instances can never be requested again, yet they occupy
    memo slots and keep surfacing as incompatible repair candidates. The
    planner service calls this when applying ``dc_detached``/``dc_resized``
    deltas. Returns the number of value entries dropped.
    """
    targets = {str(dc) for dc in dcs}
    if not targets:
        return 0
    cache = _hose_cache()
    dead_entries = [
        key
        for key in cache.entries
        if any(dc in targets for dc, _cap in key[1])
    ]
    for key in dead_entries:
        del cache.entries[key]
    dead_states = [
        key
        for key, state in cache.states.items()
        if any(dc in targets for dc in state.caps)
    ]
    for key in dead_states:
        state = cache.states.pop(key)
        for pair in sorted(state.pairs):
            bucket = cache.index.get(pair)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del cache.index[pair]
    return len(dead_entries)


def hose_cache_stats() -> HoseCacheStats:
    """Current-process cache counters (the engine's hit-rate hook)."""
    cache = _hose_cache()
    return HoseCacheStats(
        hits=cache.hits,
        misses=cache.misses,
        size=len(cache.entries),
        maxsize=cache.maxsize,
        cold_solves=cache.cold_solves,
        incremental_solves=cache.incremental_solves,
        states=len(cache.states),
        state_maxsize=cache.state_maxsize,
    )


def hose_capacity(
    oriented_pairs: Iterable[tuple[str, str]],
    dc_fibers: Mapping[str, int],
) -> int:
    """Worst-case hose load (in fibers) of a set of oriented DC pairs.

    ``oriented_pairs`` is the (left, right) list from
    :func:`oriented_pairs_through_edge`; ``dc_fibers`` the per-DC capacity.

    The planner calls this tens of thousands of times on tiny bipartite
    graphs, so the computation is memoized (per process, see
    :func:`hose_cache_stats`) and, on a memo miss, repaired incrementally
    from the nearest previously solved instance when one overlaps (see the
    module docstring); only instances with no solved neighbour pay a cold
    solve.
    """
    pairs = frozenset(oriented_pairs)
    if not pairs:
        return 0
    dcs = {dc for pair in pairs for dc in pair}
    caps = tuple(sorted((dc, dc_fibers[dc]) for dc in dcs))
    key = (tuple(sorted(pairs)), caps)
    cache = _hose_cache()
    value = cache.entries.get(key)
    if value is not None:
        cache.hits += 1
        if obs.enabled():
            _record_lookup(value, outcome="hit")
        return value
    cache.misses += 1
    cap_of = dict(caps)
    base = cache.repair_source(pairs, cap_of)
    if base is None:
        state = _solve_cold(pairs, cap_of)
        cache.cold_solves += 1
        outcome = "cold"
    else:
        state = _repair(base, pairs, cap_of)
        cache.incremental_solves += 1
        outcome = "incremental"
    value = state.total
    if len(cache.entries) >= cache.maxsize:
        # FIFO eviction: drop the oldest entry (dicts preserve insertion
        # order); the planner's access pattern is bursty per scenario, so
        # recency tracking buys nothing over this.
        cache.entries.pop(next(iter(cache.entries)))
    cache.entries[key] = value
    cache.store_state(key, state)
    if obs.enabled():
        _record_lookup(value, outcome=outcome)
    return value


def _record_lookup(value: int, outcome: str) -> None:
    """Trace one hose lookup (only called when tracing is enabled).

    ``hose.lookups`` and the ``hose.flow.fibers[...]`` distribution count
    every lookup, so their totals are invariant to chunking and worker
    count (each (edge, scenario) is looked up exactly once per plan); the
    hit/miss and cold/incremental splits depend on per-process cache
    warmth and are *not* expected to match across ``jobs=`` settings.
    """
    obs.incr("hose.lookups")
    if outcome == "hit":
        obs.incr("hose.cache_hit")
    else:
        obs.incr("hose.cache_miss")
        obs.incr(
            "hose.solve_cold" if outcome == "cold" else "hose.solve_incremental"
        )
    obs.incr(f"hose.flow.fibers[{obs.bucket_label(value)}]")


def _hose_max_flow(
    pairs: tuple[tuple[str, str], ...],
    caps: tuple[tuple[str, int], ...],
) -> int:
    """Max flow of the bipartite hose graph, solved from scratch.

    The uncached, non-incremental reference solver: the parity suite
    checks every incremental result against it, and it remains the
    canonical definition of the hose capacity.
    """
    return _solve_cold(frozenset(pairs), dict(caps)).total


def naive_sum_capacity(
    oriented_pairs: Iterable[tuple[str, str]],
    dc_fibers: Mapping[str, int],
) -> int:
    """The naive per-pair sum the paper warns against (for comparison only).

    Sums min(cap_a, cap_b) over pairs; over-counts DCs that appear in
    several pairs. Always >= :func:`hose_capacity`.
    """
    return sum(min(dc_fibers[a], dc_fibers[b]) for a, b in oriented_pairs)
