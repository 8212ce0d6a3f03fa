"""Hose-model worst-case capacity via max-flow (§4.1, adapted from [29]).

Summing per-pair demands over an edge over-provisions: a DC in several pairs
would have its capacity double-counted. The precise answer is the maximum
flow of a bipartite "flow graph": source -> (egress side of each DC, capped
by its capacity) -> pair arcs -> (ingress side, capped) -> sink. The max flow
is the worst-case traffic any hose-compliant traffic matrix can push across
the edge.

Algorithm 1 sizes a child failure scenario only on the ducts whose pair
set differs from its parent scenario's (:mod:`repro.core.topology`), yet
sibling and cousin scenarios keep meeting the same sets, and Algorithm 2
and the cut-through greedy size sets of their own, so
:func:`hose_capacity` memoizes the value per (pair set, DC capacities) in
a bounded per-process cache; a miss solves from scratch
(:func:`_hose_max_flow`). Threads share the memo (the planner daemon's
workers do): a hit is a plain dict read, and a miss evicts and inserts
under the cache's own lock. The key holds the DC capacities, so a
resized DC's lookups miss rather than collide, and its old entries age
out through the FIFO bound.
"""

from __future__ import annotations

import os
import threading
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
    def cold_solves(self) -> int:
        """Misses solved from scratch, which is every miss (the benchmark
        suite still reports the solve split)."""
        return self.misses

    @property
    def incremental_solves(self) -> int:
        """Misses repaired from another solved instance: none."""
        return 0


def _hose_max_flow(
    pairs: Iterable[tuple[str, str]],
    caps: Mapping[str, int] | Iterable[tuple[str, int]],
) -> int:
    """Max flow of the bipartite hose graph, solved from scratch.

    The memo's solver and the tests' reference. Node model: the egress
    copy of each left DC (capped from the source), the ingress copy of
    each right DC (capped to the sink), and uncapacitated pair arcs
    between them, so only the flow on a pair arc can be cancelled. BFS
    augmenting paths run until none is left; capacities are small
    integers, so the augmentations are few and each BFS touches a
    handful of nodes.
    """
    cap_of = dict(caps)
    ordered = sorted(set(pairs))
    src_res = {a: cap_of[a] for a, _ in ordered}
    sink_res = {b: cap_of[b] for b in sorted({b for _, b in ordered})}
    flow = dict.fromkeys(ordered, 0)
    out_of: dict[str, list[str]] = {}
    into: dict[str, list[str]] = {}
    for a, b in ordered:
        out_of.setdefault(a, []).append(b)
        into.setdefault(b, []).append(a)
    total = 0
    while True:
        # BFS from the source through lefts with residual, to a right
        # with residual to the sink; track parents to augment.
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
                    if b in parent_right:
                        continue
                    parent_right[b] = a
                    if sink_res[b] > 0:
                        target = b
                        break
                    # Continue backwards through pair arcs carrying flow.
                    for a2 in into[b]:
                        if a2 not in parent_left and flow[(a2, b)] > 0:
                            parent_left[a2] = b
                            next_frontier.append(a2)
                if target is not None:
                    break
            frontier = next_frontier
        if target is None:
            return total

        # Walk back to find the bottleneck, then augment by it.
        path: list[tuple[str, str, int]] = []  # (left, right, +1 fwd / -1 back)
        b = target
        bottleneck = sink_res[b]
        while True:
            a = parent_right[b]
            path.append((a, b, 1))
            via = parent_left[a]
            if via is None:
                bottleneck = min(bottleneck, src_res[a])
                break
            path.append((a, via, -1))
            bottleneck = min(bottleneck, flow[(a, via)])
            b = via
        src_res[path[-1][0]] -= bottleneck  # the left fed from the source
        sink_res[target] -= bottleneck
        for a, b, sign in path:
            flow[(a, b)] += sign * bottleneck
        total += bottleneck


#: Memoized (pair set, capacities) -> value entries kept per process; past
#: it the oldest entry goes first (FIFO).
CACHE_MAXSIZE = 200_000


class _HoseCache:
    """Bounded per-process memo for the hose max-flow.

    A plain module-level ``lru_cache`` is *not* per-process-safe for the
    planner's worker pools: a forked worker inherits the parent's entries
    and counters, so cache statistics blur across processes and a
    long-lived sweep worker's cache grows without an owner to clear it.
    This cache pins the PID it was created in and resets itself on first
    use in any other process, giving every worker its own bounded cache
    and per-process hit/miss counters (:func:`hose_cache_stats`). The
    lock serializes the writers of one process (evict and insert on a
    miss); a forked worker builds a fresh cache, lock included, so a lock
    held at fork time cannot block it.
    """

    __slots__ = ("entries", "hits", "misses", "pid", "lock")

    def __init__(self) -> None:
        self.entries: dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0
        self.pid = os.getpid()
        self.lock = threading.Lock()


_cache = _HoseCache()


def _hose_cache() -> _HoseCache:
    global _cache
    if _cache.pid != os.getpid():
        _cache = _HoseCache()
    return _cache


def clear_hose_cache() -> None:
    """Drop all cached hose max-flows and reset the hit/miss counters.

    Long-lived sweep processes call this between regions to bound memory;
    tests call it to measure cache behaviour from a clean slate.
    """
    global _cache
    _cache = _HoseCache()


def hose_cache_stats() -> HoseCacheStats:
    """Current-process cache counters, over every thread's lookups.

    A process-wide view for tests and benchmarks; the planner counts its
    own lookups per job (:class:`~repro.core.engine.PlanTimings`). The
    hit path takes no lock, so hits looked up by several threads at once
    may be undercounted; a single thread's counts are exact.
    """
    cache = _hose_cache()
    return HoseCacheStats(
        hits=cache.hits,
        misses=cache.misses,
        size=len(cache.entries),
        maxsize=CACHE_MAXSIZE,
    )


def hose_capacity(
    oriented_pairs: Iterable[tuple[str, str]],
    dc_fibers: Mapping[str, int],
) -> int:
    """Worst-case hose load (in fibers) of a set of oriented DC pairs.

    ``oriented_pairs`` is the (left, right) list from
    :func:`oriented_pairs_through_edge`; ``dc_fibers`` the per-DC capacity.

    The planner calls this thousands of times on tiny bipartite graphs,
    so the value is memoized per process (see :func:`hose_cache_stats`);
    a miss solves from scratch.
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
            _record_lookup(value, hit=True)
        return value
    value = _hose_max_flow(key[0], caps)
    with cache.lock:
        cache.misses += 1
        if len(cache.entries) >= CACHE_MAXSIZE:
            # FIFO eviction: drop the oldest entry (dicts preserve
            # insertion order); the planner's access pattern is bursty per
            # scenario, so recency tracking buys nothing over this.
            cache.entries.pop(next(iter(cache.entries)))
        cache.entries[key] = value
    if obs.enabled():
        _record_lookup(value, hit=False)
    return value


def _record_lookup(value: int, hit: bool) -> None:
    """Trace one hose lookup (only called when tracing is enabled).

    ``hose.lookups`` and the ``hose.flow.fibers[...]`` distribution count
    every lookup, so their totals are invariant to chunking and worker
    count (each (edge, scenario) is looked up exactly once per plan); the
    hit/miss split depends on per-process cache warmth and is *not*
    expected to match across ``jobs=`` settings.
    """
    obs.incr("hose.lookups")
    obs.incr("hose.cache_hit" if hit else "hose.cache_miss")
    obs.incr(f"hose.flow.fibers[{obs.bucket_label(value)}]")


def naive_sum_capacity(
    oriented_pairs: Iterable[tuple[str, str]],
    dc_fibers: Mapping[str, int],
) -> int:
    """The naive per-pair sum the paper warns against (for comparison only).

    Sums min(cap_a, cap_b) over pairs; over-counts DCs that appear in
    several pairs. Always >= :func:`hose_capacity`.
    """
    return sum(min(dc_fibers[a], dc_fibers[b]) for a, b in oriented_pairs)
