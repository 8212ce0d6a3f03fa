"""Hose-model max-flow capacity (§4.1, [29]) and its per-process memo."""

import random
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.core import hose
from repro.core.hose import (
    _hose_max_flow,
    clear_hose_cache,
    hose_cache_stats,
    hose_capacity,
    naive_sum_capacity,
    oriented_pairs_through_edge,
)
from repro.region.fibermap import duct_key


class TestOrientedPairs:
    def test_trunk_carries_cross_pairs(self, toy_map):
        paths = {}
        for a, b in toy_map.dc_pairs():
            _, p = toy_map.shortest_path(a, b)
            paths[(a, b)] = tuple(p)
        oriented = oriented_pairs_through_edge(("H1", "H2"), paths)
        # Exactly the four cross pairs, oriented left-to-right.
        assert sorted(oriented) == [
            ("DC1", "DC3"),
            ("DC1", "DC4"),
            ("DC2", "DC3"),
            ("DC2", "DC4"),
        ]

    def test_spoke_carries_three_pairs(self, toy_map):
        paths = {}
        for a, b in toy_map.dc_pairs():
            _, p = toy_map.shortest_path(a, b)
            paths[(a, b)] = tuple(p)
        oriented = oriented_pairs_through_edge(("DC1", "H1"), paths)
        assert sorted(oriented) == [
            ("DC1", "DC2"),
            ("DC1", "DC3"),
            ("DC1", "DC4"),
        ]

    def test_orientation_flips_with_direction(self):
        paths = {("A", "B"): ("B", "X", "A")}  # stored reversed
        oriented = oriented_pairs_through_edge(("A", "X"), paths)
        # The pair key's path runs B->A, crossing X->A, i.e. from B's side.
        assert oriented == [("B", "A")]


def _oriented_pairs_hop_by_hop(edge, paths):
    """The per-hop reference: canonicalize every hop until one is ``edge``."""
    out = []
    for (a, b), path in paths.items():
        for x, y in zip(path, path[1:]):
            if duct_key(x, y) == edge:
                out.append((a, b) if (x, y) == edge else (b, a))
                break
    return out


_NODES = ("A", "B", "C", "D", "E", "F")
_simple_paths = st.permutations(_NODES).flatmap(
    lambda order: st.integers(min_value=2, max_value=len(order)).map(
        lambda k: tuple(order[:k])
    )
)


class TestOrientedPairsMatchesHopScan:
    @given(
        paths=st.dictionaries(
            keys=st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES)),
            values=_simple_paths,
            max_size=8,
        ),
        ends=st.lists(st.sampled_from(_NODES), min_size=2, max_size=2, unique=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_pairs_in_same_order(self, paths, ends):
        edge = duct_key(*ends)
        assert oriented_pairs_through_edge(
            edge, paths
        ) == _oriented_pairs_hop_by_hop(edge, paths)


class TestHoseCapacity:
    def test_toy_trunk_is_twenty(self, toy_region):
        # §3.4: "L5 carries 20 fiber-pairs, such that the network is
        # non-blocking" — not the naive 4 x 10 = 40.
        pairs = [("DC1", "DC3"), ("DC1", "DC4"), ("DC2", "DC3"), ("DC2", "DC4")]
        assert hose_capacity(pairs, toy_region.dc_fibers) == 20
        assert naive_sum_capacity(pairs, toy_region.dc_fibers) == 40

    def test_spoke_is_dc_capacity(self, toy_region):
        pairs = [("DC1", "DC2"), ("DC1", "DC3"), ("DC1", "DC4")]
        # DC1's egress caps everything at 10 despite 3 x 10 naive.
        assert hose_capacity(pairs, toy_region.dc_fibers) == 10

    def test_empty_pairs(self, toy_region):
        assert hose_capacity([], toy_region.dc_fibers) == 0

    def test_single_pair_is_min_capacity(self):
        assert hose_capacity([("A", "B")], {"A": 4, "B": 9}) == 4

    def test_asymmetric_capacities(self):
        # A (2) sends to both B and C; D sends to B only.
        pairs = [("A", "B"), ("A", "C"), ("D", "B")]
        caps = {"A": 2, "B": 5, "C": 5, "D": 7}
        # D->B is capped by B's ingress (5); A routes its 2 to C: total 7.
        assert hose_capacity(pairs, caps) == 7

    def test_ingress_bottleneck(self):
        pairs = [("A", "C"), ("B", "C")]
        caps = {"A": 8, "B": 8, "C": 5}
        assert hose_capacity(pairs, caps) == 5

    @given(
        caps=st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=6)
    )
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_naive(self, caps):
        dcs = {f"D{i}": c for i, c in enumerate(caps)}
        names = sorted(dcs)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        assert hose_capacity(pairs, dcs) <= naive_sum_capacity(pairs, dcs)

    @given(
        caps=st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=6)
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_side_sums(self, caps):
        dcs = {f"D{i}": c for i, c in enumerate(caps)}
        names = sorted(dcs)
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        value = hose_capacity(pairs, dcs)
        egress = sum(dcs[a] for a in {a for a, _ in pairs})
        ingress = sum(dcs[b] for b in {b for _, b in pairs})
        assert value <= min(egress, ingress)


class TestMemoParity:
    """Memoized lookups must equal from-scratch solves.

    :func:`hose_capacity` serves repeated instances from the per-process
    memo; ``_hose_max_flow`` is the uncached reference solver. Equality
    on randomized, failure-scenario-shaped mutation sequences checks that
    the memo key identifies an instance completely.
    """

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_scenarios=st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_memo_equals_cold(self, seed, n_scenarios):
        rng = random.Random(seed)
        names = list("ABCDEFGH")
        caps = {n: rng.randint(1, 12) for n in names}
        all_pairs = [(a, b) for a in names for b in names if a != b]
        base = rng.sample(all_pairs, rng.randint(2, 20))

        clear_hose_cache()
        for _ in range(n_scenarios):
            # Failure-scenario-shaped mutation: drop/add a few pairs.
            pairs = set(base)
            for _ in range(rng.randint(0, 4)):
                if pairs and rng.random() < 0.5:
                    pairs.discard(rng.choice(sorted(pairs)))
                else:
                    pairs.add(rng.choice(all_pairs))
            ordered = sorted(pairs)
            assert hose_capacity(ordered, caps) == _hose_max_flow(
                ordered, caps
            )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_changed_capacities_never_reuse_stale_caps(self, seed):
        """The DC capacities are part of the memo key, so re-solving the
        same pair sets under different caps stays exact."""
        rng = random.Random(seed)
        names = list("ABCDE")
        all_pairs = [(a, b) for a in names for b in names if a != b]
        base = rng.sample(all_pairs, rng.randint(2, 10))

        clear_hose_cache()
        for _ in range(4):
            caps = {n: rng.randint(1, 10) for n in names}
            pairs = sorted(rng.sample(base, rng.randint(1, len(base))))
            assert hose_capacity(pairs, caps) == _hose_max_flow(pairs, caps)


class TestCacheConfiguration:
    def test_stats_expose_solve_split_and_bounds(self):
        clear_hose_cache()
        caps = {n: 3 for n in "ABC"}
        hose_capacity([("A", "B"), ("A", "C")], caps)
        hose_capacity([("A", "B"), ("A", "C")], caps)
        hose_capacity([("B", "C")], caps)
        stats = hose_cache_stats()
        # Every miss is solved from scratch; nothing is repaired.
        assert stats.cold_solves == stats.misses == 2
        assert stats.incremental_solves == 0
        assert stats.maxsize == hose.CACHE_MAXSIZE == 200_000

    def test_memo_is_fifo_bounded(self, monkeypatch):
        monkeypatch.setattr(hose, "CACHE_MAXSIZE", 4)
        clear_hose_cache()
        caps = {n: 3 for n in "ABCDE"}
        names = sorted(caps)
        singles = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        for pair in singles:
            hose_capacity([pair], caps)
        stats = hose_cache_stats()
        assert (stats.size, stats.maxsize, stats.misses) == (4, 4, 10)
        # The oldest entries went first: the newest four still hit.
        for pair in singles[-4:]:
            hose_capacity([pair], caps)
        assert hose_cache_stats().hits == 4
        hose_capacity([singles[0]], caps)
        assert hose_cache_stats().misses == 11
        clear_hose_cache()


    def test_threads_evicting_at_once_never_raise(self, monkeypatch):
        """Four threads of distinct lookups keep a 4-entry memo evicting:
        each miss evicts and inserts under the cache's lock."""
        monkeypatch.setattr(hose, "CACHE_MAXSIZE", 4)
        clear_hose_cache()
        errors: list[BaseException] = []

        def lookups(thread):
            try:
                for n in range(20_000):
                    caps = {"A": 1 + n, "B": thread + 1}
                    assert hose_capacity([("A", "B")], caps) == min(
                        n + 1, thread + 1
                    )
            except BaseException as exc:  # collected, asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=lookups, args=(t,)) for t in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: races show
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert hose_cache_stats().size <= 4
        clear_hose_cache()


class TestSolverAgainstNetworkx:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_pairs=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx_maxflow(self, seed, n_pairs):
        """The specialized augmenting-path solver agrees with a general
        max-flow on random bipartite hose instances."""
        import math
        import random

        import networkx as nx

        rng = random.Random(seed)
        names = list("ABCDEF")
        caps = {n: rng.randint(1, 10) for n in names}
        all_pairs = [(a, b) for a in names for b in names if a != b]
        pairs = rng.sample(all_pairs, min(n_pairs, len(all_pairs)))

        if pairs:
            g = nx.DiGraph()
            for a, b in pairs:
                g.add_edge("S", ("L", a), capacity=caps[a])
                g.add_edge(("R", b), "T", capacity=caps[b])
                g.add_edge(("L", a), ("R", b), capacity=math.inf)
            expected = int(nx.maximum_flow(g, "S", "T")[0])
        else:
            expected = 0
        assert hose_capacity(pairs, caps) == expected
